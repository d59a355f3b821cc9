"""Finite world models: forcing, monotonicity, the two readings."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ctkernel import worlds
from ctkernel.worlds import (
    Atom, HypForced, ModelError, RuleValid, WorldModel, chain_model,
    check_monotone, forces, parse_model, parse_wjudgment, random_model,
    render_wjudgment,
)

A, B = Atom("A"), Atom("B")


class TestChainModel:
    def test_rule_vacuously_valid_below(self):
        m = chain_model()
        assert forces(m, "u", RuleValid(A, B)) is True

    def test_rule_fails_above(self):
        m = chain_model()
        assert forces(m, "v", RuleValid(A, B)) is False

    def test_hypothetical_sees_the_future(self):
        m = chain_model()
        assert forces(m, "u", HypForced(A, B)) is False

    def test_monotonicity_counterexample_for_rule(self):
        assert check_monotone(chain_model(), RuleValid(A, B)) == ("u", "v")

    def test_hypothetical_monotone(self):
        assert check_monotone(chain_model(), HypForced(A, B)) is None

    def test_atoms_monotone_by_construction(self):
        m = chain_model()
        assert check_monotone(m, A) is None
        assert check_monotone(m, B) is None
        assert forces(m, "v", A) and not forces(m, "u", A)


class TestModelConstruction:
    def test_tokens_close_upward(self):
        m = WorldModel.build(["a", "b", "c"], [("a", "b"), ("b", "c")],
                             ["X"], [("a", "X", "t")])
        assert m.tokens("c", "X") == frozenset({"t"})

    def test_order_closes_transitively(self):
        m = WorldModel.build(["a", "b", "c"], [("a", "b"), ("b", "c")], [], [])
        assert m.leq("a", "c")

    def test_cycles_rejected(self):
        with pytest.raises(ModelError, match="antisymmetric"):
            WorldModel.build(["a", "b"], [("a", "b"), ("b", "a")], [], [])

    def test_unknown_names_rejected(self):
        with pytest.raises(ModelError):
            WorldModel.build(["a"], [("a", "zz")], [], [])
        with pytest.raises(ModelError):
            WorldModel.build(["a"], [], ["X"], [("a", "Y", "t")])

    def test_unknown_atom_in_forces(self):
        with pytest.raises(ModelError, match="unknown atom"):
            forces(chain_model(), "u", Atom("Z"))


class TestModelFiles:
    MODEL = """
# the two-world chain
world u
world v
order u v
atom A
atom B
verify v A t0
"""

    def test_parse_model(self):
        m = parse_model(self.MODEL)
        assert m.worlds == ("u", "v")
        assert m.leq("u", "v")
        assert m.tokens("v", "A") == frozenset({"t0"})
        assert m.tokens("u", "A") == frozenset()

    def test_parse_model_bad_directive(self):
        with pytest.raises(ModelError, match="line 2"):
            parse_model("world u\nverifyy u A t\n")

    def test_judgment_syntax(self):
        j = parse_wjudgment("hyp (rule A B) C")
        assert j == HypForced(RuleValid(A, B), Atom("C"))
        assert parse_wjudgment(render_wjudgment(j)) == j
        with pytest.raises(ValueError):
            parse_wjudgment("rule A")

    def test_cycle_named_whatever_the_hash_seed(self):
        # a <= b <= c <= a names its first offending pair in the order of
        # the worlds, under every string hash seed
        code = ("from ctkernel.worlds import ModelError, parse_model\n"
                "try:\n"
                "    parse_model('world a\\nworld b\\nworld c\\n"
                "order a b\\norder b c\\norder c a\\n')\n"
                "except ModelError as exc:\n"
                "    print(exc)\n")
        src = Path(worlds.__file__).resolve().parent.parent
        messages = {
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": str(src),
                                "PYTHONHASHSEED": str(seed)}).stdout
            for seed in range(5)}
        assert messages == {"order is not antisymmetric: a <= b <= a\n"}


class TestRandomModels:
    def test_hypothetical_always_monotone(self):
        rng = random.Random(99)
        for _ in range(200):
            m = random_model(rng)
            for a in m.atoms:
                for b in m.atoms:
                    assert check_monotone(m, HypForced(Atom(a), Atom(b))) is None

    def test_nested_hypotheticals_monotone(self):
        rng = random.Random(5)
        for _ in range(60):
            m = random_model(rng)
            a, b = m.atoms[0], m.atoms[-1]
            j = HypForced(RuleValid(Atom(a), Atom(b)), Atom(b))
            assert check_monotone(m, HypForced(Atom(a), j)) is None

    def test_rule_validity_counterexample_exists(self):
        rng = random.Random(99)
        found = 0
        for _ in range(200):
            m = random_model(rng)
            for a in m.atoms:
                for b in m.atoms:
                    if check_monotone(m, RuleValid(Atom(a), Atom(b))) is not None:
                        found += 1
        assert found >= 1

    def test_consequent_tokens_never_break_hypotheticals(self):
        # adding verifications of the conclusion can only help
        rng = random.Random(7)
        for _ in range(80):
            m = random_model(rng)
            a, b = m.atoms[0], m.atoms[-1]
            j = HypForced(Atom(a), Atom(b))
            before = {w: forces(m, w, j) for w in m.worlds}
            extra_world = rng.choice(m.worlds)
            richer = WorldModel.build(
                m.worlds,
                [(u, v) for (u, v) in m.order if u != v],
                m.atoms,
                [(w, atom, tok)
                 for (w, atom), toks in m.verifications.items()
                 for tok in toks] + [(extra_world, b, "extra")],
            )
            for w in m.worlds:
                if before[w]:
                    assert forces(richer, w, j)


def fixpoint_order(worlds, pairs):
    """The reflexive-transitive closure of ``pairs`` by the fixpoint over
    all pairs of pairs that ``WorldModel.build`` once ran: the reference."""
    relation = {(w, w) for w in worlds} | {tuple(p) for p in pairs}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(relation):
            for (c, d) in list(relation):
                if b == c and (a, d) not in relation:
                    relation.add((a, d))
                    changed = True
    return relation


class TestOrderClosure:
    def test_random_models_close_as_the_fixpoint(self, monkeypatch):
        calls = []
        real = WorldModel.build

        def spy(worlds, pairs, atoms, tokens):
            calls.append((list(worlds), list(pairs)))
            return real(worlds, pairs, atoms, tokens)

        monkeypatch.setattr(WorldModel, "build", staticmethod(spy))
        rng = random.Random(17)
        for _ in range(500):
            m = random_model(rng, max_worlds=9)
            worlds, pairs = calls.pop()
            assert m.order == fixpoint_order(worlds, pairs)

    def test_cycles_rejected_as_the_fixpoint_finds_them(self):
        rng = random.Random(23)
        cyclic = 0
        for _ in range(300):
            worlds = [f"w{i}" for i in range(rng.randint(2, 6))]
            pairs = [(u, v) for u in worlds for v in worlds if u != v and rng.random() < 0.2]
            closure = fixpoint_order(worlds, pairs)
            if any(u != v and (v, u) in closure for u, v in closure):
                cyclic += 1
                with pytest.raises(ModelError, match="antisymmetric"):
                    WorldModel.build(worlds, pairs, [], [])
            else:
                assert WorldModel.build(worlds, pairs, [], []).order == closure
        assert 0 < cyclic < 300

    def test_long_chain(self):
        worlds = [f"w{i:03}" for i in range(300)]
        m = WorldModel.build(worlds, list(zip(worlds, worlds[1:])), ["A"],
                             [("w000", "A", "t")])
        assert len(m.order) == 300 * 301 // 2
        assert m.leq("w000", "w299") and not m.leq("w299", "w000")
        assert all(m.tokens(w, "A") == {"t"} for w in worlds)
