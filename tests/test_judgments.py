"""Statement forms and trace replay.

The forms of ``ctkernel.judgments`` are rows of one table; the reference
forms of ``statement_oracle`` are dataclasses with a renderer that spells
each out.  Every statement in the traces of a seeded check pool, and a
set of edge cases, must render, ``repr``, compare and hash the same in
both.  ``replay`` must reject a verified trace with one edited step.
"""

import copy
import hashlib
import itertools
import json
import pickle
import random
import weakref

import pytest

import replay_oracle
import statement_oracle as oracle
from ctkernel import judgments
from ctkernel.binary import check_eq_member, check_eq_set
from ctkernel.judgments import (
    Both, CanonEmpty, CanonIn, CanonNotIn, CanonUndefined, EqMember, Evals, Gen,
    Hyp, IsTrue, Member, Statement, Trace, TraceStep, render_statement, replay,
    trace_json_valid,
)
from ctkernel.rules import admissible, parse_rule
from ctkernel.syntax import parse
from ctkernel.terms import IT, TRUE, FALSE, Inl, Pair, Var, classify, is_closed
from ctkernel.unary import check_is_set, check_member
from termgen import OMEGA, STUCK_TERM, generated_checks

FORMS = (
    "IsSet", "IsTrue", "Member", "EqSet", "EqMember", "Hyp", "Gen", "Evals",
    "CanonIn", "CanonNotIn", "CanonUndefined", "CanonClosureIn", "CanonEmpty",
    "CanonEq", "CanonNeq", "Blocked", "Both",
)
NON_SETS = ("it", "it /\\ False", "it => False", "True \\/ it", "lam x. x")


def to_oracle(v):
    """The reference form of a statement, field by field."""
    if isinstance(v, Statement):
        return getattr(oracle, type(v).__name__)(*map(to_oracle, v.values))
    if type(v) is tuple:
        return tuple(map(to_oracle, v))
    return v


def inside(s: Statement):
    """``s`` and every statement among its fields, at any depth."""
    yield s
    for v in s.values:
        for x in v if type(v) is tuple else (v,):
            if isinstance(x, Statement):
                yield from inside(x)


def statements(trace: Trace):
    """Every statement of a trace and of its children, at any depth."""
    for step in trace.steps:
        yield from inside(step.statement)
        for child in step.children:
            yield from statements(child)


def pool_verdicts(seed: int = 11, count: int = 80):
    checks = generated_checks(seed, count) + [(STUCK_TERM, TRUE), (OMEGA, TRUE)]
    types = [ty for _, ty in checks] + [parse(t) for t in NON_SETS]
    rng = random.Random(seed)
    for m, ty in checks:
        n, _ = rng.choice(checks)
        yield check_member(m, ty, fuel=300)
        yield check_eq_member(m, m, ty, fuel=300)
        yield check_eq_member(m, n, ty, fuel=300)
    for ty in types:
        yield check_is_set(ty, fuel=300)
        yield check_eq_set(ty, rng.choice(types), fuel=300)
    for text in ("P true; Q true |- P /\\ Q true", "P \\/ Q true |- P true"):
        yield admissible(parse_rule(text))


@pytest.fixture(scope="module")
def pool():
    out = []
    for v in pool_verdicts():
        out.extend(statements(v.trace))
        if v.instance is not None:
            out.extend(inside(v.instance))
    return out


def edge_cases():
    x, y, a = Var("x"), Var("y"), parse("True \\/ False")
    member = Member(x, a)
    return [
        Hyp((member, CanonEmpty(FALSE)), Member(Pair(x, IT), TRUE)),
        Gen(("x", "y"), Hyp((EqMember(x, y, a),), EqMember(x, y, TRUE))),
        Both((Both((Evals(x, IT), Both(()))), CanonIn(TRUE, (IT,)))),
        Both(()),
        CanonIn(a, ()),
        CanonUndefined(parse("lam x. x")),
        CanonNotIn(a, (IT, Inl(IT))),
        IsTrue(parse("P => P /\\ Q")),
    ]


class TestAgainstStatementOracle:
    def test_pool_covers_every_form(self, pool):
        assert {type(s).__name__ for s in pool} == set(FORMS)
        assert set(FORMS) == {name for name in vars(judgments)
                              if isinstance(getattr(judgments, name), type)
                              and issubclass(getattr(judgments, name), Statement)
                              and name != "Statement"}

    def test_render_and_repr(self, pool):
        for s in pool + edge_cases():
            o = to_oracle(s)
            assert render_statement(s) == oracle.render_statement(o)
            assert repr(s) == repr(o)

    def test_eq_and_hash(self, pool):
        sample = random.Random(5).sample(pool, 150) + edge_cases()
        for s, t in itertools.product(sample, repeat=2):
            assert (s == t) == (to_oracle(s) == to_oracle(t))
        for s in pool + edge_cases():
            assert hash(s) == hash(to_oracle(s))
            twin = type(s)(*s.values)
            assert twin == s and twin is not s and hash(twin) == hash(s)

    def test_same_fields_other_form(self):
        a, b = TRUE, FALSE
        assert judgments.EqSet(a, b) != judgments.CanonEq(a, b)
        assert (oracle.EqSet(a, b) == oracle.CanonEq(a, b)) is False

    def test_undefined_relation_renders_as_before(self):
        ty = parse("it /\\ False")
        assert render_statement(CanonUndefined(ty)) == oracle.render_statement(
            oracle.CanonNotIn(ty, ()))

    def test_pickle_copy_and_immutability(self):
        for s in edge_cases():
            for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
                assert copied == s and repr(copied) == repr(s)
            with pytest.raises(AttributeError):
                s.values = ()
        with pytest.raises(TypeError):
            Member(IT)

    def test_match_args(self):
        match Gen(("x",), Hyp((Member(Var("x"), TRUE),), CanonEmpty(FALSE))):
            case Gen(binders, Hyp((Member(m, _),), CanonEmpty(ty))):
                assert (binders, m, ty) == (("x",), Var("x"), FALSE)
            case _:
                pytest.fail("no match")


# -- replay of edited traces ------------------------------------------------------


def _edit(trace: Trace, pick):
    """The trace with the first statement for which ``pick`` gives a
    replacement replaced, among those ``replay`` visits (steps and the
    parts of a ``Both``, in the trace and its children), or None."""
    def statement(s):
        new = pick(s)
        if new is not None:
            return new
        if isinstance(s, Both):
            for i, p in enumerate(s.parts):
                q = statement(p)
                if q is not None:
                    return Both(s.parts[:i] + (q,) + s.parts[i + 1:])
        return None

    for i, step in enumerate(trace.steps):
        new = statement(step.statement)
        if new is not None:
            step = TraceStep(new, step.rule, step.children)
        else:
            for j, child in enumerate(step.children):
                edited = _edit(child, pick)
                if edited is not None:
                    children = step.children[:j] + (edited,) + step.children[j + 1:]
                    step = TraceStep(step.statement, step.rule, children)
                    break
            else:
                continue
        return Trace(trace.steps[:i] + (step,) + trace.steps[i + 1:])
    return None


def _other_result(s):
    """A closed evaluation statement with another canonical result."""
    if isinstance(s, Evals) and is_closed(s.term) and is_closed(s.result):
        return Evals(s.term, Inl(s.result))
    return None


def _misshapen_arg(s):
    """A closed relation membership with its first argument of another
    canonical shape."""
    if isinstance(s, CanonIn) and s.args and is_closed(s.ty) \
            and all(map(is_closed, s.args)):
        wrong = Pair(IT, IT) if classify(s.args[0]) is classify(IT) else IT
        return CanonIn(s.ty, (wrong,) + s.args[1:])
    return None


class TestReplayRejectsEdits:
    @pytest.fixture(scope="class")
    def verified(self):
        out = [v for v in pool_verdicts(seed=23, count=60) if v.verified]
        assert len(out) > 40
        return out

    @pytest.mark.parametrize("edit", [_other_result, _misshapen_arg])
    def test_edited_step_is_rejected(self, verified, edit):
        edited = 0
        for v in verified:
            assert replay(v.trace, 300)
            tampered = _edit(v.trace, edit)
            if tampered is not None:
                assert tampered != v.trace
                assert replay(tampered, 300) is False
                edited += 1
        assert edited >= 20


# -- traces built on first read ----------------------------------------------------


def _deferred_and_eager(seed: int = 31, count: int = 40):
    """The traces of a check pool as the checks return them, unread, and
    the same traces again, built eagerly from their steps."""
    deferred = [v.trace for v in pool_verdicts(seed, count)]
    eager = [Trace(v.trace.steps) for v in pool_verdicts(seed, count)]
    return deferred, eager


_READS = {
    "repr": repr,
    "hash": hash,
    "eq": lambda t: t,
    "pickle": lambda t: pickle.loads(pickle.dumps(t)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


class TestDeferredTraces:
    @pytest.mark.parametrize("read", _READS)
    def test_same_as_the_eager_twin(self, read):
        # the first pass reads each deferred trace first, through ``read``;
        # the second reads it built
        deferred, eager = _deferred_and_eager()
        for _ in range(2):
            for d, e in zip(deferred, eager):
                x, y = _READS[read](d), _READS[read](e)
                assert x == y and y == x

    def test_builder_released_after_first_read(self):
        step = TraceStep(Member(IT, TRUE), "canon-true")

        def build():
            return (step,)

        released = weakref.ref(build)
        trace = judgments.later(build)
        del build
        assert released() is not None
        assert trace.steps == (step,) and trace == Trace((step,))
        assert released() is None
        with pytest.raises(AttributeError):
            trace._build

    def test_no_step_is_built_until_the_trace_is_read(self, monkeypatch):
        built = []
        init = TraceStep.__init__

        def counting(self, *args, **kw):
            built.append(args)
            init(self, *args, **kw)

        monkeypatch.setattr(TraceStep, "__init__", counting)
        verdicts = list(pool_verdicts(seed=37, count=40))
        member = check_member(parse("lam x. x"), parse("True \\/ False => True \\/ False"))
        assert member.verified and built == []
        assert {v.status.value for v in verdicts} >= {"verified", "refuted"} and built == []
        member.trace.render()
        assert built
        for v in verdicts:
            v.trace.to_json()

    def test_trace_digest(self):
        # recorded on traces built eagerly, with every check of the pool
        # run before any trace is read
        verdicts = [v for m, ty in generated_checks(7, 400) for v in (
            check_member(m, ty), check_eq_member(m, m, ty), check_is_set(ty),
            check_eq_set(ty, ty))]
        digest = hashlib.sha256()
        for v in verdicts:
            digest.update(json.dumps(v.trace.to_json()).encode())
        assert digest.hexdigest() == (
            "25ccde90169c630c470d0c323ed7e0dcb37147004b619ce4b3eccad2202c1073")


def recursive_to_json(trace: Trace) -> list:
    """The trace's document as first written, one call per trace level:
    the reference for the loop of ``Trace.to_json``."""
    return [{"judgment": render_statement(step.statement), "rule": step.rule,
             "children": [node for child in step.children for node in recursive_to_json(child)]}
            for step in trace.steps]


def recursive_render(trace: Trace, indent: int = 0) -> str:
    """The trace's text as first written, one call per trace level; a
    premise with no steps wrote an empty line."""
    lines = []
    for i, step in enumerate(trace.steps, start=1):
        label = f"({i}) " if indent == 0 else "- "
        lines.append(f"{'    ' * indent}{label}{render_statement(step.statement)}    [{step.rule}]")
        for child in step.children:
            lines.append(recursive_render(child, indent + 1))
    return "\n".join(lines)


def criterion_5_verdicts():
    for m, ty in generated_checks(2026, 1000):
        yield check_member(m, ty)
        yield check_eq_member(m, m, ty)
        yield check_is_set(ty)


# A set-hood check whose domain enumeration diverges: the verdict keeps
# the enumeration's empty trace as a premise.
EMPTY_PREMISE = "forall x : (exists y : True . (lam z. True) y) . (lam w. True) x"


class TestTraceWalks:
    def test_to_json_is_the_recursive_document(self):
        for v in criterion_5_verdicts():
            assert v.trace.to_json() == recursive_to_json(v.trace)

    def test_render_is_the_recursive_text_less_its_empty_lines(self):
        verdicts = list(criterion_5_verdicts()) + [check_is_set(parse(EMPTY_PREMISE), fuel=1)]
        changed = 0
        for v in verdicts:
            old = recursive_render(v.trace)
            new = v.trace.render()
            assert new == "\n".join(line for line in old.split("\n") if line)
            changed += new != old
        assert changed >= 1

    def test_premise_without_steps_writes_no_line(self):
        v = check_is_set(parse(EMPTY_PREMISE), fuel=1)
        assert v.status.value == "diverged"
        assert any(child.steps == () for step in v.trace.steps for child in step.children)
        text = v.trace.render()
        assert "" not in text.split("\n")
        assert len(text.split("\n")) == 8

    def test_deep_trace_by_loop(self):
        # far deeper than the Python stack allows a recursive walk
        trace = Trace((TraceStep(IsTrue(TRUE), "leaf"),))
        for _ in range(3000):
            trace = Trace((TraceStep(IsTrue(TRUE), "step", (Trace(), trace)),))
        lines = trace.render().split("\n")
        assert len(lines) == 3001
        assert lines[0] == "(1) True true    [step]"
        assert lines[-1] == "    " * 3000 + "- True true    [leaf]"
        nodes, depth = trace.to_json(), 0
        while nodes:
            assert len(nodes) == 1 and set(nodes[0]) == {"judgment", "rule", "children"}
            nodes, depth = nodes[0]["children"], depth + 1
        assert depth == 3001
        assert replay(trace, 10)

    def test_deep_document_validated_by_loop(self):
        # the recursive validator raised RecursionError on this document
        trace = Trace((TraceStep(IsTrue(TRUE), "leaf"),))
        for _ in range(3000):
            trace = Trace((TraceStep(IsTrue(TRUE), "step", (Trace(), trace)),))
        doc = trace.to_json()
        assert trace_json_valid(doc)
        node = doc[0]
        for _ in range(2500):
            node = node["children"][0]
        for field, bad in (("rule", None), ("children", {}), ("judgment", 1)):
            good, node[field] = node[field], bad
            assert not trace_json_valid(doc), field
            node[field] = good
        del node["rule"]
        assert not trace_json_valid(doc)


# -- one walk for every tree -------------------------------------------------------


class TestWalk:
    TREE = {"r": ("a", "b"), "a": ("c", "d"), "b": ("e",)}

    def test_order_and_depths(self):
        nodes = list(judgments.walk(("r", "s"), lambda node: self.TREE.get(node, ())))
        assert nodes == [(0, "r"), (1, "a"), (2, "c"), (2, "d"), (1, "b"), (2, "e"),
                         (0, "s")]

    def test_children_read_on_resume(self):
        read = []

        def children(node):
            read.append(node)
            if node == "a":
                raise AssertionError("children of 'a' read")
            return self.TREE.get(node, ())

        for _, node in judgments.walk(("r",), children):
            if node == "a":
                break
        assert read == ["r"]

    def test_deep_chain_by_loop(self):
        chain = judgments.walk((0,), lambda n: (n + 1,) if n < 10_000 else ())
        assert [depth for depth, _ in chain] == list(range(10_001))


def _pool_checks():
    for seed, count in ((2026, 1000), (501, 500)):
        for m, ty in generated_checks(seed, count):
            yield check_member(m, ty)
            yield check_eq_member(m, m, ty)


@pytest.fixture(scope="module")
def criteria_pools():
    return list(_pool_checks())


CANON_ARGS = ("it", "lam x. x", "<it, it>", "inl it", "inr it", "inl it; inr it", "",
              "fst it")


class TestReplayAgainstOracle:
    @pytest.mark.parametrize("fuel", [1, 1000])
    def test_pool_verdicts(self, criteria_pools, fuel):
        answers = [replay(v.trace, fuel) for v in criteria_pools]
        assert answers == [replay_oracle.replay(v.trace, fuel) for v in criteria_pools]
        assert True in answers
        assert fuel == 1000 or False in answers

    @pytest.mark.parametrize("args", CANON_ARGS)
    def test_canon_args_replaced(self, criteria_pools, args):
        args = tuple(parse(a) for a in args.split(";") if a)

        def replace(s):
            if isinstance(s, CanonIn) and is_closed(s.ty) and all(map(is_closed, s.args)):
                return CanonIn(s.ty, args)
            return None

        answers = []
        for v in criteria_pools[::10]:
            edited = _edit(v.trace, replace)
            if edited is not None:
                answers.append(replay(edited, 1000))
                assert answers[-1] is replay_oracle.replay(edited, 1000)
        assert len(answers) > 50
