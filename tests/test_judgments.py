"""Statement forms and trace replay.

The forms of ``ctkernel.judgments`` are rows of one table; the reference
forms of ``statement_oracle`` are dataclasses with a renderer that spells
each out.  Every statement in the traces of a seeded check pool, and a
set of edge cases, must render, ``repr``, compare and hash the same in
both.  ``replay`` must reject a verified trace with one edited step.
"""

import copy
import itertools
import pickle
import random

import pytest

import statement_oracle as oracle
from ctkernel import judgments
from ctkernel.binary import check_eq_member, check_eq_set
from ctkernel.judgments import (
    Both, CanonEmpty, CanonIn, CanonNotIn, CanonUndefined, EqMember, Evals, Gen,
    Hyp, IsTrue, Member, Statement, Trace, TraceStep, render_statement, replay,
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
