"""Concrete syntax against the recursive reference in ``syntax_oracle``:
the printer at every level, the parser on printed and mutated texts, and
the evaluator's fuel report on random frame stacks."""

import random

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

import syntax_oracle as oracle
from ctkernel import evaluation
from ctkernel.evaluation import _describe
from ctkernel.syntax import (
    KEYWORDS, PREC_ATOM, PREC_TERM, ParseError, describe, parse, pretty, pretty_at,
    tokenize,
)
from ctkernel.terms import IT, App, Case, Fst, Inl, Lam, Snd, Var, substitute
from ctkernel.unary import ground_types
from termgen import NAMES, closed_terms, generated_checks, terms

LEVELS = range(PREC_TERM, PREC_ATOM + 1)


def outcome(parser, text):
    """The tree's repr, or the ParseError's message, line and column."""
    try:
        return repr(parser(text))
    except ParseError as err:
        return (err.message, err.line, err.col)


# Token texts a mutation may insert: every keyword and punctuation mark,
# a name, and characters the lexer rejects.
INSERTS = sorted(KEYWORDS) + ["x", "(", ")", "<", ">", ",", ".", ":", "|", "->", "=>",
                              "/\\", "\\/", "|-", "?", "\n"]


def mutate(rng: random.Random, text: str) -> str:
    """``text`` with a few tokens deleted, inserted or swapped, or cut short."""
    words = [tok.text for tok in tokenize(text)][:-1]
    for _ in range(rng.randint(0, 3)):
        op = rng.choice(("delete", "insert", "swap", "cut"))
        i = rng.randint(0, len(words))
        if op == "insert":
            words.insert(i, rng.choice(INSERTS))
        elif op == "cut":
            words = words[:i]
        elif words:
            i = min(i, len(words) - 1)
            j = rng.randrange(len(words)) if op == "swap" else i
            if op == "delete":
                del words[i]
            else:
                words[i], words[j] = words[j], words[i]
    return " ".join(words)


def pool_texts():
    """Every term of a criterion pool and every ground type of depth 3,
    printed at every level."""
    pool = [t for pair in generated_checks(seed=2026, count=300) for t in pair]
    return [pretty_at(t, ctx) for t in pool + list(ground_types(3)) for ctx in LEVELS]


class TestAgainstSyntaxOracle:
    @given(terms(max_leaves=16))
    @settings(max_examples=400)
    def test_print_at_every_level(self, t):
        for ctx in LEVELS:
            assert pretty_at(t, ctx) == oracle.pretty_at(t, ctx)
        assert pretty(t) == oracle.pretty_at(t, PREC_TERM)

    @given(terms(max_leaves=16), st.integers(4, 200))
    @settings(max_examples=200)
    def test_describe(self, t, limit):
        assert describe(t, limit) == oracle.describe(t, limit)

    @given(terms(max_leaves=16), st.sampled_from(LEVELS))
    @settings(max_examples=300)
    def test_parse_printed(self, t, ctx):
        text = pretty_at(t, ctx)
        assert outcome(parse, text) == outcome(oracle.parse, text)

    def test_parse_mutated(self):
        rng = random.Random(9)
        for text in pool_texts():
            for _ in range(3):
                bad = mutate(rng, text)
                assert outcome(parse, bad) == outcome(oracle.parse, bad), bad

    @pytest.mark.parametrize("text", [
        "", "(", ")", "lam", "lam x", "lam x.", "lam . x", "forall x . A", "forall x : A",
        "exists : A . B", "case x of inr a -> a | inl b -> b", "case x of inl a -> a",
        "case x inl a -> a | inr b -> b", "<it, it", "<it it>", "fst", "inl inr",
        "of", "it of", "x => ", "A /\\ ", "\\/ A", "f (lam x. x", "it it )", "x ? y",
        "fst lam x. x", "inl case x of inl a -> a | inr b -> b", "f <lam x. x, x>",
        "A |- B", "lam x. x\n  it\n (", "# comment only",
    ])
    def test_parse_corpus(self, text):
        assert outcome(parse, text) == outcome(oracle.parse, text)


def environments():
    """An environment of the evaluator: names bound to closed terms."""
    return st.dictionaries(NAMES, closed_terms(max_leaves=3), max_size=2)


def closures(children):
    """A term, bare or under an environment."""
    return st.one_of(children, st.builds(lambda t, env: [t, env], children, environments()))


def frames():
    """One frame of the evaluator's stack, of any kind."""
    children, names = terms(max_leaves=4), NAMES
    return st.one_of(
        closures(children),
        st.just((Fst,)),
        st.just((Snd,)),
        st.builds(lambda lb, lbody, rb, rbody, env: (Case, Case(IT, lb, lbody, rb, rbody), env),
                  names, children, names, children, environments()),
        st.builds(lambda b, body, env: (Lam, Lam(b, body), env), names, children, environments()),
    )


def read(t, env):
    """``t`` with the closed values of ``env`` substituted."""
    for name, value in env.items():
        t = substitute(t, name, value)
    return t


def plug(stack, focus):
    """The term that the frames, outermost first, spell around the focus."""
    t = read(*focus) if type(focus) is list else focus
    for frame in reversed(stack):
        if type(frame) is list:
            t = App(t, read(*frame))
        elif type(frame) is not tuple:
            t = App(t, frame)
        elif frame[0] is Lam:
            t = App(read(frame[1], frame[2]), t)
        elif frame[0] is Case:
            case = read(frame[1], frame[2])
            t = Case(t, *(getattr(case, f) for f in Case.__match_args__[1:]))
        else:
            t = frame[0](t)
    return t


class TestFuelReport:
    @given(st.lists(frames(), max_size=12), closures(terms(max_leaves=6)),
           st.sampled_from((8, 40, 120, 10**4)))
    @settings(max_examples=300)
    def test_describe_of_plugged_term(self, stack, focus, limit):
        assert _describe(stack, focus, limit) == oracle.describe(plug(stack, focus), limit)

    def test_app_frames_in_a_head_not_laid_out(self, monkeypatch):
        # the openers lay out the Case, the Fst and the first App frame
        # only, and the closers stop at the cut: with every frame laid
        # out, the calls would number over 10^4
        stack = [(Case, Case(IT, "a", Var("a"), "b", Var("b")), {}), (Fst,)] + [IT] * 10**4
        focus = Lam("x", Var("x"))
        expected = describe(plug(stack, focus))
        calls = []
        layout = evaluation._layout
        monkeypatch.setattr(evaluation, "_layout", lambda f: calls.append(f) or layout(f))
        assert _describe(stack, focus) == expected
        assert expected.startswith("case fst ((lam x. x) it it ")
        assert len(calls) < 100


class TestDeepText:
    def test_parse_deeper_than_a_method_per_level_allowed(self):
        # a bracket cost six frames and an ``inl`` two when each level of
        # the grammar was a method: both texts were too deep
        assert parse("(" * 300 + "it" + ")" * 300) == IT
        expected = IT
        for _ in range(600):
            expected = Inl(expected)
        assert parse("inl " * 600 + "it") == expected
