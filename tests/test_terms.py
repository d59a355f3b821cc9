"""Term language: nodes, parsing, printing, substitution, alpha-equivalence."""

import copy
import functools
import inspect
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from dataclasses import make_dataclass
from typing import get_args

import pytest
import hypothesis.strategies as st
from hypothesis import example, given, settings

import ctkernel
import term_oracle as oracle
from ctkernel.record import Record
from ctkernel.syntax import ParseError, describe, parse, pretty
from ctkernel.terms import (
    App, Case, Disj, Exists, Forall, Fst, IT, Inl, Inr, It, Lam, Pair, Snd,
    TRUE, FALSE, TFalse, TTrue, Term, Var, _Node, alpha_eq, constructor_depth,
    free_vars, is_closed, substitute, term_key,
)
from term_oracle import normalize_binders
from termgen import NAMES, closed_terms, terms

# Names that renamed binders can collide with, and the unused binder of
# the sugar: free occurrences of them must stay apart from binders.
CLASHING = st.sampled_from(("x", "y", "v0", "v1", "_"))


class TestParse:
    def test_lambda_pair(self):
        assert parse("lam x. <it, it>") == Lam("x", Pair(IT, IT))

    def test_atomic_it(self):
        assert parse("it") == IT

    def test_implication_is_sugar(self):
        t = parse("False => True")
        assert isinstance(t, Forall)
        assert t.domain == FALSE
        assert t.family == TRUE
        assert t.binder not in free_vars(t.family)

    def test_conjunction_is_sugar(self):
        t = parse("True /\\ False")
        assert isinstance(t, Exists)
        assert (t.domain, t.family) == (TRUE, FALSE)

    def test_case(self):
        t = parse("case inl it of inl x -> x | inr y -> <y, y>")
        assert t == Case(Inl(IT), "x", Var("x"), "y", Pair(Var("y"), Var("y")))

    def test_nested_case_in_left_branch(self):
        t = parse(
            "case x of inl a -> case a of inl b -> b | inr c -> c | inr d -> d"
        )
        assert isinstance(t, Case)
        assert isinstance(t.left_body, Case)
        assert t.right_body == Var("d")

    def test_application_left_associative(self):
        assert parse("f x y") == App(App(Var("f"), Var("x")), Var("y"))

    def test_imp_right_associative(self):
        t = parse("True => False => True")
        assert isinstance(t, Forall) and isinstance(t.family, Forall)

    def test_precedence_and_over_or(self):
        t = parse("True /\\ False \\/ True")
        assert isinstance(t, Disj)
        assert isinstance(t.left, Exists)

    def test_dependent_quantifier(self):
        t = parse("forall x : True . x")
        assert t == Forall(TRUE, "x", Var("x"))

    def test_prefix_projection(self):
        assert parse("fst <it, it>") == Fst(Pair(IT, IT))
        assert parse("inl inl it") == Inl(Inl(IT))

    def test_open_terms_parse(self):
        t = parse("x y")
        assert free_vars(t) == {"x", "y"}

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("lam x. <it,")
        assert err.value.line == 1
        assert err.value.col > 0

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse("it it)")

    @pytest.mark.parametrize("text, cls", [("True => _", Forall), ("True /\\ _", Exists)])
    def test_sugar_keeps_a_free_underscore_free(self, text, cls):
        # the sugar's binder is "_" unless that would capture a free "_"
        t = parse(text)
        assert type(t) is cls and t.binder == "_1" and free_vars(t) == {"_"}
        assert parse(text.replace("_", "x")).binder == "_"
        assert parse("True => _ _1").binder == "_2"


class TestPrint:
    def test_sugar_folds_back(self):
        assert pretty(Forall(FALSE, "_", TRUE)) == "False => True"
        assert pretty(Exists(TRUE, "_", TRUE)) == "True /\\ True"

    def test_dependent_prints_quantifier(self):
        assert pretty(Forall(TRUE, "x", Var("x"))) == "forall x : True . x"

    def test_application_parenthesization(self):
        t = App(Lam("x", Var("x")), IT)
        assert pretty(t) == "(lam x. x) it"
        assert parse(pretty(t)) == t

    @given(terms())
    @settings(max_examples=200)
    def test_parse_print_roundtrip(self, t):
        assert alpha_eq(parse(pretty(t)), t)

    def test_sugar_over_free_underscore_roundtrip(self):
        t = Forall(TRUE, "y", Var("_"))
        assert pretty(t) == "True => _"
        assert alpha_eq(parse(pretty(t)), t)

    @given(terms(names=CLASHING))
    @settings(max_examples=300)
    def test_parse_print_roundtrip_clashing_names(self, t):
        assert alpha_eq(parse(pretty(t)), t)


class TestSubstitute:
    def test_binder_unused(self):
        assert substitute(Pair(IT, IT), "x", IT) == Pair(IT, IT)

    def test_direct_replacement(self):
        assert substitute(Var("x"), "x", Inl(IT)) == Inl(IT)

    def test_shadowing_blocks(self):
        t = Lam("x", Var("x"))
        assert substitute(t, "x", IT) == t

    def test_capture_renames(self):
        # lam y. x with x := y must not capture
        t = Lam("y", Var("x"))
        out = substitute(t, "x", Var("y"))
        assert isinstance(out, Lam)
        assert out.binder != "y"
        assert out.body == Var("y")

    @given(terms(), closed_terms())
    @settings(max_examples=200)
    def test_capture_avoiding_free_vars(self, body, value):
        out = substitute(body, "x", value)
        assert free_vars(out) == free_vars(body) - {"x"}


class TestAlphaEq:
    def test_bound_renaming(self):
        assert alpha_eq(Lam("x", Var("x")), Lam("y", Var("y")))

    def test_head_constructor_differs(self):
        assert not alpha_eq(Inl(IT), Inr(IT))

    def test_type_former_binder_renaming(self):
        assert alpha_eq(
            Forall(TRUE, "x", Var("x")), Forall(TRUE, "z", Var("z"))
        )

    def test_free_variables_not_identified(self):
        assert not alpha_eq(Var("x"), Var("y"))

    @given(terms())
    @settings(max_examples=150)
    def test_reflexive(self, t):
        assert alpha_eq(t, t)

    @given(terms())
    @settings(max_examples=150)
    def test_symmetric_via_normalization(self, t):
        u = normalize_binders(t)
        assert alpha_eq(t, u) and alpha_eq(u, t)

    @given(terms(), terms())
    @settings(max_examples=150)
    def test_symmetric(self, a, b):
        assert alpha_eq(a, b) == alpha_eq(b, a)

    @given(terms())
    @settings(max_examples=100)
    def test_transitive_through_renamings(self, t):
        u = normalize_binders(t)
        v = normalize_binders(u)
        assert alpha_eq(t, u) and alpha_eq(u, v) and alpha_eq(t, v)


class TestAlphaCongruence:
    @given(terms(), closed_terms(max_leaves=5))
    @settings(max_examples=120)
    def test_substitution_respects_alpha(self, t, v):
        u = normalize_binders(t)
        assert alpha_eq(substitute(t, "x", v), substitute(u, "x", v))

    @given(closed_terms(max_leaves=6))
    @settings(max_examples=100, deadline=None)
    def test_evaluation_respects_alpha(self, t):
        from ctkernel.evaluation import Canonical, evaluate
        u = normalize_binders(t)
        rt, ru = evaluate(t, 200), evaluate(u, 200)
        assert type(rt) is type(ru)
        if isinstance(rt, Canonical):
            assert alpha_eq(rt.term, ru.term)
            assert rt.steps == ru.steps


class TestOrdering:
    def test_normalization_canonical(self):
        a = Lam("x", Var("x"))
        b = Lam("y", Var("y"))
        assert normalize_binders(a) == normalize_binders(b)

    def test_term_key_discriminates(self):
        assert term_key(Inl(IT)) != term_key(Inr(IT))
        assert term_key(Lam("x", Var("x"))) == term_key(Lam("y", Var("y")))

    def test_constructor_depth(self):
        assert constructor_depth(IT) == 1
        assert constructor_depth(Inl(IT)) == 2
        assert constructor_depth(Pair(Inl(IT), IT)) == 3

    def test_closedness(self):
        assert is_closed(Lam("x", Var("x")))
        assert not is_closed(Var("x"))


# The constructor fields of every node class, in declaration order.
FIELDS = {
    Var: ("name",),
    Lam: ("binder", "body"),
    App: ("fn", "arg"),
    Pair: ("fst", "snd"),
    Fst: ("pair",),
    Snd: ("pair",),
    Inl: ("arg",),
    Inr: ("arg",),
    Case: ("scrutinee", "left_binder", "left_body", "right_binder", "right_body"),
    It: (),
    TTrue: (),
    TFalse: (),
    Forall: ("domain", "binder", "family"),
    Exists: ("domain", "binder", "family"),
    Disj: ("left", "right"),
}
BINDERS = {Lam: ["binder"], Case: ["left_binder", "right_binder"],
           Forall: ["binder"], Exists: ["binder"]}
MIRROR = {cls: make_dataclass(cls.__name__, fields, frozen=True)
          for cls, fields in FIELDS.items()}
SAMPLES = (
    Var("x"), Lam("x", Var("x")), App(Var("f"), IT), Pair(IT, TRUE),
    Fst(Var("p")), Snd(Var("p")), Inl(IT), Inr(FALSE),
    Case(Var("s"), "a", Var("a"), "b", Inl(Var("b"))), IT, TRUE, FALSE,
    Forall(TRUE, "x", Var("x")), Exists(FALSE, "_", TRUE), Disj(TRUE, FALSE),
)


# A variable named FREE + x is written as the free variable x of a key.
FREE = "free:"
FREE_VAR = make_dataclass("Var", ["free"], frozen=True)


def mirror(t):
    """The same tree built from frozen dataclasses."""
    if type(t) is Var and t.name.startswith(FREE):
        return FREE_VAR(t.name[len(FREE):])
    return MIRROR[type(t)](*(v if isinstance(v, str) else mirror(v)
                             for v in (getattr(t, f) for f in FIELDS[type(t)])))


def rebuild(t):
    """An equal tree that shares no node with ``t``."""
    return type(t)(*(v if isinstance(v, str) else rebuild(v)
                     for v in (getattr(t, f) for f in FIELDS[type(t)])))


def nested(n: int, leaf):
    t = leaf
    for _ in range(n):
        t = Inl(t)
    return t


class TestNodes:
    def test_every_class_pinned(self):
        assert set(FIELDS) == set(get_args(Term))
        assert {type(t) for t in SAMPLES} == set(FIELDS)

    @pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
    def test_binder_rule(self, cls):
        # A string field other than Var.name is a binder, and its scope is
        # the field right after it.  With every binder named x and every
        # subterm Var("x"), renaming one binder to z is an alpha-renaming
        # exactly when it renames the occurrence in that field alone.
        fields = FIELDS[cls]
        sample = next(t for t in SAMPLES if type(t) is cls)
        strings = {f for f in fields if isinstance(getattr(sample, f), str)}
        binders = [i for i, f in enumerate(fields) if f in strings and cls is not Var]
        assert [fields[i] for i in binders] == BINDERS.get(cls, [])
        x = {f: "x" if f in strings else Var("x") for f in fields}
        t = cls(**x)
        for i in binders:
            for j, f in enumerate(fields):
                if j in binders:
                    continue
                renamed = cls(**{**x, fields[i]: "z", f: Var("z")})
                assert alpha_eq(t, renamed) == (j == i + 1), (fields[i], f)
                assert (term_key(t) == term_key(renamed)) == (j == i + 1)

    def test_nodes_are_records(self):
        # fields are read by name, through the base's readers alone
        assert issubclass(_Node, Record)
        own = {"_values", "_fields", "__reduce__", "__setattr__", "__delattr__"}
        for cls in (_Node, *FIELDS):
            assert own & set(vars(cls)) == set(), cls

    @pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
    def test_fields_in_slots(self, cls):
        assert cls.__dictoffset__ == 0
        assert cls.__slots__ == cls.__match_args__ == FIELDS[cls]

    @pytest.mark.parametrize("t", SAMPLES, ids=lambda t: type(t).__name__)
    def test_fields_and_repr(self, t):
        # vars() is a fresh map: writing to it leaves the node as it is
        fields = vars(t)
        assert list(fields.items()) == [(f, getattr(t, f)) for f in FIELDS[type(t)]]
        fields.update({f: "changed" for f in fields}, extra=IT)
        assert vars(t) == dict(zip(FIELDS[type(t)], t._values())) != fields
        assert repr(t) == repr(mirror(t))

    @pytest.mark.parametrize("t", SAMPLES, ids=lambda t: type(t).__name__)
    def test_immutable_and_copyable(self, t):
        for name in (*FIELDS[type(t)], "fv", "_meta", "__dict__", "other"):
            with pytest.raises(AttributeError):
                setattr(t, name, IT)
            with pytest.raises(AttributeError):
                delattr(t, name)
        pickled = [pickle.loads(pickle.dumps(t, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for copied in (*pickled, copy.copy(t), copy.deepcopy(t)):
            assert type(copied) is type(t) and copied == t and hash(copied) == hash(t)
            assert repr(copied) == repr(t) and copied.fv == t.fv

    def test_node_size(self):
        # with its fields in an instance dict a Pair costs 96 bytes
        n = 10**4
        pairs = [None] * n
        tracemalloc.start()
        try:
            for i in range(n):
                pairs[i] = Pair(IT, IT)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size // n <= 64

    @given(terms())
    @settings(max_examples=100)
    def test_repr_matches_dataclass(self, t):
        assert repr(t) == repr(mirror(t))


def nodes(t):
    """``t`` and each of its subterms."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(v for v in vars(node).values() if not isinstance(v, str))


def own_sets(t):
    """The free-variable sets of the subterms of ``t`` that hold nothing
    ``t`` binds: each one is the union itself when it holds all of it."""
    fields = FIELDS[type(t)]
    for i, f in enumerate(fields):
        v = getattr(t, f)
        if isinstance(v, str):
            continue
        if i and fields[i - 1] in BINDERS.get(type(t), ()) and getattr(t, fields[i - 1]) in v.fv:
            continue
        yield v.fv


class TestConstructors:
    """What the constructors compiled from the field lists promise."""

    @pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
    def test_signature(self, cls):
        params = inspect.signature(cls).parameters.values()
        assert [p.name for p in params] == list(cls.__match_args__) == list(FIELDS[cls])
        assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
        if FIELDS[cls]:
            assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"

    @pytest.mark.parametrize("t", SAMPLES, ids=lambda t: type(t).__name__)
    def test_keywords_and_free_variables(self, t):
        values = [getattr(t, f) for f in FIELDS[type(t)]]
        by_keyword = type(t)(**dict(zip(FIELDS[type(t)], values)))
        assert by_keyword == type(t)(*values) == t
        assert by_keyword.fv == t.fv == oracle.free_vars(t)

    @given(terms(names=CLASHING))
    @settings(max_examples=200)
    # the right branch's own set equals a union made by ``_bind`` (first)
    # or by ``|`` (second)
    @example(Case(It(), "y", Case(It(), "x", Var("y"), "x", Var("v1")), "x", Var("v1")))
    @example(Case(Var("x"), "a", Var("y"), "b", App(Var("x"), Var("y"))))
    def test_free_variables_shared(self, t):
        # a node keeps a child's own set whenever that set holds the union
        for node in nodes(t):
            assert node.fv == oracle.free_vars(node)
            owned = [fv for fv in own_sets(node) if fv == node.fv]
            if owned:
                assert any(node.fv is fv for fv in owned), node


SHARED_X = Var("x")


class TestAgainstTermOracle:
    @given(terms())
    @settings(max_examples=200)
    def test_free_vars_and_depth(self, t):
        assert free_vars(t) == oracle.free_vars(t)
        assert constructor_depth(t) == oracle.constructor_depth(t)

    @given(terms(), NAMES, terms(max_leaves=4))
    @settings(max_examples=300)
    def test_substitute(self, t, name, value):
        out = substitute(t, name, value)
        expected = oracle.substitute(t, name, value)
        assert out == expected
        assert hash(out) == hash(expected)
        assert free_vars(out) == oracle.free_vars(expected)

    @pytest.mark.parametrize("t, value", [
        (Lam("y", App(Var("x"), Var("y1"))), Var("y")),
        (Case(Var("x"), "y", App(Var("x"), Var("y1")), "z", Pair(Var("x"), Var("z1"))),
         Pair(Var("y"), Var("z"))),
        (Forall(Var("x"), "y", Pair(Var("x"), Var("y1"))), Var("y")),
        (Exists(Var("x"), "y", Lam("y1", Pair(Var("y"), Var("x")))), Var("y")),
    ])
    def test_fresh_name_avoids_body(self, t, value):
        # the generated terms never hold a digit-suffixed name, which a
        # fresh binder must avoid
        out = substitute(t, "x", value)
        assert out == oracle.substitute(t, "x", value)
        assert repr(out) == repr(oracle.substitute(t, "x", value))

    @given(terms(names=CLASHING), terms(names=CLASHING))
    @settings(max_examples=300)
    def test_alpha_eq(self, a, b):
        assert alpha_eq(a, b) == oracle.alpha_eq(a, b)
        u = normalize_binders(a)
        assert alpha_eq(a, u) == oracle.alpha_eq(a, u)

    @given(terms(names=CLASHING))
    @settings(max_examples=300)
    def test_term_key(self, t):
        # the frozen-dataclass repr of the normalized tree, with each free
        # variable written Var(free=...)
        marked = mirror(normalize_binders(t, lambda name: FREE + name))
        assert term_key(t) == (oracle.constructor_depth(t), repr(marked))
        assert repr(t) == repr(mirror(t))

    @given(terms(names=CLASHING), terms(names=CLASHING))
    @settings(max_examples=200)
    def test_term_key_decides_alpha_eq(self, a, b):
        # free names include v0 and v1, the names of renamed binders
        assert (term_key(a) == term_key(b)) == oracle.alpha_eq(a, b)

    @pytest.mark.parametrize("a, b, expected", [
        # the inner binder shadows the outer one, so the levels differ
        (Lam("x", Lam("x", Var("x"))), Lam("x", Lam("y", Var("x"))), False),
        (Lam("x", Lam("x", Var("x"))), Lam("y", Lam("x", Var("x"))), True),
        # the shadowing x leaves one entry in the map, yet y sits at level 2
        (Lam("x", Lam("x", Lam("y", Var("y")))), Lam("x", Lam("x", Lam("y", Var("x")))), False),
        # a free v0 is not the renamed first binder
        (Lam("x", Var("v0")), Lam("v0", Var("v0")), False),
        (Case(IT, "a", Var("a"), "a", Var("b")), Case(IT, "b", Var("b"), "c", Var("b")), True),
        (Forall(Var("x"), "x", Var("x")), Forall(Var("x"), "y", Var("x")), False),
        # one shared Var object, bound on the left and free on the right
        (Lam("x", SHARED_X), Lam("y", SHARED_X), False),
        (Lam("x", Pair(IT, SHARED_X)), Lam("y", Pair(IT, SHARED_X)), False),
    ])
    def test_alpha_eq_cases(self, a, b, expected):
        assert alpha_eq(a, b) is expected
        assert oracle.alpha_eq(a, b) is expected

    def test_term_key_of_free_renamed_name(self):
        # a free v0 is written apart from the renamed first binder
        a, b = Lam("x", Var("v0")), Lam("v0", Var("v0"))
        assert not alpha_eq(a, b)
        assert term_key(a) == (2, "Lam(binder='v0', body=Var(free='v0'))")
        assert term_key(b) == (2, repr(b)) != term_key(a)

    @given(terms(), terms())
    @settings(max_examples=200)
    def test_equality_is_structural(self, a, b):
        copy_a = rebuild(a)
        assert copy_a == a and hash(copy_a) == hash(a)
        assert (a == b) == (repr(a) == repr(b))
        hash(b)
        assert (a == b) == (repr(a) == repr(b))
        if a == b:
            assert hash(a) == hash(b)


def stack_safe(test):
    """Run ``test``, failing at once if it recurses on depth: pytest takes
    minutes to render a RecursionError traceback 10^4 frames deep."""
    @functools.wraps(test)
    def run(self):
        try:
            return test(self)
        except RecursionError:
            pass
        pytest.fail(f"{test.__name__} recursed on depth", pytrace=False)
    return run


class TestDeepTerms:
    # Every operation here recursed on depth and raised RecursionError
    # about 1,000 deep (a ctk traceback, for the parser).
    N = 10_000

    @stack_safe
    def test_alpha_eq_key_and_repr(self):
        a = nested(self.N, IT)
        b = nested(self.N, IT)
        assert alpha_eq(a, b)
        assert not alpha_eq(a, nested(self.N, Inr(IT)))
        text = repr(a)
        assert text == "Inl(arg=" * self.N + "It()" + ")" * self.N
        assert term_key(a) == (self.N + 1, text)

    @stack_safe
    def test_nested_lambdas(self):
        a, b, c = Var("x"), Var("y"), Var("x")
        for i in range(self.N - 1):
            a, b, c = Lam("x", a), Lam("y", b), Lam(f"y{i}", c)
        a, b, c = Lam("x", a), Lam("y", b), Lam("x", c)
        assert alpha_eq(a, b)
        assert not alpha_eq(a, c)  # c's variable is bound by its outermost lambda
        key = term_key(a)
        assert key == term_key(b) != term_key(c)
        assert key[1].endswith(f"body=Var(name='v{self.N - 1}')" + ")" * self.N)
        assert repr(a).startswith("Lam(binder='x', body=Lam(binder='x', ")

    @stack_safe
    def test_distinct_binders_linear(self):
        # one binder map per walk, restored below each scope: a map copied
        # at every binder made both walks quadratic in the binders in scope
        n = 2 * self.N
        a, b = Var("x0"), Var("y0")
        for i in reversed(range(n)):
            a, b = Lam(f"x{i}", App(a, Var(f"x{i}"))), Lam(f"y{i}", App(b, Var(f"y{i}")))

        def fastest(walk, *args):
            # the best of three runs, so that a busy host slows each walk alike
            times = []
            for _ in range(3):
                start = time.perf_counter()
                walk(*args)
                times.append(time.perf_counter() - start)
            return min(times)

        printing = fastest(repr, a)
        for walk, args in ((alpha_eq, (a, b)), (term_key, (a,))):
            took = fastest(walk, *args)
            assert took < 2, walk
            # repr walks the same term once; the quadratic walks took 15
            # and 28 times as long as it at 10^4 binders, and more here
            assert took < 8 * printing, (walk, took, printing)
        assert alpha_eq(a, b)
        key = term_key(a)
        assert key == term_key(b)
        assert key[1].startswith("Lam(binder='v0', body=App(fn=Lam(binder='v1', ")
        assert key[1].endswith("arg=Var(name='v1'))), arg=Var(name='v0')))")

    @stack_safe
    def test_closed(self):
        a, b = nested(self.N, IT), nested(self.N, IT)
        assert a == b
        assert constructor_depth(a) == self.N + 1
        assert hash(b) == hash(a)
        assert constructor_depth(b) == self.N + 1
        assert free_vars(a) == frozenset()
        assert a != nested(self.N, Inr(IT))
        assert nested(self.N, Inr(IT)) != nested(self.N, Inl(IT))

    @stack_safe
    def test_print_and_describe(self):
        text = "inl (" * (self.N - 1) + "inl it" + ")" * (self.N - 1)
        assert pretty(nested(self.N, IT)) == text
        assert describe(nested(self.N, IT)) == text[:117] + "..."
        a, b = Var("x"), Var("x")
        for _ in range(self.N // 2):
            a = Case(Lam("x", a), "l", IT, "r", Lam("y", Var("r")))
            b = Lam("x", Case(IT, "l", b, "r", Var("r")))
        # a lam needs brackets as a scrutinee, not as a body
        n = self.N // 2
        case = "case (lam x. " * n + "x" + ") of inl l -> it | inr r -> lam y. r" * n
        assert pretty(a) == case and describe(a, 40) == case[:37] + "..."
        lam = "lam x. case it of inl l -> " * n + "x" + " | inr r -> r" * n
        assert pretty(b) == lam and describe(b, 40) == lam[:37] + "..."

    @stack_safe
    def test_parse_nested_too_deep(self):
        # the parser still recurses: too deep a text is a ParseError
        text = "(" * self.N + "it" + ")" * self.N
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.message == "input nested too deep at '('"
        assert err.value.line == 1 and 1 < err.value.col < self.N

    def test_ctk_eval_nested_too_deep(self):
        src = Path(ctkernel.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "ctkernel", "eval", "(" * self.N + "it" + ")" * self.N],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: 1:") and "Traceback" not in proc.stderr
        assert "input nested too deep" in proc.stderr

    @stack_safe
    def test_open(self):
        a = nested(self.N, Var("x"))
        assert free_vars(a) == {"x"}
        assert hash(a) == hash(nested(self.N, Var("x")))
        assert a != nested(self.N, Var("y"))
