"""Fueled evaluation: examples, the four operational invariants, agreement
with the reference evaluator, stack safety on deep and long runs, and the
memory and sharing of the closure machine."""

import tracemalloc

import pytest
from hypothesis import given, settings

import eval_oracle
from ctkernel.evaluation import (
    Canonical, FuelExhausted, Strategy, Stuck, Tank, evaluate, run,
)
from ctkernel.syntax import parse
from ctkernel.terms import (
    App, Case, CanonicalForm, Fst, IT, Inl, Inr, Lam, Pair, Var, classify,
    is_canonical,
)
from termgen import OMEGA, closed_terms, generated_checks, terms

CBV = Strategy.CALL_BY_VALUE


class TestExamples:
    def test_lambda_is_value(self):
        r = evaluate(parse("lam x. <it, it>"), 100)
        assert r == Canonical(Lam("x", Pair(IT, IT)), CanonicalForm.LAM, 0)

    def test_single_beta_step(self):
        r = evaluate(parse("(lam x. x) it"), 100)
        assert r == Canonical(IT, CanonicalForm.IT, 1)

    def test_case_dispatch(self):
        # hand-stepped: the left branch fires once, substituting it
        r = evaluate(parse("case inl it of inl x -> x | inr y -> <y, y>"), 100)
        assert r == Canonical(IT, CanonicalForm.IT, 1)

    def test_self_application_exhausts_fuel(self):
        r = evaluate(OMEGA, 1000)
        assert isinstance(r, FuelExhausted)

    def test_projection_of_injection_is_stuck(self):
        r = evaluate(Fst(Inl(IT)), 10)
        assert isinstance(r, Stuck)
        assert r.offending == Fst(Inl(IT))

    def test_free_variable_is_stuck(self):
        r = evaluate(Var("x"), 10)
        assert isinstance(r, Stuck)

    @pytest.mark.parametrize("t", [Var("Z"), parse("Z it"), parse("fst (Z it)")])
    def test_stuck_variable_head_needs_no_fuel(self, t):
        # a free head takes no step, so a dry tank cannot hide it
        tank = Tank(0, Strategy.CALL_BY_NAME)
        assert run(t, tank) == Stuck(Var("Z"))
        assert tank.remaining == 0

    @pytest.mark.parametrize("text", [
        "fst it", "snd (lam x. x)", "it it", "case lam x. x of inl a -> a | inr b -> b",
    ])
    @pytest.mark.parametrize("strategy", Strategy)
    def test_stuck_head_needs_no_fuel(self, text, strategy):
        # an eliminator on the wrong canonical shape takes no step either
        for fuel in (0, 1):
            tank = Tank(fuel, strategy)
            assert run(parse(text), tank) == Stuck(parse(text))
            assert tank.remaining == fuel

    def test_projections(self):
        assert evaluate(parse("fst <it, <it, it>>"), 10).term == IT
        assert evaluate(parse("snd <it, <it, it>>"), 10).term == Pair(IT, IT)

    def test_fuel_validation(self):
        with pytest.raises(ValueError):
            evaluate(IT, 0)


class TestInvariants:
    @given(closed_terms())
    @settings(max_examples=150, deadline=None)
    def test_idempotence_on_canonical(self, t):
        r = evaluate(t, 200)
        if isinstance(r, Canonical):
            again = evaluate(r.term, 200)
            assert again == Canonical(r.term, r.form, 0)

    @given(closed_terms())
    @settings(max_examples=100, deadline=None)
    def test_determinism(self, t):
        assert evaluate(t, 150) == evaluate(t, 150)

    @given(closed_terms())
    @settings(max_examples=100, deadline=None)
    def test_fuel_monotonicity(self, t):
        r = evaluate(t, 100)
        if isinstance(r, Canonical):
            assert evaluate(t, 101) == r
            assert evaluate(t, 200) == r
            assert r.steps <= 100

    @given(closed_terms())
    @settings(max_examples=150, deadline=None)
    def test_weakness_canonical_inputs_untouched(self, t):
        if is_canonical(t):
            r = evaluate(t, 100)
            assert isinstance(r, Canonical)
            assert r.term is t

    def test_weakness_divergence_under_constructors(self):
        # a divergent subterm inside a canonical constructor is preserved
        for shell in (Pair(OMEGA, IT), Inl(OMEGA), Lam("x", OMEGA)):
            r = evaluate(shell, 50)
            assert isinstance(r, Canonical)
            assert r.steps == 0
            assert r.term is shell


class TestStrategies:
    def test_cbv_step_counts_differ(self):
        t = parse("(lam x. x) ((lam y. y) it)")
        cbn = evaluate(t, 100)
        cbv = evaluate(t, 100, CBV)
        assert cbn.term == cbv.term == IT
        assert cbn.steps == cbv.steps == 2

        t2 = App(Lam("x", IT), parse("(lam y. y) it"))
        cbn2 = evaluate(t2, 100)
        cbv2 = evaluate(t2, 100, CBV)
        assert cbn2.term == cbv2.term == IT
        assert cbn2.steps == 1
        assert cbv2.steps == 2

    def test_cbn_discards_divergent_argument(self):
        t = App(Lam("x", IT), OMEGA)
        assert isinstance(evaluate(t, 100), Canonical)
        assert isinstance(evaluate(t, 100, CBV), FuelExhausted)

    @given(closed_terms())
    @settings(max_examples=100, deadline=None)
    def test_agreement_when_both_converge(self, t):
        cbn = evaluate(t, 300)
        cbv = evaluate(t, 300, CBV)
        if isinstance(cbn, Canonical) and isinstance(cbv, Canonical):
            assert classify(cbn.term) == classify(cbv.term)


ORACLE_FUELS = (0, 1, 2, 3, 7, 50, 300)


def assert_matches_oracle(t):
    """Same result (class, term, form, steps, offending, remaining) and
    the same fuel drawn as the reference evaluator, at every budget."""
    for strategy in Strategy:
        for fuel in ORACLE_FUELS:
            tank, ref_tank = Tank(fuel, strategy), Tank(fuel, strategy)
            assert run(t, tank) == eval_oracle.run(t, ref_tank)
            assert tank.remaining == ref_tank.remaining


class TestAgainstOracle:
    @given(closed_terms())
    @settings(max_examples=200, deadline=None)
    def test_closed_terms(self, t):
        assert_matches_oracle(t)

    @given(terms())
    @settings(max_examples=300, deadline=None)
    def test_open_terms(self, t):
        assert_matches_oracle(t)

    @pytest.mark.parametrize("seed, count", [(2026, 1000), (501, 500)])
    def test_criterion_pools(self, seed, count):
        for m, a in generated_checks(seed=seed, count=count):
            assert_matches_oracle(m)
            assert_matches_oracle(a)

    def test_long_descriptions(self):
        # remaining text past the 120-character cut, under every frame kind
        big = parse("<lam z. <z, z>, <inl it, inr <it, it>>>")
        for text in (
            "(lam x. x x x) (lam x. x x x)",
            "fst (snd ((lam o. o o) (lam o. o o)))",
            "case (lam o. o o) (lam o. o o) of inl a -> <a, a> | inr b -> <b, <b, b>>",
            "(lam x. x) ((lam y. y) ((lam o. o o o) (lam o. o o o)))",
        ):
            t = parse(text)
            for _ in range(3):
                assert_matches_oracle(t)
                t = App(App(Lam("w", Var("w")), t), big)
        # openers alone pass the cut
        t = OMEGA
        for i in range(40):
            t = Fst(t) if i % 2 else Case(t, "a", Var("a"), "b", big)
        assert_matches_oracle(t)

    @pytest.mark.parametrize("text", [
        "(lam f. (lam g. g) (f it)) (lam x. x)",
        "(lam f. case inl (f it) of inl g -> g | inr h -> h) (lam x. x)",
    ])
    def test_focus_is_a_closure_with_its_own_environment(self, text):
        # the bound value f it is a closure over f, and it becomes the
        # focus when g is looked up
        t = parse(text)
        assert_matches_oracle(t)
        assert evaluate(t, 100) == Canonical(IT, CanonicalForm.IT, 3)

    # Open inputs where a step substitutes an open value, so that
    # capture-avoiding substitution picks fresh names.
    def test_open_argument_captured_by_binder(self):
        t = parse("(lam x. lam y. x) y")
        assert_matches_oracle(t)
        assert evaluate(t, 10).term == Lam("y1", Var("y"))

    def test_open_payload_under_binder(self):
        t = parse("case inl y of inl a -> lam y. <a, y> | inr b -> b")
        assert_matches_oracle(t)
        assert evaluate(t, 10).term == Lam("y1", Pair(Var("y"), Var("y1")))

    def test_closed_value_meets_open_argument(self):
        t = parse("(lam z. (lam x. lam y. <x, z>) y) it")
        assert_matches_oracle(t)
        assert evaluate(t, 10).term == Lam("y1", Pair(Var("y"), IT))

    def test_stuck_case_renames_for_open_value(self):
        t = parse("(lam y. case lam q. q of inl x -> x | inr z -> <y, z>) z")
        assert_matches_oracle(t)
        assert evaluate(t, 10).offending == parse(
            "case lam q. q of inl x -> x | inr z1 -> <z, z1>")


def growing_case_spine(n: int, branch):
    """``inl it`` under n case dispatches whose left branch is ``branch``."""
    t = Inl(IT)
    for _ in range(n):
        t = Case(t, "a", branch, "b", Inr(Var("b")))
    return t


def distinct_nodes(t) -> int:
    """How many node objects ``t`` is made of, each shared one counted once."""
    seen, todo = set(), [t]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo += [v for v in vars(node).values() if type(v) is not str]
    return len(seen)


class TestClosureMachine:
    def test_shared_values_stay_shared(self):
        # each dispatch binds the payload twice; read back once per
        # closure, the result shares it as the eager machine's does
        n = 40
        r = evaluate(growing_case_spine(n, Inl(Pair(Var("a"), Var("a")))), 10 * n)
        assert isinstance(r, Canonical) and r.steps == n
        assert distinct_nodes(r.term) <= 3 * n

    def test_no_allocation_per_frame(self):
        t = parse("(lam x. x x x) (lam x. x x x)")
        tracemalloc.start()
        try:
            r = evaluate(t, 10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(r, FuelExhausted)
        assert peak < 2 * 2**20


class TestStackSafety:
    def test_projection_spine(self):
        n = 100_000
        t = IT
        for _ in range(n):
            t = Pair(t, IT)
        for _ in range(n):
            t = Fst(t)
        r = evaluate(t, 10 * n)
        assert isinstance(r, Canonical)
        assert r.term is IT and r.steps == n

    def test_beta_spine(self):
        n = 10_000
        ident = Lam("x", Var("x"))
        t = ident
        for _ in range(n - 1):
            t = App(t, ident)
        r = evaluate(App(t, IT), 10 * n)
        assert isinstance(r, Canonical)
        assert r.term is IT and r.steps == n

    def test_case_spine(self):
        n = 10_000
        t = Inl(IT)
        for _ in range(n):
            t = Case(t, "a", Inr(Var("a")), "b", Inl(Var("b")))
        r = evaluate(t, 10 * n)
        assert isinstance(r, Canonical)
        assert r.form is CanonicalForm.INL and r.term.arg is IT and r.steps == n

    def test_growing_payload_readback(self):
        # each payload closure points at the one before: the result is
        # read back 2 * 10^4 deep
        n = 10_000
        r = evaluate(growing_case_spine(n, Inl(Pair(Var("a"), IT))), 10 * n)
        assert isinstance(r, Canonical) and r.steps == n
        expected = IT
        for _ in range(n):
            expected = Pair(expected, IT)
        assert r.term == Inl(expected)

    def test_triple_self_application_exhausts_fuel(self):
        r = evaluate(parse("(lam x. x x x) (lam x. x x x)"), 100_000)
        assert isinstance(r, FuelExhausted)
        assert r.remaining.startswith("(lam x. x x x) (lam x. x x x) (lam x. x x x) ")
        assert len(r.remaining) == 120 and r.remaining.endswith("...")
