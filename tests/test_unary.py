"""Unary model: membership, set-hood, inhabitation, enumeration.

Expected values marked as derived below were computed by the independent
brute-force oracles in this file (candidate pools filtered by a
hand-written ground membership predicate) before being frozen into
assertions; the oracles never call the code paths they check.
"""

import itertools

import pytest
from hypothesis import given, settings

import ctkernel.unary
from ctkernel.evaluation import Strategy, Tank, evaluate, Canonical
from ctkernel.judgments import (
    CanonEmpty, Gen, Hyp, Member, Status, replay,
)
from ctkernel.syntax import parse, pretty
from ctkernel.terms import (
    Disj, Exists, Forall, IT, Inl, Inr, Lam, OpenTermError, Pair, TRUE,
    FALSE, Var, alpha_eq, conj, constructor_depth, imp,
)
from ctkernel.unary import (
    _AND, _IMP, _OR, Inhabitation, _inhabited, check_is_set, check_member,
    enumerate_canonical, ground_types, inhabited_exact,
)
from admissibility_oracle import _run_inhabited, combine_and, combine_imp, combine_or
from termgen import OMEGA, STUCK_TERM, closed_terms, generated_checks

CBV = Strategy.CALL_BY_VALUE


# -- independent oracles ---------------------------------------------------


def bruteforce_member(t, ty) -> bool:
    """Ground membership by direct recursion, independent of the checker.

    Handles canonical witnesses of non-function ground types, and
    functions by instantiating on brute-forced domain members."""
    r = evaluate(t, 500)
    if not isinstance(r, Canonical):
        return False
    t = r.term
    rty = evaluate(ty, 500)
    assert isinstance(rty, Canonical)
    ty = rty.term
    match ty:
        case x if x == TRUE:
            return t == IT
        case x if x == FALSE:
            return False
        case Disj(l, rr):
            if isinstance(t, Inl):
                return bruteforce_member(t.arg, l)
            if isinstance(t, Inr):
                return bruteforce_member(t.arg, rr)
            return False
        case Exists(d, _, f):
            return (
                isinstance(t, Pair)
                and bruteforce_member(t.fst, d)
                and bruteforce_member(t.snd, f)
            )
        case Forall(d, _, f):
            if not isinstance(t, Lam):
                return False
            domain = bruteforce_pool(d, 3)
            from ctkernel.terms import substitute
            return all(
                bruteforce_member(substitute(t.body, t.binder, w), f)
                for w in domain
            )
    raise AssertionError(f"oracle does not cover {pretty(ty)}")


def bruteforce_pool(ty, depth) -> list:
    """All canonical members of a ground type, by filtering the raw pool
    of canonical shapes of bounded depth through the oracle predicate."""
    candidates = [IT]
    for _ in range(depth - 1):
        candidates = candidates + [Inl(c) for c in candidates] + [
            Inr(c) for c in candidates
        ] + [Pair(a, b) for a in candidates for b in candidates]
    lams = [Lam("_", c) for c in candidates] + [Lam("x", Var("x"))]
    pool = candidates + lams
    return [c for c in pool if bruteforce_member(c, ty)]


class TestIsSet:
    def test_true_is_set(self):
        assert check_is_set(TRUE).status is Status.VERIFIED

    def test_it_is_not_a_set(self):
        assert check_is_set(IT).status is Status.REFUTED

    def test_vacuous_implication_is_set(self):
        assert check_is_set(parse("False => True")).status is Status.VERIFIED

    def test_components_checked_hereditarily(self):
        assert check_is_set(parse("True \\/ it")).status is Status.REFUTED
        assert check_is_set(parse("True => it")).status is Status.REFUTED

    def test_dependent_family_checked_pointwise(self):
        ok = Forall(parse("True \\/ True"), "x",
                    parse("case x of inl a -> True | inr b -> False"))
        assert check_is_set(ok).status is Status.VERIFIED
        bad = Forall(parse("True \\/ True"), "x",
                     parse("case x of inl a -> True | inr b -> it"))
        assert check_is_set(bad).status is Status.REFUTED

    def test_divergent_type(self):
        assert check_is_set(OMEGA, fuel=100).status is Status.DIVERGED

    def test_open_type_rejected(self):
        with pytest.raises(OpenTermError):
            check_is_set(Var("x"))


class TestMember:
    def test_worked_vacuous_implication(self):
        v = check_member(parse("lam x. <it, it>"), parse("False => True"))
        assert v.status is Status.VERIFIED
        assert len(v.trace.steps) == 5

    def test_it_in_true(self):
        assert check_member(IT, TRUE).status is Status.VERIFIED

    def test_it_in_false(self):
        assert check_member(IT, FALSE).status is Status.REFUTED

    def test_identity_at_unit_depth_one(self):
        v = check_member(parse("lam x. x"), parse("True => True"), depth=1)
        assert v.status is Status.VERIFIED

    def test_pairs_and_injections(self):
        assert check_member(parse("<it, inl it>"),
                            parse("True /\\ (True \\/ False)")).status is Status.VERIFIED
        assert check_member(parse("inr it"),
                            parse("True \\/ False")).status is Status.REFUTED

    def test_nonlambda_at_implication(self):
        assert check_member(IT, parse("True => True")).status is Status.REFUTED

    def test_membership_in_nonset_refuted(self):
        assert check_member(IT, IT).status is Status.REFUTED
        assert check_member(IT, parse("lam x. x")).status is Status.REFUTED

    def test_divergent_term(self):
        assert check_member(OMEGA, TRUE, fuel=100).status is Status.DIVERGED

    def test_stuck_term_refuted(self):
        assert check_member(STUCK_TERM, TRUE).status is Status.REFUTED

    def test_computed_type(self):
        ty = parse("(lam p. fst p) <True, it>")
        assert check_member(IT, ty).status is Status.VERIFIED

    def test_failing_instance_recorded(self):
        v = check_member(parse("lam x. x"), parse("(True \\/ True) => True"))
        assert v.status is Status.REFUTED
        assert isinstance(v.instance, Member)

    def test_open_inputs_rejected(self):
        with pytest.raises(OpenTermError):
            check_member(Var("x"), TRUE)


class TestTraces:
    def test_vacuous_trace_shape(self):
        v = check_member(parse("lam x. <it, it>"), parse("False => True"))
        steps = v.trace.steps
        assert [s.rule for s in steps] == [
            "membership", "canonical-closure", "canon-forall",
            "hypothesis-membership", "membership-closure",
        ]
        assert isinstance(steps[0].statement, Member)
        assert isinstance(steps[2].statement, Gen)
        assert isinstance(steps[2].statement.body, Hyp)
        discharge = steps[4].children[0].steps[0]
        assert discharge.rule == "vacuous-discharge"
        assert discharge.statement == CanonEmpty(FALSE)

    def test_verified_traces_replay(self):
        for src, ty in [
            ("it", "True"),
            ("lam x. <it, it>", "False => True"),
            ("<it, inl it>", "True /\\ (True \\/ True)"),
            ("lam x. x", "(True \\/ True) => (True \\/ True)"),
        ]:
            v = check_member(parse(src), parse(ty))
            assert v.status is Status.VERIFIED
            assert replay(v.trace, 1000)

    @given(closed_terms(max_leaves=6))
    @settings(max_examples=60, deadline=None)
    def test_generated_verified_traces_replay(self, t):
        for ty in (TRUE, parse("True \\/ True"), parse("False => False")):
            v = check_member(t, ty, fuel=300)
            if v.status is Status.VERIFIED:
                assert replay(v.trace, 300)


class TestInhabited:
    def test_examples(self):
        assert inhabited_exact(parse("False => True")) is Inhabitation.INHABITED
        assert inhabited_exact(FALSE) is Inhabitation.UNINHABITED
        assert inhabited_exact(parse("True => False")) is Inhabitation.UNINHABITED

    def test_uninhabited_implication_against_bruteforce(self):
        # brute force: no candidate function inhabits True => False
        assert bruteforce_pool(parse("True => False"), 3) == []
        assert inhabited_exact(parse("True => False")) is Inhabitation.UNINHABITED

    def test_not_ground(self):
        dependent = Forall(parse("True \\/ True"), "x",
                           parse("case x of inl a -> True | inr b -> False"))
        assert inhabited_exact(dependent) is Inhabitation.NOT_GROUND
        # a stuck disjunct beside an empty one
        assert inhabited_exact(parse("(fst it) \\/ False")) is Inhabitation.NOT_GROUND

    def test_diverging_type(self):
        assert inhabited_exact(OMEGA, fuel=50) is Inhabitation.DIVERGED

    def test_connective_tables_are_the_written_rules(self):
        # the tables come from one rule; the oracle writes out each
        # connective case by case
        pairs = set(itertools.product(Inhabitation, repeat=2))
        for table, rule in ((_OR, combine_or), (_AND, combine_and), (_IMP, combine_imp)):
            assert set(table) == pairs
            for x, y in pairs:
                assert table[x, y] is rule(x, y), (rule.__name__, x, y)

    def test_first_value_decides_where_its_row_is_constant(self):
        def deciding(table):
            return {x for x in Inhabitation if len({table[x, y] for y in Inhabitation}) == 1}

        assert deciding(_OR) == {Inhabitation.INHABITED}
        assert deciding(_AND) == {Inhabitation.UNINHABITED}
        assert deciding(_IMP) == {Inhabitation.UNINHABITED}

    def test_ground_predicate(self):
        ground = parse("(True /\\ False) => (True \\/ False)")
        assert any(alpha_eq(ground, t) for t in ground_types(3))
        assert not any(alpha_eq(Forall(TRUE, "x", Var("x")), t) for t in ground_types(3))
        assert constructor_depth(parse("True \\/ (True => False)")) == 3


INHABITED, UNINHABITED = Inhabitation.INHABITED, Inhabitation.UNINHABITED


class TestCanonicalInputNotRun:
    """A canonical proposition is its own canonical form: ``_inhabited``
    reads it without a run, so it takes no step and leaves the tank as it
    was, even an empty one."""

    @pytest.fixture
    def runs(self, monkeypatch):
        ran = []
        real = ctkernel.unary.run

        def counted(t, tank):
            ran.append(t)
            return real(t, tank)

        monkeypatch.setattr(ctkernel.unary, "run", counted)
        return ran

    @pytest.mark.parametrize("text, valuation, expected", [
        ("True", {}, INHABITED),
        ("False", {}, UNINHABITED),
        ("(True => False) \\/ (False => True)", {}, INHABITED),
        ("(True /\\ False) => False", {}, INHABITED),
        ("True /\\ (True => False)", {}, UNINHABITED),
        ("P", {"P": UNINHABITED}, UNINHABITED),
        ("P \\/ Q", {"P": UNINHABITED, "Q": INHABITED}, INHABITED),
        ("(P => Q) /\\ (Q => P)", {"P": INHABITED, "Q": UNINHABITED}, UNINHABITED),
    ])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_answered_at_empty_tank_without_a_run(self, runs, text, valuation, expected,
                                                   strategy):
        tank = Tank(0, strategy)
        assert _inhabited(parse(text), tank, valuation) is expected
        assert runs == []
        assert tank.remaining == 0

    def test_only_the_parts_that_step_are_run(self, runs):
        redex = parse("(lam x. x) P")
        tank = Tank(10, Strategy.CALL_BY_NAME)
        prop = Disj(FALSE, Forall(redex, "_", TRUE))
        assert _inhabited(prop, tank, {"P": UNINHABITED}) is INHABITED
        assert runs == [parse("(lam x. x) False")]
        assert tank.remaining == 9

    # The domain would have to be run: a walk that read it before the
    # guard would find the empty tank and answer DIVERGED.
    @pytest.mark.parametrize("text, valuation", [
        ("exists x : (lam y. y) True . fst x", {}),
        ("forall x : (lam y. y) True . x", {}),
        ("exists x : (lam y. y) P . case x of inl a -> P | inr b -> Q",
         {"P": INHABITED, "Q": UNINHABITED}),
        ("forall x : (lam y. y) P . case x of inl a -> Q | inr b -> P",
         {"P": UNINHABITED, "Q": INHABITED}),
    ])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_dependent_family_not_ground_without_a_run(self, runs, text, valuation, strategy):
        tank = Tank(0, strategy)
        assert _inhabited(parse(text), tank, valuation) is Inhabitation.NOT_GROUND
        assert runs == []
        assert tank.remaining == 0


# Parts that are canonical, compute, get stuck or diverge.
PARTS = [parse(text) for text in
         ("True", "False", "(lam x. x) True", "(lam x. x) False", "fst it")] + [OMEGA]


class TestInhabitedAgainstRunOracle:
    """``_inhabited`` reads canonical parts without a run; the oracle runs
    every part.  Both must give the same status and leave the same fuel."""

    TYPES = [build(p, q) for build in (Disj, conj, imp) for p in PARTS for q in PARTS]
    TYPES += ground_types(3)

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("fuel", [1, 2, 3, 5, 8, 13])
    def test_status_and_remaining_fuel(self, fuel, strategy):
        assert len(self.TYPES) == 108 + len(ground_types(3))
        for ty in self.TYPES:
            tank, oracle_tank = Tank(fuel, strategy), Tank(fuel, strategy)
            assert _inhabited(ty, tank) is _run_inhabited(ty, oracle_tank), pretty(ty)
            assert tank.remaining == oracle_tank.remaining, pretty(ty)


class TestEnumerate:
    def test_disjunction(self):
        r = enumerate_canonical(parse("True \\/ True"), 2)
        assert [pretty(w) for w in r.witnesses] == ["inl it", "inr it"]
        assert r.complete
        # derived by brute force over the raw depth-2 canonical pool
        oracle = bruteforce_pool(parse("True \\/ True"), 2)
        assert {pretty(w) for w in oracle} == {"inl it", "inr it"}

    def test_false_empty_at_any_depth(self):
        for d in range(0, 11):
            r = enumerate_canonical(FALSE, d)
            assert r.witnesses == () and r.complete

    def test_conjunction(self):
        r = enumerate_canonical(parse("True /\\ True"), 2)
        assert [pretty(w) for w in r.witnesses] == ["<it, it>"]
        assert r.complete
        oracle = bruteforce_pool(parse("True /\\ True"), 2)
        assert {pretty(w) for w in oracle} == {"<it, it>"}

    def test_function_witness_grammar(self):
        r = enumerate_canonical(parse("True => True"), 2)
        assert {pretty(w) for w in r.witnesses} == {"lam _. it", "lam x. x"}
        assert r.complete

    def test_vacuous_domain_representative(self):
        r = enumerate_canonical(parse("False => False"), 3)
        assert [pretty(w) for w in r.witnesses] == ["lam x. x"]
        assert r.complete

    def test_depth_cutoff_incomplete(self):
        r = enumerate_canonical(parse("True \\/ True"), 1)
        assert r.witnesses == () and not r.complete

    def test_dependent_family_enumeration(self):
        ty = Exists(parse("True \\/ True"), "x",
                    parse("case x of inl a -> True | inr b -> False"))
        r = enumerate_canonical(ty, 3)
        assert [pretty(w) for w in r.witnesses] == ["<inl it, it>"]
        assert r.complete

    def test_dependent_function_enumeration_is_incomplete(self):
        ty = Forall(parse("True \\/ True"), "x",
                    parse("case x of inl a -> True | inr b -> True /\\ True"))
        r = enumerate_canonical(ty, 4)
        # no constant body fits both branches, but a dispatching member
        # exists outside the grammar, so the empty list must not claim
        # completeness
        assert r.witnesses == ()
        assert not r.complete
        member = parse("lam x. case x of inl a -> it | inr b -> <it, it>")
        assert check_member(member, ty).status is Status.VERIFIED

    def test_dependent_function_enumeration_provably_empty(self):
        ty = Forall(parse("True \\/ True"), "x",
                    parse("case x of inl a -> False | inr b -> True"))
        r = enumerate_canonical(ty, 4)
        # the left instance is provably empty, so no function exists
        assert r.witnesses == ()
        assert r.complete
        assert check_member(parse("lam x. it"), ty).status is Status.REFUTED

    def test_results_sorted_and_distinct(self):
        from ctkernel.terms import term_key
        r = enumerate_canonical(parse("(True \\/ True) \\/ (True /\\ True)"), 3)
        keys = [term_key(w) for w in r.witnesses]
        assert keys == sorted(keys)
        for a, b in itertools.combinations(r.witnesses, 2):
            assert not alpha_eq(a, b)


class TestOracleEquivalence:
    def test_spotcheck_depth_two(self):
        for ty in ground_types(2):
            inh = inhabited_exact(ty)
            r = enumerate_canonical(ty, constructor_depth(ty))
            assert r.complete
            assert (inh is Inhabitation.INHABITED) == bool(r.witnesses), pretty(ty)


class TestFactoring:
    @given(closed_terms(max_leaves=6))
    @settings(max_examples=60, deadline=None)
    def test_membership_factors_through_evaluation(self, m):
        for ty in (TRUE, parse("True \\/ False"), parse("True => True")):
            whole = check_member(m, ty, fuel=300)
            rm = evaluate(m, 300)
            if not isinstance(rm, Canonical):
                assert whole.status is not Status.VERIFIED
                continue
            rty = evaluate(ty, 300)
            part = check_member(rm.term, rty.term, fuel=300)
            assert (whole.status is Status.VERIFIED) == (part.status is Status.VERIFIED)
            assert (whole.status is Status.REFUTED) == (part.status is Status.REFUTED)


class TestMaterialDischarge:
    @given(closed_terms())
    @settings(max_examples=120, deadline=None)
    def test_vacuous_implication_accepts_any_body(self, body):
        for codomain in (TRUE, FALSE, parse("True \\/ False")):
            v = check_member(Lam("x", body), Forall(FALSE, "_", codomain), fuel=200)
            assert v.status is Status.VERIFIED

    def test_divergent_and_stuck_bodies(self):
        for body in (OMEGA, STUCK_TERM, Var("x")):
            v = check_member(Lam("x", body), parse("False => True"), fuel=100)
            assert v.status is Status.VERIFIED


class TestRefinableVerdicts:
    def test_unknown_resolves_at_larger_depth(self):
        # the quantifier domain needs depth 2 to enumerate completely
        m = parse("lam f. f")
        ty = parse("(True => True) => (True => True)")
        shallow = check_member(m, ty, depth=1)
        assert shallow.status is Status.UNKNOWN
        assert shallow.bound == 1
        deep = check_member(m, ty, depth=2)
        assert deep.status is Status.VERIFIED

    def test_diverged_resolves_at_larger_fuel(self):
        # a type that computes for a while before reaching a former
        ty = parse("(lam p. fst p) <True, it>")
        starved = check_member(IT, ty, fuel=1)
        assert starved.status is Status.DIVERGED
        fed = check_member(IT, ty, fuel=100)
        assert fed.status is Status.VERIFIED

    def test_stuck_part_refutes_on_a_spent_tank(self):
        # the left part spends the one step; the right part is stuck, which
        # needs no fuel, so the type is no set rather than out of fuel
        ty = parse("((lam x. x) True) /\\ (fst it)")
        assert check_is_set(ty, fuel=1).status is Status.REFUTED

    def test_dependent_domain_falls_back_to_enumeration(self):
        # the quantifier domain is itself genuinely dependent: the exact
        # oracle abstains, enumeration takes over, and because a
        # dependent domain can hide dispatching members the verdict
        # honestly stays unknown rather than claiming a theorem
        domain = Forall(parse("True \\/ True"), "x",
                        parse("case x of inl a -> True | inr b -> True"))
        assert inhabited_exact(domain) is Inhabitation.NOT_GROUND
        ty = Forall(domain, "_", TRUE)
        v = check_member(parse("lam g. it"), ty)
        assert v.status is Status.UNKNOWN

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            enumerate_canonical(TRUE, -1)


class TestMonotoneRefinement:
    def test_verdicts_never_flip_on_bigger_budgets(self):
        for m, ty in generated_checks(seed=11, count=150):
            base = check_member(m, ty, fuel=2000, depth=3)
            bigger = check_member(m, ty, fuel=4000, depth=6)
            if base.status in (Status.VERIFIED, Status.REFUTED):
                assert bigger.status is base.status, (pretty(m), pretty(ty))

    @given(closed_terms(max_leaves=6))
    @settings(max_examples=50, deadline=None)
    def test_definitive_stays_definitive(self, m):
        ty = parse("True \\/ (True => True)")
        small = check_member(m, ty, fuel=60, depth=2)
        large = check_member(m, ty, fuel=600, depth=4)
        if small.status in (Status.VERIFIED, Status.REFUTED):
            assert large.status is small.status


class TestFailureBranches:
    """Each input reaches a failure branch of the unary walk that no other
    test reaches; the status and the rule or fuel report are pinned."""

    @pytest.mark.parametrize("text", [
        "fst it", "(fst it) \\/ True", "(fst it) /\\ True", "True /\\ fst it",
    ])
    def test_stuck_component_refutes_enumeration(self, text):
        # the stuck part fails the whole enumeration, wherever it sits
        r = enumerate_canonical(parse(text))
        assert (r.witnesses, r.complete, r.failure.status) == ((), False, Status.REFUTED)
        (step,) = r.failure.trace.steps
        assert (step.rule, step.statement.term) == ("stuck-type", parse("fst it"))

    def test_uncertified_candidate_leaves_enumeration_incomplete(self):
        # the constant candidate's codomain needs a step the tank lacks
        r = enumerate_canonical(parse("True => (lam x. x) True"), 3, fuel=1)
        assert (r.witnesses, r.complete, r.failure) == ((), False, None)

    def test_stuck_domain_refutes(self):
        v = check_member(parse("lam x. x"), parse("forall y : fst it . True"))
        assert v.status is Status.REFUTED
        assert [s.rule for s in v.trace.steps] == ["membership", "stuck-type"]

    @pytest.mark.parametrize("connective, report", [
        ("/\\", f"domain inhabitation diverged: {pretty(OMEGA)} /\\ True"),
        ("\\/", f"type diverged: {pretty(OMEGA)}"),
    ])
    def test_divergent_domain(self, connective, report):
        # a conjunction diverges in the inhabitation test; a disjunction
        # is inhabited by its right side and diverges in the enumeration
        ty = parse(f"(({pretty(OMEGA)}) {connective} True) => True")
        v = check_member(parse("lam x. it"), ty, fuel=50)
        assert (v.status, v.fuel_report) == (Status.DIVERGED, report)
        assert [s.rule for s in v.trace.steps] == ["membership"]

    def test_set_hood_domain_enumeration_diverges(self):
        # the domain is a set and inhabited on its right, but enumerating
        # it needs the step that its set-hood spent
        ty = parse("forall x : ((lam y. y) True) \\/ True . case x of inl a -> True | inr b -> True")
        v = check_is_set(ty, fuel=1)
        assert (v.status, v.fuel_report) == (Status.DIVERGED, "type diverged: (lam y. y) True")
        assert [s.rule for s in v.trace.steps] == ["set-formation", "domains"]

    def test_set_hood_domain_inhabitation_diverges(self):
        ty = parse("forall x : ((lam y. y) True) /\\ True . (lam z. True) x")
        v = check_is_set(ty, fuel=1)
        assert (v.status, v.fuel_report) == (Status.DIVERGED, "domain inhabitation diverged")
        assert [s.rule for s in v.trace.steps] == ["set-formation"]
