"""Binary model: equal sets, equal members, functionality, PER laws."""

import itertools

from ctkernel.binary import (
    check_eq_member, check_eq_set, check_functionality, related_pairs,
)
from ctkernel.evaluation import evaluate
from ctkernel.judgments import EqMember, Evals, Gen, Status, replay
from ctkernel.syntax import parse, pretty
from ctkernel.terms import IT, Disj, Forall, Inl, Inr, TRUE, FALSE, substitute
from ctkernel.unary import (
    Inhabitation, check_is_set, check_member, enumerate_canonical, ground_types,
    inhabited_exact,
)
from termgen import OMEGA, generated_checks


class TestEqSet:
    def test_reflexive_base(self):
        assert check_eq_set(TRUE, TRUE).status is Status.VERIFIED

    def test_distinct_relations(self):
        assert check_eq_set(TRUE, FALSE).status is Status.REFUTED

    def test_vacuous_families_equal(self):
        # both relations relate exactly the lambda pairs with a vacuous
        # condition, so equality follows from the empty domain; confirmed
        # below by pair enumeration on each side
        v = check_eq_set(parse("False => True"), parse("False => False"))
        assert v.status is Status.VERIFIED
        for ty in ("False => True", "False => False"):
            pairs, complete, failure = related_pairs(parse(ty), 3)
            assert failure is None and complete
            assert [(pretty(a), pretty(b)) for a, b in pairs] == [("lam x. x", "lam x. x")]

    def test_cross_head_both_empty(self):
        assert check_eq_set(FALSE, parse("True /\\ False")).status is Status.VERIFIED
        assert check_eq_set(parse("True => False"), parse("False /\\ False")).status is Status.VERIFIED

    def test_same_head_both_empty(self):
        # different domains, yet both relations are empty, so they are equal
        for a, b in [
            ("True /\\ False", "False /\\ True"),
            ("True => False", "(True \\/ True) => False"),
            ("(True /\\ False) => True", "(False /\\ True) => False"),
            ("True \\/ (True /\\ False)", "True \\/ (False /\\ True)"),
        ]:
            assert check_eq_set(parse(a), parse(b)).status is Status.VERIFIED, (a, b)
        v = check_eq_set(parse("True => True"), parse("(True \\/ True) => True"))
        assert v.status is Status.REFUTED
        # equal sets are sets: an empty relation over a non-set is refuted
        for a, b in [("True /\\ False", "False /\\ it"), ("False", "False /\\ it")]:
            assert check_eq_set(parse(a), parse(b)).status is Status.REFUTED, (a, b)
        # an undecided emptiness test does not refute
        v = check_eq_set(
            parse("(forall x : True \\/ True . case x of inl a -> True | inr b -> True) => False"),
            parse("True => False"),
        )
        assert v.status is Status.UNKNOWN

    def test_fuel_bounds_both_sides(self):
        # the two types draw on one tank: each takes one step
        a, b = parse("(lam w. w) True"), parse("(lam v. v) True")
        for x, y in ((a, b), (b, a)):
            assert check_eq_set(x, y, fuel=1).status is Status.DIVERGED
            assert check_eq_set(x, y, fuel=2).status is Status.VERIFIED

    def test_order_independent(self):
        # each side is evaluated and tested on the same budget, so a stuck
        # or not-a-set side refutes even when the other side diverges
        for a, b in [
            ("True => (lam o. o o) (lam o. o o)",
             "forall y : True \\/ True . case y of inl a -> True | inr b -> it"),
            ("fst (inl it) => True", "(lam o. o o) (lam o. o o) => True"),
        ]:
            for x, y in ((a, b), (b, a)):
                assert check_eq_set(parse(x), parse(y)).status is Status.REFUTED, (x, y)

    def test_non_sets_over_an_empty_domain(self):
        # the domain is empty but outside the ground fragment: only its
        # complete, empty enumeration shows it, and the families must
        # still be sets
        d = parse("exists y : True \\/ True . case y of inl a -> False | inr b -> False")
        assert inhabited_exact(d) is Inhabitation.NOT_GROUND
        e = enumerate_canonical(d)
        assert e.complete and not e.witnesses
        for a, b in [("D => it", "D => True"), ("D /\\ it", "D /\\ True")]:
            a, b = (substitute(parse(t), "D", d) for t in (a, b))
            for x, y in ((a, b), (b, a)):
                v = check_eq_set(x, y)
                assert v.status is Status.REFUTED, (pretty(x), pretty(y))
                assert v.trace.steps[1].rule == "vacuous-families"
            assert check_is_set(a).status is Status.REFUTED

    def test_cross_head_one_inhabited(self):
        assert check_eq_set(FALSE, TRUE).status is Status.REFUTED
        assert check_eq_set(parse("True /\\ True"), TRUE).status is Status.REFUTED

    def test_components_must_match(self):
        assert check_eq_set(parse("True \\/ False"), parse("True \\/ False")).status is Status.VERIFIED
        assert check_eq_set(parse("True \\/ False"), parse("True \\/ True")).status is Status.REFUTED

    def test_pointwise_families(self):
        a = parse("True => (True \\/ False)")
        b = parse("True => (True \\/ False)")
        assert check_eq_set(a, b).status is Status.VERIFIED

    def test_not_a_set_refuted(self):
        assert check_eq_set(TRUE, IT).status is Status.REFUTED


class TestEqMember:
    def test_unit(self):
        assert check_eq_member(IT, IT, TRUE).status is Status.VERIFIED

    def test_extensional_function_equality(self):
        v = check_eq_member(parse("lam x. x"), parse("lam y. y"), parse("True => True"))
        assert v.status is Status.VERIFIED
        v = check_eq_member(parse("lam x. x"), parse("lam y. it"), parse("True => True"))
        assert v.status is Status.VERIFIED

    def test_mismatched_injections(self):
        v = check_eq_member(Inl(IT), Inr(IT), parse("True \\/ True"))
        assert v.status is Status.REFUTED

    def test_matching_injections(self):
        assert check_eq_member(Inl(IT), Inl(IT), parse("True \\/ True")).status is Status.VERIFIED

    def test_pairs_componentwise(self):
        a = parse("<it, inl it>")
        b = parse("<it, inr it>")
        ty = parse("True /\\ (True \\/ True)")
        assert check_eq_member(a, a, ty).status is Status.VERIFIED
        assert check_eq_member(a, b, ty).status is Status.REFUTED

    def test_nothing_related_at_false(self):
        assert check_eq_member(IT, IT, FALSE).status is Status.REFUTED

    def test_vacuous_function_equality(self):
        v = check_eq_member(parse("lam x. it"), parse("lam y. <it, it>"),
                            parse("False => True"))
        assert v.status is Status.VERIFIED

    def test_vacuous_trace_shape(self):
        v = check_eq_member(parse("lam x. x"), parse("lam x. it"), parse("False => True"))
        steps = v.trace.steps
        assert [s.rule for s in steps] == [
            "equal-membership", "canonical-closure", "canon-forall",
            "hypothesis-membership", "membership-closure",
        ]
        # equal binders are renamed apart in the general closure
        assert isinstance(steps[2].statement, Gen)
        assert steps[2].statement.binders == ("x", "x1")
        assert steps[4].children[0].steps[0].rule == "vacuous-discharge"

    def test_instances_trace_shape(self):
        v = check_eq_member(parse("lam x. x"), parse("lam x. it"), parse("True => True"))
        assert [s.rule for s in v.trace.steps] == [
            "equal-membership", "canonical-closure", "instances",
        ]

    def test_order_independent(self):
        # a term that gets stuck within the budget refutes, even when the
        # other term diverges or leaves too little fuel for it
        fn = parse("(lam a. lam b. lam c. lam d. lam x. it) it it it it")
        stuck = parse("(lam z. fst z) it")
        for m, n, ty, fuel in [
            (OMEGA, parse("fst it"), TRUE, 10_000),
            (fn, stuck, parse("(True \\/ True) => True"), 4),
        ]:
            for x, y in ((m, n), (n, m)):
                v = check_eq_member(x, y, ty, fuel)
                assert v.status is Status.REFUTED, (pretty(x), pretty(y))
                assert v.trace.steps[-1].rule == "stuck-term"

    def test_fuel_bounds_both_terms(self):
        # the two terms draw on one tank: fn takes 4 steps, so fn and a
        # copy of it need 8
        fn = parse("(lam a. lam b. lam c. lam d. lam x. it) it it it it")
        ty = parse("(True \\/ True) => True")
        for n in (fn, parse(pretty(fn))):
            assert check_eq_member(fn, n, ty, fuel=7).status is Status.DIVERGED
            assert check_eq_member(fn, n, ty, fuel=8).status is Status.VERIFIED

    def test_verified_traces_replay(self):
        v = check_eq_member(parse("lam x. x"), parse("lam y. it"), parse("True => True"))
        assert v.status is Status.VERIFIED
        assert replay(v.trace, 1000)


class TestFunctionality:
    def test_case_dispatch_counterexample(self):
        f = parse("lam x. case x of inl a -> it | inr b -> <it, it>")
        v = check_functionality(f, parse("True \\/ True"), "_", TRUE)
        assert v.status is Status.REFUTED
        assert v.pair is not None
        assert tuple(pretty(t) for t in v.pair) == ("inr it", "inr it")
        assert isinstance(v.instance, EqMember)
        # the recorded failing instance computes to the pair witness
        lhs = evaluate(v.instance.m, 100)
        assert pretty(lhs.term) == "<it, it>"

    def test_identity_at_unit(self):
        v = check_functionality(parse("lam x. x"), TRUE, "_", TRUE)
        assert v.status is Status.VERIFIED

    def test_vacuous_discharge(self):
        v = check_functionality(parse("lam x. it"), FALSE, "_", TRUE)
        assert v.status is Status.VERIFIED

    def test_non_function_refuted(self):
        v = check_functionality(IT, TRUE, "_", TRUE)
        assert v.status is Status.REFUTED
        assert v.trace.steps[-1].rule == "canon-forall"

    def test_agrees_with_reflexive_equality_at_every_fuel(self):
        # the function takes 4 steps to reach its lambda, charged once
        fn = parse("(lam a. lam b. lam c. lam d. lam x. it) it it it it")
        ty = parse("(True \\/ True) => True")
        for fuel in range(1, 31):
            v = check_functionality(fn, ty.domain, ty.binder, ty.family, fuel=fuel)
            w = check_eq_member(fn, fn, ty, fuel=fuel)
            assert (v.status, v.trace.to_json()) == (w.status, w.trace.to_json()), fuel

    def test_dependent_family(self):
        family = parse("case x of inl a -> True | inr b -> True /\\ True")
        good = parse("lam x. case x of inl a -> it | inr b -> <it, it>")
        v = check_functionality(good, parse("True \\/ True"), "x", family)
        assert v.status is Status.VERIFIED


class TestPerLaws:
    def test_symmetry_and_transitivity_small(self):
        # exhaustive at former depth 2; the acceptance suite pushes to 3
        for ty in ground_types(2):
            ws = enumerate_canonical(ty, 3).witnesses
            verdicts = {}
            for a, b in itertools.product(ws, repeat=2):
                v = check_eq_member(a, b, ty)
                assert v.status in (Status.VERIFIED, Status.REFUTED)
                verdicts[(a, b)] = v.verified
            for a, b in itertools.product(ws, repeat=2):
                assert verdicts[(a, b)] == verdicts[(b, a)]
            for a, b, c in itertools.product(ws, repeat=3):
                if verdicts[(a, b)] and verdicts[(b, c)]:
                    assert verdicts[(a, c)]


class TestStructuralBridges:
    def test_member_iff_diagonal(self):
        for m, ty in generated_checks(seed=23, count=120):
            unary = check_member(m, ty)
            diag = check_eq_member(m, m, ty)
            assert unary.status == diag.status, (pretty(m), pretty(ty))

    def test_isset_iff_eqset_diagonal(self):
        candidates = [
            TRUE, FALSE, IT, parse("True => (True \\/ False)"),
            parse("lam x. x"), parse("(True /\\ True) \\/ False"),
            parse("fst <True, it>"), parse("False => it"), parse("False /\\ it"),
            parse("(forall x : True \\/ True . case x of inl a -> True | inr b -> True) => True"),
            parse("it /\\ False"), parse("it => False"), parse("True \\/ it"),
        ]
        for ty in candidates:
            isset = check_is_set(ty)
            diag = check_eq_set(ty, ty)
            # an alpha-equal copy built apart takes the non-identical path
            apart = check_eq_set(ty, parse(pretty(ty)))
            assert isset.status == diag.status == apart.status, pretty(ty)

    def test_diagonal_is_set_formation(self):
        # set-hood is the set-equality walk on the diagonal: the type is
        # evaluated once and reported as set(A)
        ty = parse("fst <True => True, it>")
        v = check_is_set(ty)
        assert v.status is Status.VERIFIED
        assert v.trace.render().startswith("(1) set(fst <True => True, it>)    [set-formation]")
        assert [s.rule for s in v.trace.steps] == ["set-formation", "same-family"]
        assert len([p for p in v.trace.steps[1].statement.parts if isinstance(p, Evals)]) == 1
        # one object passed twice is still an equality of two sides
        assert check_eq_set(ty, ty).trace.steps[0].rule == "equal-sets"
        # each family instance is built once: 3 steps for the instances,
        # which two copies per instance would double
        dep = parse("forall x : True \\/ True . case x of inl a -> (lam w. w) True | inr b -> True")
        assert check_is_set(dep, fuel=3).status is Status.VERIFIED
        assert check_is_set(dep, fuel=2).status is Status.DIVERGED

    def test_eq_set_does_not_depend_on_sharing(self):
        # F0's domain is empty: _inhabited shows it at every depth, the
        # enumeration only from depth 3 on.  Set equality and set-hood ask
        # _inhabited, whether the sides are one object or built apart.
        f0 = parse("forall x : (True /\\ False) \\/ False . case x of inl a -> True | inr b -> False")
        for ty in (f0, Disj(TRUE, f0)):
            apart = parse(pretty(ty))
            for depth in (1, 2, 4):
                same = check_eq_set(ty, ty, depth=depth)
                assert same.status is Status.VERIFIED, (pretty(ty), depth)
                assert same.status is check_eq_set(ty, apart, depth=depth).status
                assert same.trace.steps[0].rule == "equal-sets"
        # set-hood asks _inhabited too
        assert [check_is_set(f0, depth=d).status for d in (1, 2, 4)] == [
            Status.VERIFIED, Status.VERIFIED, Status.VERIFIED,
        ]

    def test_eqset_respects_membership(self):
        sets = [t for t in ground_types(2)]
        for a, b in itertools.product(sets, repeat=2):
            if not check_eq_set(a, b).verified:
                continue
            for m in enumerate_canonical(a, 3).witnesses:
                for n in enumerate_canonical(a, 3).witnesses:
                    if check_eq_member(m, n, a).verified:
                        assert check_eq_member(m, n, b).verified, (
                            pretty(m), pretty(n), pretty(a), pretty(b),
                        )


class TestFamilyPrecondition:
    def test_functional_dependent_family_accepted(self):
        from ctkernel.terms import Exists
        family = parse("case x of inl a -> True | inr b -> True /\\ True")
        ty = Exists(parse("True \\/ True"), "x", family)
        assert check_eq_member(parse("<inr it, <it, it>>"),
                               parse("<inr it, <it, it>>"), ty).status is Status.VERIFIED

    def test_ill_formed_family_refuted(self):
        # one branch of the family is not a set, caught at the related
        # pair whose instance lands in it
        bad = parse("case g it of inl a -> True | inr b -> it")
        ty = Forall(parse("True => (True \\/ True)"), "g", bad)
        v = check_eq_member(parse("lam g. it"), parse("lam g. it"), ty)
        assert v.status is Status.REFUTED

    def test_related_pairs_give_equal_instance_sets(self):
        # the derived property behind the precondition, checked directly
        from ctkernel.terms import substitute
        family = parse("case x of inl a -> True | inr b -> False \\/ True")
        domain = parse("True \\/ True")
        pairs, complete, failure = related_pairs(domain, 3)
        assert failure is None and complete
        for u, v in pairs:
            assert check_eq_set(
                substitute(family, "x", u), substitute(family, "x", v)
            ).verified


class TestRelatedPairs:
    def test_cross_pairs_included(self):
        pairs, complete, failure = related_pairs(parse("True => True"), 3)
        assert failure is None and complete
        rendered = {(pretty(a), pretty(b)) for a, b in pairs}
        assert ("lam _. it", "lam x. x") in rendered
        assert ("lam x. x", "lam _. it") in rendered
        assert ("lam _. it", "lam _. it") in rendered

    def test_discrete_domain(self):
        pairs, complete, failure = related_pairs(parse("True \\/ True"), 3)
        assert failure is None and complete
        assert {(pretty(a), pretty(b)) for a, b in pairs} == {
            ("inl it", "inl it"), ("inr it", "inr it"),
        }

    def test_stuck_domain_refutes(self):
        lam = parse("lam x. it")
        v = check_eq_member(lam, lam, parse("((fst it) \\/ True) => True"))
        assert v.status is Status.REFUTED
        assert [s.rule for s in v.trace.steps] == ["equal-membership", "stuck-type"]

    def test_divergent_pair_ends_the_search(self):
        # enumerating the domain spends the one step that relating the
        # first pair needs
        domain = parse("((lam y. y) True) \\/ True")
        pairs, complete, failure = related_pairs(domain, fuel=1)
        assert (pairs, complete, failure.status) == ((), False, Status.DIVERGED)
        assert failure.fuel_report == "type diverged: (lam y. y) True"
        lam = parse("lam x. it")
        v = check_eq_member(lam, lam, Forall(domain, "_", TRUE), fuel=2)
        assert (v.status, v.fuel_report) == (Status.DIVERGED, failure.fuel_report)

    def test_undecided_pair_leaves_the_list_incomplete(self):
        # the witness lam _. it relates to itself only over a dependent
        # domain, whose enumeration is never complete: UNKNOWN, not kept
        domain = parse("(forall z : True \\/ True . case z of inl a -> True | inr b -> True) => True")
        assert enumerate_canonical(domain).witnesses == (parse("lam _. it"),)
        assert related_pairs(domain) == ((), False, None)
