"""Acceptance suite: one test per criterion, each timed against its bound.

The conftest prints a PASS/FAIL line per criterion in the terminal
summary.  Bounds (fuel, depth, search depth, instance depth) are pinned
here, not tuned at runtime.
"""

import itertools
import random
import time
from collections import Counter
from contextlib import contextmanager

from ctkernel.binary import check_eq_member, check_functionality
from ctkernel.cli import main as cli_main
from ctkernel.evaluation import Strategy, evaluate
from ctkernel.judgments import (
    Both, CanonEmpty, CanonClosureIn, CanonIn, EqMember, Evals, Gen, Hyp,
    Member, Status,
)
from ctkernel.rules import compare_readings, parse_rule
from ctkernel.syntax import parse, pretty
from ctkernel.terms import FALSE, IT, TRUE, Inr, constructor_depth
from ctkernel.unary import (
    Inhabitation, check_member, enumerate_canonical,
    ground_types, inhabited_exact,
)
from ctkernel.worlds import (
    Atom, HypForced, RuleValid, chain_model, check_monotone, forces,
    random_model,
)
from termgen import generated_checks

CBV = Strategy.CALL_BY_VALUE


@contextmanager
def within(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime {elapsed:.2f}s exceeds the {seconds}s bound"


def test_criterion_1_worked_example_reproduction():
    with within(1.0):
        witness = parse("lam x. <it, it>")
        claim = parse("False => True")
        verdict = check_member(witness, claim)
        assert verdict.status is Status.VERIFIED

        steps = verdict.trace.steps
        assert len(steps) == 5

        # (1) the membership claim itself
        assert steps[0].statement == Member(witness, claim)
        # (2) evaluation of the witness plus the relation claim
        assert steps[1].statement == Both((
            Evals(witness, witness), CanonIn(claim, (witness,)),
        ))
        # (3) the general hypothetical premise of the quantifier clause
        s3 = steps[2].statement
        assert isinstance(s3, Gen) and isinstance(s3.body, Hyp)
        assert s3.body.antecedents[0] == Member(s3_var(s3), FALSE)
        assert s3.body.consequent == Member(parse("<it, it>"), TRUE)
        # (4) the hypothesis unfolded to closure membership
        s4 = steps[3].statement
        assert isinstance(s4.body.antecedents[0], CanonClosureIn)
        assert s4.body.antecedents[0].ty == FALSE
        # (5) the closure unfolded to evaluation plus relation membership,
        #     discharged vacuously because the relation at False is empty
        s5 = steps[4].statement
        assert isinstance(s5.body.antecedents[0], Both)
        assert isinstance(s5.body.antecedents[0].parts[0], Evals)
        discharge = steps[4].children[0].steps[0]
        assert discharge.rule == "vacuous-discharge"
        assert discharge.statement == CanonEmpty(FALSE)

        # the CLI reproduces it with exit code 0
        import io
        out = io.StringIO()
        assert cli_main(["check", "lam x. <it,it>", "in", "False => True"], out=out) == 0
        printed = out.getvalue()
        assert sum(ln.startswith("(") for ln in printed.splitlines()) == 5
        assert "vacuous-discharge" in printed


def s3_var(stmt):
    from ctkernel.terms import Var
    return Var(stmt.binders[0])


def test_criterion_2_empty_relation_fact():
    with within(1.0):
        for depth in range(0, 11):
            result = enumerate_canonical(FALSE, depth)
            assert result.witnesses == ()
            assert result.complete
        assert check_member(IT, FALSE).status is Status.REFUTED


def test_criterion_3_derivable_admissible_separation():
    with within(30.0):
        bounds = dict(search_depth=5, instance_depth=2, witness_depth=3)

        and_elim = compare_readings(parse_rule("P /\\ Q true |- P true"), **bounds)
        assert not and_elim.derivable
        assert and_elim.derivation.exhausted
        assert and_elim.derivation.at_depth == 5
        assert and_elim.admissibility.status is Status.VERIFIED
        assert and_elim.admissibility.bounds["instance_depth"] == 2
        assert and_elim.admissibility.bounds["witness_depth"] == 3
        assert and_elim.flagged

        and_intro = compare_readings(parse_rule("P true; Q true |- P /\\ Q true"), **bounds)
        assert and_intro.derivable
        assert and_intro.admissibility.status is Status.VERIFIED

        or_elim = compare_readings(parse_rule("P \\/ Q true |- P true"), **bounds)
        assert not or_elim.derivable
        adm = or_elim.admissibility
        assert adm.status is Status.REFUTED
        assert {k: pretty(v) for k, v in adm.instantiation.items()} == {
            "P": "False", "Q": "True",
        }
        assert adm.premise_witnesses == (Inr(IT),)


def test_criterion_4_per_laws_exhaustive():
    with within(300.0):
        violations = []
        for ty in ground_types(3):
            witnesses = enumerate_canonical(ty, 3).witnesses
            related = {}
            for a, b in itertools.product(witnesses, repeat=2):
                verdict = check_eq_member(a, b, ty)
                assert verdict.status in (Status.VERIFIED, Status.REFUTED)
                related[(a, b)] = verdict.verified
            for a, b in itertools.product(witnesses, repeat=2):
                if related[(a, b)] != related[(b, a)]:
                    violations.append(("symmetry", pretty(ty), pretty(a), pretty(b)))
            for a, b, c in itertools.product(witnesses, repeat=3):
                if related[(a, b)] and related[(b, c)] and not related[(a, c)]:
                    violations.append(("transitivity", pretty(ty), pretty(a), pretty(c)))
        assert violations == []


def test_criterion_5_unary_binary_diagonal_agreement():
    with within(120.0):
        pairs = generated_checks(seed=2026, count=1000)
        unary_verified, unary_refuted = set(), set()
        binary_verified, binary_refuted = set(), set()
        for index, (m, ty) in enumerate(pairs):
            u = check_member(m, ty)
            d = check_eq_member(m, m, ty)
            if u.status is Status.VERIFIED:
                unary_verified.add(index)
            if u.status is Status.REFUTED:
                unary_refuted.add(index)
            if d.status is Status.VERIFIED:
                binary_verified.add(index)
            if d.status is Status.REFUTED:
                binary_refuted.add(index)
        assert unary_verified == binary_verified
        assert unary_refuted == binary_refuted
        # the batch genuinely exercises both outcomes
        assert len(unary_verified) > 100 and len(unary_refuted) > 100


def test_criterion_6_oracle_equivalence_exhaustive():
    with within(120.0):
        disagreements = []
        for ty in ground_types(3):
            inh = inhabited_exact(ty)
            assert inh in (Inhabitation.INHABITED, Inhabitation.UNINHABITED)
            enum = enumerate_canonical(ty, constructor_depth(ty))
            assert enum.complete, pretty(ty)
            if (inh is Inhabitation.INHABITED) != bool(enum.witnesses):
                disagreements.append(pretty(ty))
        assert disagreements == []


def test_criterion_7_functionality_counterexample():
    with within(1.0):
        dispatch = parse("lam x. case x of inl a -> it | inr b -> <it, it>")
        domain = parse("True \\/ True")

        verdict = check_functionality(dispatch, domain, "_", TRUE)
        assert verdict.status is Status.REFUTED
        assert verdict.pair == (Inr(IT), Inr(IT))
        assert isinstance(verdict.instance, EqMember)
        instance_value = evaluate(verdict.instance.m, 100)
        assert pretty(instance_value.term) == "<it, it>"

        # also refuted as a plain member of (True \/ True) => True
        membership = check_member(dispatch, parse("(True \\/ True) => True"))
        assert membership.status is Status.REFUTED

        constant = parse("lam x. it")
        assert check_functionality(constant, domain, "_", TRUE).status is Status.VERIFIED


def test_criterion_8_monotonicity_laws():
    with within(60.0):
        rng = random.Random(20260811)
        hyp_failures = 0
        rule_counterexamples = 0
        for _ in range(500):
            model = random_model(rng, max_worlds=6, max_atoms=4)
            for a in model.atoms:
                for b in model.atoms:
                    if check_monotone(model, HypForced(Atom(a), Atom(b))) is not None:
                        hyp_failures += 1
                    if check_monotone(model, RuleValid(Atom(a), Atom(b))) is not None:
                        rule_counterexamples += 1
        assert hyp_failures == 0
        assert rule_counterexamples >= 1

        chain = chain_model()
        a, b = Atom("A"), Atom("B")
        assert forces(chain, "u", RuleValid(a, b)) is True
        assert forces(chain, "v", RuleValid(a, b)) is False
        assert forces(chain, "u", HypForced(a, b)) is False


def test_criterion_9_verdict_stability():
    with within(300.0):
        pairs = generated_checks(seed=501, count=500)
        statuses = Counter()
        for m, ty in pairs:
            base = check_member(m, ty, fuel=10000, depth=4)
            statuses[base.status] += 1
            doubled = check_member(m, ty, fuel=20000, depth=8)
            if base.status in (Status.VERIFIED, Status.REFUTED):
                assert doubled.status is base.status, (pretty(m), pretty(ty))
            by_value = check_member(m, ty, fuel=10000, depth=4, strategy=CBV)
            assert by_value.status is base.status, (pretty(m), pretty(ty))
        assert statuses[Status.VERIFIED] > 0 and statuses[Status.REFUTED] > 0

        # the flagship checks of this suite are also strategy-robust
        flagship = [
            (parse("lam x. <it, it>"), parse("False => True")),
            (IT, FALSE),
            (parse("lam x. case x of inl a -> it | inr b -> <it, it>"),
             parse("(True \\/ True) => True")),
            (parse("lam x. it"), parse("(True \\/ True) => True")),
        ]
        for m, ty in flagship:
            assert check_member(m, ty).status is check_member(m, ty, strategy=CBV).status
