"""Reference admissibility: a bounded walk over ground instantiations.

Walks every instantiation of the metavariables by ground types of former
depth <= instance_depth, enumerating canonical witnesses of each premise
and of the conclusion up to witness_depth; every enumeration gets a
fresh fuel tank.  An instantiation passes when some premise is provably
uninhabited (vacuous) or the conclusion has a witness; it refutes when
every premise has a witness and the conclusion is provably uninhabited;
otherwise it leaves the verdict UNKNOWN.  Its cost grows as
|ground_types(instance_depth)|^k.

``ctkernel.rules.admissible`` decides the same question exactly over the
True/False valuations; whenever this walk is definitive, the exact check
must agree with it on status, instantiation and premise witnesses.

``instance_admissible`` is that exact check as it was first written: it
builds the instance of every proposition under every valuation and runs
each one, and each of its parts, through the evaluator.
``rules.admissible`` reads each valuation off the metavariables instead,
and must return the very same verdict, trace, bounds and fuel report.

``combine_or``, ``combine_and`` and ``combine_imp`` are the connectives'
rules written out case by case, as the kernel first wrote them; the
kernel reads its tables ``unary._OR``, ``_AND`` and ``_IMP`` instead.
"""

from __future__ import annotations

import itertools

from ctkernel.config import DEFAULT_DEPTH, DEFAULT_FUEL, DEFAULT_INSTANCE_DEPTH
from ctkernel.evaluation import FuelExhausted, Strategy, Stuck, Tank, run
from ctkernel.judgments import (
    IsTrue, Status, Trace, TraceStep, Verdict, diverged, refuted, unknown,
    verified,
)
from ctkernel.rules import RuleScheme, instantiate
from ctkernel.syntax import describe, pretty
from ctkernel.terms import FALSE, TRUE, Disj, Exists, Forall, TFalse, TTrue
from ctkernel.unary import (
    Inhabitation, _enumerate, _member, enumerate_canonical, ground_types,
)


def bounded_admissible(
    rule: RuleScheme,
    instance_depth: int = DEFAULT_INSTANCE_DEPTH,
    witness_depth: int = DEFAULT_DEPTH - 1,
    fuel: int = DEFAULT_FUEL,
    strategy: Strategy = Strategy.CALL_BY_NAME,
) -> Verdict:
    if instance_depth < 1 or witness_depth < 1:
        raise ValueError("bounds must be >= 1")
    space = ground_types(instance_depth)
    exhausted = True
    checked = 0
    for values in itertools.product(space, repeat=len(rule.metavariables)):
        assignment = dict(zip(rule.metavariables, values))
        checked += 1
        premise_props = [instantiate(p.a, assignment) for p in rule.premises]
        conclusion_prop = instantiate(rule.conclusion.a, assignment)

        premise_enums = []
        vacuous = False
        undetermined = False
        for prop in premise_props:
            er = enumerate_canonical(prop, witness_depth, fuel, strategy)
            if er.failure is not None and er.failure.status is Status.DIVERGED:
                return diverged(er.failure.fuel_report or "premise enumeration diverged")
            if not er.witnesses:
                if er.complete:
                    vacuous = True
                    break
                undetermined = True
            premise_enums.append(er)
        if vacuous:
            continue

        ec = enumerate_canonical(conclusion_prop, witness_depth, fuel, strategy)
        if ec.failure is not None and ec.failure.status is Status.DIVERGED:
            return diverged(ec.failure.fuel_report or "conclusion enumeration diverged")
        if ec.witnesses:
            continue
        if not ec.complete or undetermined:
            exhausted = False
            continue
        witness_tuple = tuple(er.witnesses[0] for er in premise_enums)
        counter_steps = [
            TraceStep(
                IsTrue(instantiate(p.a, assignment)),
                f"premise witness {pretty(w)}",
            )
            for p, w in zip(rule.premises, witness_tuple)
        ]
        counter_steps.append(TraceStep(IsTrue(conclusion_prop), "conclusion uninhabited"))
        return refuted(
            Trace(tuple(counter_steps)),
            instantiation=assignment,
            premise_witnesses=witness_tuple,
        )

    bounds = {
        "instance_depth": instance_depth,
        "witness_depth": witness_depth,
        "instantiations": checked,
    }
    cert = Trace((
        TraceStep(
            IsTrue(rule.conclusion.a),
            f"admissible-at-bound(instance_depth={instance_depth}, "
            f"witness_depth={witness_depth}, instantiations={checked})",
        ),
    ))
    if not exhausted:
        return unknown(witness_depth, cert, bounds=bounds)
    return verified(cert, bounds=bounds)


def instance_admissible(
    rule: RuleScheme,
    instance_depth: int = DEFAULT_INSTANCE_DEPTH,
    witness_depth: int = DEFAULT_DEPTH - 1,
    fuel: int = DEFAULT_FUEL,
    strategy: Strategy = Strategy.CALL_BY_NAME,
) -> Verdict:
    """Exact admissibility, one instance per valuation: every premise and
    the conclusion are instantiated by True/False before they are judged."""
    if instance_depth < 1 or witness_depth < 1:
        raise ValueError("bounds must be >= 1")
    tank = Tank(fuel, strategy)
    undecided = None
    checked = 0
    for values in itertools.product((TRUE, FALSE), repeat=len(rule.metavariables)):
        assignment = dict(zip(rule.metavariables, values))
        checked += 1
        premise_props = [instantiate(p.a, assignment) for p in rule.premises]
        conclusion_prop = instantiate(rule.conclusion.a, assignment)

        premises = Inhabitation.INHABITED
        for prop in premise_props:
            premises = combine_and(premises, _run_inhabited(prop, tank))
            if premises is Inhabitation.UNINHABITED:
                break
        if premises is Inhabitation.UNINHABITED:
            continue
        conclusion = _run_inhabited(conclusion_prop, tank)
        if conclusion is Inhabitation.INHABITED:
            continue
        if Inhabitation.DIVERGED in (premises, conclusion):
            inst = ", ".join(f"{k} := {pretty(v)}" for k, v in assignment.items())
            return diverged(f"rule instance diverged at [{inst}]")
        if Inhabitation.NOT_GROUND in (premises, conclusion):
            if undecided is None:
                undecided = conclusion_prop
            continue
        witnesses = []
        for prop in premise_props:
            found = _enumerate(prop, witness_depth, tank).witnesses
            w = found[0] if found else _member(prop, tank)
            if w is None:
                return diverged(f"premise witness diverged: {describe(prop)}")
            witnesses.append(w)
        steps = [
            TraceStep(IsTrue(prop), f"premise witness {pretty(w)}")
            for prop, w in zip(premise_props, witnesses)
        ]
        steps.append(TraceStep(IsTrue(conclusion_prop), "conclusion uninhabited"))
        return refuted(
            Trace(tuple(steps)),
            instantiation=assignment,
            premise_witnesses=tuple(witnesses),
        )

    bounds = {
        "instance_depth": instance_depth,
        "witness_depth": witness_depth,
        "instantiations": checked,
        "exact": undecided is None,
    }
    if undecided is not None:
        return unknown(
            witness_depth,
            Trace((TraceStep(IsTrue(undecided), "undecided-outside-ground-fragment"),)),
            bounds=bounds,
        )
    cert = Trace((
        TraceStep(IsTrue(rule.conclusion.a), f"admissible-exact(valuations={checked})"),
    ))
    return verified(cert, bounds=bounds)


def _run_inhabited(a, tank: Tank) -> Inhabitation:
    """Inhabitation of a closed proposition: ``a`` and each part of it
    are run through the evaluator, canonical or not."""
    res = run(a, tank)
    if isinstance(res, FuelExhausted):
        return Inhabitation.DIVERGED
    if isinstance(res, Stuck):
        return Inhabitation.NOT_GROUND
    match res.term:
        case TTrue():
            return Inhabitation.INHABITED
        case TFalse():
            return Inhabitation.UNINHABITED
        case Disj(l, r):
            return combine_or(_run_inhabited(l, tank), _run_inhabited(r, tank))
        case Exists(d, b, f):
            if b in f.fv:
                return Inhabitation.NOT_GROUND
            return combine_and(_run_inhabited(d, tank), _run_inhabited(f, tank))
        case Forall(d, b, f):
            if b in f.fv:
                return Inhabitation.NOT_GROUND
            return combine_imp(_run_inhabited(d, tank), _run_inhabited(f, tank))
        case _:
            return Inhabitation.NOT_GROUND


def combine_or(il: Inhabitation, ir: Inhabitation) -> Inhabitation:
    if Inhabitation.INHABITED in (il, ir):
        return Inhabitation.INHABITED
    if Inhabitation.DIVERGED in (il, ir):
        return Inhabitation.DIVERGED
    if Inhabitation.NOT_GROUND in (il, ir):
        return Inhabitation.NOT_GROUND
    return Inhabitation.UNINHABITED


def combine_and(il: Inhabitation, ir: Inhabitation) -> Inhabitation:
    if Inhabitation.UNINHABITED in (il, ir):
        return Inhabitation.UNINHABITED
    if Inhabitation.DIVERGED in (il, ir):
        return Inhabitation.DIVERGED
    if Inhabitation.NOT_GROUND in (il, ir):
        return Inhabitation.NOT_GROUND
    return Inhabitation.INHABITED


def combine_imp(idom: Inhabitation, icod: Inhabitation) -> Inhabitation:
    if idom is Inhabitation.UNINHABITED or icod is Inhabitation.INHABITED:
        return Inhabitation.INHABITED
    if idom is Inhabitation.INHABITED:
        return icod
    if Inhabitation.DIVERGED in (idom, icod):
        return Inhabitation.DIVERGED
    return Inhabitation.NOT_GROUND
