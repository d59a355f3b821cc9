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
"""

from __future__ import annotations

import itertools

from ctkernel.config import DEFAULT_DEPTH, DEFAULT_FUEL, DEFAULT_INSTANCE_DEPTH
from ctkernel.evaluation import Strategy
from ctkernel.judgments import (
    IsTrue, Status, Trace, TraceStep, Verdict, diverged, refuted, unknown,
    verified,
)
from ctkernel.rules import RuleScheme, instantiate
from ctkernel.syntax import pretty
from ctkernel.unary import enumerate_canonical, ground_types


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
