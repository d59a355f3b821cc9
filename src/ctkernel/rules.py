"""Rule lab: derivability against admissibility for inference rules.

A rule scheme has truth-judgment premises and conclusion over
metavariables (free, conventionally uppercase, names standing for
arbitrary ground propositions).  Two readings are contrasted:

* *Derivable*: there is a uniform schematic derivation in a formal
  system containing only the introduction rules (truth introduction,
  conjunction/disjunction/implication introduction with hypothesis
  discharge) plus the hypothesis rule.  No elimination rules exist in
  the system.  Because goal-directed search over this calculus strictly
  shrinks the goal, a failed exhaustive search is definitive, and the
  result says so.

* *Admissible*: for every ground instantiation of the metavariables
  under which every premise has a canonical verification, the
  conclusion has one too.  This is the material reading: it looks at
  what verifications can exist, not at derivations.  Inhabitation of
  ground types is two-valued and compositional, so an instantiation
  matters only through which metavariables it makes inhabited, and the
  check over the 2^k True/False valuations is exact: a verification is
  a theorem about every ground instantiation, not a bound-relative
  certificate.  A refutation ships a concrete instantiation together
  with premise witnesses whose conclusion is uninhabited.

The interesting quadrant is admissible-but-not-derivable: rules the
formal system cannot state uniformly whose semantic closure still
holds.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple, Union

from .config import (
    DEFAULT_DEPTH, DEFAULT_FUEL, DEFAULT_INSTANCE_DEPTH, DEFAULT_SEARCH_DEPTH,
)
from .evaluation import Strategy, Tank
from .judgments import (
    IsTrue, Trace, TraceStep, Verdict, diverged, refuted, render_statement, unknown,
    verified,
)
from .record import Record
from .syntax import ParseError, _Parser, describe, pretty, tokenize
from .terms import (
    Disj, Exists, Forall, Inl, Inr, It, Lam, Pair, TFalse, TTrue, Term, Var,
    TRUE, FALSE, alpha_eq, free_vars, substitute,
)
from .unary import Inhabitation, _combine_and, _enumerate, _inhabited, _member

CBN = Strategy.CALL_BY_NAME

_set = object.__setattr__


class RuleScheme(Record):
    __slots__ = __match_args__ = ("metavariables", "premises", "conclusion")

    def __init__(self, metavariables: Tuple[str, ...], premises: Tuple[IsTrue, ...],
                 conclusion: IsTrue):
        _set(self, "metavariables", metavariables)
        _set(self, "premises", premises)
        _set(self, "conclusion", conclusion)

    def render(self) -> str:
        left = "; ".join(map(render_statement, self.premises))
        right = render_statement(self.conclusion)
        return f"{left} |- {right}" if left else f"|- {right}"


def _validate_scheme_prop(t: Term, metavars: List[str]) -> None:
    """Check that ``t`` is in the propositional fragment, and append to
    ``metavars`` each of its metavariables not yet there, in order of
    first occurrence."""
    match t:
        case Var(n):
            if n not in metavars:
                metavars.append(n)
        case TTrue() | TFalse():
            return
        case Disj(l, r):
            _validate_scheme_prop(l, metavars)
            _validate_scheme_prop(r, metavars)
        case (Forall(d, b, f) | Exists(d, b, f)) if b not in free_vars(f):
            _validate_scheme_prop(d, metavars)
            _validate_scheme_prop(f, metavars)
        case _:
            raise ParseError(
                "rule propositions are the propositional fragment: "
                "metavariables, True, False, /\\, \\/, =>", 1, 1,
            )


def _parse_judgment_text(text: str, metavars: List[str]) -> IsTrue:
    tokens = tokenize(text)
    if len(tokens) < 2 or tokens[-2].kind != "name" or tokens[-2].text != "true":
        tok = tokens[-1]
        raise ParseError("a rule judgment must end in 'true'", tok.line, tok.col)
    prop = _Parser(tokens[:-2] + tokens[-1:]).whole()
    _validate_scheme_prop(prop, metavars)
    return IsTrue(prop)


def parse_rule(text: str) -> RuleScheme:
    """Parse ``premises: J1; J2 |- conclusion: J`` (labels optional)."""
    body = text.strip()
    if body.startswith("premises:"):
        body = body[len("premises:"):]
    if "|-" in body:
        left, right = body.rsplit("|-", 1)
    else:
        left, right = "", body
    right = right.strip()
    if right.startswith("conclusion:"):
        right = right[len("conclusion:"):]
    metavars: List[str] = []
    premises = tuple(
        _parse_judgment_text(part, metavars)
        for part in left.split(";")
        if part.strip()
    )
    conclusion = _parse_judgment_text(right, metavars)
    return RuleScheme(tuple(metavars), premises, conclusion)


def parse_rule_file(text: str) -> List[RuleScheme]:
    """One rule per block; blocks are separated by blank lines."""
    rules = []
    for block in text.split("\n\n"):
        lines = [ln for ln in block.splitlines() if ln.strip() and not ln.strip().startswith("#")]
        if lines:
            rules.append(parse_rule(" ".join(lines)))
    return rules


# -- derivability -------------------------------------------------------------


class Sequent(Record):
    __slots__ = __match_args__ = ("hypotheses", "goal")

    def __init__(self, hypotheses: Tuple[Tuple[str, Term], ...], goal: Term):
        _set(self, "hypotheses", hypotheses)
        _set(self, "goal", goal)

    def render(self) -> str:
        hyp = ", ".join(f"{n}: {render_statement(IsTrue(p))}" for n, p in self.hypotheses)
        goal = render_statement(IsTrue(self.goal))
        return f"{hyp} |- {goal}" if hyp else f"|- {goal}"


class Derivation(Record):
    """Finitary derivation tree; leaves discharge hypotheses or close goals."""
    __slots__ = __match_args__ = ("conclusion", "rule", "children")

    def __init__(self, conclusion: Sequent, rule: str, children: Tuple[Derivation, ...] = ()):
        _set(self, "conclusion", conclusion)
        _set(self, "rule", rule)
        _set(self, "children", children)

    def render(self, indent: int = 0) -> str:
        lines = [f"{'  ' * indent}{self.conclusion.render()}    [{self.rule}]"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


class NotDerivable(Record):
    __slots__ = __match_args__ = ("at_depth", "exhausted")

    def __init__(self, at_depth: int, exhausted: bool):
        _set(self, "at_depth", at_depth)
        _set(self, "exhausted", exhausted)


def derive(rule: RuleScheme, search_depth: int = DEFAULT_SEARCH_DEPTH) -> Union[Derivation, NotDerivable]:
    """Goal-directed schematic search in the introduction-only calculus.

    Metavariables are rigid: only the hypothesis rule can close an
    atomic goal.  When the search fails without ever hitting the depth
    cutoff the failure is exhaustive, hence definitive for this
    calculus."""
    if search_depth < 1:
        raise ValueError("search_depth must be >= 1")
    hyps = tuple((f"h{i}", p.a) for i, p in enumerate(rule.premises))
    found, exhausted = _search(hyps, rule.conclusion.a, search_depth)
    if found is not None:
        return found
    return NotDerivable(search_depth, exhausted)


def _search(
    hyps: Tuple[Tuple[str, Term], ...], goal: Term, budget: int
) -> Tuple[Optional[Derivation], bool]:
    seq = Sequent(hyps, goal)
    for name, prop in hyps:
        if alpha_eq(prop, goal):
            return Derivation(seq, "hypothesis"), True
    if isinstance(goal, TTrue):
        return Derivation(seq, "truth-intro"), True
    if budget <= 0:
        return None, False
    match goal:
        case Exists(p, b, q) if b not in free_vars(q):
            left, e1 = _search(hyps, p, budget - 1)
            if left is None:
                return None, e1
            right, e2 = _search(hyps, q, budget - 1)
            if right is None:
                return None, e2
            return Derivation(seq, "and-intro", (left, right)), True
        case Disj(p, q):
            left, e1 = _search(hyps, p, budget - 1)
            if left is not None:
                return Derivation(seq, "or-intro-left", (left,)), True
            right, e2 = _search(hyps, q, budget - 1)
            if right is not None:
                return Derivation(seq, "or-intro-right", (right,)), True
            return None, e1 and e2
        case Forall(p, b, q) if b not in free_vars(q):
            name = f"h{len(hyps)}"
            body, e = _search(hyps + ((name, p),), q, budget - 1)
            if body is not None:
                return Derivation(seq, "imp-intro", (body,)), True
            return None, e
        case _:
            # Atomic metavariable (or out-of-fragment goal): no
            # introduction applies and the hypothesis rule already failed.
            return None, True


def check_derivation(d: Derivation) -> Tuple[bool, int]:
    """Local wellformedness of every node; linear in the tree size.

    Returns (ok, nodes visited); never raises on malformed trees."""
    visited = 0

    def go(d: Derivation) -> bool:
        nonlocal visited
        visited += 1
        seq = d.conclusion
        try:
            match d.rule:
                case "hypothesis":
                    return not d.children and any(
                        alpha_eq(p, seq.goal) for _, p in seq.hypotheses
                    )
                case "truth-intro":
                    return not d.children and isinstance(seq.goal, TTrue)
                case "and-intro":
                    match seq.goal:
                        case Exists(p, b, q) if b not in free_vars(q):
                            left, right = d.children
                            return (
                                left.conclusion == Sequent(seq.hypotheses, p)
                                and right.conclusion == Sequent(seq.hypotheses, q)
                                and go(left)
                                and go(right)
                            )
                    return False
                case "or-intro-left":
                    match seq.goal:
                        case Disj(p, _):
                            (left,) = d.children
                            return left.conclusion == Sequent(seq.hypotheses, p) and go(left)
                    return False
                case "or-intro-right":
                    match seq.goal:
                        case Disj(_, q):
                            (right,) = d.children
                            return right.conclusion == Sequent(seq.hypotheses, q) and go(right)
                    return False
                case "imp-intro":
                    match seq.goal:
                        case Forall(p, b, q) if b not in free_vars(q):
                            (body,) = d.children
                            hyps = body.conclusion.hypotheses
                            return (
                                len(hyps) == len(seq.hypotheses) + 1
                                and hyps[:-1] == seq.hypotheses
                                and alpha_eq(hyps[-1][1], p)
                                and alpha_eq(body.conclusion.goal, q)
                                and go(body)
                            )
                    return False
                case _:
                    return False
        except (ValueError, TypeError):
            return False

    return go(d), visited


def derivation_size(d: Derivation) -> int:
    return 1 + sum(derivation_size(c) for c in d.children)


def extract_realizer(d: Derivation) -> Term:
    """Witness skeleton of a derivation; hypothesis leaves stay variables.

    Substituting concrete premise witnesses for the hypothesis variables
    yields a closed witness for the conclusion."""
    match d.rule:
        case "hypothesis":
            name = next(
                n for n, p in d.conclusion.hypotheses if alpha_eq(p, d.conclusion.goal)
            )
            return Var(name)
        case "truth-intro":
            return It()
        case "and-intro":
            return Pair(extract_realizer(d.children[0]), extract_realizer(d.children[1]))
        case "or-intro-left":
            return Inl(extract_realizer(d.children[0]))
        case "or-intro-right":
            return Inr(extract_realizer(d.children[0]))
        case "imp-intro":
            body = d.children[0]
            name = body.conclusion.hypotheses[-1][0]
            return Lam(name, extract_realizer(body))
        case _:
            raise ValueError(f"unknown rule in derivation: {d.rule}")


# -- admissibility -------------------------------------------------------------


def instantiate(t: Term, assignment: Dict[str, Term]) -> Term:
    out = t
    for name, value in assignment.items():
        out = substitute(out, name, value)
    return out


def admissible(
    rule: RuleScheme,
    instance_depth: int = DEFAULT_INSTANCE_DEPTH,
    witness_depth: int = DEFAULT_DEPTH - 1,
    fuel: int = DEFAULT_FUEL,
    strategy: Strategy = CBN,
) -> Verdict:
    """Exact admissibility over the True/False valuations.

    Every ground type is inhabited or not, and inhabitation of a
    proposition depends only on that of its parts, so each ground
    instantiation acts as the valuation that sends a metavariable to
    True when its value is inhabited.  The scheme is admissible exactly
    when no valuation makes every premise inhabited and the conclusion
    uninhabited; all 2^k valuations are tried, True before False, the
    last metavariable changing fastest.  Every instance depth >= 1
    already contains True and False, so the verdict does not depend on
    instance_depth.  The first refuting valuation is shipped with, for
    each premise, its first canonical witness within witness_depth, or a
    member read off its inhabitation structure when the bound holds
    none.  One tank serves the whole check.  A proposition outside the
    ground fragment (possible only for schemes not built by
    ``parse_rule``) leaves its valuation undecided: the verdict is then
    UNKNOWN unless another valuation refutes."""
    if instance_depth < 1 or witness_depth < 1:
        raise ValueError("bounds must be >= 1")
    tank = Tank(fuel)
    undecided: Optional[Term] = None
    checked = 0
    for values in itertools.product((TRUE, FALSE), repeat=len(rule.metavariables)):
        assignment = dict(zip(rule.metavariables, values))
        checked += 1
        premise_props = [instantiate(p.a, assignment) for p in rule.premises]
        conclusion_prop = instantiate(rule.conclusion.a, assignment)

        premises = Inhabitation.INHABITED
        for prop in premise_props:
            premises = _combine_and(premises, _inhabited(prop, tank, strategy))
            if premises is Inhabitation.UNINHABITED:
                break
        if premises is Inhabitation.UNINHABITED:
            continue
        conclusion = _inhabited(conclusion_prop, tank, strategy)
        if conclusion is Inhabitation.INHABITED:
            continue
        if Inhabitation.DIVERGED in (premises, conclusion):
            return diverged(f"rule instance diverged at [{_render_assignment(assignment)}]")
        if Inhabitation.NOT_GROUND in (premises, conclusion):
            if undecided is None:
                undecided = conclusion_prop
            continue
        return _refutation(assignment, premise_props, conclusion_prop,
                           witness_depth, tank, strategy)

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


def _refutation(
    assignment: Dict[str, Term],
    premise_props: List[Term],
    conclusion_prop: Term,
    witness_depth: int,
    tank: Tank,
    strategy: Strategy,
) -> Verdict:
    witnesses = []
    for prop in premise_props:
        found = _enumerate(prop, witness_depth, tank, strategy).witnesses
        w = found[0] if found else _member(prop, tank, strategy)
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


def _render_assignment(assignment: Dict[str, Term]) -> str:
    return ", ".join(f"{k} := {pretty(v)}" for k, v in assignment.items())


# -- the joint report -----------------------------------------------------------


class ReadingsReport(Record):
    __slots__ = __match_args__ = ("rule", "derivation", "admissibility")

    def __init__(self, rule: RuleScheme, derivation: Union[Derivation, NotDerivable],
                 admissibility: Verdict):
        _set(self, "rule", rule)
        _set(self, "derivation", derivation)
        _set(self, "admissibility", admissibility)

    @property
    def derivable(self) -> bool:
        return isinstance(self.derivation, Derivation)

    @property
    def flagged(self) -> bool:
        """The interesting quadrant: admissible but not derivable."""
        return (not self.derivable) and self.admissibility.verified

    def render(self) -> str:
        lines = [f"rule: {self.rule.render()}"]
        if self.derivable:
            lines.append("derivable: yes")
            lines.append(self.derivation.render(1))
        else:
            kind = "exhaustive" if self.derivation.exhausted else "cut off"
            lines.append(
                f"derivable: no ({kind} at search depth {self.derivation.at_depth})"
            )
        adm = self.admissibility
        if adm.verified:
            b = adm.bounds or {}
            lines.append(
                "admissible: verified at bound "
                f"(instance depth {b.get('instance_depth')}, "
                f"witness depth {b.get('witness_depth')}); "
                f"exact over all valuations ({b.get('instantiations')} checked)"
            )
        elif adm.refuted:
            inst = _render_assignment(adm.instantiation or {})
            ws = ", ".join(pretty(w) for w in adm.premise_witnesses or ())
            lines.append(f"admissible: refuted at [{inst}] with premise witness {ws}")
        else:
            lines.append(f"admissible: {adm.status.value}")
        if self.flagged:
            lines.append("FLAGGED: admissible but not derivable")
        return "\n".join(lines)


def compare_readings(
    rule: RuleScheme,
    search_depth: int = DEFAULT_SEARCH_DEPTH,
    instance_depth: int = DEFAULT_INSTANCE_DEPTH,
    witness_depth: int = DEFAULT_DEPTH - 1,
    fuel: int = DEFAULT_FUEL,
    strategy: Strategy = CBN,
) -> ReadingsReport:
    """Run both readings and flag the admissible-but-not-derivable quadrant."""
    return ReadingsReport(
        rule,
        derive(rule, search_depth),
        admissible(rule, instance_depth, witness_depth, fuel, strategy),
    )
