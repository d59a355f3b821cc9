"""Judgment forms, derivation traces and check verdicts.

Judgments are the assertion forms the checkers decide: set-hood,
membership, and their binary (equality) refinements, plus hypothetical
and general closures.  Traces additionally record the semantic
statements a derivation walks through (evaluation steps, membership in
a canonical-witness relation, emptiness facts), so a verified check can
be replayed and rendered as a numbered derivation.

Notation used in renderings: ``canon(T)`` is the relation of canonical
witnesses of the type T; ``canon*(T)`` is its closure under evaluation
(a term is in ``canon*(T)`` when it evaluates to something in
``canon(T)``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Tuple, Union

from . import evaluation
from .syntax import pretty
from .terms import Term, alpha_eq, classify, is_closed, CanonicalForm


# -- judgment and statement forms ---------------------------------------

@dataclass(frozen=True)
class IsSet:
    a: Term


@dataclass(frozen=True)
class IsTrue:
    """Truth of a proposition: some witness evaluates into it."""
    a: Term


@dataclass(frozen=True)
class Member:
    m: Term
    a: Term


@dataclass(frozen=True)
class EqSet:
    a: Term
    b: Term


@dataclass(frozen=True)
class EqMember:
    m: Term
    n: Term
    a: Term


@dataclass(frozen=True)
class Hyp:
    """Hypothetical closure: the consequent under the antecedents."""
    antecedents: Tuple["Statement", ...]
    consequent: "Statement"


@dataclass(frozen=True)
class Gen:
    """General closure: the body for all values of the binders."""
    binders: Tuple[str, ...]
    body: "Statement"


Judgment = Union[IsSet, IsTrue, Member, EqSet, EqMember, Hyp, Gen]


@dataclass(frozen=True)
class Evals:
    """Evaluation statement: the term reaches this canonical form."""
    term: Term
    result: Term


@dataclass(frozen=True)
class CanonIn:
    """Membership in the canonical-witness relation of a canonical type."""
    ty: Term
    args: Tuple[Term, ...]


@dataclass(frozen=True)
class CanonNotIn:
    ty: Term
    args: Tuple[Term, ...]


@dataclass(frozen=True)
class CanonClosureIn:
    """Membership in the evaluation closure of the relation."""
    ty: Term
    args: Tuple[Term, ...]


@dataclass(frozen=True)
class CanonEmpty:
    ty: Term


@dataclass(frozen=True)
class CanonEq:
    a: Term
    b: Term


@dataclass(frozen=True)
class CanonNeq:
    a: Term
    b: Term


@dataclass(frozen=True)
class Blocked:
    """Evaluation got stuck at this subterm."""
    term: Term


@dataclass(frozen=True)
class Both:
    parts: Tuple["Statement", ...]


Statement = Union[
    Judgment, Evals, CanonIn, CanonNotIn, CanonClosureIn, CanonEmpty,
    CanonEq, CanonNeq, Blocked, Both,
]


def render_statement(s: Statement) -> str:
    match s:
        case IsSet(a):
            return f"set({pretty(a)})"
        case IsTrue(a):
            return f"{pretty(a)} true"
        case Member(m, a):
            return f"member({pretty(m)}, {pretty(a)})"
        case EqSet(a, b):
            return f"eqset({pretty(a)}, {pretty(b)})"
        case EqMember(m, n, a):
            return f"eqmember({pretty(m)}, {pretty(n)}, {pretty(a)})"
        case Hyp(ants, con):
            hyp = "; ".join(render_statement(x) for x in ants)
            return f"{render_statement(con)} assuming {hyp}"
        case Gen(binders, body):
            return f"for all {', '.join(binders)}: {render_statement(body)}"
        case Evals(t, r):
            return f"eval({pretty(t)}, {pretty(r)})"
        case CanonIn(ty, args):
            return f"canon({pretty(ty)})({', '.join(pretty(x) for x in args)})"
        case CanonNotIn(ty, args):
            if not args:
                return f"canon({pretty(ty)}) undefined"
            return f"not canon({pretty(ty)})({', '.join(pretty(x) for x in args)})"
        case CanonClosureIn(ty, args):
            return f"canon*({pretty(ty)})({', '.join(pretty(x) for x in args)})"
        case CanonEmpty(ty):
            return f"canon({pretty(ty)}) = {{}}"
        case CanonEq(a, b):
            return f"canon({pretty(a)}) = canon({pretty(b)})"
        case CanonNeq(a, b):
            return f"canon({pretty(a)}) /= canon({pretty(b)})"
        case Blocked(t):
            return f"stuck({pretty(t)})"
        case Both(parts):
            return "; ".join(render_statement(x) for x in parts)
        case _:
            raise TypeError(f"not a statement: {s!r}")


# -- traces --------------------------------------------------------------

@dataclass(frozen=True)
class TraceStep:
    statement: Statement
    rule: str
    children: Tuple["Trace", ...] = ()


@dataclass(frozen=True)
class Trace:
    steps: Tuple[TraceStep, ...] = ()

    def to_json(self) -> list:
        return [_step_to_json(s) for s in self.steps]

    def render(self, indent: int = 0) -> str:
        lines: list[str] = []
        for i, step in enumerate(self.steps, start=1):
            pad = "    " * indent
            label = f"({i}) " if indent == 0 else "- "
            lines.append(f"{pad}{label}{render_statement(step.statement)}    [{step.rule}]")
            for child in step.children:
                lines.append(child.render(indent + 1))
        return "\n".join(lines)


def _step_to_json(step: TraceStep) -> dict:
    return {
        "judgment": render_statement(step.statement),
        "rule": step.rule,
        "children": [node for child in step.children for node in child.to_json()],
    }


def trace_json_valid(doc) -> bool:
    """Validate the {judgment, rule, children} tree schema."""
    if not isinstance(doc, list):
        return False
    for node in doc:
        if not isinstance(node, dict) or set(node) != {"judgment", "rule", "children"}:
            return False
        if not isinstance(node["judgment"], str) or not isinstance(node["rule"], str):
            return False
        if not trace_json_valid(node["children"]):
            return False
    return True


def _shallow_canon_match(ty: Term, args: Tuple[Term, ...]) -> bool:
    form = classify(ty)
    shapes = {classify(a) for a in args}
    match form:
        case CanonicalForm.TRUE:
            return shapes == {CanonicalForm.IT}
        case CanonicalForm.FALSE:
            return False
        case CanonicalForm.FORALL:
            return shapes == {CanonicalForm.LAM}
        case CanonicalForm.EXISTS:
            return shapes == {CanonicalForm.PAIR}
        case CanonicalForm.DISJ:
            return shapes <= {CanonicalForm.INL, CanonicalForm.INR} and len(shapes) == 1
        case _:
            return False


def replay(trace: Trace, fuel: int, strategy=evaluation.Strategy.CALL_BY_NAME) -> bool:
    """Re-check the evaluation steps and shallow clause matches recorded
    in a trace.  Statements with free variables are hypothetical display
    lines and are skipped."""
    ok = True

    def visit(s: Statement) -> None:
        nonlocal ok
        match s:
            case Evals(t, r):
                if is_closed(t) and is_closed(r):
                    res = evaluation.evaluate(t, fuel, strategy)
                    if not (isinstance(res, evaluation.Canonical) and alpha_eq(res.term, r)):
                        ok = False
            case CanonIn(ty, args):
                if is_closed(ty) and all(is_closed(a) for a in args):
                    if not _shallow_canon_match(ty, args):
                        ok = False
            case Both(parts):
                for p in parts:
                    visit(p)
            case _:
                pass

    def walk(tr: Trace) -> None:
        for step in tr.steps:
            visit(step.statement)
            for child in step.children:
                walk(child)

    walk(trace)
    return ok


# -- verdicts ------------------------------------------------------------

class Status(Enum):
    VERIFIED = "verified"
    REFUTED = "refuted"
    UNKNOWN = "unknown"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a semantic check.

    VERIFIED and REFUTED are definitive: larger budgets never flip one
    into the other.  UNKNOWN means a depth bound was exhausted and may
    resolve either way at a larger depth; DIVERGED means fuel ran out
    and may resolve any way with more fuel.
    """

    status: Status
    trace: Trace = field(default_factory=Trace)
    bound: Optional[int] = None
    fuel_report: Optional[str] = None
    pair: Optional[Tuple[Term, Term]] = None
    instance: Optional[Statement] = None
    instantiation: Optional[Mapping[str, Term]] = None
    premise_witnesses: Optional[Tuple[Term, ...]] = None
    bounds: Optional[Mapping[str, int]] = None

    @property
    def verified(self) -> bool:
        return self.status is Status.VERIFIED

    @property
    def refuted(self) -> bool:
        return self.status is Status.REFUTED

    @property
    def definitive(self) -> bool:
        return self.status in (Status.VERIFIED, Status.REFUTED)


def verified(trace: Trace = Trace(), **kw) -> Verdict:
    return Verdict(Status.VERIFIED, trace, **kw)


def refuted(trace: Trace = Trace(), **kw) -> Verdict:
    return Verdict(Status.REFUTED, trace, **kw)


def unknown(bound: int, trace: Trace = Trace(), **kw) -> Verdict:
    return Verdict(Status.UNKNOWN, trace, bound=bound, **kw)


def diverged(fuel_report: str, trace: Trace = Trace(), **kw) -> Verdict:
    return Verdict(Status.DIVERGED, trace, fuel_report=fuel_report, **kw)


_PRIORITY = {
    Status.REFUTED: 3,
    Status.DIVERGED: 2,
    Status.UNKNOWN: 1,
    Status.VERIFIED: 0,
}


def worst(statuses) -> Status:
    """Combine child statuses: any refutation wins, then divergence,
    then unknown; verified only when everything verified."""
    result = Status.VERIFIED
    for s in statuses:
        if _PRIORITY[s] > _PRIORITY[result]:
            result = s
    return result


def machine_doc(command: str, config: Mapping, verdict: str, trace) -> dict:
    """The one-document machine output schema."""
    return {
        "command": command,
        "config": dict(config),
        "verdict": verdict,
        "trace": trace,
    }


def dump_machine(doc: dict) -> str:
    return json.dumps(doc, indent=2)
