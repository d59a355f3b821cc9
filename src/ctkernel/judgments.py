"""Judgment forms, derivation traces and check verdicts.

Judgments are the assertion forms the checkers decide: set-hood,
membership, and their binary (equality) refinements, plus hypothetical
and general closures.  Traces additionally record the semantic
statements a derivation walks through (evaluation steps, membership in
a canonical-witness relation, emptiness facts), so a verified check can
be replayed and rendered as a numbered derivation.

Each form is written once, as one row below: its name, its fields in
order and its rendering template.  ``render_statement`` is one writer
over that table.

Notation used in renderings: ``canon(T)`` is the relation of canonical
witnesses of the type T; ``canon*(T)`` is its closure under evaluation
(a term is in ``canon*(T)`` when it evaluates to something in
``canon(T)``).
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, Optional, Tuple

from . import evaluation
from .record import Record
from .syntax import pretty
from .terms import Term, alpha_eq, classify, is_closed, CanonicalForm


# -- judgment and statement forms ---------------------------------------

_set = object.__setattr__


class Statement:
    """A judgment or trace statement: a form and its field values, in
    order, in ``values``.

    Equality, hash, ``repr`` and pickling are those of a frozen dataclass
    with the form's fields: the ``repr`` of a verdict's instance is part
    of its recorded output.
    """

    __slots__ = ("values",)
    __match_args__: tuple = ()
    _arity = 0  # len(__match_args__), read on every construction
    template = ""

    def __init__(self, *values):
        if len(values) != self._arity:
            raise TypeError(f"{type(self).__name__} takes fields {self.__match_args__}")
        _set(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__match_args__, self.values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self.values


def _form(name: str, fields: str, template: str, doc: Optional[str] = None) -> type:
    """A statement form: ``fields`` names its fields in order, and
    ``template`` (a ``str.format`` template over them) renders it."""
    names = tuple(fields.split())
    ns = {f: property(lambda s, i=i: s.values[i]) for i, f in enumerate(names)}
    ns.update(__slots__=(), __match_args__=names, _arity=len(names), template=template,
              __doc__=doc, __module__=__name__, __qualname__=name)
    return type(name, (Statement,), ns)


# Judgments.
IsSet = _form("IsSet", "a", "set({a})")
IsTrue = _form("IsTrue", "a", "{a} true",
               "Truth of a proposition: some witness evaluates into it.")
Member = _form("Member", "m a", "member({m}, {a})")
EqSet = _form("EqSet", "a b", "eqset({a}, {b})")
EqMember = _form("EqMember", "m n a", "eqmember({m}, {n}, {a})")
Hyp = _form("Hyp", "antecedents consequent", "{consequent} assuming {antecedents}",
            "Hypothetical closure: the consequent under the antecedents.")
Gen = _form("Gen", "binders body", "for all {binders}: {body}",
            "General closure: the body for all values of the binders.")

# Trace statements.
Evals = _form("Evals", "term result", "eval({term}, {result})",
              "Evaluation statement: the term reaches this canonical form.")
CanonIn = _form("CanonIn", "ty args", "canon({ty})({args})",
                "Membership in the canonical-witness relation of a canonical type.")
CanonNotIn = _form("CanonNotIn", "ty args", "not canon({ty})({args})")
CanonUndefined = _form("CanonUndefined", "ty", "canon({ty}) undefined",
                       "The canonical term is no type former: it has no relation.")
CanonClosureIn = _form("CanonClosureIn", "ty args", "canon*({ty})({args})",
                       "Membership in the evaluation closure of the relation.")
CanonEmpty = _form("CanonEmpty", "ty", "canon({ty}) = {{}}")
CanonEq = _form("CanonEq", "a b", "canon({a}) = canon({b})")
CanonNeq = _form("CanonNeq", "a b", "canon({a}) /= canon({b})")
Blocked = _form("Blocked", "term", "stuck({term})", "Evaluation got stuck at this subterm.")
Both = _form("Both", "parts", "{parts}")


def render_statement(s: Statement) -> str:
    """The form's template, with each field written by ``_write``."""
    return s.template.format_map(dict(zip(s.__match_args__, map(_write, s.values))))


def _write(v) -> str:
    """A field value: a statement rendered, a name as itself, a tuple's
    items joined, and a term printed."""
    if isinstance(v, Statement):
        return render_statement(v)
    if type(v) is str:
        return v
    if type(v) is tuple:
        return ("; " if v and isinstance(v[0], Statement) else ", ").join(map(_write, v))
    return pretty(v)


# -- traces --------------------------------------------------------------

class TraceStep(Record):
    __slots__ = __match_args__ = ("statement", "rule", "children")

    def __init__(self, statement: Statement, rule: str, children: Tuple[Trace, ...] = ()):
        _set(self, "statement", statement)
        _set(self, "rule", rule)
        _set(self, "children", children)


class Trace(Record):
    __slots__ = __match_args__ = ("steps",)

    def __init__(self, steps: Tuple[TraceStep, ...] = ()):
        _set(self, "steps", steps)

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


_NO_TRACE = Trace()


class Verdict(Record):
    """Outcome of a semantic check.

    VERIFIED and REFUTED are definitive: larger budgets never flip one
    into the other.  UNKNOWN means a depth bound was exhausted and may
    resolve either way at a larger depth; DIVERGED means fuel ran out
    and may resolve any way with more fuel.
    """

    __slots__ = __match_args__ = (
        "status", "trace", "bound", "fuel_report", "pair", "instance", "instantiation",
        "premise_witnesses", "bounds",
    )

    def __init__(
        self,
        status: Status,
        trace: Trace = _NO_TRACE,
        bound: Optional[int] = None,
        fuel_report: Optional[str] = None,
        pair: Optional[Tuple[Term, Term]] = None,
        instance: Optional[Statement] = None,
        instantiation: Optional[Mapping[str, Term]] = None,
        premise_witnesses: Optional[Tuple[Term, ...]] = None,
        bounds: Optional[Mapping[str, int]] = None,
    ):
        _set(self, "status", status)
        _set(self, "trace", trace)
        _set(self, "bound", bound)
        _set(self, "fuel_report", fuel_report)
        _set(self, "pair", pair)
        _set(self, "instance", instance)
        _set(self, "instantiation", instantiation)
        _set(self, "premise_witnesses", premise_witnesses)
        _set(self, "bounds", bounds)

    @property
    def verified(self) -> bool:
        return self.status is Status.VERIFIED

    @property
    def refuted(self) -> bool:
        return self.status is Status.REFUTED

    @property
    def definitive(self) -> bool:
        return self.status in (Status.VERIFIED, Status.REFUTED)


def verified(trace: Trace = _NO_TRACE, **kw) -> Verdict:
    return Verdict(Status.VERIFIED, trace, **kw)


def refuted(trace: Trace = _NO_TRACE, **kw) -> Verdict:
    return Verdict(Status.REFUTED, trace, **kw)


def unknown(bound: int, trace: Trace = _NO_TRACE, **kw) -> Verdict:
    return Verdict(Status.UNKNOWN, trace, bound=bound, **kw)


def diverged(fuel_report: str, trace: Trace = _NO_TRACE, **kw) -> Verdict:
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

