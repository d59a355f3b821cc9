"""Judgment forms, derivation traces and check verdicts.

Judgments are the assertion forms the checkers decide: set-hood,
membership, and their binary (equality) refinements, plus hypothetical
and general closures.  Traces additionally record the semantic
statements a derivation walks through (evaluation steps, membership in
a canonical-witness relation, emptiness facts), so a verified check can
be rendered as a numbered derivation.  A check's trace is built on its
first read (``later``), so a check whose trace is never read builds
none of it.  ``replay`` only partly re-checks a trace: its closed
evaluation steps and the shallow shape of its closed ``canon(T)``
memberships.

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
from typing import Optional, Tuple

from . import evaluation
from .record import Record
from .syntax import pretty
from .terms import Term, alpha_eq, classify, is_closed, CanonicalForm


# -- judgment and statement forms ---------------------------------------

class Statement(Record):
    """A judgment or trace statement: a form, whose fields are those of a
    record, and its rendering ``template``; ``values`` are the fields'
    values in order."""

    __slots__ = ()
    template = ""
    values = property(Record._values)


def _form(name: str, fields: str, template: str, doc: Optional[str] = None) -> type:
    """A statement form: ``fields`` names its fields in order, and
    ``template`` (a ``str.format`` template over them) renders it."""
    names = tuple(fields.split())
    return type(name, (Statement,), dict(
        __slots__=names, __match_args__=names, template=template, __doc__=doc,
        __module__=__name__, __qualname__=name))


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
    _defaults = {"children": ()}


class Trace(Record):
    """A tree of steps.  A trace made by ``later`` holds, in the slot
    ``_build``, the function that builds its steps, and runs it on the
    first read of ``steps``; from then on it is the trace of those steps,
    built eagerly, in ``repr``, equality, hash, pickling and copying,
    which all read ``steps``."""

    __slots__ = ("steps", "_build")
    __match_args__ = ("steps",)
    _defaults = {"steps": ()}

    def __getattr__(self, name):
        # Python calls this only when a lookup fails: for ``steps``,
        # while a deferred trace is not yet built.
        if name != "steps":
            raise AttributeError(name)
        steps = self._build()
        _set_steps(self, steps)
        _drop_build(self)
        return steps

    def to_json(self) -> list:
        """The {judgment, rule, children} tree, by a loop rather than
        recursion: the children of a step are its premises' steps."""
        out = []
        stack = [(self, out)]
        while stack:
            trace, into = stack.pop()
            for step in trace.steps:
                children = []
                into.append({"judgment": render_statement(step.statement), "rule": step.rule,
                             "children": children})
                stack.extend((child, children) for child in reversed(step.children))
        return out

    def render(self) -> str:
        """The tree of ``to_json`` as text: one line per step, numbered at
        the top level, with each step's children indented under it."""
        lines: list[str] = []
        stack = [(0, node) for node in reversed(self.to_json())]
        top = 0
        while stack:
            at, node = stack.pop()
            top += at == 0
            label = f"({top}) " if at == 0 else "- "
            lines.append(f"{'    ' * at}{label}{node['judgment']}    [{node['rule']}]")
            stack.extend((at + 1, child) for child in reversed(node["children"]))
        return "\n".join(lines)


_new = object.__new__
_set_steps = Trace.steps.__set__
_set_build = Trace._build.__set__
_drop_build = Trace._build.__delete__


def later(build) -> Trace:
    """The trace whose steps ``build()`` returns, built on first read."""
    trace = _new(Trace)
    _set_build(trace, build)
    return trace


def trace_json_valid(doc) -> bool:
    """Validate the {judgment, rule, children} tree schema, by a loop
    rather than recursion."""
    stack = [doc]
    while stack:
        doc = stack.pop()
        if not isinstance(doc, list):
            return False
        for node in doc:
            if not isinstance(node, dict) or set(node) != {"judgment", "rule", "children"}:
                return False
            if not isinstance(node["judgment"], str) or not isinstance(node["rule"], str):
                return False
            stack.append(node["children"])
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

    # each step is checked on its own, so a loop visits them in any order
    stack = [trace]
    while stack:
        for step in stack.pop().steps:
            visit(step.statement)
            stack.extend(step.children)
    return ok


# -- verdicts ------------------------------------------------------------

class Status(Enum):
    VERIFIED = "verified"
    REFUTED = "refuted"
    UNKNOWN = "unknown"
    DIVERGED = "diverged"
    __hash__ = object.__hash__  # singletons; a `_PRIORITY` lookup: 19 ns, not 90 (Python 3.11.7)


_NO_TRACE = Trace()


class Verdict(Record):
    """Outcome of a semantic check.

    VERIFIED and REFUTED are definitive: larger budgets never flip one
    into the other.  UNKNOWN means a depth bound was exhausted; a larger
    depth may resolve it only for a domain inside the witness grammar
    (``lam f. it`` in ``(forall x : True \\/ True . case x of inl a ->
    True | inr b -> True) => True`` stays UNKNOWN at every depth).
    DIVERGED means fuel ran out and may resolve any way with more fuel.
    """

    __slots__ = __match_args__ = (
        "status", "trace", "bound", "fuel_report", "pair", "instance", "instantiation",
        "premise_witnesses", "bounds",
    )
    _defaults = {**dict.fromkeys(__match_args__[1:]), "trace": _NO_TRACE}

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

