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
memberships.  Every walk over a trace, its document or a derivation is
one loop, ``walk``.

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
from typing import Optional

from . import evaluation
from .record import Record
from .syntax import pretty
from .terms import Disj, Exists, Forall, Inl, Inr, It, Lam, Pair, TTrue, alpha_eq, is_closed


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

def walk(roots, children):
    """Yield ``(depth, node)`` for every node of the trees ``roots``,
    depth first: a node before its children, first child first.
    ``children(node)`` is read only when the walk resumes after yielding
    ``node``, so a consumer may check a node before its children are
    read.  A loop, not recursion: any depth that fits in memory."""
    stack = [iter(roots)]
    while stack:
        for node in stack[-1]:
            yield len(stack) - 1, node
            stack.append(iter(children(node)))
            break
        else:
            stack.pop()


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
        """The {judgment, rule, children} tree: each step's dict goes into
        the list open at its depth."""
        open_at: list = [[]]
        for depth, step in walk(self.steps, _premises):
            node = {"judgment": render_statement(step.statement), "rule": step.rule,
                    "children": []}
            open_at[depth].append(node)
            open_at[depth + 1:] = [node["children"]]
        return open_at[0]

    def render(self) -> str:
        """One line per step, numbered at the top level, with each step's
        children indented under it."""
        lines, top = [], 0
        for depth, step in walk(self.steps, _premises):
            top += depth == 0
            label = "- " if depth else f"({top}) "
            lines.append(f"{'    ' * depth}{label}{render_statement(step.statement)}"
                         f"    [{step.rule}]")
        return "\n".join(lines)


def _premises(step: TraceStep):
    """A step's children in a walk: its premises' steps, in order."""
    return (s for child in step.children for s in child.steps)


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
    """Validate the {judgment, rule, children} tree schema; the walk reads
    a node's children only once the node has passed."""
    return isinstance(doc, list) and all(
        isinstance(node, dict) and set(node) == {"judgment", "rule", "children"}
        and isinstance(node["judgment"], str) and isinstance(node["rule"], str)
        and isinstance(node["children"], list)
        for _, node in walk(doc, lambda node: node["children"]))


# The classes of the canonical witnesses of each type former: a closed
# ``canon(T)(args)`` replays when the classes of ``args`` form one of
# T's sets.  ``False`` has no witness, and a term that is no former has
# no relation.
_WITNESSES = {TTrue: ({It},), Forall: ({Lam},), Exists: ({Pair},), Disj: ({Inl}, {Inr})}


def _parts(s: Statement) -> tuple:
    return s.parts if type(s) is Both else ()


def replay(trace: Trace, fuel: int, strategy=evaluation.Strategy.CALL_BY_NAME) -> bool:
    """Re-check the evaluation steps and shallow clause matches recorded
    in a trace, its steps' statements and the parts of a ``Both``.
    Statements with free variables are hypothetical display lines and are
    skipped."""
    steps = walk(trace.steps, _premises)
    for _, s in walk((step.statement for _, step in steps), _parts):
        match s:
            case Evals(t, r) if is_closed(t) and is_closed(r):
                res = evaluation.evaluate(t, fuel, strategy)
                if not (isinstance(res, evaluation.Canonical) and alpha_eq(res.term, r)):
                    return False
            case CanonIn(ty, args) if is_closed(ty) and all(map(is_closed, args)):
                if {type(a) for a in args} not in _WITNESSES.get(type(ty), ()):
                    return False
    return True


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

