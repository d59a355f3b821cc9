"""Reference statement forms: one frozen dataclass per form, and a
renderer that spells each form out.

``ctkernel.judgments`` writes each form once, as a row of name, fields
and template, and renders by one writer; it must agree with this
module on ``render_statement``, ``repr``, ``==`` and ``hash``.  The
forms carry the same names, so a statement converts by class name.
``CanonUndefined`` is the relation of a term that is no type former;
it renders as ``CanonNotIn(ty, ())`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from ctkernel.syntax import pretty
from ctkernel.terms import Term


@dataclass(frozen=True)
class IsSet:
    a: Term


@dataclass(frozen=True)
class IsTrue:
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
    antecedents: Tuple["Statement", ...]
    consequent: "Statement"


@dataclass(frozen=True)
class Gen:
    binders: Tuple[str, ...]
    body: "Statement"


@dataclass(frozen=True)
class Evals:
    term: Term
    result: Term


@dataclass(frozen=True)
class CanonIn:
    ty: Term
    args: Tuple[Term, ...]


@dataclass(frozen=True)
class CanonNotIn:
    ty: Term
    args: Tuple[Term, ...]


@dataclass(frozen=True)
class CanonUndefined:
    ty: Term


@dataclass(frozen=True)
class CanonClosureIn:
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
    term: Term


@dataclass(frozen=True)
class Both:
    parts: Tuple["Statement", ...]


Statement = Union[
    IsSet, IsTrue, Member, EqSet, EqMember, Hyp, Gen, Evals, CanonIn, CanonNotIn,
    CanonUndefined, CanonClosureIn, CanonEmpty, CanonEq, CanonNeq, Blocked, Both,
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
        case CanonUndefined(ty):
            return render_statement(CanonNotIn(ty, ()))
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
