"""Reference term core: free variables, substitution and constructor
depth by structural recursion over class patterns, with no caching.

``ctkernel.terms`` reads free variables and depth off the nodes, where
they are computed once; these must agree with it, fresh names included
(the differential tests compare with ``==``).  Recursion limits the
depth of the terms this module accepts.
"""

from __future__ import annotations

from ctkernel.terms import (
    App, Case, Disj, Exists, Forall, Fst, Inl, Inr, It, Lam, Pair, Snd,
    Term, TFalse, TTrue, Var, fresh_name,
)


def free_vars(t: Term) -> frozenset:
    match t:
        case Var(n):
            return frozenset((n,))
        case Lam(b, body):
            return free_vars(body) - {b}
        case App(f, a):
            return free_vars(f) | free_vars(a)
        case Pair(l, r) | Disj(l, r):
            return free_vars(l) | free_vars(r)
        case Fst(p) | Snd(p) | Inl(p) | Inr(p):
            return free_vars(p)
        case Case(s, lb, lbody, rb, rbody):
            return (
                free_vars(s)
                | (free_vars(lbody) - {lb})
                | (free_vars(rbody) - {rb})
            )
        case Forall(d, b, f) | Exists(d, b, f):
            return free_vars(d) | (free_vars(f) - {b})
        case _:
            return frozenset()


def _avoid_capture(binder: str, body: Term, value: Term):
    # Rename the binder when it would capture a free variable of value.
    if binder in free_vars(value):
        fresh = fresh_name(binder, free_vars(value) | free_vars(body) | {binder})
        return fresh, substitute(body, binder, Var(fresh))
    return binder, body


def substitute(t: Term, name: str, value: Term) -> Term:
    """Replace free occurrences of ``name`` in ``t`` by ``value``, avoiding capture."""
    if name not in free_vars(t):
        return t
    match t:
        case Var(_):
            return value
        case Lam(b, body):
            b, body = _avoid_capture(b, body, value)
            return Lam(b, substitute(body, name, value))
        case App(f, a):
            return App(substitute(f, name, value), substitute(a, name, value))
        case Pair(l, r):
            return Pair(substitute(l, name, value), substitute(r, name, value))
        case Fst(p):
            return Fst(substitute(p, name, value))
        case Snd(p):
            return Snd(substitute(p, name, value))
        case Inl(p):
            return Inl(substitute(p, name, value))
        case Inr(p):
            return Inr(substitute(p, name, value))
        case Case(s, lb, lbody, rb, rbody):
            s = substitute(s, name, value)
            if lb != name and name in free_vars(lbody):
                lb, lbody = _avoid_capture(lb, lbody, value)
                lbody = substitute(lbody, name, value)
            if rb != name and name in free_vars(rbody):
                rb, rbody = _avoid_capture(rb, rbody, value)
                rbody = substitute(rbody, name, value)
            return Case(s, lb, lbody, rb, rbody)
        case Forall(d, b, f):
            d = substitute(d, name, value)
            if b != name and name in free_vars(f):
                b, f = _avoid_capture(b, f, value)
                f = substitute(f, name, value)
            return Forall(d, b, f)
        case Exists(d, b, f):
            d = substitute(d, name, value)
            if b != name and name in free_vars(f):
                b, f = _avoid_capture(b, f, value)
                f = substitute(f, name, value)
            return Exists(d, b, f)
        case Disj(l, r):
            return Disj(substitute(l, name, value), substitute(r, name, value))
        case _:
            return t


def constructor_depth(t: Term) -> int:
    """Nesting depth counting one per tree constructor (leaves count 1)."""
    match t:
        case Var(_) | It() | TTrue() | TFalse():
            return 1
        case Lam(_, body):
            return 1 + constructor_depth(body)
        case App(f, a):
            return 1 + max(constructor_depth(f), constructor_depth(a))
        case Pair(l, r) | Disj(l, r):
            return 1 + max(constructor_depth(l), constructor_depth(r))
        case Fst(p) | Snd(p) | Inl(p) | Inr(p):
            return 1 + constructor_depth(p)
        case Case(s, _, l, _, r):
            return 1 + max(
                constructor_depth(s), constructor_depth(l), constructor_depth(r)
            )
        case Forall(d, _, f) | Exists(d, _, f):
            return 1 + max(constructor_depth(d), constructor_depth(f))
        case _:
            raise TypeError(f"not a term: {t!r}")
