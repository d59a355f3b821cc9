"""Reference term core: free variables, substitution, constructor depth,
alpha-equivalence and binder normalization by structural recursion over
class patterns, with no caching.

``ctkernel.terms`` reads free variables and depth off the nodes, where
they are computed once, and compares and writes terms by loops driven by
the node fields; these must agree with it, fresh names included (the
differential tests compare with ``==``).  Recursion limits the depth of
the terms this module accepts.
"""

from __future__ import annotations

import itertools

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


def alpha_eq(a: Term, b: Term) -> bool:
    """Identity up to consistent renaming of bound variables."""
    return _alpha(a, b, {}, {}, 0)


def _alpha(a: Term, b: Term, ea: dict, eb: dict, k: int) -> bool:
    match a, b:
        case Var(x), Var(y):
            return ea.get(x, x) == eb.get(y, y)
        case Lam(xa, pa), Lam(xb, pb):
            return _alpha(pa, pb, {**ea, xa: k}, {**eb, xb: k}, k + 1)
        case App(f1, a1), App(f2, a2):
            return _alpha(f1, f2, ea, eb, k) and _alpha(a1, a2, ea, eb, k)
        case Pair(l1, r1), Pair(l2, r2):
            return _alpha(l1, l2, ea, eb, k) and _alpha(r1, r2, ea, eb, k)
        case Fst(p1), Fst(p2):
            return _alpha(p1, p2, ea, eb, k)
        case Snd(p1), Snd(p2):
            return _alpha(p1, p2, ea, eb, k)
        case Inl(p1), Inl(p2):
            return _alpha(p1, p2, ea, eb, k)
        case Inr(p1), Inr(p2):
            return _alpha(p1, p2, ea, eb, k)
        case Case(s1, lb1, l1, rb1, r1), Case(s2, lb2, l2, rb2, r2):
            return (
                _alpha(s1, s2, ea, eb, k)
                and _alpha(l1, l2, {**ea, lb1: k}, {**eb, lb2: k}, k + 1)
                and _alpha(r1, r2, {**ea, rb1: k}, {**eb, rb2: k}, k + 1)
            )
        case Forall(d1, b1, f1), Forall(d2, b2, f2):
            return _alpha(d1, d2, ea, eb, k) and _alpha(
                f1, f2, {**ea, b1: k}, {**eb, b2: k}, k + 1
            )
        case Exists(d1, b1, f1), Exists(d2, b2, f2):
            return _alpha(d1, d2, ea, eb, k) and _alpha(
                f1, f2, {**ea, b1: k}, {**eb, b2: k}, k + 1
            )
        case Disj(l1, r1), Disj(l2, r2):
            return _alpha(l1, l2, ea, eb, k) and _alpha(r1, r2, ea, eb, k)
        case It(), It():
            return True
        case TTrue(), TTrue():
            return True
        case TFalse(), TFalse():
            return True
        case _:
            return False


def normalize_binders(t: Term, free=str) -> Term:
    """Rename every binder to v0, v1, ... in traversal order, and each
    free variable ``x`` to ``free(x)``.

    Alpha-equivalent terms normalize to identical trees, which gives a
    cheap canonical representative for ordering and deduplication.
    """
    counter = itertools.count()

    def go(t: Term, env: dict) -> Term:
        match t:
            case Var(n):
                return Var(env[n] if n in env else free(n))
            case Lam(b, body):
                nb = f"v{next(counter)}"
                return Lam(nb, go(body, {**env, b: nb}))
            case App(f, a):
                return App(go(f, env), go(a, env))
            case Pair(l, r):
                return Pair(go(l, env), go(r, env))
            case Fst(p):
                return Fst(go(p, env))
            case Snd(p):
                return Snd(go(p, env))
            case Inl(p):
                return Inl(go(p, env))
            case Inr(p):
                return Inr(go(p, env))
            case Case(s, lb, lbody, rb, rbody):
                s = go(s, env)
                nlb = f"v{next(counter)}"
                lbody = go(lbody, {**env, lb: nlb})
                nrb = f"v{next(counter)}"
                rbody = go(rbody, {**env, rb: nrb})
                return Case(s, nlb, lbody, nrb, rbody)
            case Forall(d, b, f):
                d = go(d, env)
                nb = f"v{next(counter)}"
                return Forall(d, nb, go(f, {**env, b: nb}))
            case Exists(d, b, f):
                d = go(d, env)
                nb = f"v{next(counter)}"
                return Exists(d, nb, go(f, {**env, b: nb}))
            case Disj(l, r):
                return Disj(go(l, env), go(r, env))
            case _:
                return t

    return go(t, {})
