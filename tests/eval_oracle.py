"""Reference evaluator: one head reduction at a time, from the root.

Each step descends from the root to the redex by recursion and rebuilds
the spine on the way out, so a step costs O(head depth) and deep heads
exhaust the Python stack.  ``ctkernel.evaluation.run`` must give exactly
its results (class, term, form, steps, offending subterm and remaining
description, which the reference printer ``syntax_oracle.describe``
writes here) and draw exactly as much fuel; the differential tests
compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from ctkernel.evaluation import (
    Canonical, EvalResult, FuelExhausted, Strategy, Stuck, Tank,
)
from ctkernel.terms import (
    App, Case, Fst, Inl, Inr, Lam, Pair, Snd, Term, Var, classify, substitute,
)
from syntax_oracle import describe


@dataclass(frozen=True)
class _StuckAt:
    subterm: Term


def _step(t: Term, strategy: Strategy):
    """One head reduction; returns the reduct or a _StuckAt marker."""
    match t:
        case App(fn, arg):
            match fn:
                case Lam(b, body):
                    if strategy is Strategy.CALL_BY_VALUE and classify(arg) is None:
                        inner = _step(arg, strategy)
                        if isinstance(inner, _StuckAt):
                            return inner
                        return App(fn, inner)
                    return substitute(body, b, arg)
                case _ if classify(fn) is not None:
                    return _StuckAt(t)
                case _:
                    inner = _step(fn, strategy)
                    if isinstance(inner, _StuckAt):
                        return inner
                    return App(inner, arg)
        case Fst(p):
            match p:
                case Pair(l, _):
                    return l
                case _ if classify(p) is not None:
                    return _StuckAt(t)
                case _:
                    inner = _step(p, strategy)
                    if isinstance(inner, _StuckAt):
                        return inner
                    return Fst(inner)
        case Snd(p):
            match p:
                case Pair(_, r):
                    return r
                case _ if classify(p) is not None:
                    return _StuckAt(t)
                case _:
                    inner = _step(p, strategy)
                    if isinstance(inner, _StuckAt):
                        return inner
                    return Snd(inner)
        case Case(s, lb, lbody, rb, rbody):
            match s:
                case Inl(v):
                    return substitute(lbody, lb, v)
                case Inr(v):
                    return substitute(rbody, rb, v)
                case _ if classify(s) is not None:
                    return _StuckAt(t)
                case _:
                    inner = _step(s, strategy)
                    if isinstance(inner, _StuckAt):
                        return inner
                    return Case(inner, lb, lbody, rb, rbody)
        case Var(_):
            return _StuckAt(t)
        case _:
            raise AssertionError(f"no step for canonical term {t!r}")


def run(t: Term, tank: Tank) -> EvalResult:
    """Reduce to canonical form under the tank's strategy, drawing steps
    from the tank."""
    steps = 0
    while True:
        form = classify(t)
        if form is not None:
            return Canonical(t, form, steps)
        # a stuck term takes no step, so it is stuck whatever fuel is left
        nxt = _step(t, tank.strategy)
        if isinstance(nxt, _StuckAt):
            return Stuck(nxt.subterm)
        if tank.remaining <= 0:
            return FuelExhausted(describe(t))
        tank.remaining -= 1
        steps += 1
        t = nxt
