#!/usr/bin/env python3
"""Print the evaluator's cost per step as head depth and fuel grow.

For each n from 50 to 10^5, rows time ``evaluate`` on head-nested
spines of n steps: ``fst``/``snd`` over nested pairs, a left-nested beta
spine ``((I I) I ... I) it``, nested ``case`` dispatches that re-inject
their payload, and nested dispatches ``case t of inl a -> inl <a, it> |
...`` whose payload grows by a pair at each step, so that the result is
read back n pairs deep.  For n from 10^2 to 10^5 they also time OMEGA
``(lam o. o o) (lam o. o o)`` and ``(lam x. x x x) (lam x. x x x)`` at
fuel n.  A row shows the best of three calls.  A flat
microseconds-per-step column means a step costs the same however deep
its redex sits.  The last column is that cost as a multiple of a
projection step's, timed on the projection spine of the same n in calls
that alternate with the row's, so that both see the same machine load.
A call that raises prints the exception's name instead of a time.

    PYTHONPATH=src python3 scripts/eval_curve.py
"""

import random
import time

from ctkernel.evaluation import evaluate
from ctkernel.syntax import parse
from ctkernel.terms import App, Case, Fst, IT, Inl, Inr, Lam, Pair, Snd, Var

DEPTHS = (50, 100, 200, 400, 800, 1000, 1600, 3200, 10_000, 30_000, 100_000)
FUELS = (100, 1_000, 10_000, 100_000)
REPEAT = 3


def projection_spine(n: int, rng: random.Random):
    t = IT
    path = [rng.random() < 0.5 for _ in range(n)]
    for left in path:
        t = Pair(t, IT) if left else Pair(IT, t)
    for left in reversed(path):
        t = Fst(t) if left else Snd(t)
    return t


def beta_spine(n: int, rng: random.Random):
    t = Lam("x", Var("x"))
    for _ in range(n - 1):
        b = rng.choice("xyz")
        t = App(t, Lam(b, Var(b)))
    return App(t, IT)


def case_spine(n: int, rng: random.Random):
    t = Inl(IT)
    for _ in range(n):
        left = Inl(Var("a")) if rng.random() < 0.5 else Inr(Var("a"))
        right = Inl(Var("b")) if rng.random() < 0.5 else Inr(Var("b"))
        t = Case(t, "a", left, "b", right)
    return t


def payload_spine(n: int, rng: random.Random):
    t = Inl(IT)
    for _ in range(n):
        t = Case(t, "a", Inl(Pair(Var("a"), IT)), "b", Inr(Var("b")))
    return t


def per_step(term, fuel: int):
    """(microseconds per step, steps) of one ``evaluate`` call."""
    start = time.perf_counter()
    result = evaluate(term, fuel)
    steps = getattr(result, "steps", fuel)
    return 1e6 * (time.perf_counter() - start) / steps, steps


def row(kind: str, n: int, term, fuel: int, proj) -> None:
    """Print the best of REPEAT calls on ``term``, and its ratio to the
    best of as many calls on ``proj``, made in turn with them."""
    best = ref = float("inf")
    try:
        for _ in range(REPEAT):
            cost, steps = per_step(term, fuel)
            best = min(best, cost)
            ref = min(ref, per_step(proj, 10 * n)[0])
    except RecursionError as exc:
        print(f"{kind:<10} {n:>8} {'':>8} {type(exc).__name__:>12}")
        return
    print(f"{kind:<10} {n:>8} {steps:>8} {best:>12.2f} {best / ref:>8.2f}")


def main() -> None:
    print(f"{'kind':<10} {'n/fuel':>8} {'steps':>8} {'us/step':>12} {'x proj':>8}")
    rng = random.Random(2026)
    for n in DEPTHS:
        proj = projection_spine(n, rng)
        rows = [("proj", proj, 10 * n)] + [(kind, build(n, rng), 10 * n) for kind, build in (
            ("beta", beta_spine), ("case", case_spine), ("payload", payload_spine))]
        if n in FUELS:
            rows += [(kind, parse(text), n) for kind, text in (
                ("omega", "(lam o. o o) (lam o. o o)"), ("xxx", "(lam x. x x x) (lam x. x x x)"))]
        for kind, term, fuel in rows:
            row(kind, n, term, fuel, proj)


if __name__ == "__main__":
    main()
