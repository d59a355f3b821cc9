#!/usr/bin/env python3
"""Print the evaluator's cost per step as head depth and fuel grow.

Each row times one ``evaluate`` call (best of three) on a head-nested
spine: ``fst``/``snd`` over nested pairs, a left-nested beta spine
``((I I) I ... I) it`` and nested ``case`` dispatches, each taking n
steps, for n from 50 to 10^5.  Then it times OMEGA ``(lam o. o o)
(lam o. o o)`` and ``(lam x. x x x) (lam x. x x x)`` until the fuel runs
out, for fuel from 10^2 to 10^5.  A flat microseconds-per-step column
means a step costs the same however deep its redex sits.  A call that
raises prints the exception's name instead of a time.

    PYTHONPATH=src python3 scripts/eval_curve.py
"""

import random
import time

from ctkernel.evaluation import evaluate
from ctkernel.syntax import parse
from ctkernel.terms import App, Case, Fst, IT, Inl, Inr, Lam, Pair, Snd, Var

DEPTHS = (50, 100, 200, 400, 800, 1600, 3200, 10_000, 30_000, 100_000)
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


def timed(term, fuel: int):
    """(best seconds, steps) over REPEAT calls, or the exception's name."""
    best, steps = float("inf"), None
    for _ in range(REPEAT):
        start = time.perf_counter()
        try:
            result = evaluate(term, fuel)
        except RecursionError as exc:
            return type(exc).__name__
        best = min(best, time.perf_counter() - start)
        steps = getattr(result, "steps", fuel)
    return best, steps


def row(kind: str, size: int, outcome) -> None:
    if isinstance(outcome, str):
        print(f"{kind:<10} {size:>8} {'':>8} {outcome:>12}")
        return
    seconds, steps = outcome
    print(f"{kind:<10} {size:>8} {steps:>8} {1e6 * seconds / steps:>12.2f}")


def main() -> None:
    print(f"{'kind':<10} {'n/fuel':>8} {'steps':>8} {'us/step':>12}")
    rng = random.Random(2026)
    for kind, build in (("proj", projection_spine), ("beta", beta_spine), ("case", case_spine)):
        for n in DEPTHS:
            row(kind, n, timed(build(n, rng), 10 * n))
    for kind, text in (("omega", "(lam o. o o) (lam o. o o)"),
                       ("xxx", "(lam x. x x x) (lam x. x x x)")):
        for fuel in FUELS:
            row(kind, fuel, timed(parse(text), fuel))


if __name__ == "__main__":
    main()
