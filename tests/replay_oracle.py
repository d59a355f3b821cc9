"""Reference trace replay: a case per canonical form.

``ctkernel.judgments.replay`` reads the witness classes of each type
former off one table, ``_WITNESSES``, and walks the trace with
``judgments.walk``.  This module keeps ``replay`` as it was first
written: a nested ``visit`` over each step's statement and the parts of
a ``Both``, a stack of child traces, and ``_shallow_canon_match``, which
matches the former and the arguments' shapes by ``classify``.  On every
trace, the kernel's ``replay`` must give the same answer.
"""

from __future__ import annotations

from typing import Tuple

from ctkernel import evaluation
from ctkernel.judgments import Both, CanonIn, Evals, Statement, Trace
from ctkernel.terms import CanonicalForm, Term, alpha_eq, classify, is_closed


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

    stack = [trace]
    while stack:
        for step in stack.pop().steps:
            visit(step.statement)
            stack.extend(step.children)
    return ok
