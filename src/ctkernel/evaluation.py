"""Fueled weak evaluation to canonical form.

Evaluation is weak: nothing is rewritten under a lambda, inside pair
components, injection arguments or type-former fields; canonical forms
are values exactly as constructed.

The evaluator is an abstract machine in the style of Krivine's: a focus
term and an explicit stack of pending eliminator frames.  Walking into
an eliminator's head pushes a frame and costs no fuel; a redex fires on
the focus and the top frame alone.  Finding each step's redex therefore
costs O(1) amortized whatever the depth of the head, and neither deep
spines nor divergent programs touch the Python stack: divergence burns
fuel.  Fuel counts one step per beta, projection and case dispatch.

The default strategy is call-by-name: beta substitutes the unevaluated
argument.  A call-by-value variant (the argument is reduced to canonical
form first, under one more frame) exists purely so tests can demonstrate
that verdicts do not depend on the strategy; step counts do.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

from .syntax import LAYOUT, PREC_TERM, clip, write
from .terms import (
    App, Case, CanonicalForm, Fst, Inl, Inr, Lam, Pair, Snd, Term, Var,
    classify, substitute,
)


class Strategy(Enum):
    CALL_BY_NAME = "call-by-name"
    CALL_BY_VALUE = "call-by-value"


@dataclass(frozen=True)
class Canonical:
    """Evaluation reached a canonical form in ``steps`` reductions."""
    term: Term
    form: CanonicalForm
    steps: int


@dataclass(frozen=True)
class FuelExhausted:
    """The step budget ran out; ``remaining`` describes the pending redex."""
    remaining: str


@dataclass(frozen=True)
class Stuck:
    """No rule applies: an eliminator met the wrong canonical shape, or a
    free variable reached head position."""
    offending: Term


EvalResult = Union[Canonical, FuelExhausted, Stuck]


@dataclass
class Tank:
    """Mutable step budget shared across every evaluation inside one check."""
    remaining: int


# A frame is an eliminator with a hole where its head was, outermost
# frame first on the stack.  It keeps only what the redex needs: an App
# frame is the bare argument term, not the App node, so the reduced head
# chain is never kept alive and a frame costs one list slot.  The other
# frames are tuples, and no term is a tuple.  (Lam, lam) is the
# call-by-value frame of a function waiting for its argument's value.
#   arg  (Fst,)  (Snd,)  (Case, lb, lbody, rb, rbody)  (Lam, lam)


def run(t: Term, tank: Tank, strategy: Strategy = Strategy.CALL_BY_NAME) -> EvalResult:
    """Reduce to canonical form, drawing steps from the shared tank."""
    form = classify(t)
    if form is not None:
        return Canonical(t, form, 0)
    by_value = strategy is Strategy.CALL_BY_VALUE
    stack: list = []
    push, pop = stack.append, stack.pop
    steps = 0
    while True:
        kind = type(t)
        if kind is App:
            push(t.arg)
            t = t.fn
            continue
        if kind is Fst or kind is Snd:
            push((kind,))
            t = t.pair
            continue
        if kind is Case:
            push((Case, t.left_binder, t.left_body, t.right_binder, t.right_body))
            t = t.scrutinee
            continue
        # The focus is canonical or a variable: the whole term is
        # canonical, or it must step, or it is stuck.
        if not stack and kind is not Var:
            return Canonical(t, classify(t), steps)
        if tank.remaining <= 0:
            return FuelExhausted(_describe(stack, t))
        if kind is Var:
            return Stuck(t)
        frame = pop()
        tag = frame[0] if type(frame) is tuple else App
        if tag is App:
            if kind is not Lam:
                return Stuck(App(t, frame))
            if by_value and classify(frame) is None:
                push((Lam, t))
                t = frame
                continue
            t = substitute(t.body, t.binder, frame)
        elif tag is Fst:
            if kind is not Pair:
                return Stuck(Fst(t))
            t = t.fst
        elif tag is Snd:
            if kind is not Pair:
                return Stuck(Snd(t))
            t = t.snd
        elif tag is Case:
            if kind is Inl:
                t = substitute(frame[2], frame[1], t.arg)
            elif kind is Inr:
                t = substitute(frame[4], frame[3], t.arg)
            else:
                return Stuck(Case(t, *frame[1:]))
        else:
            lam = frame[1]
            t = substitute(lam.body, lam.binder, t)
        tank.remaining -= 1
        steps += 1


def _frame(cls: type, hole: str) -> tuple:
    """How a frame prints: the layout of ``cls`` with the hole at field
    ``hole``, as (level, the hole's context, the pieces before the hole,
    the pieces after it, the fields those pieces name)."""
    level, pieces = LAYOUT[cls]
    i = next(i for i, p in enumerate(pieces) if type(p) is tuple and p[0] == hole)
    before, after = pieces[:i], pieces[i + 1:]
    names = [p[0] for p in before + after if type(p) is tuple]
    return level, pieces[i][1], before, after, names


# Per frame tag: an eliminator frame prints as its eliminator with the
# hole at the head, the call-by-value frame as an App with the hole at
# the argument.  A frame holds the other fields after its tag, in layout
# order; the bare App frame is its own argument.
_FRAMES = {App: _frame(App, "fn"), Fst: _frame(Fst, "pair"), Snd: _frame(Snd, "pair"),
           Case: _frame(Case, "scrutinee"), Lam: _frame(App, "arg")}


def _layout(frame) -> tuple:
    return _FRAMES[frame[0] if type(frame) is tuple else App]


def _fields(frame, names: list) -> dict:
    """The fields ``names`` of a frame, by name."""
    return dict(zip(names, frame[1:] if type(frame) is tuple else (frame,)))


def _describe(stack: list, focus: Term, limit: int = 120) -> str:
    """``describe`` of the term that the stack plugged with the focus
    spells, without building that term.

    The openers (what a frame writes before its hole) are written
    outermost frame first, then the focus, then the closers innermost
    frame first; writing stops once past ``limit`` characters.  A frame
    is parenthesised when its level binds more loosely than the hole of
    the frame around it."""
    out: list = []
    size = 0
    ctx = PREC_TERM
    for frame in stack:
        level, hole, opener, _, names = _layout(frame)
        if level < ctx:
            out.append("(")
            size += 1
        if opener:
            size = write([(opener, _fields(frame, names))], out, size, limit)
        if size > limit:
            return clip("".join(out), limit)
        ctx = hole
    size = write([(focus, ctx)], out, size, limit)
    for i in range(len(stack) - 1, -1, -1):
        if size > limit:
            break
        level, _, _, closer, names = _layout(stack[i])
        ctx = _layout(stack[i - 1])[1] if i else PREC_TERM
        items = [(closer, _fields(stack[i], names))]
        if level < ctx:
            items.insert(0, ")")
        size = write(items, out, size, limit)
    return clip("".join(out), limit)


def evaluate(t: Term, fuel: int, strategy: Strategy = Strategy.CALL_BY_NAME) -> EvalResult:
    """Evaluate with a private fuel budget; fuel must be >= 1."""
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    return run(t, Tank(fuel), strategy)
