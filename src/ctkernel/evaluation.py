"""Fueled weak evaluation to canonical form.

Evaluation is weak: nothing is rewritten under a lambda, inside pair
components, injection arguments or type-former fields; canonical forms
are values exactly as constructed.

The evaluator is an environment machine in the style of Krivine's and
Sestoft's: a focus closure, a term under an environment from binder
names to closures, and an explicit stack of pending eliminator frames.
Walking into an eliminator's head pushes a frame, and looking a
variable up in the environment replaces the focus; neither costs fuel.
A redex fires on the focus and the top frame alone, and a beta or case
step binds its value in an environment instead of copying the body.
Finding each step's redex therefore costs O(1) amortized whatever the
depth of the head, firing it copies no body, and neither deep spines
nor divergent programs touch the Python stack: divergence burns fuel.
Fuel counts one step per beta, projection and case dispatch, and is
checked only where a step is charged: a stuck term takes no step, so it
is stuck whatever fuel is left.

Only results are read back into terms: the canonical form, the stuck
subterm and what the fuel report writes.  An environment binds only
closures that read back as closed terms, so reading back is plain
substitution, renames nothing and does not depend on the order of the
bindings; it gives exactly the terms, fresh names included, of the
machine that substitutes at every step (``tests/eval_oracle.py``).  On
open input, a step whose value reads back open substitutes it at once,
as that machine does.

The default strategy is call-by-name: beta binds the unevaluated
argument.  A call-by-value variant (the argument is reduced to canonical
form first, under one more frame) exists purely so tests can demonstrate
that verdicts do not depend on the strategy; step counts do.  A check's
tank carries its strategy with its fuel, so every run inside the check,
and every copy of its tank, evaluates the same way.
"""

from __future__ import annotations

from enum import Enum
from types import SimpleNamespace
from typing import Optional, Union

from .record import Record
from .syntax import LAYOUT, PREC_TERM, clip, write
from .terms import (
    App, Case, Fst, Inl, Inr, Lam, Pair, Snd, Term, Var,
    classify, substitute,
)


class Strategy(Enum):
    CALL_BY_NAME = "call-by-name"
    CALL_BY_VALUE = "call-by-value"


class Canonical(Record):
    """Evaluation reached a canonical form in ``steps`` reductions."""
    __slots__ = __match_args__ = ("term", "form", "steps")


class FuelExhausted(Record):
    """The step budget ran out; ``remaining`` describes the pending redex."""
    __slots__ = __match_args__ = ("remaining",)


class Stuck(Record):
    """No rule applies: an eliminator met the wrong canonical shape, or a
    free variable reached head position."""
    __slots__ = __match_args__ = ("offending",)


EvalResult = Union[Canonical, FuelExhausted, Stuck]


class Tank(Record):
    """Mutable step budget shared across every evaluation inside one
    check, and the check's strategy, which ``run`` reads."""
    __slots__ = __match_args__ = ("remaining", "strategy")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


# A closure with an empty environment is the bare term; any other is a
# list [term, env].  Reading it back turns it into [its term, _NO_ENV],
# so a value bound twice is read back once and shared.
_NO_ENV: dict = {}  # the empty environment, never written to

# A frame is an eliminator with a hole where its head was, outermost
# frame first on the stack.  It keeps only what the redex needs: an App
# frame is the argument's closure, so the reduced head chain is never
# kept alive and a frame costs one list slot.  The other frames are
# tuples; a Case frame keeps the Case node for its branches, with their
# environment.  (Lam, lam, env) is the call-by-value frame of a function
# waiting for its argument's value.
#   arg  (Fst,)  (Snd,)  (Case, case, env)  (Lam, lam, env)


def run(t: Term, tank: Tank) -> EvalResult:
    """Reduce to canonical form under the tank's strategy, drawing steps
    from the tank."""
    form = classify(t)
    if form is not None:
        return Canonical(t, form, 0)
    by_value = tank.strategy is Strategy.CALL_BY_VALUE
    # On closed input every value a step binds is closed; on open input
    # each one is checked.
    open_input = t.fv
    # The focus closure is the term ``t`` under ``env``; while ``t`` is
    # itself a closure, ``env`` is empty and the loop opens it.
    env = _NO_ENV
    stack: list = []
    push, pop = stack.append, stack.pop
    # Steps are charged to the tank when the run ends, however it ends.
    budget = tank.remaining
    steps = 0
    try:
        while True:
            kind = type(t)
            if kind is App:
                a = t.arg
                if env and a.fv:
                    a = env.get(a.name, a) if type(a) is Var else [a, env]
                push(a)
                t = t.fn
                continue
            if kind is Var:
                c = env.get(t.name)
                if c is not None:
                    t, env = c, _NO_ENV
                    continue
            elif kind is Fst or kind is Snd:
                push((kind,))
                t = t.pair
                continue
            elif kind is Case:
                push((Case, t, env))
                t = t.scrutinee
                continue
            elif kind is list:
                t, env = t
                continue
            # The focus is a free variable, and the term is stuck on it
            # whatever fuel is left; or the focus is canonical, and the
            # whole term is canonical, or stuck on the top frame, or it
            # must step, which needs fuel.
            if kind is Var:
                return Stuck(t)
            if not stack:
                return Canonical(_read(t, env) if env else t, classify(t), steps)
            frame = pop()
            if type(frame) is not tuple:
                if kind is not Lam:
                    return Stuck(App(_read(t, env), _readback(frame)))
                if by_value and classify(frame[0] if type(frame) is list else frame) is None:
                    push((Lam, t, env))
                    t, env = frame, _NO_ENV
                    continue
                x, body, value = t.binder, t.body, frame
                scope = env
            else:
                tag = frame[0]
                if tag is Fst or tag is Snd:
                    if kind is not Pair:
                        return Stuck(tag(_read(t, env)))
                    if steps >= budget:
                        push(frame)
                        return FuelExhausted(_describe(stack, [t, env] if env else t))
                    t = t.fst if tag is Fst else t.snd
                    steps += 1
                    continue
                if tag is Case:
                    node = frame[1]
                    if kind is Inl:
                        x, body = node.left_binder, node.left_body
                    elif kind is Inr:
                        x, body = node.right_binder, node.right_body
                    else:
                        return Stuck(Case(_read(t, env), **_branches(node, frame[2])))
                    value = t.arg
                    if env and value.fv:
                        value = env.get(value.name, value) if type(value) is Var else [value, env]
                else:
                    value = [t, env] if env and t.fv else t
                    x, body = frame[1].binder, frame[1].body
                scope = frame[2]
            if steps >= budget:
                push(frame)
                return FuelExhausted(_describe(stack, [t, env] if env else t))
            # Enter ``body`` under ``scope`` with ``x`` bound to ``value``.
            steps += 1
            if x not in body.fv:
                t, env = body, scope
            elif type(body) is Var:  # the body is x: the value is the focus
                t, env = value, _NO_ENV
            elif open_input and not (value[0].fv <= value[1].keys() if type(value) is list
                                     else not value.fv):
                t, env = substitute(_read(body, scope, x), x, _readback(value)), _NO_ENV
            else:
                env = {**scope, x: value} if scope else {x: value}
                t = body
    finally:
        tank.remaining = budget - steps


def _readback(c) -> Term:
    """The term closure ``c`` stands for, read back once and kept in
    ``c``.

    The closures that ``c`` needs read first are read by a loop, innermost
    first, so a chain of closures, each bound in the next one's
    environment, costs no Python stack however long it is."""
    if type(c) is not list:
        return c
    todo: list = [c]
    while todo:
        item = todo[-1]
        term, env = item
        if env:
            fv = term.fv
            for name, v in env.items():
                if type(v) is list and v[1] and name in fv:
                    todo.append(v)  # to read before item
                    break
            else:
                item[0] = _read(term, env)
                item[1] = _NO_ENV
                todo.pop()
        else:
            todo.pop()
    return c[0]


def _read(t: Term, env: dict, hidden: Optional[str] = None) -> Term:
    """``t`` with each free variable that ``env`` binds, but ``hidden``,
    replaced by the closed term its closure reads back as."""
    for name, c in env.items():
        if name in t.fv and name != hidden:
            t = substitute(t, name, _readback(c))
    return t


def _branches(node: Case, env: dict) -> dict:
    """The binders and branches of a Case frame, read back."""
    lb, rb = node.left_binder, node.right_binder
    return {"left_binder": lb, "left_body": _read(node.left_body, env, lb),
            "right_binder": rb, "right_body": _read(node.right_body, env, rb)}


def _frame(cls: type, hole: str) -> tuple:
    """How a frame prints: the layout of ``cls`` with the hole at field
    ``hole``, as (level, the hole's context, the pieces before the hole,
    the pieces after it)."""
    level, pieces = LAYOUT[cls]
    i = next(i for i, p in enumerate(pieces) if type(p) is tuple and p[0] == hole)
    return level, pieces[i][1], pieces[:i], pieces[i + 1:]


# Per frame tag: an eliminator frame prints as its eliminator with the
# hole at the head, the call-by-value frame as an App with the hole at
# the argument; the bare App frame is its own argument.
_FRAMES = {App: _frame(App, "fn"), Fst: _frame(Fst, "pair"), Snd: _frame(Snd, "pair"),
           Case: _frame(Case, "scrutinee"), Lam: _frame(App, "arg")}


_APP_HEAD = _FRAMES[App][1]  # the context of an App's head


def _layout(frame) -> tuple:
    return _FRAMES[frame[0] if type(frame) is tuple else App]


def _fields(frame, pieces: tuple) -> Optional[SimpleNamespace]:
    """The fields of a frame that ``pieces`` name, read back, as the
    attributes of a namespace; a frame is read back only when some of
    its fields are written."""
    if not any(type(p) is tuple for p in pieces):
        return None
    if type(frame) is not tuple:
        return SimpleNamespace(arg=_readback(frame))
    if frame[0] is Lam:
        return SimpleNamespace(fn=_read(frame[1], frame[2]))
    return SimpleNamespace(**_branches(frame[1], frame[2]))


def _describe(stack: list, focus, limit: int = 120) -> str:
    """``describe`` of the term that the stack plugged with the focus
    closure spells, without building that term.

    The openers (what a frame writes before its hole) are written
    outermost frame first, then the focus, then the closers innermost
    frame first; writing stops once past ``limit`` characters, and only
    what is written is read back.  A frame is parenthesised when its
    level binds more loosely than the hole of the frame around it.  An
    App frame in an App's head writes no opener and leaves the context
    as it is, so the openers skip it without laying it out."""
    out: list = []
    size = 0
    ctx = PREC_TERM
    for frame in stack:
        if ctx == _APP_HEAD and type(frame) is not tuple:
            continue
        level, hole, opener, _ = _layout(frame)
        if level < ctx:
            out.append("(")
            size += 1
        if opener:
            size = write([(opener, _fields(frame, opener))], out, size, limit)
        if size > limit:
            return clip("".join(out), limit)
        ctx = hole
    size = write([(_readback(focus), ctx)], out, size, limit)
    for i in range(len(stack) - 1, -1, -1):
        if size > limit:
            break
        level, _, _, closer = _layout(stack[i])
        ctx = _layout(stack[i - 1])[1] if i else PREC_TERM
        items = [(closer, _fields(stack[i], closer))]
        if level < ctx:
            items.insert(0, ")")
        size = write(items, out, size, limit)
    return clip("".join(out), limit)


def evaluate(t: Term, fuel: int, strategy: Strategy = Strategy.CALL_BY_NAME) -> EvalResult:
    """Evaluate with a private fuel budget; fuel must be >= 1."""
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    return run(t, Tank(fuel, strategy))
