"""Spans around calls into each ctkernel layer, installed from outside.

``Tracer.install`` replaces chosen public functions by timing wrappers in
the module that defines them and in every ctkernel module that imported
them by name (``run`` and ``substitute`` as imported in ``unary`` and
``binary``, ``enumerate_canonical`` in ``rules``, ``worlds.*`` as used by
``cli``...), so the program itself is not edited.  A function that is
already open on the span stack is called straight through, so a module's
own recursive self-calls are not wrapped.  Self time is a span's
duration minus the time of the spans it opened.  Spans are kept in
memory (the first ``SPAN_CAP`` of them) and written when the run ends.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import Counter, defaultdict

from ctkernel import (
    binary, cli, evaluation, judgments, rules, syntax, terms, unary, worlds,
)

SPAN_CAP = 200_000
MODULES = (terms, syntax, evaluation, judgments, unary, binary, rules, worlds, cli)

# span name -> (defining module, function names aggregated under it)
TARGETS = {
    "syntax.parse": (syntax, ("parse",)),
    "syntax.pretty": (syntax, ("pretty",)),
    "terms.substitute": (terms, ("substitute",)),
    "terms.alpha_eq": (terms, ("alpha_eq",)),
    "terms.term_key": (terms, ("term_key",)),
    "terms.free_vars": (terms, ("free_vars",)),
    "evaluation.evaluate": (evaluation, ("evaluate",)),
    "evaluation.run": (evaluation, ("run",)),
    "unary.enumerate": (unary, ("enumerate_canonical", "_enumerate")),
    "unary.inhabited": (unary, ("inhabited_exact", "_inhabited")),
    "unary.check_member": (unary, ("check_member",)),
    "unary.check_is_set": (unary, ("check_is_set",)),
    "binary.check_eq_member": (binary, ("check_eq_member",)),
    "binary.check_eq_set": (binary, ("check_eq_set",)),
    "binary.related_pairs": (binary, ("related_pairs", "_related_pairs")),
    "rules.derive": (rules, ("derive",)),
    "rules.admissible": (rules, ("admissible",)),
    "rules.compare_readings": (rules, ("compare_readings",)),
    "worlds.parse_model": (worlds, ("parse_model",)),
    "worlds.forces": (worlds, ("forces",)),
    "worlds.check_monotone": (worlds, ("check_monotone",)),
    "cli.main": (cli, ("main",)),
}


def head_depth(t) -> int:
    depth = 0
    while True:
        if isinstance(t, terms.App):
            t = t.fn
        elif isinstance(t, (terms.Fst, terms.Snd)):
            t = t.pair
        elif isinstance(t, terms.Case):
            t = t.scrutinee
        else:
            return depth
        depth += 1


def node_count(t) -> int:
    count, stack = 0, [t]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(v for v in vars(node).values() if not isinstance(v, str))
    return count


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.spans = []          # (span id, op, name, start, end, parent id)
        self.op = 0
        self._ids = itertools.count()
        self._stack = []         # [span index, child time]
        self._open = set()
        self._undo = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if name in tracer._open:
                return fn(*args, **kwargs)
            ctx = before(args, kwargs) if before else None
            parent = tracer._stack[-1][0] if tracer._stack else -1
            index = next(tracer._ids)
            frame = [index, 0.0]
            tracer._open.add(name)
            tracer._stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                elapsed = end - start
                tracer._stack.pop()
                tracer._open.discard(name)
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
                tracer.calls[name] += 1
                tracer.total[name] += elapsed
                tracer.self_time[name] += elapsed - frame[1]
                if index < SPAN_CAP:
                    tracer.spans.append((index, tracer.op, name, start, end, parent))
                if after:
                    after(result, ctx, elapsed)

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        for module in (*MODULES, sys.modules["ctkernel"]):
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                self._undo.append((module, attr, original))
        if getattr(owner, attr, None) is original:
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))

    def install(self) -> None:
        hooks = {"evaluation.run": (self._run_before, self._run_after),
                 "unary.enumerate": (None, self._enum_after),
                 "rules.admissible": (self._admissible_before, self._admissible_after),
                 "syntax.parse": (None, self._parse_after)}
        for name, (module, attrs) in TARGETS.items():
            before, after = hooks.get(name, (None, None))
            for attr in attrs:
                original = getattr(module, attr)
                self._replace(module, attr, original, self.wrap(name, original, before, after))
        render = judgments.Trace.render
        self._replace(judgments.Trace, "render", render, self.wrap("judgments.render", render))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- counters at the same boundaries ------------------------------------

    def _run_before(self, args, kwargs):
        tank = args[1] if len(args) > 1 else kwargs["tank"]
        return tank, tank.remaining, head_depth(args[0] if args else kwargs["t"])

    def _run_after(self, result, ctx, elapsed):
        tank, before, depth = ctx
        steps = before - tank.remaining
        self.counts["evaluation.steps"] += steps
        if isinstance(result, evaluation.FuelExhausted):
            self.counts["evaluation.fuel_exhausted"] += 1
        elif isinstance(result, evaluation.Stuck):
            self.counts["evaluation.stuck"] += 1
        if result is not None and steps:
            bucket = "le_100" if depth <= 100 else "gt_400" if depth > 400 else None
            if bucket:
                self.counts[f"steps.{bucket}"] += steps
                self.total[f"steps.{bucket}"] += elapsed

    def _enum_after(self, result, ctx, elapsed):
        if result is not None:
            self.counts["unary.enumerate.witnesses"] += len(result.witnesses)
            self.counts["unary.enumerate.complete"] += result.complete

    def _admissible_before(self, args, kwargs):
        return args[1] if len(args) > 1 else kwargs.get("instance_depth", 2)

    def _admissible_after(self, result, ctx, elapsed):
        if result is None:
            return
        self.counts["rules.admissible.definitive"] += result.definitive
        if result.bounds:
            self.counts["rules.instantiations"] += result.bounds["instantiations"]
        elif result.instantiation:
            # a refutation stops at its instantiation: count up to it
            space = unary.ground_types(ctx)
            index = 0
            for value in result.instantiation.values():
                index = index * len(space) + (space.index(value) if value in space else 0)
            self.counts["rules.instantiations"] += index + 1

    def _parse_after(self, result, ctx, elapsed):
        if result is not None:
            self.counts["syntax.parse.nodes"] += node_count(result)

    # -- results -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span, op, name, start, end, parent in self.spans:
                fh.write(json.dumps({"span": span, "op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics as (value, unit, better).  The traced phase is
        time-bounded, so counts and self times are per workload operation:
        totals over the window would not move when a layer gets faster."""
        c, calls, own, total = self.counts, self.calls, self.self_time, self.total

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "evaluation.steps": (c["evaluation.steps"] / ops, "count/op", "lower"),
            "evaluation.us_per_step.head_le_100":
                (1e6 * ratio(total["steps.le_100"], c["steps.le_100"]), "us", "lower"),
            "evaluation.us_per_step.head_gt_400":
                (1e6 * ratio(total["steps.gt_400"], c["steps.gt_400"]), "us", "lower"),
            "evaluation.fuel_exhausted": (c["evaluation.fuel_exhausted"] / ops, "count/op", "higher"),
            "evaluation.stuck": (c["evaluation.stuck"] / ops, "count/op", "higher"),
            "unary.enumerate.witnesses": (c["unary.enumerate.witnesses"] / ops, "count/op", "lower"),
            "unary.complete_ratio":
                (ratio(c["unary.enumerate.complete"], calls["unary.enumerate"]), "ratio", "higher"),
            "rules.instantiations": (c["rules.instantiations"] / ops, "count/op", "lower"),
            "rules.decided_ratio":
                (ratio(c["rules.admissible.definitive"], calls["rules.admissible"]), "ratio", "higher"),
            "syntax.parse.nodes_per_s":
                (ratio(c["syntax.parse.nodes"], total["syntax.parse"]), "1/s", "higher"),
            "cli.command_ms": (1e3 * ratio(total["cli.main"], calls["cli.main"]), "ms", "lower"),
        }
        for name in itertools.chain(TARGETS, ["judgments.render"]):
            out[f"{name}.calls"] = (calls[name] / ops, "count/op", "lower")
            out[f"{name}.self_s"] = (own[name] / ops, "s/op", "lower")
        return out
