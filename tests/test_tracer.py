"""The benchmark's tracer (``perfbench/tracer.py``) against the kernel.

The tracer wraps kernel functions by name and reads the tank as
``run``'s second argument, so a refactor that renames a wrapped function
or moves the tank breaks the traced half of a benchmark run.  This test
installs it around a few checks and reads its counts back."""

import importlib.util
import sys
from pathlib import Path

import pytest

import ctkernel
from ctkernel import binary, evaluation, rules, unary
from ctkernel.judgments import Status, Trace
from ctkernel.rules import parse_rule
from ctkernel.syntax import parse

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    """The tracer module, loaded from its file without writing bytecode
    beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def kernel_functions(tracer) -> dict:
    """Every module attribute the tracer may replace, by identity."""
    names = {attr for _, attrs in tracer.TARGETS.values() for attr in attrs}
    return {(module.__name__, attr): getattr(module, attr)
            for module in (*tracer.MODULES, ctkernel) for attr in names
            if hasattr(module, attr)}


def test_counts_kernel_calls_and_restores_them(tracer):
    before = kernel_functions(tracer)
    render = Trace.render
    t = tracer.Tracer()
    t.install()
    try:
        # called through their modules, where the tracer wraps them
        assert evaluation.evaluate(parse("(lam x. x) it"), 10).steps == 1
        assert unary.check_member(parse("(lam x. x) (lam y. it)"),
                                  parse("(lam t. t) (True => True)")).verified
        assert binary.check_eq_member(parse("lam y. it"), parse("lam z. it"),
                                      parse("(True \\/ True) => True")).verified
        rule = parse_rule("P \\/ Q true |- P true")
        assert rules.admissible(rule).status is Status.REFUTED
    finally:
        t.uninstall()
    for name in ("evaluation.run", "evaluation.evaluate", "unary.inhabited", "unary.enumerate",
                 "unary.check_member", "binary.check_eq_member", "rules.admissible"):
        assert t.calls[name] > 0, name
    assert t.counts["evaluation.steps"] > 0
    # functions compare by identity: every one is the original again
    assert kernel_functions(tracer) == before
    assert Trace.render is render
