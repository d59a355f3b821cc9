"""The public names of the package, and the annotations of its
functions."""

import importlib
import inspect
import types
import typing
from pathlib import Path

import pytest

import ctkernel

MODULES = sorted(f"ctkernel.{p.stem}" for p in Path(ctkernel.__file__).parent.glob("*.py"))

EXPORTS = {
    "Atom", "Canonical", "CanonicalForm", "Derivation", "EnumResult",
    "EvalResult", "FuelExhausted", "HypForced", "Inhabitation",
    "NotDerivable", "OpenTermError", "ParseError", "RuleScheme", "RuleValid",
    "RunConfig", "Status", "Strategy", "Stuck", "Term", "Trace", "TraceStep",
    "Verdict", "WorldModel", "admissible", "alpha_eq", "check_eq_member",
    "check_eq_set", "check_functionality", "check_is_set", "check_member",
    "check_monotone", "classify", "compare_readings", "derive",
    "enumerate_canonical", "evaluate", "forces", "free_vars", "ground_types",
    "inhabited_exact", "parse", "parse_model", "parse_rule",
    "parse_wjudgment", "pretty", "related_pairs", "replay", "substitute",
}


def test_public_names_pinned():
    # the package loads a name's module on first use: resolve them all
    for name in EXPORTS:
        getattr(ctkernel, name)
    # submodules appear as attributes once imported, so they are left out
    public = {name for name, value in vars(ctkernel).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == EXPORTS
    assert set(ctkernel.__all__) == EXPORTS
    listed = {name for name in dir(ctkernel)
              if not name.startswith("_")
              and not isinstance(getattr(ctkernel, name), types.ModuleType)}
    assert listed == EXPORTS
    with pytest.raises(AttributeError):
        ctkernel.no_such_name
    assert ctkernel.__version__ == "0.1.0"


def functions(module):
    """The functions and methods defined in the module, unwrapped."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        members = vars(value).values() if isinstance(value, type) else (value,)
        for member in members:
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            elif isinstance(member, property):
                member = member.fget
            member = inspect.unwrap(member) if callable(member) else member
            if isinstance(member, types.FunctionType):
                yield member


@pytest.mark.parametrize("name", MODULES)
def test_annotations_resolve(name):
    module = importlib.import_module(name)
    found = list(functions(module))
    assert found or name in ("ctkernel.__main__", "ctkernel.config")
    for fn in found:
        typing.get_type_hints(fn)
