"""The public names of the package."""

import types

import pytest

import ctkernel

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
