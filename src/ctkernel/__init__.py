"""Semantic kernel for a small computational type theory.

An untyped term language with a fueled evaluator; membership and
equality checkers that read types as relations of canonical witnesses;
a rule laboratory contrasting derivability with admissibility; and a
finite Kripke-model monotonicity checker.

Importing the package loads none of its modules: each public name is
looked up in ``_SOURCES`` and loaded from its module on first use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the public names it defines
_SOURCES = {
    "binary": "check_eq_member check_eq_set check_functionality related_pairs",
    "config": "RunConfig",
    "evaluation": "Canonical EvalResult FuelExhausted Strategy Stuck evaluate",
    "judgments": "Status Trace TraceStep Verdict replay",
    "rules": "Derivation NotDerivable RuleScheme admissible compare_readings derive parse_rule",
    "syntax": "ParseError parse pretty",
    "terms": "CanonicalForm OpenTermError Term alpha_eq classify free_vars substitute",
    "unary": "EnumResult Inhabitation check_is_set check_member enumerate_canonical "
             "ground_types inhabited_exact",
    "worlds": "Atom HypForced RuleValid WorldModel check_monotone forces parse_model "
              "parse_wjudgment",
}
_MODULE = {name: module for module, names in _SOURCES.items() for name in names.split()}
__all__ = sorted(_MODULE)


def __getattr__(name: str):
    module = _MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
