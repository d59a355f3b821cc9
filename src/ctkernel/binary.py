"""Binary model: each type denotes a partial equivalence relation.

The unary relations become relations on pairs:

* ``canon(True)``  relates ``it`` to ``it``
* ``canon(False)`` relates nothing
* ``canon(forall x : A . B)`` relates ``lam y. E`` and ``lam z. E'``
  when for all related inputs ``u, v`` in ``A``, the instances
  ``E[u/y]`` and ``E'[v/z]`` are related in ``B[u/x]``
* ``canon(exists x : A . B)`` relates ``<M, N>`` and ``<M', N'>`` when
  ``M, M'`` are related in ``A`` and ``N, N'`` in ``B[M/x]``
* ``canon(A \\/ B)`` relates only matching injections with related
  arguments

Equality of members is the evaluation closure of those relations;
equality of sets is identity of the relations themselves, so two empty
relations are equal whatever their components.  The quantifier clause is
the functionality constraint: a function witness must send related
inputs to related outputs, and functionality of a term at a family is
literally reflexive equality at the quantified type.

Related domain inputs are found by enumerating canonical witnesses and
filtering all pairs (diagonal and cross) through the equality check
itself; the same completeness discipline as the unary model applies,
and a provably empty domain discharges the constraint vacuously.

The clauses are the arity-2 reading of the relational engine in
``unary``; this module holds the public entry points of the model.
Set-hood is set equality on the diagonal: ``unary.check_is_set(A)``
runs the walk of ``check_eq_set`` asked of ``A`` alone.
"""

from __future__ import annotations

from .config import DEFAULT_DEPTH, DEFAULT_FUEL
from .evaluation import Strategy, Tank
from .judgments import Verdict
from .terms import Forall, Term, require_closed
from .unary import _check_budgets, _check_eq_set, _relate, _related_pairs

CBN = Strategy.CALL_BY_NAME


def related_pairs(
    domain: Term,
    depth: int = DEFAULT_DEPTH,
    fuel: int = DEFAULT_FUEL,
    strategy: Strategy = CBN,
):
    """Pairs of enumerated canonical witnesses related in the domain.

    Returns (pairs, complete, failure); complete is True when the
    witness enumeration was complete and every pair decision was
    definitive."""
    require_closed("type", domain)
    return _related_pairs(domain, depth, Tank(fuel, strategy))


def check_eq_member(
    m: Term,
    n: Term,
    a: Term,
    fuel: int = DEFAULT_FUEL,
    depth: int = DEFAULT_DEPTH,
    strategy: Strategy = CBN,
) -> Verdict:
    """Are the two terms equal members of the type?"""
    require_closed("left term", m)
    require_closed("right term", n)
    require_closed("type", a)
    _check_budgets(fuel, depth)
    return _relate((m, n), a, Tank(fuel, strategy), depth)


def check_eq_set(
    a: Term,
    b: Term,
    fuel: int = DEFAULT_FUEL,
    depth: int = DEFAULT_DEPTH,
    strategy: Strategy = CBN,
) -> Verdict:
    """Do the two types denote the same relation of canonical witnesses?"""
    require_closed("left type", a)
    require_closed("right type", b)
    _check_budgets(fuel, depth)
    return _check_eq_set(a, b, Tank(fuel, strategy), depth)


def check_functionality(
    fn: Term,
    domain: Term,
    binder: str,
    family: Term,
    fuel: int = DEFAULT_FUEL,
    depth: int = DEFAULT_DEPTH,
    strategy: Strategy = CBN,
) -> Verdict:
    """Does the function send equal inputs to equal outputs in the family?

    Functionality is reflexive equality at the quantified type, so this
    simply checks the function equal to itself there; a refutation
    carries the related input pair and the failing instance."""
    ty = Forall(domain, binder, family)
    require_closed("function", fn)
    require_closed("quantified type", ty)
    _check_budgets(fuel, depth)
    return _relate((fn, fn), ty, Tank(fuel, strategy), depth)
