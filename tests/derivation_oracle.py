"""Reference derivation search, checking and realizer extraction: one
case per introduction rule in each of the three functions.

``ctkernel.rules`` writes each introduction rule once, as an entry of
``_introductions``, and its search, checker and extractor read that
table.  On every tree this module builds or accepts, they must agree
with it: ``derive`` and ``extract_realizer`` by ``==``, and
``check_derivation`` on its (ok, nodes visited) pair.  The one
difference is ``imp-intro``: this checker accepts a body whose new
hypothesis has any name and whose propositions are alpha-variants of
the premise's, while ``rules.check_derivation`` requires the premise
sequent exactly, with the new hypothesis named ``h{n}``.

This module also keeps the faults the table removed:
``extract_realizer`` raises ``StopIteration`` on a hypothesis leaf that
matches no hypothesis and ``IndexError`` on an ``and-intro`` with one
child, and ``check_derivation`` recurses on the depth of the tree.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from ctkernel.rules import Derivation, NotDerivable, RuleScheme, Sequent
from ctkernel.terms import (
    Disj, Exists, Forall, Inl, Inr, It, Lam, Pair, TTrue, Term, Var, alpha_eq, free_vars,
)


def derive(rule: RuleScheme, search_depth: int) -> Union[Derivation, NotDerivable]:
    if search_depth < 1:
        raise ValueError("search_depth must be >= 1")
    hyps = tuple((f"h{i}", p.a) for i, p in enumerate(rule.premises))
    found, exhausted = _search(hyps, rule.conclusion.a, search_depth)
    if found is not None:
        return found
    return NotDerivable(search_depth, exhausted)


def _search(
    hyps: Tuple[Tuple[str, Term], ...], goal: Term, budget: int
) -> Tuple[Optional[Derivation], bool]:
    seq = Sequent(hyps, goal)
    for name, prop in hyps:
        if alpha_eq(prop, goal):
            return Derivation(seq, "hypothesis"), True
    if isinstance(goal, TTrue):
        return Derivation(seq, "truth-intro"), True
    if budget <= 0:
        return None, False
    match goal:
        case Exists(p, b, q) if b not in free_vars(q):
            left, e1 = _search(hyps, p, budget - 1)
            if left is None:
                return None, e1
            right, e2 = _search(hyps, q, budget - 1)
            if right is None:
                return None, e2
            return Derivation(seq, "and-intro", (left, right)), True
        case Disj(p, q):
            left, e1 = _search(hyps, p, budget - 1)
            if left is not None:
                return Derivation(seq, "or-intro-left", (left,)), True
            right, e2 = _search(hyps, q, budget - 1)
            if right is not None:
                return Derivation(seq, "or-intro-right", (right,)), True
            return None, e1 and e2
        case Forall(p, b, q) if b not in free_vars(q):
            name = f"h{len(hyps)}"
            body, e = _search(hyps + ((name, p),), q, budget - 1)
            if body is not None:
                return Derivation(seq, "imp-intro", (body,)), True
            return None, e
        case _:
            return None, True


def check_derivation(d: Derivation) -> Tuple[bool, int]:
    visited = 0

    def go(d: Derivation) -> bool:
        nonlocal visited
        visited += 1
        seq = d.conclusion
        try:
            match d.rule:
                case "hypothesis":
                    return not d.children and any(
                        alpha_eq(p, seq.goal) for _, p in seq.hypotheses
                    )
                case "truth-intro":
                    return not d.children and isinstance(seq.goal, TTrue)
                case "and-intro":
                    match seq.goal:
                        case Exists(p, b, q) if b not in free_vars(q):
                            left, right = d.children
                            return (
                                left.conclusion == Sequent(seq.hypotheses, p)
                                and right.conclusion == Sequent(seq.hypotheses, q)
                                and go(left)
                                and go(right)
                            )
                    return False
                case "or-intro-left":
                    match seq.goal:
                        case Disj(p, _):
                            (left,) = d.children
                            return left.conclusion == Sequent(seq.hypotheses, p) and go(left)
                    return False
                case "or-intro-right":
                    match seq.goal:
                        case Disj(_, q):
                            (right,) = d.children
                            return right.conclusion == Sequent(seq.hypotheses, q) and go(right)
                    return False
                case "imp-intro":
                    match seq.goal:
                        case Forall(p, b, q) if b not in free_vars(q):
                            (body,) = d.children
                            hyps = body.conclusion.hypotheses
                            return (
                                len(hyps) == len(seq.hypotheses) + 1
                                and hyps[:-1] == seq.hypotheses
                                and alpha_eq(hyps[-1][1], p)
                                and alpha_eq(body.conclusion.goal, q)
                                and go(body)
                            )
                    return False
                case _:
                    return False
        except (AttributeError, ValueError, TypeError):
            return False

    return go(d), visited


def extract_realizer(d: Derivation) -> Term:
    match d.rule:
        case "hypothesis":
            name = next(
                n for n, p in d.conclusion.hypotheses if alpha_eq(p, d.conclusion.goal)
            )
            return Var(name)
        case "truth-intro":
            return It()
        case "and-intro":
            return Pair(extract_realizer(d.children[0]), extract_realizer(d.children[1]))
        case "or-intro-left":
            return Inl(extract_realizer(d.children[0]))
        case "or-intro-right":
            return Inr(extract_realizer(d.children[0]))
        case "imp-intro":
            body = d.children[0]
            name = body.conclusion.hypotheses[-1][0]
            return Lam(name, extract_realizer(body))
        case _:
            raise ValueError(f"unknown rule in derivation: {d.rule}")
