"""Shared term generators: hypothesis strategies and seeded random pools."""

from __future__ import annotations

import random
from typing import List, Tuple

import hypothesis.strategies as st

from ctkernel.judgments import IsTrue
from ctkernel.rules import RuleScheme, parse_rule
from ctkernel.syntax import parse, pretty
from ctkernel.terms import (
    App, Case, Disj, Exists, Forall, Fst, Inl, Inr, IT, Lam, Pair, Snd,
    TRUE, FALSE, Term, Var, free_vars, substitute,
)
from ctkernel.unary import enumerate_canonical, ground_types

NAMES = st.sampled_from(("x", "y", "z", "f"))

OMEGA = App(
    Lam("o", App(Var("o"), Var("o"))),
    Lam("o", App(Var("o"), Var("o"))),
)

STUCK_TERM = Fst(Inl(IT))


def terms(max_leaves: int = 10, names: st.SearchStrategy = NAMES) -> st.SearchStrategy:
    """Arbitrary terms, possibly open, over the variable names ``names``."""
    base = st.one_of(
        st.just(IT), st.just(TRUE), st.just(FALSE), st.builds(Var, names)
    )

    def extend(children):
        return st.one_of(
            st.builds(Lam, names, children),
            st.builds(App, children, children),
            st.builds(Pair, children, children),
            st.builds(Fst, children),
            st.builds(Snd, children),
            st.builds(Inl, children),
            st.builds(Inr, children),
            st.builds(Case, children, names, children, names, children),
            st.builds(Forall, children, names, children),
            st.builds(Exists, children, names, children),
            st.builds(Disj, children, children),
        )

    return st.recursive(base, extend, max_leaves=max_leaves)


_FILLERS = st.sampled_from((
    IT, OMEGA, STUCK_TERM, Pair(IT, IT), Lam("s", Var("s")), Inl(IT),
))


@st.composite
def closed_terms(draw, max_leaves: int = 10):
    """Arbitrary closed terms, including divergent and stuck ones."""
    t = draw(terms(max_leaves))
    for name in sorted(free_vars(t)):
        t = substitute(t, name, draw(_FILLERS))
    return t


def ground_type_strategy(max_depth: int = 3) -> st.SearchStrategy:
    return st.sampled_from(ground_types(max_depth))


def canonical_witnesses(max_depth: int = 2) -> st.SearchStrategy:
    """Canonical terms reachable by nesting introduction forms over it."""
    base = st.just(IT)

    def extend(children):
        return st.one_of(
            st.builds(Inl, children),
            st.builds(Inr, children),
            st.builds(Pair, children, children),
            st.builds(lambda b: Lam("_", b), children),
        )

    return st.recursive(base, extend, max_leaves=max_depth * 2)


# -- deterministic pools for the acceptance suite -------------------------


def safe_wrap(rng: random.Random, t: Term) -> Term:
    """Wrap in benign, strategy-insensitive computation steps."""
    for _ in range(rng.randint(0, 2)):
        choice = rng.randrange(4)
        if choice == 0:
            t = App(Lam("w", Var("w")), t)
        elif choice == 1:
            t = Fst(Pair(t, IT))
        elif choice == 2:
            t = Snd(Pair(IT, t))
        else:
            t = Case(Inl(t), "w", Var("w"), "z", Pair(Var("z"), Var("z")))
    return t


_JUNK = (IT, Pair(IT, IT), Inl(IT), Inr(Pair(IT, IT)), Lam("q", Var("q")))


def generated_checks(seed: int, count: int, max_fd: int = 3) -> List[Tuple[Term, Term]]:
    """Seeded (candidate witness, ground type) pairs: a mix of genuine
    witnesses, witnesses of unrelated types, and junk canonical forms,
    each possibly wrapped in harmless computation."""
    rng = random.Random(seed)
    pool = list(ground_types(max_fd))
    witnesses = {ty: enumerate_canonical(ty, 4).witnesses for ty in pool}
    out: List[Tuple[Term, Term]] = []
    while len(out) < count:
        ty = rng.choice(pool)
        roll = rng.random()
        if roll < 0.55 and witnesses[ty]:
            m = rng.choice(witnesses[ty])
        elif roll < 0.85:
            other = rng.choice(pool)
            if not witnesses[other]:
                continue
            m = rng.choice(witnesses[other])
        else:
            m = rng.choice(_JUNK)
        out.append((safe_wrap(rng, m), ty))
    return out


# -- rule schemes -----------------------------------------------------------


def _random_prop(rng: random.Random, names: Tuple[str, ...], depth: int) -> Term:
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice(names)) if rng.random() < 0.85 else rng.choice((TRUE, FALSE))
    build = rng.choice((lambda p, q: Exists(p, "_", q), Disj, lambda p, q: Forall(p, "_", q)))
    return build(_random_prop(rng, names, depth - 1), _random_prop(rng, names, depth - 1))


def random_rule_schemes(seed: int, count: int) -> List[RuleScheme]:
    """Seeded schemes of the propositional fragment over one to three of
    P, Q, R, with one to three premises, as ``parse_rule`` builds them."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        names = ("P", "Q", "R")[:rng.randint(1, 3)]
        premises = [_random_prop(rng, names, 2) for _ in range(rng.randint(1, 3))]
        conclusion = _random_prop(rng, names, 2)
        out.append(parse_rule(
            f"{'; '.join(f'{pretty(p)} true' for p in premises)} |- {pretty(conclusion)} true"))
    return out


# (metavariables, premise texts, conclusion text) of schemes that
# ``parse_rule`` would reject: evaluation inside a proposition, a binder
# named like a metavariable, a free name that is no metavariable, a
# function, and a divergent term.
_OUTSIDE_FRAGMENT = (
    (("P",), ("P",), "(lam x. x) P"),
    (("P",), ("(lam x. x) P",), "False"),
    (("P", "Q"), ("Q /\\ (lam x. x) P",), "P"),
    (("P", "Q"), ("(lam x. x) P => Q",), "Q \\/ fst <P, it>"),
    (("P",), ("True",), "(lam x. x) (P /\\ P)"),
    (("P",), ("P",), "forall P : True . P"),
    (("P",), ("forall P : True . P",), "P"),
    (("P",), ("P => forall P : P . True",), "P"),
    (("P",), ("P",), "Z"),
    (("P", "Q"), ("P /\\ Z",), "Q"),
    (("P",), ("P",), "lam x. x"),
    (("P",), ("lam x. x",), "P"),
    (("P",), ("P",), "(lam o. o o) (lam o. o o)"),
    (("P",), ("(lam o. o o) (lam o. o o)",), "False"),
    (("P", "Q"), ("P \\/ (lam o. o o) (lam o. o o)",), "Q"),
)


def outside_fragment_schemes() -> List[RuleScheme]:
    """Hand-built schemes outside the propositional fragment."""
    return [RuleScheme(names, tuple(IsTrue(parse(p)) for p in premises), IsTrue(parse(c)))
            for names, premises, c in _OUTSIDE_FRAGMENT]
