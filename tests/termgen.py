"""Shared term generators: hypothesis strategies and seeded random pools."""

from __future__ import annotations

import random
from typing import List, Tuple

import hypothesis.strategies as st

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
