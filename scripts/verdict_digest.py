#!/usr/bin/env python3
"""Digest of the kernel's verdicts, to show that a change keeps them.

Prints one sha256 per section over the status, bound, fuel report, pair,
instance and trace JSON of every verdict in it (for enumerations: the
witnesses, the completeness flag and the failure), then one over all
sections.  The sections:

* ``check_member`` and the diagonal ``check_eq_member`` over the pools
  of acceptance criteria 5 (seed 2026, 1000 checks) and 9 (seed 501,
  500 checks);
* ``check_eq_set`` in both orders on 200 seeded pairs of the pools' types;
* ``check_is_set`` and ``enumerate_canonical`` at depths 1-3 on each
  of those types;
* ``check_functionality`` on every pool check whose type is a ``forall``;
* ``check_is_set`` at fuel 1, 2, 3, 5, 8, 13 and 10^4 and depth 1, 2 and
  4 on the types above, on each of them with one leaf (chosen by a seeded
  draw) replaced by ``it``, and on ``it /\\ False``, ``it => False`` and
  ``True \\/ it`` (most of these are not sets), and on 200 seeded
  dependent families ``forall``/``exists x : D . case x of inl a -> A |
  inr b -> B`` over those types, wrapped in computation steps;
* ``check_eq_set(ty, ty)``, one object passed twice, and ``check_eq_set``
  of ``ty`` and a copy built apart, on the same types at depth 1, 2 and 4,
  and the latter again at fuel 1, 2, 3, 5, 8 and 13;
* ``check_eq_member`` in both argument orders on 300 seeded triples of
  pool terms, ``(lam o. o o) (lam o. o o)`` and ``fst (inl it)``, at
  fuel 1, 2, 3, 5, 8, 13 and 1000;
* ``syntax/pretty``: ``pretty_at`` of every pool term and type at each
  precedence level;
* ``syntax/errors``: the message, line and column of the ``ParseError``
  (or the tree) of each text in ``MALFORMED``, and of each pool term's
  text cut at a seeded character;
* ``syntax/rules``: the rendered scheme and its tree, or the message,
  line and column of the ``ParseError``, that ``parse_rule`` gives for
  each text in ``MALFORMED`` as the premise of ``... true |- A true``,
  and for the rule text of each of the 200 seeded schemes below, whole
  and cut at a seeded character;
* ``rules/admissible``: ``admissible`` (with its bounds, instantiation
  and premise witnesses) of 200 seeded schemes of the propositional
  fragment (seed 14) and the hand-built schemes outside it, at fuel 1,
  2, 3, 5, 13 and 10^4, under both strategies;
* ``rules/compare_readings``: the rendered report of ``compare_readings``
  of the same schemes, and its admissibility verdict;
* ``rules/derive``: ``derive`` of the same schemes at search depths 1-6:
  the rendered derivation with its realizer and ``check_derivation``
  result, or the ``NotDerivable`` record;
* ``check_member``, the diagonal ``check_eq_member`` and ``check_is_set``
  of the sections above again under call-by-value (``.../cbv``);
* ``strategy/...``: 300 seeded pool witnesses applied as ``(lam _. M) D``
  to an unused argument ``D`` that diverges (``OMEGA``) or gets stuck
  (``fst inl it``, ``fst it``), checked against the pool type at fuel 50
  under both strategies: ``check_member``, and ``check_eq_member`` of the
  witness and ``OMEGA`` in both argument orders;
* ``check_member/fuel``: the pools' ``check_member`` at fuel 1, 2, 3
  and 5;
* ``parts/...``: the 108 types ``P op Q`` with ``op`` one of ``\\/``,
  ``/\\`` and ``=>`` and each of ``P`` and ``Q`` one of ``True``,
  ``False``, ``(lam x. x) True``, ``(lam x. x) False``, ``OMEGA`` and
  ``fst it``: ``inhabited_exact`` and ``check_is_set`` of each, and
  ``check_eq_set(P \\/ Q, Q /\\ P)`` in both orders, at fuel 1, 2, 3, 5,
  8 and 13.  A part that computes, diverges or gets stuck costs fuel in
  the order the parts are read, so these records see that order and
  how the parts share the budget.
* ``shared/...``: the shared-value family ``F_n(it, lam x. <x, x>)`` in
  ``F_n(True, lam A. A /\\ A)``, with ``F_n(b, d)`` the term
  ``(lam f. f (f (... f (b) ...))) (d)`` of n applications, and the
  Python-built graphs ``Pair(t, t)`` in ``conj(A, A)`` repeated n times,
  for n = 1 to 10: ``check_member``, the diagonal ``check_eq_member``,
  ``check_is_set`` of the type and ``check_eq_set`` of the type and a
  copy built apart, at fuel 200 under both strategies.  Each value has
  2^n leaves that share their subterms.
* ``judgments/render``: the rendered trace of each ``check_member``
  verdict of the two pools;
* ``judgments/replay``: ``replay`` of those traces at fuel 1, 3 and
  1000 (fuel 1 fails some closed evaluation steps);
* ``worlds/forces`` and ``worlds/check_monotone``: 300 seeded
  ``random_model`` draws, each with 5 seeded judgments of depth up to 4
  over its own atoms: ``forces`` at every world, and ``check_monotone``.
* ``batch/...``: the 590 types of ``ground_types(3)`` and 30 seeded
  dependent families ``forall``/``exists x : True \\/ True . case x of
  inl a -> A | inr b -> B`` over ``ground_types(2)``: ``check_is_set``,
  and ``check_eq_set`` against a seeded partner (the type itself 40 % of
  the time), at fuel 1, 3 and the default, under both strategies.  Their
  types and members are canonical, as in the benchmark's check batch.

Run it on two checkouts and compare the output; ``--records`` prints the
status and a short hash per verdict instead, so that ``diff`` counts the
verdicts that changed, and by which status.  The output does not depend
on ``PYTHONHASHSEED``.

    PYTHONPATH=src python scripts/verdict_digest.py [--records]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from ctkernel.binary import check_eq_member, check_eq_set, check_functionality  # noqa: E402
from ctkernel.evaluation import Strategy  # noqa: E402
from ctkernel.judgments import replay  # noqa: E402
from ctkernel.rules import (  # noqa: E402
    Derivation, admissible, check_derivation, compare_readings, derive, extract_realizer,
    parse_rule,
)
from ctkernel.syntax import (  # noqa: E402
    PREC_ATOM, PREC_TERM, ParseError, parse, pretty, pretty_at,
)
from ctkernel.terms import (  # noqa: E402
    FALSE, IT, TRUE, App, Case, Disj, Exists, Forall, Fst, Lam, Pair, TFalse, TTrue, Var,
    conj, imp, term_key,
)
from ctkernel.config import DEFAULT_FUEL  # noqa: E402
from ctkernel.unary import (  # noqa: E402
    check_is_set, check_member, enumerate_canonical, ground_types, inhabited_exact,
)
from ctkernel.worlds import check_monotone, forces, random_model, render_wjudgment  # noqa: E402
from termgen import (  # noqa: E402
    OMEGA, STUCK_TERM, generated_checks, outside_fragment_schemes, random_rule_schemes,
    random_wjudgment, safe_wrap,
)

POOLS = {"c5": (2026, 1000), "c9": (501, 500)}
EQ_SET_PAIRS = 200
SWEEP_FUELS = (1, 2, 3, 5, 8, 13, 10_000)
SWEEP_DEPTHS = (1, 2, 4)
NON_SETS = ("it /\\ False", "it => False", "True \\/ it")
ORDER_TRIPLES = 300
DEPENDENT_TYPES = 200
ORDER_FUELS = (1, 2, 3, 5, 8, 13, 1000)
RULE_SCHEMES = (14, 200)
RULE_FUELS = (1, 2, 3, 5, 13, 10_000)
SEARCH_DEPTHS = range(1, 7)
CBV = Strategy.CALL_BY_VALUE
STRATEGY_WITNESSES = 300
STRATEGY_FUEL = 50
UNUSED_ARGS = (OMEGA, STUCK_TERM, Fst(IT))
MEMBER_FUELS = (1, 2, 3, 5)
IDENTITY = Lam("x", Var("x"))
PARTS = (TRUE, FALSE, App(IDENTITY, TRUE), App(IDENTITY, FALSE), OMEGA, Fst(IT))
PART_FUELS = (1, 2, 3, 5, 8, 13)
SHARED_SIZES = range(1, 11)
SHARED_FUEL = 200
REPLAY_FUELS = (1, 3, 1000)
WORLD_MODELS = 300
WORLD_JUDGMENTS = 5
BATCH_FAMILIES = 30
BATCH_FUELS = (1, 3, DEFAULT_FUEL)
TRUE_OR_TRUE = Disj(TRUE, TRUE)
MALFORMED = (
    "", "(", ")", "lam", "lam x", "lam x.", "lam . x", "forall x . A", "forall x : A",
    "exists : A . B", "case x of inr a -> a | inl b -> b", "case x of inl a -> a",
    "<it, it", "<it it>", "fst", "inl inr", "of", "it of", "x =>", "A /\\", "\\/ A",
    "f (lam x. x", "it it )", "x ? y", "A |- B", "lam x. x\n  it\n (", "True => ; False",
)


def verdict_record(v) -> list:
    return [v.status.value, v.bound, v.fuel_report, repr(v.pair), repr(v.instance),
            v.trace.to_json()]


def admissible_record(v) -> list:
    instantiation = None if v.instantiation is None else sorted(
        (name, repr(t)) for name, t in v.instantiation.items())
    return [*verdict_record(v), v.bounds, instantiation, repr(v.premise_witnesses)]


def enum_record(r) -> list:
    failure = None if r.failure is None else verdict_record(r.failure)
    return [[repr(w) for w in r.witnesses], r.complete, failure]


def with_leaf_it(ty, index: int):
    """The ground type ``ty`` with its ``index``-th True/False leaf, left
    to right, replaced by ``it``; also returns the leaves left to pass."""
    if isinstance(ty, (TTrue, TFalse)):
        return (IT if index == 0 else ty), index - 1
    if isinstance(ty, Disj):
        left, index = with_leaf_it(ty.left, index)
        right, index = with_leaf_it(ty.right, index)
        return Disj(left, right), index
    domain, index = with_leaf_it(ty.domain, index)
    family, index = with_leaf_it(ty.family, index)
    return type(ty)(domain, ty.binder, family), index


def leaf_count(ty) -> int:
    return sum(leaf_count(v) for v in vars(ty).values() if not isinstance(v, str)) or 1


def repeated(n: int, base, step):
    """``F_n(base, step)``: ``(lam f. f (f (... f (base) ...))) (step)``."""
    body = base
    for _ in range(n):
        body = App(Var("f"), body)
    return App(Lam("f", body), step)


def shared_checks(n: int):
    """Yield (kind, term, type, type built apart) for the family and the
    Python-built graph of size ``n``."""
    def family():
        return repeated(n, TRUE, Lam("A", conj(Var("A"), Var("A"))))

    yield "family", repeated(n, IT, Lam("x", Pair(Var("x"), Var("x")))), family(), family()

    def graph(leaf, node):
        for _ in range(n):
            leaf = node(leaf, leaf)
        return leaf

    yield "graph", graph(IT, Pair), graph(TRUE, conj), graph(TRUE, conj)


def parse_record(text: str) -> list:
    try:
        return ["parsed", repr(parse(text))]
    except ParseError as err:
        return ["error", err.message, err.line, err.col]


def rule_record(text: str) -> list:
    try:
        scheme = parse_rule(text)
    except ParseError as err:
        return ["error", err.message, err.line, err.col]
    return ["parsed", scheme.render(), repr(scheme)]


def sections():
    """Yield (section, status or outcome, record) for every check."""
    pools = {name: generated_checks(seed=seed, count=count)
             for name, (seed, count) in POOLS.items()}
    members = []
    for name, pairs in pools.items():
        for m, ty in pairs:
            v = check_member(m, ty)
            members.append(v)
            yield f"check_member/{name}", v.status.value, verdict_record(v)
        for m, ty in pairs:
            v = check_eq_member(m, m, ty)
            yield f"check_eq_member/{name}", v.status.value, verdict_record(v)
    types = sorted({term_key(ty): ty for pairs in pools.values() for _, ty in pairs}.items())
    types = [ty for _, ty in types]
    rng = random.Random(7)
    for _ in range(EQ_SET_PAIRS):
        a, b = rng.choice(types), rng.choice(types)
        for x, y in ((a, b), (b, a)):
            v = check_eq_set(x, y)
            yield "check_eq_set", v.status.value, verdict_record(v)
    for ty in types:
        v = check_is_set(ty)
        yield "check_is_set", v.status.value, verdict_record(v)
    for depth in (1, 2, 3):
        for ty in types:
            r = enumerate_canonical(ty, depth)
            outcome = "failed" if r.failure else "complete" if r.complete else "incomplete"
            yield f"enumerate_canonical/{depth}", outcome, enum_record(r)
    for name, pairs in pools.items():
        for m, ty in pairs:
            if isinstance(ty, Forall):
                v = check_functionality(m, ty.domain, ty.binder, ty.family)
                yield f"check_functionality/{name}", v.status.value, verdict_record(v)
    rng = random.Random(11)
    variants = {term_key(ty): ty for ty in types}
    for ty in types:
        bad = with_leaf_it(ty, rng.randrange(leaf_count(ty)))[0]
        variants.setdefault(term_key(bad), bad)
    for text in NON_SETS:
        variants.setdefault(term_key(parse(text)), parse(text))
    sweep = [ty for _, ty in sorted(variants.items())]
    # Dependent families over disjunctions, with wrapped branches, so
    # that set-hood computes: a family instance takes fuel to evaluate.
    domains = [ty for ty in types if isinstance(ty, Disj)]
    for _ in range(DEPENDENT_TYPES):
        left, right = (safe_wrap(rng, rng.choice(sweep)) for _ in range(2))
        family = Case(Var("x"), "a", left, "b", right)
        sweep.append(safe_wrap(rng, rng.choice((Forall, Exists))(rng.choice(domains), "x", family)))
    for fuel in SWEEP_FUELS:
        for depth in SWEEP_DEPTHS:
            for ty in sweep:
                v = check_is_set(ty, fuel, depth)
                yield "check_is_set/sweep", v.status.value, verdict_record(v)
    for depth in SWEEP_DEPTHS:
        for ty in sweep:
            v = check_eq_set(ty, ty, depth=depth)
            yield "check_eq_set/diagonal", v.status.value, verdict_record(v)
            v = check_eq_set(ty, parse(pretty(ty)), depth=depth)
            yield "check_eq_set/apart", v.status.value, verdict_record(v)
    for fuel in SWEEP_FUELS[:-1]:
        for ty in sweep:
            v = check_eq_set(ty, parse(pretty(ty)), fuel)
            yield "check_eq_set/fuel", v.status.value, verdict_record(v)
    rng = random.Random(13)
    terms = [m for pairs in pools.values() for m, _ in pairs]
    triples = []
    for _ in range(ORDER_TRIPLES):
        m, n = (rng.choice((OMEGA, STUCK_TERM)) if rng.random() < 0.25 else rng.choice(terms)
                for _ in range(2))
        triples.append((m, n, rng.choice(types)))
    for fuel in ORDER_FUELS:
        for m, n, ty in triples:
            for x, y in ((m, n), (n, m)):
                v = check_eq_member(x, y, ty, fuel)
                yield "check_eq_member/orders", v.status.value, verdict_record(v)
    pool = [t for pairs in pools.values() for pair in pairs for t in pair]
    levels = range(PREC_TERM, PREC_ATOM + 1)
    for t in pool:
        yield "syntax/pretty", "printed", [pretty_at(t, ctx) for ctx in levels]
    rng = random.Random(17)
    texts = list(MALFORMED) + [pretty(t)[:rng.randrange(len(pretty(t)))] for t in pool]
    for text in texts:
        record = parse_record(text)
        yield "syntax/errors", record[0], record
    seeded = random_rule_schemes(*RULE_SCHEMES)
    rng = random.Random(23)
    texts = [f"{text} true |- A true" for text in MALFORMED]
    for rule in seeded:
        text = rule.render()
        texts += [text, text[:rng.randrange(len(text))]]
    for text in texts:
        record = rule_record(text)
        yield "syntax/rules", record[0], record
    schemes = seeded + outside_fragment_schemes()
    for strategy in Strategy:
        for fuel in RULE_FUELS:
            for rule in schemes:
                v = admissible(rule, fuel=fuel, strategy=strategy)
                yield "rules/admissible", v.status.value, admissible_record(v)
    for rule in schemes:
        report = compare_readings(rule)
        v = report.admissibility
        yield "rules/compare_readings", v.status.value, [report.render(), admissible_record(v)]
    for depth in SEARCH_DEPTHS:
        for rule in schemes:
            d = derive(rule, depth)
            if isinstance(d, Derivation):
                record = [d.render(), repr(extract_realizer(d)), check_derivation(d)]
                yield "rules/derive", "derivable", record
            else:
                outcome = "exhaustive" if d.exhausted else "cut-off"
                yield "rules/derive", outcome, [repr(d)]
    for name, pairs in pools.items():
        for m, ty in pairs:
            v = check_member(m, ty, strategy=CBV)
            yield f"check_member/{name}/cbv", v.status.value, verdict_record(v)
        for m, ty in pairs:
            v = check_eq_member(m, m, ty, strategy=CBV)
            yield f"check_eq_member/{name}/cbv", v.status.value, verdict_record(v)
    for ty in types:
        v = check_is_set(ty, strategy=CBV)
        yield "check_is_set/cbv", v.status.value, verdict_record(v)
    # Witnesses whose unused argument call-by-value must evaluate: the
    # strategy decides the verdict.
    rng = random.Random(19)
    checks = [pair for pairs in pools.values() for pair in pairs]
    lazy = [(App(Lam("_", m), rng.choice(UNUSED_ARGS)), ty)
            for m, ty in (rng.choice(checks) for _ in range(STRATEGY_WITNESSES))]
    for strategy in Strategy:
        tag = "cbv" if strategy is CBV else "cbn"
        for m, ty in lazy:
            v = check_member(m, ty, STRATEGY_FUEL, strategy=strategy)
            yield f"strategy/member/{tag}", v.status.value, verdict_record(v)
        for m, ty in lazy:
            for x, y in ((m, OMEGA), (OMEGA, m)):
                v = check_eq_member(x, y, ty, STRATEGY_FUEL, strategy=strategy)
                yield f"strategy/eq_member/{tag}", v.status.value, verdict_record(v)
    for fuel in MEMBER_FUELS:
        for name, pairs in pools.items():
            for m, ty in pairs:
                v = check_member(m, ty, fuel)
                yield f"check_member/fuel/{name}", v.status.value, verdict_record(v)
    # Parts that are canonical, compute, diverge or get stuck, in both
    # orders under each connective.
    pairs = [(p, q) for p in PARTS for q in PARTS]
    for fuel in PART_FUELS:
        for build in (Disj, conj, imp):
            for p, q in pairs:
                ty = build(p, q)
                value = inhabited_exact(ty, fuel).value
                yield "parts/inhabited_exact", value, [value]
                v = check_is_set(ty, fuel)
                yield "parts/check_is_set", v.status.value, verdict_record(v)
        for p, q in pairs:
            for x, y in ((Disj(p, q), conj(q, p)), (conj(q, p), Disj(p, q))):
                v = check_eq_set(x, y, fuel)
                yield "parts/check_eq_set", v.status.value, verdict_record(v)
    # Values whose leaves share their subterms: a walk visits every path.
    for strategy in Strategy:
        for n in SHARED_SIZES:
            for kind, t, ty, apart in shared_checks(n):
                checks = (("check_member", check_member(t, ty, SHARED_FUEL, strategy=strategy)),
                          ("check_eq_member",
                           check_eq_member(t, t, ty, SHARED_FUEL, strategy=strategy)),
                          ("check_is_set", check_is_set(ty, SHARED_FUEL, strategy=strategy)),
                          ("check_eq_set",
                           check_eq_set(ty, apart, SHARED_FUEL, strategy=strategy)))
                for name, v in checks:
                    yield f"shared/{kind}/{name}", v.status.value, verdict_record(v)
    for v in members:
        yield "judgments/render", v.status.value, [v.trace.render()]
    for fuel in REPLAY_FUELS:
        for v in members:
            ok = replay(v.trace, fuel)
            yield "judgments/replay", f"{ok}".lower(), [fuel, ok]
    rng = random.Random(29)
    for _ in range(WORLD_MODELS):
        model = random_model(rng)
        for _ in range(WORLD_JUDGMENTS):
            j = random_wjudgment(rng, model.atoms)
            forced = [w for w in model.worlds if forces(model, w, j)]
            outcome = "all" if len(forced) == len(model.worlds) else "some" if forced else "none"
            yield "worlds/forces", outcome, [render_wjudgment(j), forced]
            pair = check_monotone(model, j)
            outcome = "monotone" if pair is None else "counterexample"
            yield "worlds/check_monotone", outcome, [render_wjudgment(j), pair]
    rng = random.Random(31)
    g2 = ground_types(2)
    batch = list(ground_types(3))
    for _ in range(BATCH_FAMILIES):
        family = Case(Var("x"), "a", rng.choice(g2), "b", rng.choice(g2))
        batch.append(rng.choice((Forall, Exists))(TRUE_OR_TRUE, "x", family))
    partners = [ty if rng.random() < 0.4 else rng.choice(batch) for ty in batch]
    for strategy in Strategy:
        tag = "cbv" if strategy is CBV else "cbn"
        for fuel in BATCH_FUELS:
            for ty, partner in zip(batch, partners):
                v = check_is_set(ty, fuel, strategy=strategy)
                yield f"batch/check_is_set/{tag}", v.status.value, verdict_record(v)
                v = check_eq_set(ty, partner, fuel, strategy=strategy)
                yield f"batch/check_eq_set/{tag}", v.status.value, verdict_record(v)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--records", action="store_true",
                    help="print a short hash per verdict instead of the section digests")
    args = ap.parse_args()
    digests, counts, outcomes = {}, Counter(), {}
    total = hashlib.sha256()
    for section, outcome, record in sections():
        data = json.dumps(record, sort_keys=True).encode()
        if args.records:
            print(f"{section} {counts[section]} {outcome} {hashlib.sha256(data).hexdigest()[:16]}")
        digests.setdefault(section, hashlib.sha256()).update(data)
        total.update(data)
        counts[section] += 1
        outcomes.setdefault(section, Counter())[outcome] += 1
    if args.records:
        return
    for section, h in digests.items():
        tally = ", ".join(f"{k} {n}" for k, n in sorted(outcomes[section].items()))
        print(f"{section:28} {counts[section]:5}  {h.hexdigest()[:24]}  ({tally})")
    print(f"{'all':28} {sum(counts.values()):5}  {total.hexdigest()[:24]}")


if __name__ == "__main__":
    main()
