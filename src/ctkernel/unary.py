"""Relational model: set-hood, membership, inhabitation, enumeration.

Every type denotes a relation of canonical witnesses:

* ``canon(True)``  is ``{it}``
* ``canon(False)`` is empty
* ``canon(forall x : A . B)`` holds the functions ``lam y. E`` such that
  for every member ``w`` of ``A``, the instance ``E[w/y]`` is a member of
  ``B[w/x]``
* ``canon(exists x : A . B)`` holds the pairs ``<M, N>`` with ``M`` a
  member of ``A`` and ``N`` a member of ``B[M/x]``
* ``canon(A \\/ B)`` holds ``inl M`` for members of ``A`` and ``inr N``
  for members of ``B``

Membership is the evaluation closure of those relations: ``member(M, A)``
holds when ``A`` evaluates to a former whose relation is defined and
``M`` evaluates into it.  The hypothetical premise of a quantifier is
read materially: if the domain is provably uninhabited, the premise is
discharged vacuously, with no witness for the body required at all.
Otherwise canonical domain witnesses are enumerated up to the depth
bound and each instance is checked; the check reports VERIFIED only when
that enumeration is provably complete, and UNKNOWN when the bound ran
out first.  Refutations and verifications are definitive; larger budgets
can only resolve UNKNOWN and DIVERGED.

The clauses are written once, by ``_relate``, at arity 1 (membership)
and at arity 2 (equal membership, the binary model of ``binary``):
membership is reflexive equality read on the diagonal.  The arities
differ only where the binary model asks for more: its quantifier
clause ranges over related pairs of domain witnesses, and dependent
families must send related inputs to equal sets.  Set-hood is likewise
set equality on the diagonal: ``check_is_set(A)`` is the walk of
``_check_eq_set`` asked of ``A`` alone, which evaluates ``A`` once and
reports ``set(A)``.

Function-witness enumeration draws lambda bodies from canonical members
of the family instances lifted to constant functions, plus the identity
when the domain and family coincide, plus the identity as the canonical
representative over a provably empty domain.  The completeness flag is
relative to this documented grammar: for the ground fragment it exhausts
inhabitation (every member acts like some listed representative on every
canonical input of former depth below the bound), although at deeper
function domains behaviours outside the grammar exist, e.g. the swap
function among the members of (True \\/ True) => (True \\/ True).
Genuinely dependent families can hide dispatching members the grammar
cannot see, so their enumerations claim completeness only when some
family instance is provably empty (no function can exist at all).
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

from .config import DEFAULT_DEPTH, DEFAULT_FUEL
from .evaluation import Canonical, FuelExhausted, Strategy, Stuck, Tank, run
from .judgments import (
    Blocked, Both, CanonClosureIn, CanonEmpty, CanonEq, CanonIn, CanonNeq,
    CanonNotIn, CanonUndefined, EqMember, EqSet, Evals, Gen, Hyp, IsSet, Member,
    Status, Trace, TraceStep, Verdict, diverged, later, refuted, unknown, verified,
    worst,
)
from .record import Record
from .syntax import describe, pretty
from .terms import (
    _CANONICAL_TAGS, Disj, Exists, Forall, Inl, Inr, It, Lam, Pair, TFalse, TTrue, Term,
    TRUE, FALSE, IT, Var, alpha_eq, conj, constructor_depth, free_vars, fresh_name,
    imp, is_canonical, is_type_former, require_closed, substitute, term_key,
)

CBN = Strategy.CALL_BY_NAME


class Inhabitation(Enum):
    INHABITED = "inhabited"
    UNINHABITED = "uninhabited"
    NOT_GROUND = "not-ground"
    DIVERGED = "diverged"
    __hash__ = object.__hash__  # singletons; an `_OR` lookup: 72 ns, not 218 (Python 3.11.7)


class EnumResult(Record):
    """Outcome of bounded witness enumeration.

    ``complete`` is True when the list provably exhausts the type's
    witnesses (up to the documented function-witness grammar); see the
    module docstring.  ``failure`` carries a DIVERGED or REFUTED verdict
    when the type itself would not even evaluate to a set.
    """

    __slots__ = __match_args__ = ("witnesses", "complete", "failure")
    _defaults = {"failure": None}


# -- ground fragment -----------------------------------------------------


@lru_cache(maxsize=None)
def ground_types(max_depth: int) -> Tuple[Term, ...]:
    """All ground types of constructor depth <= max_depth, shallow first.

    Depth-1 layer is (True, False); each deeper layer closes under
    conjunction, disjunction and implication in that order.  The
    ordering is part of the contract: instantiation searches walk it."""
    if max_depth < 1:
        return ()
    layers: List[List[Term]] = [[TRUE, FALSE]]
    for d in range(2, max_depth + 1):
        upto = [t for layer in layers for t in layer]
        layer = []
        for build in (conj, Disj, imp):
            for p in upto:
                for q in upto:
                    if max(constructor_depth(p), constructor_depth(q)) == d - 1:
                        layer.append(build(p, q))
        layers.append(layer)
    return tuple(t for layer in layers for t in layer)


# -- exact inhabitation oracle (ground fragment) --------------------------


def inhabited_exact(a: Term, fuel: int = DEFAULT_FUEL, strategy: Strategy = CBN) -> Inhabitation:
    """Exact inhabitation for ground types.

    True is inhabited, False is not; an implication is inhabited iff its
    domain is empty or its codomain inhabited; a conjunction iff both
    sides are; a disjunction iff either side is.  Genuinely dependent
    families (the binder occurs in the family) are out of scope and
    report NOT_GROUND, as does anything that is not a set."""
    require_closed("type", a)
    return _inhabited(a, Tank(fuel, strategy))


# The proposition that stands for each truth value of a valuation.
_TRUTH_TERMS = {Inhabitation.INHABITED: TRUE, Inhabitation.UNINHABITED: FALSE}
_NO_VALUATION: Mapping[str, Inhabitation] = MappingProxyType({})


def _inhabited(
    a: Term, tank: Tank, valuation: Mapping[str, Inhabitation] = _NO_VALUATION,
) -> Inhabitation:
    """Inhabitation of ``a`` with each metavariable that ``valuation``
    names standing for True or False as valued, without building that
    instance of ``a``.

    A valued metavariable is read from ``valuation``; a canonical part
    is its own canonical form, read without a run, as ``run`` takes no
    step on it; any other part is run.  A subterm that must be evaluated
    has the valued metavariables it mentions replaced by True or False
    first, so it runs, and spends fuel, exactly as its instance does."""
    # `is` tests, not `match`: `admissible` of 200 seeded schemes, 7.6 ms not 9.0 (Py 3.11.7)
    kind = type(a)
    if kind not in _CANONICAL_TAGS:
        if valuation and not valuation.keys().isdisjoint(a.fv):
            if kind is Var:
                return valuation[a.name]
            for name, value in valuation.items():
                a = substitute(a, name, _TRUTH_TERMS[value])
        res = run(a, tank)
        if isinstance(res, FuelExhausted):
            return Inhabitation.DIVERGED
        if isinstance(res, Stuck):
            return Inhabitation.NOT_GROUND
        a = res.term
        kind = type(a)
    if kind is TTrue:
        return Inhabitation.INHABITED
    if kind is TFalse:
        return Inhabitation.UNINHABITED
    if kind is Disj:
        table, l, r = _OR, a.left, a.right
    elif (kind is Exists or kind is Forall) and a.binder not in a.family.fv:
        table, l, r = (_AND if kind is Exists else _IMP), a.domain, a.family
    else:  # a dependent family, or not a type former
        return Inhabitation.NOT_GROUND
    # the left part, or the domain, is read first
    return table[_inhabited(l, tank, valuation), _inhabited(r, tank, valuation)]


# The value of a disjunction, a conjunction and an implication for each
# pair of values of its parts, by one rule: a disjunction takes the first
# of its parts' values in the order of ``_FIRST``; negation swaps the two
# decided values; a conjunction is the negation of the disjunction of
# the negated parts, and an implication the disjunction of the negated
# domain and the codomain.  So a first value decides a connective
# exactly when its row of the table is constant.
_FIRST = (Inhabitation.INHABITED, Inhabitation.DIVERGED, Inhabitation.NOT_GROUND,
          Inhabitation.UNINHABITED)
_NOT = {v: v for v in _FIRST} | {_FIRST[0]: _FIRST[3], _FIRST[3]: _FIRST[0]}
_OR = {(x, y): min(x, y, key=_FIRST.index) for x in _FIRST for y in _FIRST}
_AND = {(x, y): _NOT[_OR[_NOT[x], _NOT[y]]] for x, y in _OR}
_IMP = {(x, y): _OR[_NOT[x], y] for x, y in _OR}


def _member(a: Term, tank: Tank) -> Optional[Term]:
    """A canonical member of a type that ``_inhabited`` finds inhabited,
    read off the same structure: ``it``, a pair, the first inhabited
    injection, a constant function, or the identity over an empty
    domain.  None when evaluation runs out of fuel."""
    if not is_canonical(a):
        res = run(a, tank)
        if not isinstance(res, Canonical):
            return None
        a = res.term
    match a:
        case TTrue():
            return IT
        case Exists(d, _, f):
            m = _member(d, tank)
            n = _member(f, tank) if m is not None else None
            return Pair(m, n) if n is not None else None
        case Disj(l, r):
            if _inhabited(l, tank) is Inhabitation.INHABITED:
                m = _member(l, tank)
                return Inl(m) if m is not None else None
            m = _member(r, tank)
            return Inr(m) if m is not None else None
        case Forall(d, _, f):
            if _inhabited(f, tank) is Inhabitation.INHABITED:
                m = _member(f, tank)
                return Lam("_", m) if m is not None else None
            if _inhabited(d, tank) is Inhabitation.UNINHABITED:
                return Lam("x", Var("x"))
    return None


# -- witness enumeration ---------------------------------------------------


def enumerate_canonical(
    a: Term,
    depth: int = DEFAULT_DEPTH,
    fuel: int = DEFAULT_FUEL,
    strategy: Strategy = CBN,
) -> EnumResult:
    """All canonical witnesses of constructor depth <= depth.

    Results are pairwise non-alpha-equivalent and sorted by the
    documented term order (constructor depth, then normalized tree)."""
    require_closed("type", a)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return _enumerate(a, depth, Tank(fuel, strategy))


def _dedupe_sorted(ws: List[Term]) -> Tuple[Term, ...]:
    # Witnesses are closed, so equal keys mean alpha-equivalent terms;
    # the first of each class is kept.
    first = {}
    for w in ws:
        first.setdefault(term_key(w), w)
    return tuple(first[k] for k in sorted(first))


def _enumerate(a: Term, depth: int, tank: Tank) -> EnumResult:
    if not is_canonical(a):
        res = run(a, tank)
        if isinstance(res, FuelExhausted):
            return EnumResult((), False, diverged(f"type diverged: {res.remaining}"))
        if isinstance(res, Stuck):
            return EnumResult(
                (), False,
                refuted(later(lambda: (TraceStep(Blocked(res.offending), "stuck-type"),))),
            )
        a = res.term
    match a:
        case TTrue():
            if depth >= 1:
                return EnumResult((IT,), True)
            return EnumResult((), False)
        case TFalse():
            return EnumResult((), True)
        case Disj(l, r):
            el = _enumerate(l, depth - 1, tank)
            if el.failure is not None:
                return el
            er = _enumerate(r, depth - 1, tank)
            if er.failure is not None:
                return er
            ws = [Inl(w) for w in el.witnesses] + [Inr(w) for w in er.witnesses]
            return EnumResult(_dedupe_sorted(ws), el.complete and er.complete)
        case Exists(d, b, f):
            ed = _enumerate(d, depth - 1, tank)
            if ed.failure is not None:
                return ed
            complete = ed.complete
            ws: List[Term] = []
            for m in ed.witnesses:
                ef = _enumerate(substitute(f, b, m), depth - 1, tank)
                if ef.failure is not None:
                    return ef
                complete = complete and ef.complete
                ws.extend(Pair(m, n) for n in ef.witnesses)
            return EnumResult(_dedupe_sorted(ws), complete)
        case Forall(d, b, f):
            return _enumerate_functions(d, b, f, depth, tank)
        case _:
            return EnumResult(
                (), False,
                refuted(later(lambda: (TraceStep(CanonUndefined(a), "not-a-set"),))),
            )


def _enumerate_functions(d: Term, b: str, f: Term, depth: int, tank: Tank) -> EnumResult:
    identity = Lam("x", Var("x"))
    ed = _enumerate(d, depth - 1, tank)
    if ed.failure is not None:
        return ed

    if not ed.witnesses and ed.complete:
        # Provably empty domain: every function is vacuously a witness;
        # the identity stands for them all.
        if depth >= 2:
            return EnumResult((identity,), True)
        return EnumResult((), False)

    dependent = b in free_vars(f)
    complete = ed.complete
    provably_empty_instance = False
    candidates: List[Term] = []
    if not dependent and alpha_eq(d, f):
        candidates.append(identity)
    for w in ed.witnesses:
        ef = _enumerate(substitute(f, b, w), depth - 1, tank)
        if ef.failure is not None:
            return ef
        complete = complete and ef.complete
        if ef.complete and not ef.witnesses:
            provably_empty_instance = True
        candidates.extend(Lam("_", m) for m in ef.witnesses)

    kept: List[Term] = []
    for cand in _dedupe_sorted(candidates):
        if constructor_depth(cand) > depth:
            complete = False
            continue
        ok = True
        for w in ed.witnesses:
            instance = substitute(cand.body, cand.binder, w)
            v = _relate((instance,), substitute(f, b, w), tank, depth)
            if v.status is Status.REFUTED:
                ok = False
                break
            if not v.verified:
                # Cannot certify this candidate within the bounds.
                ok = False
                complete = False
                break
        if ok:
            kept.append(cand)

    # The constant-plus-identity grammar exhausts behaviours only for
    # non-dependent families; a dependent family whose instances are all
    # inhabited may admit dispatching members the grammar cannot see, so
    # the list is exhaustive there only when some instance is provably
    # empty (then no function can exist at all).
    if dependent and not provably_empty_instance:
        complete = False
    return EnumResult(tuple(kept), complete)


# -- evaluation prelude and status combination ------------------------------


def _evaluate(
    head: Callable[[], TraceStep], roles: Tuple[str, ...], terms: Tuple[Term, ...],
    tank: Tank,
) -> Union[List[Term], Verdict]:
    """Evaluate the terms in order, drawing on the shared tank; ``head()``
    builds the first step of a failure's trace.

    Returns their canonical forms, or the REFUTED verdict of a term that
    gets stuck within the whole budget, else the DIVERGED verdict of the
    first one that runs out of fuel; its role ("type", "left term"...)
    names it.  Once the tank runs dry, the terms it did not fully serve
    run again on copies of the whole budget, so the verdict does not
    depend on the order of the terms.  A term that is already canonical
    is its own form, so ``form is not term`` tells whether it computed."""
    budget = tank.remaining
    forms = []
    for i, t in enumerate(terms):
        if is_canonical(t):
            forms.append(t)
            continue
        before = tank.remaining
        r = run(t, tank)
        if isinstance(r, Canonical):
            forms.append(r.term)
            continue
        if isinstance(r, Stuck):
            tank.remaining += budget - before
        else:
            for j in range(i if before < budget else i + 1, len(terms)):
                own = Tank(budget, tank.strategy)
                s = run(terms[j], own)
                if isinstance(s, Stuck):
                    i, r, tank.remaining = j, s, own.remaining
                    break
            else:
                return diverged(f"{roles[i]} diverged: {r.remaining}", later(lambda: (head(),)))
        rule = "stuck-term" if roles[i].endswith("term") else "stuck-type"
        return refuted(later(lambda: (head(), TraceStep(Blocked(r.offending), rule))))
    return forms


def _combine(out: Trace, subs: Sequence[Verdict], depth: int, complete: bool = True) -> Verdict:
    """The worst status among ``subs``, reported with ``out`` and with the
    diagnostics of the first sub-verdict that has it.  All verified over
    an incomplete enumeration is UNKNOWN at ``depth``."""
    status = worst(v.status for v in subs)
    if status is Status.VERIFIED:
        return verified(out) if complete else unknown(depth, out)
    picked = next(v for v in subs if v.status is status)
    return Verdict(status, out, bound=picked.bound, fuel_report=picked.fuel_report,
                   pair=picked.pair, instance=picked.instance)


def _claim(
    head: Callable[[], TraceStep], statement: Callable, rule: str, subs: Sequence[Verdict],
    depth: int, complete: bool = True,
) -> Verdict:
    """``statement()`` by ``rule``, with the sub-verdicts as its premises,
    after the step ``head()``; both are built when the trace is read."""
    out = later(lambda: (head(), TraceStep(statement(), rule, tuple([v.trace for v in subs]))))
    return _combine(out, subs, depth, complete)


# -- set-hood --------------------------------------------------------------


def check_is_set(
    a: Term,
    fuel: int = DEFAULT_FUEL,
    depth: int = DEFAULT_DEPTH,
    strategy: Strategy = CBN,
) -> Verdict:
    """Does the type evaluate to a former whose witness relation is defined?

    ``A`` is a set when it equals itself.  Component types must
    themselves be sets: hereditarily for non-dependent components,
    pointwise at enumerated domain witnesses for genuinely dependent
    families."""
    require_closed("type", a)
    _check_budgets(fuel, depth)
    return _check_eq_set(a, None, Tank(fuel, strategy), depth)


# -- membership -------------------------------------------------------------


def check_member(
    m: Term,
    a: Term,
    fuel: int = DEFAULT_FUEL,
    depth: int = DEFAULT_DEPTH,
    strategy: Strategy = CBN,
) -> Verdict:
    """Membership of a term in a type, checked through evaluation."""
    require_closed("term", m)
    require_closed("type", a)
    _check_budgets(fuel, depth)
    return _relate((m,), a, Tank(fuel, strategy), depth)


def _check_budgets(fuel: int, depth: int) -> None:
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")


# -- the relational clauses, at arity 1 and 2 ---------------------------------

# Per arity: the judgment form, the rule that states it, and the roles
# of the type and of the terms, in evaluation order.
_FORMS = {
    1: (Member, "membership", ("type", "term")),
    2: (EqMember, "equal-membership", ("type", "left term", "right term")),
}

# The clause a canonical type names when the witnesses do not match it.
_CLAUSE = {TTrue: "canon-true", Disj: "canon-disj", Exists: "canon-exists",
           Forall: "canon-forall"}


def _same(x: Term, y: Term) -> bool:
    return x is y or alpha_eq(x, y)


def _relate(args: Tuple[Term, ...], a: Term, tank: Tank, depth: int) -> Verdict:
    """Membership of ``args[0]``, or equal membership of ``args``, in ``a``.

    The type and the terms are evaluated; the type's former picks the
    clause of ``canon(A)`` and the terms' components are related in the
    component types.  Its trace is built when it is read, by the
    builders ``head`` and ``evals`` and the closures over them."""
    form, judged, roles = _FORMS[len(args)]

    def head():
        return TraceStep(form(*args, a), judged)

    res = _evaluate(head, roles[:1], (a,), tank)
    if isinstance(res, Verdict):
        return res
    (ac,) = res
    res = _evaluate(head, roles[1:], args, tank)
    if isinstance(res, Verdict):
        return res
    cs = tuple(res)

    def evals():
        # The type's evaluation is recorded only when it actually computes,
        # so a canonical type keeps the derivation at its minimal length.
        out = (Evals(a, ac), Evals(args[0], cs[0])) if ac is not a else (Evals(args[0], cs[0]),)
        if len(args) == 2 and not (_same(args[0], args[1]) and _same(cs[0], cs[1])):
            # the right side of a diagonal would repeat the left side's evaluation
            out += (Evals(args[1], cs[1]),)
        return out

    shape = type(cs[0])
    for c in cs:
        if type(c) is not shape:
            shape = None

    match ac:
        case TTrue() if shape is It:
            return verified(later(lambda: (
                head(), TraceStep(Both(evals() + (CanonIn(ac, cs),)), "canon-true"),
            )))
        case TFalse():
            return refuted(later(lambda: (
                head(),
                TraceStep(Both(evals()), "evaluate"),
                TraceStep(CanonEmpty(ac), "canon-false"),
            )))
        case Disj(l, _) if shape is Inl:
            rule = "canon-disj-left"
            subs = (_relate(tuple([c.arg for c in cs]), l, tank, depth),)
        case Disj(_, r) if shape is Inr:
            rule = "canon-disj-right"
            subs = (_relate(tuple([c.arg for c in cs]), r, tank, depth),)
        case Exists(d, b, f) if shape is Pair:
            rule = "canon-exists"
            firsts = tuple([c.fst for c in cs])
            subs = [_relate(firsts, d, tank, depth)]
            if len(args) == 2 and subs[0].verified and b in free_vars(f):
                # family precondition: related firsts must give equal
                # instance sets, else the type is ill-formed
                subs.append(_check_eq_set(
                    substitute(f, b, firsts[0]), substitute(f, b, firsts[1]), tank, depth,
                ))
            subs.append(_relate(
                tuple([c.snd for c in cs]), substitute(f, b, firsts[0]), tank, depth,
            ))
        case Forall() if shape is Lam:
            return _relate_forall(cs, ac, head, evals, tank, depth)
        case _:
            # No clause matches the witnesses, or the canonical type has
            # no witness relation at all.
            return refuted(later(lambda: (
                head(),
                TraceStep(Both(evals()), "evaluate"),
                TraceStep(CanonNotIn(ac, cs), _CLAUSE.get(type(ac), "no-former")),
            )))
    return _claim(head, lambda: Both(evals() + (CanonIn(ac, cs),)), rule, subs, depth)


def _relate_forall(
    lams: Tuple[Lam, ...], ac: Forall, head: Callable[[], TraceStep], evals: Callable[[], Tuple],
    tank: Tank, depth: int,
) -> Verdict:
    """The hypothetical-general clause: for all related domain arguments,
    the instances of the function bodies are related in the family."""
    d, b, f = ac.domain, ac.binder, ac.family
    names: List[str] = []
    bodies: List[Term] = []
    for lam in lams:
        x, body = lam.binder, lam.body
        if x in names:
            # rename apart, so the general closure binds distinct variables
            avoid = set(names).union(*(free_vars(other.body) for other in lams))
            x = fresh_name(x, avoid)
            body = substitute(lam.body, lam.binder, Var(x))
        names.append(x)
        bodies.append(body)
    names = tuple(names)
    form = _FORMS[len(lams)][0]

    def opening(rule: str, children: tuple = ()):
        """The first steps of the trace: the head, the claim, and the
        general premise by ``rule``; with the variables and the goal of
        that premise."""
        xs = tuple(map(Var, names))
        goal = form(*bodies, substitute(f, b, xs[0]) if b != names[0] else f)
        steps = (head(), TraceStep(Both(evals() + (CanonIn(ac, lams),)), "canonical-closure"),
                 TraceStep(Gen(names, Hyp((form(*xs, d),), goal)), rule, children))
        return steps, xs, goal

    res = _evaluate(head, ("domain",), (d,), tank)
    if isinstance(res, Verdict):
        return res
    (dc,) = res
    inh = _inhabited(dc, tank)
    if inh is Inhabitation.DIVERGED:
        return diverged(f"domain inhabitation diverged: {describe(dc)}", later(lambda: (head(),)))
    if inh is Inhabitation.UNINHABITED:
        # Material discharge: the hypothesis can never be verified, so
        # the whole hypothetical-general premise holds vacuously.
        def discharge():
            steps, xs, goal = opening("canon-forall")
            if len(lams) == 1:
                # membership unfolds the hypothesis into an evaluation
                m = "m" if "m" not in free_vars(bodies[0]) | {names[0]} else "m0"
                unfolded = Both((Evals(xs[0], Var(m)), CanonIn(dc, (Var(m),))))
            else:
                unfolded = CanonIn(dc, xs)
            return steps + (
                TraceStep(Gen(names, Hyp((CanonClosureIn(dc, xs),), goal)), "hypothesis-membership"),
                TraceStep(Gen(names, Hyp((unfolded,), goal)), "membership-closure",
                          (Trace((TraceStep(CanonEmpty(dc), "vacuous-discharge"),)),)),
            )
        return verified(later(discharge))

    if len(lams) == 1:
        ed = _enumerate(dc, depth, tank)
        items, complete, failure = [(w,) for w in ed.witnesses], ed.complete, ed.failure
    else:
        items, complete, failure = _related_pairs(dc, depth, tank)
    if failure is not None:
        if failure.status is Status.DIVERGED:
            return diverged(failure.fuel_report or "domain enumeration diverged",
                            later(lambda: (head(),)))
        return refuted(later(lambda: (head(),) + failure.trace.steps))

    dependent = len(lams) == 2 and b in free_vars(f)
    subs: List[Verdict] = []
    # per domain item: the item, the instances of the bodies, the family
    # instance and their verdict, from which the trace writes the step
    checked: List[tuple] = []
    for item in items:
        family = substitute(f, b, item[0])
        if dependent:
            # family precondition: related inputs give equal instance sets
            other = substitute(f, b, item[1])
            vfam = _check_eq_set(family, other, tank, depth)
            subs.append(_blame(vfam, item, EqSet, family, other))
        inst = tuple(map(substitute, bodies, names, item))
        v = _relate(inst, family, tank, depth)
        subs.append(_blame(v, item, form, *inst, family))
        checked.append((item, inst, family, v))

    def instances():
        return opening("instances", tuple([
            Trace((TraceStep(form(*inst, family), f"instance [{', '.join(map(pretty, item))}]",
                             (v.trace,)),))
            for item, inst, family, v in checked]))[0]
    return _combine(later(instances), subs, depth, complete)


def _blame(v: Verdict, item: Tuple[Term, ...], form: type, *fields) -> Verdict:
    """A refuted instance names its statement, ``form(*fields)``, and, in
    the binary model, the related input pair."""
    if not v.refuted:
        return v
    return refuted(v.trace, pair=item if len(item) == 2 else None, instance=form(*fields))


def _related_pairs(domain: Term, depth: int, tank: Tank):
    ed = _enumerate(domain, depth, tank)
    if ed.failure is not None:
        return (), False, ed.failure
    complete = ed.complete
    pairs: List[Tuple[Term, Term]] = []
    for u in ed.witnesses:
        for v in ed.witnesses:
            verdict = _relate((u, v), domain, tank, depth)
            if verdict.status is Status.DIVERGED:
                return (), False, verdict
            if verdict.verified:
                pairs.append((u, v))
            elif not verdict.refuted:
                complete = False
    return tuple(pairs), complete, None


# -- equal sets ---------------------------------------------------------------


def _check_eq_set(a: Term, b: Optional[Term], tank: Tank, depth: int) -> Verdict:
    """Equality of the relations of two types.  With ``b`` None it is
    set-hood, the equality of ``a`` with itself: ``a`` is evaluated once,
    each family instance is built once, and the head is ``set(A)``.  A
    domain is empty when ``_inhabited`` says so, or when its complete
    enumeration lists no witness."""
    diagonal = b is None

    def head():
        if diagonal:
            return TraceStep(IsSet(a), "set-formation")
        return TraceStep(EqSet(a, b), "equal-sets")

    roles, sides = (("type",), (a,)) if diagonal else (("left type", "right type"), (a, b))
    res = _evaluate(head, roles, sides, tank)
    if isinstance(res, Verdict):
        return res
    ac, bc = res[0], res[-1]

    def evals():
        out = (Evals(a, ac),) if ac is not a else ()
        if bc is not b and not diagonal:
            out += (Evals(b, bc),)
        return out

    for tc in res:
        if not is_type_former(tc):
            return refuted(later(lambda: (
                head(), TraceStep(Both(evals() + (CanonUndefined(tc),)), "no-former"),
            )))
    if type(ac) is not type(bc):
        # Two relations of different shapes can only coincide by both
        # being empty; canonical shapes are disjoint otherwise.
        v = _both_empty(ac, bc, evals, tank, depth, head)
        if v is not None:
            return v
        return refuted(later(lambda: (
            head(),
            TraceStep(Both(evals()), "evaluate"),
            TraceStep(CanonNeq(ac, bc), "distinct-relations"),
        )))

    def same():
        return Both(evals() + (CanonEq(ac, bc),))

    # the two formers have one type, so the match reads the left one
    match ac:
        case TTrue() | TFalse():
            return verified(later(lambda: (head(), TraceStep(same(), "same-base"))))
        case Disj(l1, r1):
            return _claim(head, same, "components", (
                _check_eq_set(l1, None if diagonal else bc.left, tank, depth),
                _check_eq_set(r1, None if diagonal else bc.right, tank, depth),
            ), depth)
        case Forall(d1, b1, f1) | Exists(d1, b1, f1):
            d2, b2, f2 = bc.domain, bc.binder, bc.family
            vd = _check_eq_set(d1, None if diagonal else d2, tank, depth)
            # Different domains still give equal relations when both
            # relations are empty; the domains' refutation stands only
            # when one relation is nonempty.  In set-hood a refuted
            # domain is not a set, so neither is the type.
            if vd.status is Status.REFUTED and not diagonal:
                v = _both_empty(ac, bc, evals, tank, depth, head)
                if v is not None:
                    return v
            if vd.status is not Status.VERIFIED:
                return _claim(head, same, "domains", (vd,), depth)
            if b1 not in free_vars(f1) and _same(f1, f2):
                # One non-dependent family: the relations agree exactly
                # when it is a set, whatever the domain's witnesses.
                return _claim(head, same, "same-family", (
                    vd, _check_eq_set(f1, None, tank, depth),
                ), depth)
            inh = _inhabited(d1, tank)
            if inh is Inhabitation.DIVERGED:
                return diverged("domain inhabitation diverged", later(lambda: (head(),)))
            ed = (EnumResult((), True) if inh is Inhabitation.UNINHABITED
                  else _enumerate(d1, depth, tank))
            if ed.failure is not None:
                return _claim(head, same, "domains", (vd, ed.failure), depth)
            if ed.witnesses or not ed.complete:
                subs = [vd]
                for w in ed.witnesses:
                    subs.append(_check_eq_set(
                        substitute(f1, b1, w), None if diagonal else substitute(f2, b2, w),
                        tank, depth,
                    ))
                return _claim(head, same, "pointwise-families", subs, depth, ed.complete)
            # The domain is provably empty, so no instance exists, but
            # non-dependent families must still be sets, as set-hood asks
            # of them; alpha-equal families are checked once.
            subs = [vd]
            for bf, family in ((b1, f1),) if _same(f1, f2) else ((b1, f1), (b2, f2)):
                if bf not in free_vars(family):
                    subs.append(_check_eq_set(family, None, tank, depth))
            return _claim(head, same, "vacuous-families", subs, depth)
    raise AssertionError("unreachable")


def _both_empty(
    ac: Term, bc: Term, evals: Callable[[], Tuple], tank: Tank, depth: int,
    head: Callable[[], TraceStep],
) -> Optional[Verdict]:
    """Equality of two canonical type formers by both relations being empty.

    None when one relation is provably nonempty, so the caller's
    refutation holds.  Short of that, a side that is not a set refutes,
    a divergent or undecided emptiness test gives DIVERGED or UNKNOWN,
    and two empty relations are equal when both types are sets.  A side
    is empty when ``_inhabited`` says so, or, outside the ground
    fragment, when its complete enumeration lists no witness.  Each side
    is tested on its own copy of the remaining budget, so the readings
    do not depend on the order of the sides, and a nonempty or not-a-set
    side decides even when the other side's test diverges; the tank pays
    for the deciding side alone, else for both sides, down to 0."""
    budget = tank.remaining
    readings = []
    for tc in (ac, bc):
        own = Tank(budget, tank.strategy)
        r = _inhabited(tc, own)
        if r is Inhabitation.DIVERGED:
            r = diverged(f"inhabitation diverged: {describe(tc)}")
        elif r is Inhabitation.NOT_GROUND:
            ed = _enumerate(tc, depth, own)
            r = ed.failure or (Inhabitation.INHABITED if ed.witnesses else
                               Inhabitation.UNINHABITED if ed.complete else r)
        if r is Inhabitation.INHABITED or isinstance(r, Verdict) and r.refuted:
            tank.remaining = own.remaining
            readings = [r]
            break
        readings.append(r)
        tank.remaining = max(0, tank.remaining - budget + own.remaining)
    for r in readings:
        if r is Inhabitation.INHABITED:
            return None
        if isinstance(r, Verdict):
            return Verdict(r.status, later(lambda: (head(),) + r.trace.steps),
                           fuel_report=r.fuel_report)
    if Inhabitation.NOT_GROUND in readings:
        return unknown(depth, later(lambda: (head(),)))

    def statement():
        return Both(evals() + (CanonEmpty(ac), CanonEmpty(bc), CanonEq(ac, bc)))

    return _claim(head, statement, "both-empty", (
        _check_eq_set(ac, None, tank, depth),
        _check_eq_set(bc, None, tank, depth),
    ), depth)
