"""Rule lab: derivability against admissibility for inference rules.

A rule scheme has truth-judgment premises and conclusion over
metavariables (free, conventionally uppercase, names standing for
arbitrary ground propositions).  Two readings are contrasted:

* *Derivable*: there is a uniform schematic derivation in a formal
  system containing only the introduction rules (truth introduction,
  conjunction/disjunction/implication introduction with hypothesis
  discharge) plus the hypothesis rule.  No elimination rules exist in
  the system.  Because goal-directed search over this calculus strictly
  shrinks the goal, a failed exhaustive search is definitive, and the
  result says so.  Each introduction rule is written once, as an entry
  of one table (``_INTRODUCTIONS``): its name, the premises it leaves
  for a goal of its connective, and the constructor of its realizer.
  The search tries the entries in order, the checker requires each
  child's conclusion to be the entry's premise, and realizer
  extraction builds with the entry's constructor.

* *Admissible*: for every ground instantiation of the metavariables
  under which every premise has a canonical verification, the
  conclusion has one too.  This is the material reading: it looks at
  what verifications can exist, not at derivations.  Inhabitation of
  ground types is two-valued and compositional, so an instantiation
  matters only through which metavariables it makes inhabited, and the
  check over the 2^k True/False valuations is exact: a verification is
  a theorem about every ground instantiation, not a bound-relative
  certificate.  Each valuation is read off the metavariables as the
  propositions are walked, without building their instances; only a
  refutation builds its instances, and ships that concrete
  instantiation together with premise witnesses whose conclusion is
  uninhabited.

The interesting quadrant is admissible-but-not-derivable: rules the
formal system cannot state uniformly whose semantic closure still
holds.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .config import (
    DEFAULT_DEPTH, DEFAULT_FUEL, DEFAULT_INSTANCE_DEPTH, DEFAULT_SEARCH_DEPTH,
)
from .evaluation import Strategy, Tank
from .judgments import (
    IsTrue, TraceStep, Verdict, diverged, later, refuted, render_statement, unknown,
    verified, walk,
)
from .record import Record
from .syntax import ParseError, _Parser, describe, pretty, tokenize
from .terms import (
    Disj, Exists, Forall, Inl, Inr, It, Lam, Pair, TFalse, TTrue, Term, Var,
    alpha_eq, free_vars, substitute,
)
from .unary import (
    Inhabitation, _AND, _TRUTH_TERMS, _enumerate, _inhabited, _member,
)

CBN = Strategy.CALL_BY_NAME


class RuleScheme(Record):
    __slots__ = __match_args__ = ("metavariables", "premises", "conclusion")

    def render(self) -> str:
        left = "; ".join(map(render_statement, self.premises))
        right = render_statement(self.conclusion)
        return f"{left} |- {right}" if left else f"|- {right}"


def _scheme_prop(t: Term, metavars: List[str]) -> bool:
    """Whether ``t`` is in the propositional fragment; appends to
    ``metavars`` each of its metavariables not yet there, in order of
    first occurrence."""
    match t:
        case Var(n):
            if n not in metavars:
                metavars.append(n)
            return True
        case TTrue() | TFalse():
            return True
        case Disj(l, r):
            return _scheme_prop(l, metavars) and _scheme_prop(r, metavars)
        case (Forall(d, b, f) | Exists(d, b, f)) if b not in free_vars(f):
            return _scheme_prop(d, metavars) and _scheme_prop(f, metavars)
    return False


def _parse_judgment(text: str, start: int, end: int, metavars: List[str]) -> IsTrue:
    """The judgment ``text[start:end]``; a ParseError gives its line and
    column in ``text``.  Only the judgment is tokenized, so that parsing
    a text stays linear in its length."""
    try:
        tokens = tokenize(text[start:end])
        if len(tokens) < 2 or tokens[-2].kind != "name" or tokens[-2].text != "true":
            tok = tokens[-2] if len(tokens) > 1 else tokens[-1]
            raise ParseError("a rule judgment must end in 'true'", tok.line, tok.col)
        prop = _Parser(tokens[:-2] + tokens[-1:]).whole()
        if not _scheme_prop(prop, metavars):
            raise ParseError(
                "rule propositions are the propositional fragment: "
                "metavariables, True, False, /\\, \\/, =>", tokens[0].line, tokens[0].col,
            )
    except ParseError as e:
        # the judgment starts at column ``start - bol + 1`` of its line
        bol = text.rfind("\n", 0, start) + 1
        raise ParseError(e.message, e.line + text.count("\n", 0, start),
                         e.col + (start - bol if e.line == 1 else 0)) from None
    return IsTrue(prop)


def _skip(text: str, at: int, label: str) -> int:
    """The index in ``text`` after the white space from ``at`` on, and
    after ``label`` if it comes next."""
    at += len(text[at:]) - len(text[at:].lstrip())
    return at + len(label) if text.startswith(label, at) else at


def parse_rule(text: str) -> RuleScheme:
    """Parse ``premises: J1; J2 |- conclusion: J`` (labels optional).  A
    ParseError gives its line and column in ``text``."""
    at = _skip(text, 0, "premises:")
    metavars: List[str] = []
    premises = []
    turnstile = text.rfind("|-", at)
    if turnstile >= 0:
        for part in text[at:turnstile].split(";"):
            if part.strip():
                premises.append(_parse_judgment(text, at, at + len(part), metavars))
            at += len(part) + 1
        at = turnstile + 2
    at = _skip(text, at, "conclusion:")
    conclusion = _parse_judgment(text, at, len(text), metavars)
    return RuleScheme(tuple(metavars), tuple(premises), conclusion)


def parse_rule_file(text: str) -> List[RuleScheme]:
    """One rule per block; blocks are separated by blank lines, lines
    that hold nothing but white space.  A comment runs from ``#`` to the
    end of its line, and a line that starts with one separates nothing.
    A ParseError gives its line and column in the file."""
    rules: List[RuleScheme] = []
    lines = text.splitlines()
    start = None  # the index of the first line of the current block
    for i, line in enumerate((*lines, "")):
        stripped = line.strip()
        if not stripped:
            if start is not None:
                block = "\n".join(row.partition("#")[0] for row in lines[start:i])
                try:
                    rules.append(parse_rule(block))
                except ParseError as e:
                    raise ParseError(e.message, e.line + start, e.col) from None
                start = None
        elif start is None and not stripped.startswith("#"):
            start = i
    return rules


# -- derivability -------------------------------------------------------------


class Sequent(Record):
    __slots__ = __match_args__ = ("hypotheses", "goal")

    def render(self) -> str:
        hyp = ", ".join(f"{n}: {render_statement(IsTrue(p))}" for n, p in self.hypotheses)
        goal = render_statement(IsTrue(self.goal))
        return f"{hyp} |- {goal}" if hyp else f"|- {goal}"


class Derivation(Record):
    """Finitary derivation tree; leaves discharge hypotheses or close goals."""
    __slots__ = __match_args__ = ("conclusion", "rule", "children")
    _defaults = {"children": ()}

    def render(self, indent: int = 0) -> str:
        """One line per node, depth-first, each child indented under its
        parent."""
        return "\n".join(f"{'  ' * (indent + at)}{d.conclusion.render()}    [{d.rule}]"
                         for at, d in walk((self,), _subderivations))


def _subderivations(d: Derivation) -> tuple:
    return d.children or ()


class NotDerivable(Record):
    __slots__ = __match_args__ = ("at_depth", "exhausted")


def _implication(hyps: tuple, goal: Forall) -> tuple:
    if goal.binder in goal.family.fv:
        return ()
    name = f"h{len(hyps)}"
    return (("imp-intro", ((hyps + ((name, goal.domain),), goal.family),),
             lambda body: Lam(name, body)),)


# The introduction rules, by the class of the goal they conclude.  Given
# the hypotheses in scope and a goal, an entry lists its rules in the
# order the search tries them: each rule's name, its premises as
# (hypotheses, goal) pairs, and the constructor that builds its realizer
# from the premises' realizers.  A conjunction or implication is a
# quantifier whose family does not use its binder.
_INTRODUCTIONS = {
    TTrue: lambda hyps, goal: (("truth-intro", (), It),),
    Exists: lambda hyps, goal: () if goal.binder in goal.family.fv else (
        ("and-intro", ((hyps, goal.domain), (hyps, goal.family)), Pair),),
    Disj: lambda hyps, goal: (("or-intro-left", ((hyps, goal.left),), Inl),
                              ("or-intro-right", ((hyps, goal.right),), Inr)),
    Forall: _implication,
}


def _introductions(hyps: Tuple[Tuple[str, Term], ...], goal: Term) -> tuple:
    """The introduction rules that conclude ``goal`` under ``hyps``: with
    the hypothesis rule, the whole calculus."""
    rules = _INTRODUCTIONS.get(type(goal))
    return rules(hyps, goal) if rules else ()


def derive(rule: RuleScheme, search_depth: int = DEFAULT_SEARCH_DEPTH) -> Union[Derivation, NotDerivable]:
    """Goal-directed schematic search in the introduction-only calculus.

    Metavariables are rigid: only the hypothesis rule can close an
    atomic goal.  When the search fails without ever hitting the depth
    cutoff the failure is exhaustive, hence definitive for this
    calculus."""
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
    """A derivation of ``goal`` under ``hyps`` within ``budget``
    introductions on each branch, or None; and whether the search never
    hit the cutoff.  A rule without premises needs no budget."""
    for name, prop in hyps:
        if alpha_eq(prop, goal):
            return Derivation(Sequent(hyps, goal), "hypothesis"), True
    exhausted = budget > 0
    for rule, premises, _ in _introductions(hyps, goal):
        if premises and budget <= 0:
            continue
        children = ()
        for premise in premises:
            child, complete = _search(*premise, budget - 1)
            if child is None:
                exhausted = exhausted and complete
                break
            children += (child,)
        else:
            return Derivation(Sequent(hyps, goal), rule, children), True
    return None, exhausted


def _step(d: Derivation) -> tuple:
    """The table entry that the node ``d`` applies, its children's
    conclusions being the entry's premises; for the hypothesis rule, an
    entry without premises whose realizer is the first hypothesis that
    matches the goal.  Raises ValueError when ``d`` is no step of the
    calculus."""
    try:
        seq, rule, children = d.conclusion, d.rule, d.children or ()
        if rule != "hypothesis":
            for entry in _introductions(seq.hypotheses, seq.goal):
                if entry[0] == rule and len(children) == len(entry[1]) and all(
                    child.conclusion == Sequent(*premise)
                    for child, premise in zip(children, entry[1])
                ):
                    return entry
        elif not children:
            for name, prop in seq.hypotheses:
                if alpha_eq(prop, seq.goal):
                    return rule, (), lambda: Var(name)
    except (AttributeError, ValueError, TypeError):
        pass
    raise ValueError(f"no step of the calculus: [{getattr(d, 'rule', None)}]")


def _steps(d: Derivation) -> Iterator[tuple]:
    """The entry (``_step``) of each node of ``d``, depth-first, first
    child first; a node's children are read once it is a step."""
    return (_step(node) for _, node in walk((d,), _subderivations))


def check_derivation(d: Derivation) -> Tuple[bool, int]:
    """Local wellformedness of every node; linear in the tree size.

    Returns (ok, nodes visited); never raises on malformed trees."""
    visited = 0
    try:
        for _ in _steps(d):
            visited += 1
    except ValueError:
        return False, visited + 1  # the node that is no step counts too
    return True, visited


def derivation_size(d: Derivation) -> int:
    """The number of nodes of ``d``."""
    return sum(1 for _ in walk((d,), _subderivations))


def extract_realizer(d: Derivation) -> Term:
    """Witness skeleton of a derivation; hypothesis leaves stay variables.

    Substituting concrete premise witnesses for the hypothesis variables
    yields a closed witness for the conclusion.  Raises ValueError on a
    tree that ``check_derivation`` rejects."""
    # Read backwards, the depth-first order puts each node after its
    # children, last child first.
    realizers: List[Term] = []
    for _, premises, build in reversed(list(_steps(d))):
        at = len(realizers) - len(premises)
        realizers[at:] = [build(*reversed(realizers[at:]))]
    return realizers[0]


# -- admissibility -------------------------------------------------------------


def instantiate(t: Term, assignment: Dict[str, Term]) -> Term:
    out = t
    for name, value in assignment.items():
        out = substitute(out, name, value)
    return out


def admissible(
    rule: RuleScheme,
    instance_depth: int = DEFAULT_INSTANCE_DEPTH,
    witness_depth: int = DEFAULT_DEPTH - 1,
    fuel: int = DEFAULT_FUEL,
    strategy: Strategy = CBN,
) -> Verdict:
    """Exact admissibility over the True/False valuations.

    Every ground type is inhabited or not, and inhabitation of a
    proposition depends only on that of its parts, so each ground
    instantiation acts as the valuation that sends a metavariable to
    True when its value is inhabited.  The scheme is admissible exactly
    when no valuation makes every premise inhabited and the conclusion
    uninhabited; all 2^k valuations are tried, True before False, the
    last metavariable changing fastest.  Every instance depth >= 1
    already contains True and False, so the verdict does not depend on
    instance_depth.  Each valuation is read off the metavariables: the
    propositions are walked as written, with the valuation at hand, and
    no instance of a proposition in the fragment is built.  Only a
    refutation builds its instances: the first refuting valuation is
    shipped with, for each premise, its first canonical witness within
    witness_depth, or a member read off its inhabitation structure when
    the bound holds none.  One tank serves the whole check.  A proposition outside the
    ground fragment (possible only for schemes not built by
    ``parse_rule``) leaves its valuation undecided: the verdict is then
    UNKNOWN, with the first undecided conclusion instantiated in its
    trace, unless another valuation refutes."""
    if instance_depth < 1 or witness_depth < 1:
        raise ValueError("bounds must be >= 1")
    tank = Tank(fuel, strategy)
    undecided: Optional[Term] = None
    checked = 0
    for values in itertools.product(_TRUTH_TERMS, repeat=len(rule.metavariables)):
        valuation = dict(zip(rule.metavariables, values))
        checked += 1
        premises = Inhabitation.INHABITED
        for p in rule.premises:
            premises = _AND[premises, _inhabited(p.a, tank, valuation)]
            if premises is Inhabitation.UNINHABITED:
                break
        if premises is Inhabitation.UNINHABITED:
            continue
        conclusion = _inhabited(rule.conclusion.a, tank, valuation)
        if conclusion is Inhabitation.INHABITED:
            continue
        assignment = {name: _TRUTH_TERMS[v] for name, v in valuation.items()}
        if Inhabitation.DIVERGED in (premises, conclusion):
            return diverged(f"rule instance diverged at [{_render_assignment(assignment)}]")
        if Inhabitation.NOT_GROUND in (premises, conclusion):
            if undecided is None:
                undecided = instantiate(rule.conclusion.a, assignment)
            continue
        return _refutation(assignment, [instantiate(p.a, assignment) for p in rule.premises],
                           instantiate(rule.conclusion.a, assignment),
                           witness_depth, tank)

    bounds = {
        "instance_depth": instance_depth,
        "witness_depth": witness_depth,
        "instantiations": checked,
        "exact": undecided is None,
    }
    if undecided is not None:
        return unknown(
            witness_depth,
            later(lambda: (TraceStep(IsTrue(undecided), "undecided-outside-ground-fragment"),)),
            bounds=bounds,
        )
    return verified(later(lambda: (
        TraceStep(IsTrue(rule.conclusion.a), f"admissible-exact(valuations={checked})"),
    )), bounds=bounds)


def _refutation(
    assignment: Dict[str, Term],
    premise_props: List[Term],
    conclusion_prop: Term,
    witness_depth: int,
    tank: Tank,
) -> Verdict:
    witnesses = []
    for prop in premise_props:
        found = _enumerate(prop, witness_depth, tank).witnesses
        w = found[0] if found else _member(prop, tank)
        if w is None:
            return diverged(f"premise witness diverged: {describe(prop)}")
        witnesses.append(w)
    return refuted(
        later(lambda: tuple([
            TraceStep(IsTrue(prop), f"premise witness {pretty(w)}")
            for prop, w in zip(premise_props, witnesses)
        ]) + (TraceStep(IsTrue(conclusion_prop), "conclusion uninhabited"),)),
        instantiation=assignment,
        premise_witnesses=tuple(witnesses),
    )


def _render_assignment(assignment: Dict[str, Term]) -> str:
    return ", ".join(f"{k} := {pretty(v)}" for k, v in assignment.items())


# -- the joint report -----------------------------------------------------------


class ReadingsReport(Record):
    __slots__ = __match_args__ = ("rule", "derivation", "admissibility")

    @property
    def derivable(self) -> bool:
        return isinstance(self.derivation, Derivation)

    @property
    def flagged(self) -> bool:
        """The interesting quadrant: admissible but not derivable."""
        return (not self.derivable) and self.admissibility.verified

    def render(self) -> str:
        lines = [f"rule: {self.rule.render()}"]
        if self.derivable:
            lines.append("derivable: yes")
            lines.append(self.derivation.render(1))
        else:
            kind = "exhaustive" if self.derivation.exhausted else "cut off"
            lines.append(
                f"derivable: no ({kind} at search depth {self.derivation.at_depth})"
            )
        adm = self.admissibility
        if adm.verified:
            b = adm.bounds or {}
            lines.append(
                "admissible: verified at bound "
                f"(instance depth {b.get('instance_depth')}, "
                f"witness depth {b.get('witness_depth')}); "
                f"exact over all valuations ({b.get('instantiations')} checked)"
            )
        elif adm.refuted:
            inst = _render_assignment(adm.instantiation or {})
            ws = ", ".join(pretty(w) for w in adm.premise_witnesses or ())
            lines.append(f"admissible: refuted at [{inst}]"
                         + (f" with premise witness {ws}" if ws else ""))
        else:
            lines.append(f"admissible: {adm.status.value}")
        if self.flagged:
            lines.append("FLAGGED: admissible but not derivable")
        return "\n".join(lines)


def compare_readings(
    rule: RuleScheme,
    search_depth: int = DEFAULT_SEARCH_DEPTH,
    instance_depth: int = DEFAULT_INSTANCE_DEPTH,
    witness_depth: int = DEFAULT_DEPTH - 1,
    fuel: int = DEFAULT_FUEL,
    strategy: Strategy = CBN,
) -> ReadingsReport:
    """Run both readings and flag the admissible-but-not-derivable quadrant."""
    return ReadingsReport(
        rule,
        derive(rule, search_depth),
        admissible(rule, instance_depth, witness_depth, fuel, strategy),
    )
