"""Finite Kripke models of expanding knowledge, with a monotonicity checker.

A model is a finite poset of worlds with, for each world and atomic
judgment, a finite set of verification tokens; tokens persist into every
future world (the constructor closes them upward), so atoms are monotone
by construction.

Two readings of "from J1 infer J2" are told apart by where they
quantify:

* ``rule J1 J2`` is valid at a world when the verifications of J1
  available *at that world* can all be transformed into verifications
  of J2 at that world (over finite sets: source empty or target
  non-empty).  Validity in this sense can be destroyed by learning a
  new way to verify J1 later.
* ``hyp J1 J2`` is forced at a world when the transformation exists at
  *every* future world as well, which makes it monotone by definition.

Over finite token sets the intension of the transforming map is
invisible, so existence of a total map is the whole content; the
future-world quantifier is where the two notions genuinely differ.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from .record import Record

_set = object.__setattr__


class Atom(Record):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class RuleValid(Record):
    __slots__ = __match_args__ = ("premise", "conclusion")

    def __init__(self, premise: WJudgment, conclusion: WJudgment):
        _set(self, "premise", premise)
        _set(self, "conclusion", conclusion)


class HypForced(Record):
    __slots__ = __match_args__ = ("premise", "conclusion")

    def __init__(self, premise: WJudgment, conclusion: WJudgment):
        _set(self, "premise", premise)
        _set(self, "conclusion", conclusion)


WJudgment = Union[Atom, RuleValid, HypForced]


def render_wjudgment(j: WJudgment) -> str:
    match j:
        case Atom(n):
            return n
        case RuleValid(p, c):
            return f"rule {_paren(p)} {_paren(c)}"
        case HypForced(p, c):
            return f"hyp {_paren(p)} {_paren(c)}"
    raise TypeError(f"not a judgment: {j!r}")


def _paren(j: WJudgment) -> str:
    s = render_wjudgment(j)
    return s if isinstance(j, Atom) else f"({s})"


def parse_wjudgment(text: str) -> WJudgment:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    j, rest = _parse_wj(tokens)
    if rest:
        raise ValueError(f"trailing input in judgment: {' '.join(rest)}")
    return j


def _parse_wj(tokens: List[str]) -> Tuple[WJudgment, List[str]]:
    if not tokens:
        raise ValueError("expected a judgment")
    head, rest = tokens[0], tokens[1:]
    if head == "(":
        j, rest = _parse_wj(rest)
        if not rest or rest[0] != ")":
            raise ValueError("missing closing parenthesis")
        return j, rest[1:]
    if head in ("rule", "hyp"):
        p, rest = _parse_wj(rest)
        c, rest = _parse_wj(rest)
        ctor = RuleValid if head == "rule" else HypForced
        return ctor(p, c), rest
    if head == ")":
        raise ValueError("unexpected ')'")
    return Atom(head), rest


class ModelError(ValueError):
    pass


class WorldModel(Record):
    """Finite poset of worlds with monotone per-atom verification tokens."""

    __slots__ = __match_args__ = ("worlds", "order", "atoms", "verifications")

    def __init__(
        self,
        worlds: Tuple[str, ...],
        order: FrozenSet[Tuple[str, str]],  # reflexive-transitive, antisymmetric
        atoms: Tuple[str, ...],
        verifications: Dict[Tuple[str, str], FrozenSet[str]],
    ):
        _set(self, "worlds", worlds)
        _set(self, "order", order)
        _set(self, "atoms", atoms)
        _set(self, "verifications", verifications)

    @staticmethod
    def build(
        worlds,
        order_pairs,
        atoms,
        tokens,
    ) -> "WorldModel":
        """Close the order reflexively-transitively (rejecting cycles) and
        the tokens upward, so the monotonicity invariant holds by
        construction."""
        worlds = tuple(sorted(set(worlds)))
        wset = set(worlds)
        atoms = tuple(sorted(set(atoms)))
        for u, v in order_pairs:
            if u not in wset or v not in wset:
                raise ModelError(f"order pair ({u}, {v}) names an unknown world")
        relation = {(w, w) for w in worlds} | {tuple(p) for p in order_pairs}
        changed = True
        while changed:
            changed = False
            for (a, b) in list(relation):
                for (c, d) in list(relation):
                    if b == c and (a, d) not in relation:
                        relation.add((a, d))
                        changed = True
        for u, v in relation:
            if u != v and (v, u) in relation:
                raise ModelError(f"order is not antisymmetric: {u} <= {v} <= {u}")
        verifications: Dict[Tuple[str, str], set] = {
            (w, a): set() for w in worlds for a in atoms
        }
        for (w, a, tok) in tokens:
            if w not in wset:
                raise ModelError(f"verify line names unknown world {w!r}")
            if a not in atoms:
                raise ModelError(f"verify line names unknown atom {a!r}")
            for v in worlds:
                if (w, v) in relation:
                    verifications[(v, a)].add(tok)
        return WorldModel(
            worlds,
            frozenset(relation),
            atoms,
            {k: frozenset(v) for k, v in verifications.items()},
        )

    def leq(self, u: str, v: str) -> bool:
        return (u, v) in self.order

    def future(self, w: str) -> List[str]:
        return [v for v in self.worlds if self.leq(w, v)]

    def tokens(self, w: str, atom: str) -> FrozenSet[str]:
        if atom not in self.atoms:
            raise ModelError(f"unknown atom {atom!r}")
        if w not in self.worlds:
            raise ModelError(f"unknown world {w!r}")
        return self.verifications[(w, atom)]


def parse_model(text: str) -> WorldModel:
    """Model file format: one directive per line.

    ``world u``, ``order u v`` (u below v), ``atom A``,
    ``verify w A token``; ``#`` starts a comment."""
    worlds: List[str] = []
    pairs: List[Tuple[str, str]] = []
    atoms: List[str] = []
    tokens: List[Tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            match parts:
                case ["world", w]:
                    worlds.append(w)
                case ["order", u, v]:
                    pairs.append((u, v))
                case ["atom", a]:
                    atoms.append(a)
                case ["verify", w, a, tok]:
                    tokens.append((w, a, tok))
                case _:
                    raise ModelError(f"unrecognized directive: {line!r}")
        except ModelError as exc:
            raise ModelError(f"line {lineno}: {exc}") from None
    try:
        return WorldModel.build(worlds, pairs, atoms, tokens)
    except ModelError as exc:
        raise ModelError(str(exc)) from None


def forces(model: WorldModel, w: str, j: WJudgment) -> bool:
    """Exhaustive forcing over the finite model."""
    if w not in model.worlds:
        raise ModelError(f"unknown world {w!r}")
    match j:
        case Atom(name):
            return bool(model.tokens(w, name))
        case RuleValid(p, c):
            return not forces(model, w, p) or forces(model, w, c)
        case HypForced(p, c):
            return all(not forces(model, v, p) or forces(model, v, c) for v in model.future(w))
    raise TypeError(f"not a judgment: {j!r}")


def check_monotone(model: WorldModel, j: WJudgment) -> Optional[Tuple[str, str]]:
    """None when forcing persists along the order; else the first pair
    u <= v with the judgment forced at u but not at v."""
    for u in model.worlds:
        if not forces(model, u, j):
            continue
        for v in model.worlds:
            if u != v and model.leq(u, v) and not forces(model, v, j):
                return (u, v)
    return None


def chain_model() -> WorldModel:
    """Two-world chain u <= v; atom A verified only at v, atom B never."""
    return WorldModel.build(
        ["u", "v"], [("u", "v")], ["A", "B"], [("v", "A", "t0")]
    )


def random_model(
    rng: random.Random, max_worlds: int = 6, max_atoms: int = 4
) -> WorldModel:
    """Random finite poset with upward-closed random token assignment."""
    n = rng.randint(2, max_worlds)
    worlds = [f"w{i}" for i in range(n)]
    pairs = [
        (worlds[i], worlds[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    ]
    k = rng.randint(1, max_atoms)
    atoms = [chr(ord("A") + i) for i in range(k)]
    tokens = [
        (w, a, f"t{i}")
        for i, (w, a) in enumerate(
            (w, a) for w in worlds for a in atoms if rng.random() < 0.35
        )
    ]
    return WorldModel.build(worlds, pairs, atoms, tokens)
