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

from typing import Dict, FrozenSet, List, Optional, Protocol, Tuple, Union

from .record import Record


class Atom(Record):
    __slots__ = __match_args__ = ("name",)


class RuleValid(Record):
    __slots__ = __match_args__ = ("premise", "conclusion")


class HypForced(Record):
    __slots__ = __match_args__ = ("premise", "conclusion")


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
    """Finite poset of worlds with monotone per-atom verification tokens;
    ``order`` is a reflexive-transitive, antisymmetric set of pairs."""

    __slots__ = __match_args__ = ("worlds", "order", "atoms", "verifications")

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
        successors: Dict[str, List[str]] = {w: [] for w in worlds}
        for u, v in order_pairs:
            successors[u].append(v)
        # the worlds above each world: those reached over the given pairs
        above: Dict[str, set] = {}
        for w in worlds:
            reached, stack = {w}, [w]
            while stack:
                for v in successors[stack.pop()]:
                    if v not in reached:
                        reached.add(v)
                        stack.append(v)
            above[w] = reached
        # the first offending pair in the order of the worlds, whatever
        # the order of iteration of the sets
        for u in worlds:
            for v in worlds:
                if u != v and v in above[u] and u in above[v]:
                    raise ModelError(f"order is not antisymmetric: {u} <= {v} <= {u}")
        relation = {(w, v) for w in worlds for v in above[w]}
        verifications: Dict[Tuple[str, str], set] = {
            (w, a): set() for w in worlds for a in atoms
        }
        for (w, a, tok) in tokens:
            if w not in wset:
                raise ModelError(f"verify line names unknown world {w!r}")
            if a not in atoms:
                raise ModelError(f"verify line names unknown atom {a!r}")
            for v in above[w]:
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
    return WorldModel.build(worlds, pairs, atoms, tokens)


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


class Rng(Protocol):
    """What ``random_model`` draws from; a ``random.Random`` will do."""
    def randint(self, a: int, b: int) -> int: ...
    def random(self) -> float: ...


def random_model(rng: Rng, max_worlds: int = 6, max_atoms: int = 4) -> WorldModel:
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
