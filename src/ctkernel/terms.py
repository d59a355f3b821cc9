"""Term language shared by witnesses and types.

A single untyped tree covers both: type formers are ordinary terms that
evaluate like programs, which is what lets a dependent family compute
once a witness has been substituted into it.  Introduction forms and
type formers are canonical; the eliminators (App, Fst, Snd, Case) and
variables are not.

Implication and conjunction are surface sugar only: ``A => B`` is a
universal quantifier that ignores its binder, ``A /\\ B`` an existential
that ignores its binder.  The parser expands them and the printer folds
them back.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Optional, Union


_set = object.__setattr__
_EMPTY: frozenset = frozenset()
# One free-variable set per variable name, shared by every Var of that
# name: a set per occurrence would cost about 200 bytes a node.
_NAME_FV: dict = {}


# The constructors reuse an operand when it already holds the union, so
# that most nodes share their children's set instead of owning a copy:
#     a if b <= a else b if a <= b else a | b
# (written out in each, as a call would cost more than the test).


def _bind(fv: frozenset, binder: str) -> frozenset:
    """``fv`` without ``binder``, which it contains."""
    return fv - {binder} if len(fv) > 1 else _EMPTY


class _Node:
    """Immutable term node.

    The constructor fields live in the instance ``__dict__``, in
    declaration order, so ``vars(node)`` lists exactly them.  Beside them,
    in slots: ``fv``, the free variables, computed at construction from
    the children's; and ``_meta``, the pair (hash, constructor depth),
    computed on first use for the node and every subterm that lacks it,
    by a loop rather than recursion, so that neither depends on the
    Python stack.  One slot for the pair keeps a node that is never
    hashed 8 bytes smaller.

    The binder rule: a string field other than ``Var.name`` is a binder,
    and its scope is the field right after it (``Lam``, ``Case``,
    ``Forall`` and ``Exists``).  ``alpha_eq``, ``term_key`` and ``repr``
    (the dataclass ``repr``) are loops over the fields that follow it.
    """

    __slots__ = ("fv", "_meta", "__dict__")
    __match_args__: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        try:
            if self._meta[0] != other._meta[0]:
                return False
        except AttributeError:
            pass
        return _equal(self, other)

    def __hash__(self):
        try:
            return self._meta[0]
        except AttributeError:
            _fill(self)
            return self._meta[0]

    def __repr__(self):
        return _write(self, False)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


def _fill(t: "_Node") -> None:
    """Cache the hash and constructor depth of ``t`` and of each of its
    subterms that lacks them, children first."""
    stack = [t]
    while stack:
        node = stack[-1]
        fields = [getattr(node, f) for f in node.__match_args__]
        todo = [v for v in fields if type(v) is not str and not hasattr(v, "_meta")]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        if hasattr(node, "_meta"):
            continue  # a shared subterm, pushed twice
        key = [type(node)]
        depth = 1
        for v in fields:
            if type(v) is str:
                key.append(v)
            else:
                h, d = v._meta
                key.append(h)
                if d >= depth:
                    depth = d + 1
        _set(node, "_meta", (hash(tuple(key)), depth))


def _write(t: "_Node", rename: bool) -> str:
    """The dataclass ``repr`` of ``t``, written by a loop.  With
    ``rename``, each binder is written as v0, v1, ... in the order the
    walk reaches it, and so is each variable it binds."""
    out = []
    env: dict = {}
    count = 0
    # An item is a piece of text, a subterm, or a binder with the field
    # it scopes and that field's label; below each scope lies the pair
    # (binder, its name outside the scope), which puts that name back.
    stack = [t]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        if type(item) is tuple:
            if len(item) == 2:
                env[item[0]] = item[1]
                continue
            name, scope, label = item
            if rename:
                stack.append((name, env.get(name, name)))
                env[name] = f"v{count}"
                count += 1
            out.append(f"{env.get(name, name)!r}{label}")
            stack.append(scope)
            continue
        fields = vars(item)
        if type(item) is Var:
            name = fields["name"]
            out.append(f"Var(name={env.get(name, name)!r})")
            continue
        if not fields:
            out.append(f"{type(item).__qualname__}()")
            continue
        out.append(f"{type(item).__qualname__}(")
        parts = []
        sep = ""
        values = iter(fields.items())
        for f, v in values:
            parts.append(f"{sep}{f}=")
            sep = ", "
            if type(v) is str:
                g, scope = next(values)
                parts.append((v, scope, f", {g}="))
            else:
                parts.append(v)
        parts.append(")")
        stack.extend(reversed(parts))
    return "".join(out)


def _equal(a: "_Node", b: "_Node") -> bool:
    """Field-by-field equality of two terms, without recursion."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return False
        for f in a.__match_args__:
            x, y = getattr(a, f), getattr(b, f)
            if type(x) is str:
                if x != y:
                    return False
            else:
                stack.append((x, y))
    return True


class Var(_Node):
    """Variable occurrence: x"""
    __slots__ = ()
    __match_args__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)
        fv = _NAME_FV.get(name)
        if fv is None:
            fv = _NAME_FV[name] = frozenset((name,))
        _set(self, "fv", fv)


class Lam(_Node):
    """Function witness: lam x. M"""
    __slots__ = ()
    __match_args__ = ("binder", "body")

    def __init__(self, binder: str, body: "Term"):
        _set(self, "binder", binder)
        _set(self, "body", body)
        fv = body.fv
        _set(self, "fv", _bind(fv, binder) if binder in fv else fv)


class App(_Node):
    """Application: M N"""
    __slots__ = ()
    __match_args__ = ("fn", "arg")

    def __init__(self, fn: "Term", arg: "Term"):
        _set(self, "fn", fn)
        _set(self, "arg", arg)
        a, b = fn.fv, arg.fv
        _set(self, "fv", a if b <= a else b if a <= b else a | b)


class Pair(_Node):
    """Pair witness: <M, N>"""
    __slots__ = ()
    __match_args__ = ("fst", "snd")

    def __init__(self, fst: "Term", snd: "Term"):
        _set(self, "fst", fst)
        _set(self, "snd", snd)
        a, b = fst.fv, snd.fv
        _set(self, "fv", a if b <= a else b if a <= b else a | b)


class Fst(_Node):
    """First projection: fst M"""
    __slots__ = ()
    __match_args__ = ("pair",)

    def __init__(self, pair: "Term"):
        _set(self, "pair", pair)
        _set(self, "fv", pair.fv)


class Snd(_Node):
    """Second projection: snd M"""
    __slots__ = ()
    __match_args__ = ("pair",)

    def __init__(self, pair: "Term"):
        _set(self, "pair", pair)
        _set(self, "fv", pair.fv)


class Inl(_Node):
    """Left injection: inl M"""
    __slots__ = ()
    __match_args__ = ("arg",)

    def __init__(self, arg: "Term"):
        _set(self, "arg", arg)
        _set(self, "fv", arg.fv)


class Inr(_Node):
    """Right injection: inr M"""
    __slots__ = ()
    __match_args__ = ("arg",)

    def __init__(self, arg: "Term"):
        _set(self, "arg", arg)
        _set(self, "fv", arg.fv)


class Case(_Node):
    """Sum eliminator: case M of inl x -> L | inr y -> R"""
    __slots__ = ()
    __match_args__ = ("scrutinee", "left_binder", "left_body", "right_binder", "right_body")

    def __init__(self, scrutinee: "Term", left_binder: str, left_body: "Term",
                 right_binder: str, right_body: "Term"):
        _set(self, "scrutinee", scrutinee)
        _set(self, "left_binder", left_binder)
        _set(self, "left_body", left_body)
        _set(self, "right_binder", right_binder)
        _set(self, "right_body", right_body)
        a, b, c = scrutinee.fv, left_body.fv, right_body.fv
        if left_binder in b:
            b = _bind(b, left_binder)
        if right_binder in c:
            c = _bind(c, right_binder)
        if not b <= a:
            a = b if a <= b else a | b
        _set(self, "fv", a if c <= a else c if a <= c else a | c)


class It(_Node):
    """The trivial witness: it"""
    __slots__ = ()
    fv = _EMPTY


class TTrue(_Node):
    """The trivially verified type: True"""
    __slots__ = ()
    fv = _EMPTY


class TFalse(_Node):
    """The empty type: False"""
    __slots__ = ()
    fv = _EMPTY


class Forall(_Node):
    """Universal quantifier: forall x : A . B (binder scopes over B)"""
    __slots__ = ()
    __match_args__ = ("domain", "binder", "family")

    def __init__(self, domain: "Term", binder: str, family: "Term"):
        _set(self, "domain", domain)
        _set(self, "binder", binder)
        _set(self, "family", family)
        a, b = domain.fv, family.fv
        if binder in b:
            b = _bind(b, binder)
        _set(self, "fv", a if b <= a else b if a <= b else a | b)


class Exists(_Node):
    """Existential quantifier: exists x : A . B (binder scopes over B)"""
    __slots__ = ()
    __match_args__ = ("domain", "binder", "family")

    def __init__(self, domain: "Term", binder: str, family: "Term"):
        _set(self, "domain", domain)
        _set(self, "binder", binder)
        _set(self, "family", family)
        a, b = domain.fv, family.fv
        if binder in b:
            b = _bind(b, binder)
        _set(self, "fv", a if b <= a else b if a <= b else a | b)


class Disj(_Node):
    """Disjoint union: A \\/ B"""
    __slots__ = ()
    __match_args__ = ("left", "right")

    def __init__(self, left: "Term", right: "Term"):
        _set(self, "left", left)
        _set(self, "right", right)
        a, b = left.fv, right.fv
        _set(self, "fv", a if b <= a else b if a <= b else a | b)


Term = Union[
    Var, Lam, App, Pair, Fst, Snd, Inl, Inr, Case,
    It, TTrue, TFalse, Forall, Exists, Disj,
]

IT = It()
TRUE = TTrue()
FALSE = TFalse()


def imp(p: Term, q: Term) -> Term:
    """Implication sugar: a universal quantifier ignoring its binder."""
    return Forall(p, "_", q)


def conj(p: Term, q: Term) -> Term:
    """Conjunction sugar: an existential quantifier ignoring its binder."""
    return Exists(p, "_", q)


class OpenTermError(ValueError):
    """Raised when a semantic check receives a term with free variables."""


class CanonicalForm(Enum):
    """The canonical shapes: introduction forms and type formers."""

    IT = "it"
    LAM = "lam"
    PAIR = "pair"
    INL = "inl"
    INR = "inr"
    TRUE = "True"
    FALSE = "False"
    FORALL = "forall"
    EXISTS = "exists"
    DISJ = "disj"


_CANONICAL_TAGS = {
    It: CanonicalForm.IT,
    Lam: CanonicalForm.LAM,
    Pair: CanonicalForm.PAIR,
    Inl: CanonicalForm.INL,
    Inr: CanonicalForm.INR,
    TTrue: CanonicalForm.TRUE,
    TFalse: CanonicalForm.FALSE,
    Forall: CanonicalForm.FORALL,
    Exists: CanonicalForm.EXISTS,
    Disj: CanonicalForm.DISJ,
}

_TYPE_FORMERS = (TTrue, TFalse, Forall, Exists, Disj)


def classify(t: Term) -> Optional[CanonicalForm]:
    """Canonical shape of ``t``, or None for eliminators and variables."""
    return _CANONICAL_TAGS.get(type(t))


def is_canonical(t: Term) -> bool:
    return type(t) in _CANONICAL_TAGS


def is_type_former(t: Term) -> bool:
    return isinstance(t, _TYPE_FORMERS)


def free_vars(t: Term) -> frozenset:
    """The free variables of ``t``, as its node carries them."""
    return t.fv


def is_closed(t: Term) -> bool:
    return not t.fv


def fresh_name(base: str, avoid) -> str:
    stem = base.rstrip("0123456789") or base
    for i in itertools.count(1):
        candidate = f"{stem}{i}"
        if candidate not in avoid:
            return candidate
    raise AssertionError("unreachable")


def _under(binder: str, body: Term, name: str, value: Term):
    """Substitute into the scope of a binder: (binder, body) afterwards.
    The binder is renamed when it would capture a free variable of value."""
    if binder == name or name not in body.fv:
        return binder, body
    if binder in value.fv:
        fresh = fresh_name(binder, value.fv | body.fv | {binder})
        binder, body = fresh, substitute(body, binder, Var(fresh))
    return binder, substitute(body, name, value)


def substitute(t: Term, name: str, value: Term) -> Term:
    """Replace free occurrences of ``name`` in ``t`` by ``value``, avoiding capture."""
    if name not in t.fv:
        return t
    return _SUBSTITUTE[type(t)](t, name, value)


def _sub_lam(t: Lam, name: str, value: Term) -> Term:
    return Lam(*_under(t.binder, t.body, name, value))


def _sub_app(t: App, name: str, value: Term) -> Term:
    return App(substitute(t.fn, name, value), substitute(t.arg, name, value))


def _sub_pair(t: Pair, name: str, value: Term) -> Term:
    return Pair(substitute(t.fst, name, value), substitute(t.snd, name, value))


def _sub_case(t: Case, name: str, value: Term) -> Term:
    return Case(substitute(t.scrutinee, name, value),
                *_under(t.left_binder, t.left_body, name, value),
                *_under(t.right_binder, t.right_body, name, value))


def _sub_quantifier(t, name: str, value: Term) -> Term:
    return type(t)(substitute(t.domain, name, value),
                   *_under(t.binder, t.family, name, value))


def _sub_disj(t: Disj, name: str, value: Term) -> Term:
    return Disj(substitute(t.left, name, value), substitute(t.right, name, value))


# Only nodes with a free variable are dispatched: never It, True or False.
_SUBSTITUTE = {
    Var: lambda t, name, value: value,
    Lam: _sub_lam,
    App: _sub_app,
    Pair: _sub_pair,
    Fst: lambda t, name, value: Fst(substitute(t.pair, name, value)),
    Snd: lambda t, name, value: Snd(substitute(t.pair, name, value)),
    Inl: lambda t, name, value: Inl(substitute(t.arg, name, value)),
    Inr: lambda t, name, value: Inr(substitute(t.arg, name, value)),
    Case: _sub_case,
    Forall: _sub_quantifier,
    Exists: _sub_quantifier,
    Disj: _sub_disj,
}


def alpha_eq(a: Term, b: Term) -> bool:
    """Identity up to consistent renaming of bound variables.

    A bound variable is read as the level of its binder, a free one as
    its name; the walk keeps one binder-to-level map per side, and an
    item below each scope restores both maps when the scope is done."""
    ea: dict = {}
    eb: dict = {}
    # An item (a, b, k, x, y) compares a and b at level k, where a is the
    # scope of binder x and b of binder y unless these are None.  Below
    # each scope lies (None, x, ea[x], y, eb[y]) as they were outside it,
    # which puts them back.
    stack = [(a, b, 0, None, None)]
    while stack:
        a, b, k, x, y = stack.pop()
        if a is None:
            ea[b], eb[x] = k, y
            continue
        if x is not None:
            stack.append((None, x, ea.get(x, x), y, eb.get(y, y)))
            ea[x] = eb[y] = k
            k += 1
        if type(a) is not type(b):
            return False
        if a is b and not a.fv:
            continue
        fa, fb = vars(a), vars(b)
        if type(a) is Var:
            x, y = fa["name"], fb["name"]
            if ea.get(x, x) != eb.get(y, y):
                return False
            continue
        ia, ib = iter(fa.values()), iter(fb.values())
        for x, y in zip(ia, ib):
            if type(x) is str:
                stack.append((next(ia), next(ib), k, x, y))
            else:
                stack.append((x, y, k, None, None))
    return True


def constructor_depth(t: Term) -> int:
    """Nesting depth counting one per tree constructor (leaves count 1)."""
    try:
        return t._meta[1]
    except AttributeError:
        _fill(t)
        return t._meta[1]


def term_key(t: Term):
    """Total order on terms: constructor depth, then the tree written
    with every binder renamed v0, v1, ... in the order the walk reaches
    it, so that alpha-equivalent terms get the same key.  Free variables
    keep their names, so the key tells terms apart up to alpha only when
    no free name has the form v<n>.

    Used wherever enumerations must be order-canonical.
    """
    return (constructor_depth(t), _write(t, True))


def require_closed(role: str, t: Term) -> None:
    fv = t.fv
    if fv:
        names = ", ".join(sorted(fv))
        raise OpenTermError(f"{role} has free variables: {names}")
