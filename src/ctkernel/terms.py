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

from .record import Record, _compile_init, instantiate


_EMPTY: frozenset = frozenset()
# One free-variable set per variable name, shared by every Var of that
# name: a set per occurrence would cost about 200 bytes a node.
_NAME_FV: dict = {}


def _bind(fv: frozenset, binder: str) -> frozenset:
    """``fv`` without ``binder``, which it contains."""
    return fv - {binder} if len(fv) > 1 else _EMPTY


class _Node(Record):
    """Immutable term node: a record whose fields are the constructor
    fields, named in declaration order by the class's ``__slots__`` and
    ``__match_args__``.

    The kernel reads fields by name over ``__match_args__``;
    ``vars(node)`` lists exactly them, through ``__dict__``, a read-only
    view that builds a fresh ``{field: value}`` map.  Beside them, in
    slots of this class: ``fv``, the free variables, computed at
    construction from the children's; and ``_meta``, the pair (hash,
    constructor depth), computed on first use for the node and every
    subterm that lacks it, by a loop rather than recursion, so that
    neither depends on the Python stack.  One slot for the pair keeps a
    node that is never hashed 8 bytes smaller.

    The binder rule: a string field other than ``Var.name`` is a binder,
    and its scope is the field right after it (``Lam``, ``Case``,
    ``Forall`` and ``Exists``).  ``alpha_eq``, ``term_key`` and ``repr``
    (the dataclass ``repr``) are loops over the fields that follow it.
    A subclass that names its fields in ``__match_args__`` gets its
    constructor and its substitution compiled from that list by the same
    rule (``_compile``), a binder field being one named ``binder`` or
    ``*_binder``; ``Var`` writes its own constructor.
    """

    __slots__ = ("fv", "_meta")

    def __init_subclass__(cls, **kw):
        if "__match_args__" in cls.__dict__ and "__init__" not in cls.__dict__:
            cls.__init__, _SUBSTITUTE[cls] = _compile(cls)
        super().__init_subclass__(**kw)

    @property
    def __dict__(self) -> dict:
        return dict(zip(self.__match_args__, self._values()))

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


# The setters of the two slots of every node, each slot descriptor's
# ``__set__``: a record's ``__setattr__`` raises.
_set_fv = _Node.fv.__set__
_set_meta = _Node._meta.__set__


def _fill(t: "_Node") -> None:
    """Cache the hash and constructor depth of ``t`` and of each of its
    subterms that lacks them, children first: a node is filled once no
    child it reads is pushed above it (a subterm shared and pushed twice
    is filled twice, alike)."""
    stack = [t]
    while stack:
        node = stack[-1]
        pending = len(stack)
        key = [type(node)]
        depth = 1
        for f in node.__match_args__:
            v = getattr(node, f)
            if type(v) is str:
                key.append(v)
            elif hasattr(v, "_meta"):
                h, d = v._meta
                key.append(h)
                if d >= depth:
                    depth = d + 1
            else:
                stack.append(v)
        if len(stack) == pending:
            stack.pop()
            _set_meta(node, (hash(tuple(key)), depth))


def _write(t: "_Node", rename: bool) -> str:
    """The dataclass ``repr`` of ``t``, written by a loop.  With
    ``rename``, each binder is written as v0, v1, ... in the order the
    walk reaches it, and so is each variable it binds, while a free
    variable ``x`` is written ``Var(free='x')``, which no bound one
    equals."""
    out = []
    env: dict = {}  # binder -> its new name, or None outside its scope
    free = "free" if rename else "name"
    count = 0
    # An item is a piece of text, a subterm, or a binder with the field
    # it scopes and that field's label; below each scope lies the pair
    # (binder, its new name outside the scope), which puts that back.
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
                stack.append((name, env.get(name)))
                env[name] = f"v{count}"
                count += 1
            out.append(f"{env.get(name, name)!r}{label}")
            stack.append(scope)
            continue
        if type(item) is Var:
            name = env.get(item.name)
            out.append(f"Var(name={name!r})" if name else f"Var({free}={item.name!r})")
            continue
        if not item.__match_args__:
            out.append(f"{type(item).__qualname__}()")
            continue
        out.append(f"{type(item).__qualname__}(")
        parts = []
        sep = ""
        fields = iter(item.__match_args__)
        for f in fields:
            v = getattr(item, f)
            parts.append(f"{sep}{f}=")
            sep = ", "
            if type(v) is str:
                f = next(fields)
                parts.append((v, getattr(item, f), f", {f}="))
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


# The substitution of each node class, for nodes with a free variable:
# never It, True or False.
_SUBSTITUTE: dict = {}


def _compile(cls: type) -> tuple:
    """The ``__init__`` and the substitution of ``cls``, from its fields.

    The constructor is a record's (``record._compile_init``), which sets
    each field through the setter of its slot, followed by the lines that
    set ``fv``, the same way; ``fv`` is the union of the
    subterms' sets, a scope's less its binder.  It reuses an operand that
    already holds the union, so that most nodes share a child's set
    instead of owning a copy (written out, as a call would cost more than
    the test); where a subterm's own set holds the union, the node keeps
    that set, not an equal one made by ``_bind`` or ``|``.  The
    substitution substitutes into each subterm, and under each binder
    into its scope.  The source is the same for every class of one shape
    of fields, and is compiled once."""
    fields = cls.__match_args__
    binds = [f == "binder" or f.endswith("_binder") for f in fields]
    params = [f"_{i}" for i in range(len(fields))]
    init = []
    parts = []
    fv = None  # the variable that holds the union so far
    for i, p in enumerate(params):
        if binds[i]:
            continue
        scoped = i and binds[i - 1]
        parts.append(f"*_under(t._{i - 1}, t.{p}, name, value)" if scoped
                     else f"substitute(t.{p}, name, value)")
        b = f"fv{i}"
        init.append(f"{b} = {p}.fv")
        bind = f"{b} = _bind({b}, _{i - 1})"
        if fv is None:
            init += [f"if _{i - 1} in {b}: {bind}"] if scoped else []
            fv = b
            continue
        # on a tie ``tie`` takes ``b``, the subterm's own set unless
        # ``_bind`` just made it; then ``keep`` keeps the union so far.
        keep = f"{fv} = {fv} if {b} <= {fv} else {b} if {fv} <= {b} else {fv} | {b}"
        tie = f"{fv} = {fv} if {b} < {fv} else {b} if {fv} <= {b} else {fv} | {b}"
        if scoped:
            init.append(f"if _{i - 1} in {b}:\n        {bind}\n        {keep}\n    else: {tie}")
        else:
            init.append(tie)
    init.append(f"_set_fv(self, {fv})")
    return (_compile_init(cls, init, {"_bind": _bind, "_set_fv": _set_fv}),
            instantiate(f"def _substitute(t, name, value):\n"
                        f"    return type(t)({', '.join(parts)})", fields, globals(), cls))


class Var(_Node):
    """Variable occurrence: x"""
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        _set_name(self, name)
        fv = _NAME_FV.get(name)
        if fv is None:
            fv = _NAME_FV[name] = frozenset((name,))
        _set_fv(self, fv)


_set_name = Var.name.__set__


class Lam(_Node):
    """Function witness: lam x. M"""
    __slots__ = __match_args__ = ("binder", "body")


class App(_Node):
    """Application: M N"""
    __slots__ = __match_args__ = ("fn", "arg")


class Pair(_Node):
    """Pair witness: <M, N>"""
    __slots__ = __match_args__ = ("fst", "snd")


class Fst(_Node):
    """First projection: fst M"""
    __slots__ = __match_args__ = ("pair",)


class Snd(_Node):
    """Second projection: snd M"""
    __slots__ = __match_args__ = ("pair",)


class Inl(_Node):
    """Left injection: inl M"""
    __slots__ = __match_args__ = ("arg",)


class Inr(_Node):
    """Right injection: inr M"""
    __slots__ = __match_args__ = ("arg",)


class Case(_Node):
    """Sum eliminator: case M of inl x -> L | inr y -> R"""
    __slots__ = __match_args__ = (
        "scrutinee", "left_binder", "left_body", "right_binder", "right_body")


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
    __slots__ = __match_args__ = ("domain", "binder", "family")


class Exists(_Node):
    """Existential quantifier: exists x : A . B (binder scopes over B)"""
    __slots__ = __match_args__ = ("domain", "binder", "family")


class Disj(_Node):
    """Disjoint union: A \\/ B"""
    __slots__ = __match_args__ = ("left", "right")


Term = Union[
    Var, Lam, App, Pair, Fst, Snd, Inl, Inr, Case,
    It, TTrue, TFalse, Forall, Exists, Disj,
]

IT = It()
TRUE = TTrue()
FALSE = TFalse()


def imp(p: Term, q: Term) -> Term:
    """Implication sugar: a universal quantifier ignoring its binder."""
    return Forall(p, _unused(q), q)


def conj(p: Term, q: Term) -> Term:
    """Conjunction sugar: an existential quantifier ignoring its binder."""
    return Exists(p, _unused(q), q)


def _unused(family: Term) -> str:
    """The binder of sugar over ``family``: ``_``, unless ``_`` is free in it."""
    return fresh_name("_", family.fv) if "_" in family.fv else "_"


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


_SUBSTITUTE[Var] = lambda t, name, value: value


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
        if type(a) is Var:
            x, y = a.name, b.name
            if ea.get(x, x) != eb.get(y, y):
                return False
            continue
        fields = iter(a.__match_args__)
        for f in fields:
            x, y = getattr(a, f), getattr(b, f)
            if type(x) is str:
                f = next(fields)
                stack.append((getattr(a, f), getattr(b, f), k, x, y))
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
    it, so that alpha-equivalent terms get the same key, and each free
    variable written apart from every bound one, so that terms that are
    not alpha-equivalent get different keys, open ones included.

    Used wherever enumerations must be order-canonical.
    """
    return (constructor_depth(t), _write(t, True))


def require_closed(role: str, t: Term) -> None:
    fv = t.fv
    if fv:
        names = ", ".join(sorted(fv))
        raise OpenTermError(f"{role} has free variables: {names}")
