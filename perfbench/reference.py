"""Independent references for the benchmark's verdict checks.

Nothing here imports ctkernel.  Terms are plain tuples:

    ("var", x) ("lam", x, body) ("app", f, a) ("pair", l, r) ("fst", p)
    ("snd", p) ("inl", v) ("inr", v) ("case", s, x, l, y, r) ("it",)
    ("true",) ("false",) ("forall", d, x, f) ("exists", d, x, f)
    ("disj", l, r)

``from_kernel`` converts a kernel term by class name and field order, so
the kernel's own substitution, evaluation and checkers are never used to
produce an expected value.  Every decision procedure here is three-valued:
True, False, or None when the input lies outside the fragment the
reference decides.  A definitive kernel verdict fails a check only when
the reference returns the opposite boolean.
"""

from __future__ import annotations

import itertools

IT = ("it",)
TRUE = ("true",)
FALSE = ("false",)
CANONICAL = {"lam", "pair", "inl", "inr", "it", "true", "false", "forall", "exists", "disj"}
FORMERS = {"true", "false", "forall", "exists", "disj"}

_FIELDS = {
    "Var": "var", "Lam": "lam", "App": "app", "Pair": "pair", "Fst": "fst",
    "Snd": "snd", "Inl": "inl", "Inr": "inr", "Case": "case", "It": "it",
    "TTrue": "true", "TFalse": "false", "Forall": "forall", "Exists": "exists",
    "Disj": "disj",
}


def from_kernel(t) -> tuple:
    """Tuple form of a (shallow) kernel term."""
    tag = _FIELDS[type(t).__name__]
    fields = []
    for value in vars(t).values():
        fields.append(value if isinstance(value, str) else from_kernel(value))
    return (tag, *fields)


def imp(a, b):
    return ("forall", a, "_", b)


def conj(a, b):
    return ("exists", a, "_", b)


# -- closed-term evaluation --------------------------------------------------


class Stuck(Exception):
    pass


class OutOfFuel(Exception):
    pass


def free_in(x: str, t: tuple) -> bool:
    match t:
        case ("var", y):
            return x == y
        case ("lam", b, body):
            return b != x and free_in(x, body)
        case ("case", s, lb, lbody, rb, rbody):
            return (free_in(x, s) or (lb != x and free_in(x, lbody))
                    or (rb != x and free_in(x, rbody)))
        case ("forall" | "exists", d, b, f):
            return free_in(x, d) or (b != x and free_in(x, f))
    return any(free_in(x, c) for c in t[1:] if isinstance(c, tuple))


def subst(t: tuple, x: str, v: tuple) -> tuple:
    """t[v/x] for a closed v: no binder can capture, so none is renamed."""
    match t:
        case ("var", y):
            return v if y == x else t
        case ("lam", b, body):
            return t if b == x else ("lam", b, subst(body, x, v))
        case ("case", s, lb, lbody, rb, rbody):
            return ("case", subst(s, x, v),
                    lb, lbody if lb == x else subst(lbody, x, v),
                    rb, rbody if rb == x else subst(rbody, x, v))
        case ("forall" | "exists", d, b, f):
            return (t[0], subst(d, x, v), b, f if b == x else subst(f, x, v))
    return (t[0], *(subst(c, x, v) if isinstance(c, tuple) else c for c in t[1:]))


def whnf(t: tuple, fuel: list) -> tuple:
    """Call-by-name weak head evaluation of a closed term; ``fuel`` is a
    one-element budget list shared across a whole decision."""
    while t[0] not in CANONICAL:
        if fuel[0] <= 0:
            raise OutOfFuel()
        fuel[0] -= 1
        match t:
            case ("app", f, a):
                fv = whnf(f, fuel)
                if fv[0] != "lam":
                    raise Stuck()
                t = subst(fv[2], fv[1], a)
            case ("fst" | "snd", p):
                pv = whnf(p, fuel)
                if pv[0] != "pair":
                    raise Stuck()
                t = pv[1] if t[0] == "fst" else pv[2]
            case ("case", s, lb, lbody, rb, rbody):
                sv = whnf(s, fuel)
                if sv[0] == "inl":
                    t = subst(lbody, lb, sv[1])
                elif sv[0] == "inr":
                    t = subst(rbody, rb, sv[1])
                else:
                    raise Stuck()
            case _:
                raise Stuck()
    return t


def _and3(values) -> bool | None:
    out = True
    for v in values:
        if v is False:
            return False
        if v is None:
            out = None
    return out


def _guard(fn):
    """Map evaluation that runs out of fuel to 'undecided'."""
    def wrapped(*args, fuel=None):
        try:
            return fn(*args, [10000] if fuel is None else fuel)
        except OutOfFuel:
            return None
    wrapped.__name__ = fn.__name__
    wrapped.__doc__ = fn.__doc__
    return wrapped


# -- the ground fragment -----------------------------------------------------


def _truth(a: tuple, fuel: list) -> bool | None:
    """Classical truth value of a non-dependent ground type (inhabitation
    of the ground fragment is two-valued and compositional)."""
    try:
        a = whnf(a, fuel)
    except Stuck:
        return None
    match a:
        case ("true",):
            return True
        case ("false",):
            return False
        case ("disj", l, r):
            tl, tr = _truth(l, fuel), _truth(r, fuel)
            if tl or tr:
                return True
            return None if None in (tl, tr) else False
        case ("exists" | "forall", d, b, f):
            if free_in(b, f):
                return None
            td, tf = _truth(d, fuel), _truth(f, fuel)
            if a[0] == "exists":
                return _and3((td, tf))
            if td is False or tf is True:
                return True
            return None if None in (td, tf) else False
    return None


def _values(a: tuple, fuel: list) -> list | None:
    """All deep values of a first-order type (no function witnesses), as
    closed canonical tuples; None outside that fragment."""
    try:
        a = whnf(a, fuel)
    except Stuck:
        return None
    match a:
        case ("true",):
            return [IT]
        case ("false",):
            return []
        case ("disj", l, r):
            vl, vr = _values(l, fuel), _values(r, fuel)
            if vl is None or vr is None:
                return None
            return [("inl", v) for v in vl] + [("inr", v) for v in vr]
        case ("exists", d, b, f):
            vd = _values(d, fuel)
            if vd is None:
                return None
            out = []
            for x in vd:
                vf = _values(subst(f, b, x), fuel)
                if vf is None:
                    return None
                out.extend(("pair", x, y) for y in vf)
            return out
    return None


def _member(m: tuple, a: tuple, fuel: list) -> bool | None:
    try:
        a = whnf(a, fuel)
    except Stuck:
        return False
    try:
        m = whnf(m, fuel)
    except Stuck:
        return False
    match a:
        case ("true",):
            return m == IT
        case ("false",):
            return False
        case ("disj", l, r):
            if m[0] == "inl":
                return _member(m[1], l, fuel)
            if m[0] == "inr":
                return _member(m[1], r, fuel)
            return False
        case ("exists", d, b, f):
            if m[0] != "pair":
                return False
            return _and3((_member(m[1], d, fuel), _member(m[2], subst(f, b, m[1]), fuel)))
        case ("forall", d, b, f):
            if m[0] != "lam":
                return False
            y, body = m[1], m[2]
            if _truth(d, fuel) is False:
                return True
            vd = _values(d, fuel)
            if vd is not None:
                return _and3(_member(subst(body, y, v), subst(f, b, v), fuel) for v in vd)
            if _truth(d, fuel) and not free_in(y, body) and not free_in(b, f):
                return _member(body, f, fuel)
            return None
    return False


def _eq_member(m: tuple, n: tuple, a: tuple, fuel: list) -> bool | None:
    try:
        a = whnf(a, fuel)
    except Stuck:
        return False
    if a[0] in ("forall", "exists") and free_in(a[2], a[3]):
        return None
    try:
        m, n = whnf(m, fuel), whnf(n, fuel)
    except Stuck:
        return False
    match a:
        case ("true",):
            return m == IT and n == IT
        case ("false",):
            return False
        case ("disj", l, r):
            if m[0] == n[0] == "inl":
                return _eq_member(m[1], n[1], l, fuel)
            if m[0] == n[0] == "inr":
                return _eq_member(m[1], n[1], r, fuel)
            return False
        case ("exists", d, _, f):
            if not m[0] == n[0] == "pair":
                return False
            return _and3((_eq_member(m[1], n[1], d, fuel), _eq_member(m[2], n[2], f, fuel)))
        case ("forall", d, _, f):
            if not m[0] == n[0] == "lam":
                return False
            if _truth(d, fuel) is False:
                return True
            vd = _values(d, fuel)
            if vd is not None:
                # first-order domains relate each value only to itself
                return _and3(
                    _eq_member(subst(m[2], m[1], v), subst(n[2], n[1], v), f, fuel)
                    for v in vd
                )
            if _truth(d, fuel) and not free_in(m[1], m[2]) and not free_in(n[1], n[2]):
                return _eq_member(m[2], n[2], f, fuel)
            return None
    return False


_SHAPE = {"true": "it", "disj": "inj", "exists": "pair", "forall": "lam"}


def _eq_set(a: tuple, b: tuple, fuel: list) -> bool | None:
    """Do two non-dependent ground types denote the same relation of
    canonical witnesses?  Empty relations are equal whatever the
    formers; inhabited ones must share a witness shape and compare
    componentwise."""
    try:
        a, b = whnf(a, fuel), whnf(b, fuel)
    except Stuck:
        return False
    if a[0] not in FORMERS or b[0] not in FORMERS:
        return False
    ta, tb = _truth(a, fuel), _truth(b, fuel)
    if ta is None or tb is None:
        return None
    if not ta and not tb:
        return True
    if ta != tb or _SHAPE[a[0]] != _SHAPE[b[0]]:
        return False
    match a[0]:
        case "true":
            return True
        case "disj":
            return _and3((_eq_set(a[1], b[1], fuel), _eq_set(a[2], b[2], fuel)))
        case "exists":
            return _and3((_eq_set(a[1], b[1], fuel), _eq_set(a[3], b[3], fuel)))
    # both implications are inhabited
    da, db = _truth(a[1], fuel), _truth(b[1], fuel)
    if not da and not db:
        return True
    if da != db:
        return False
    if _eq_set(a[1], b[1], fuel) is True:
        return _eq_set(a[3], b[3], fuel)
    return None


def _empty_mismatch(a: tuple, b: tuple, fuel: list) -> bool:
    """Descending through matching formers, do we reach two uninhabited
    types that differ syntactically?  Their relations are equal (empty)
    although a component-by-component comparison sees different types."""
    if _truth(a, fuel) is False and _truth(b, fuel) is False and not alpha_eq(a, b):
        return True
    if a[0] != b[0] or a[0] not in ("disj", "exists", "forall"):
        return False
    i, j = (1, 2) if a[0] == "disj" else (1, 3)
    return _empty_mismatch(a[i], b[i], fuel) or _empty_mismatch(a[j], b[j], fuel)


def _is_set(a: tuple, fuel: list) -> bool | None:
    try:
        a = whnf(a, fuel)
    except Stuck:
        return False
    match a:
        case ("true",) | ("false",):
            return True
        case ("disj", l, r):
            return _and3((_is_set(l, fuel), _is_set(r, fuel)))
        case ("forall" | "exists", d, b, f):
            sd = _is_set(d, fuel)
            if sd is not True:
                return sd
            if not free_in(b, f):
                return _is_set(f, fuel)
            vd = _values(d, fuel)
            if vd is None:
                return None
            return _and3(_is_set(subst(f, b, v), fuel) for v in vd)
    return False


truth = _guard(_truth)
values = _guard(_values)
member = _guard(_member)
eq_member = _guard(_eq_member)
eq_set = _guard(_eq_set)
empty_mismatch = _guard(_empty_mismatch)
is_set = _guard(_is_set)


def alpha_eq(a: tuple, b: tuple) -> bool:
    """Equality up to renaming of bound variables (de Bruijn comparison)."""
    def norm(t, env):
        match t:
            case ("var", x):
                return ("var", env.get(x, x))
            case ("lam", x, body):
                return ("lam", norm(body, {**env, x: len(env)}))
            case ("case", s, x, l, y, r):
                return ("case", norm(s, env), norm(l, {**env, x: len(env)}),
                        norm(r, {**env, y: len(env)}))
            case ("forall" | "exists", d, x, f):
                return (t[0], norm(d, env), norm(f, {**env, x: len(env)}))
        return (t[0], *(norm(c, env) for c in t[1:]))
    return norm(a, {}) == norm(b, {})


# -- rendering (the concrete syntax of the README) ---------------------------


def render(t: tuple) -> str:
    """Fully parenthesised concrete syntax for a tuple term."""
    match t:
        case ("var", x):
            return x
        case ("it",):
            return "it"
        case ("true",):
            return "True"
        case ("false",):
            return "False"
        case ("lam", x, body):
            return f"(lam {x}. {render(body)})"
        case ("app", f, a):
            return f"({render(f)} {render(a)})"
        case ("pair", l, r):
            return f"<{render(l)}, {render(r)}>"
        case ("fst" | "snd" | "inl" | "inr", p):
            return f"({t[0]} {render(p)})"
        case ("case", s, x, l, y, r):
            return f"(case {render(s)} of inl {x} -> {render(l)} | inr {y} -> {render(r)})"
        case ("forall", d, "_", f):
            return f"({render(d)} => {render(f)})"
        case ("exists", d, "_", f):
            return f"({render(d)} /\\ {render(f)})"
        case ("forall" | "exists", d, x, f):
            return f"({t[0]} {x} : {render(d)} . {render(f)})"
        case ("disj", l, r):
            return f"({render(l)} \\/ {render(r)})"
    raise TypeError(f"not a term: {t!r}")


def value_tokens(text: str) -> list:
    """Token list of a printed canonical value with parentheses and
    spacing dropped, so two printers agree on it."""
    out, word = [], ""
    for c in text:
        if c.isalnum() or c == "_":
            word += c
            continue
        if word:
            out.append(word)
            word = ""
        if c in "<>,":
            out.append(c)
    if word:
        out.append(word)
    return out


# -- propositional rules -----------------------------------------------------
# Propositions: ("mv", name), TRUE, FALSE, ("and", p, q), ("or", p, q),
# ("imp", p, q).


def prop_render(p: tuple) -> str:
    match p:
        case ("mv", name):
            return name
        case ("true",):
            return "True"
        case ("false",):
            return "False"
        case ("and", a, b):
            return f"({prop_render(a)} /\\ {prop_render(b)})"
        case ("or", a, b):
            return f"({prop_render(a)} \\/ {prop_render(b)})"
        case ("imp", a, b):
            return f"({prop_render(a)} => {prop_render(b)})"
    raise TypeError(f"not a proposition: {p!r}")


def metavariables(props) -> list:
    seen = []

    def go(p):
        if p[0] == "mv":
            if p[1] not in seen:
                seen.append(p[1])
        else:
            for c in p[1:]:
                go(c)

    for p in props:
        go(p)
    return seen


def prop_value(p: tuple, valuation: dict) -> bool:
    match p:
        case ("mv", name):
            return valuation[name]
        case ("true",):
            return True
        case ("false",):
            return False
        case ("and", a, b):
            return prop_value(a, valuation) and prop_value(b, valuation)
        case ("or", a, b):
            return prop_value(a, valuation) or prop_value(b, valuation)
        case ("imp", a, b):
            return (not prop_value(a, valuation)) or prop_value(b, valuation)
    raise TypeError(f"not a proposition: {p!r}")


def admissible_by_truth_table(premises, conclusion) -> bool:
    """A scheme is admissible iff no valuation in {T,F}^k makes every
    premise true and the conclusion false."""
    names = metavariables([*premises, conclusion])
    for bits in itertools.product((True, False), repeat=len(names)):
        val = dict(zip(names, bits))
        if all(prop_value(p, val) for p in premises) and not prop_value(conclusion, val):
            return False
    return True


def derivable(premises, conclusion, search_depth: int) -> bool:
    """Goal-directed search in the introduction-only calculus with the
    hypothesis rule: a goal closes when it is a hypothesis or True, and
    otherwise only its introduction rule applies, one depth unit each."""
    def search(hyps, goal, budget):
        if goal in hyps or goal == TRUE:
            return True
        if budget <= 0:
            return False
        match goal:
            case ("and", a, b):
                return search(hyps, a, budget - 1) and search(hyps, b, budget - 1)
            case ("or", a, b):
                return search(hyps, a, budget - 1) or search(hyps, b, budget - 1)
            case ("imp", a, b):
                return search(hyps | {a}, b, budget - 1)
        return False

    return search(frozenset(premises), conclusion, search_depth)


# -- finite Kripke models ----------------------------------------------------
# Judgments: ("atom", A), ("rule", j1, j2), ("hyp", j1, j2).


def wj_render(j: tuple) -> str:
    if j[0] == "atom":
        return j[1]
    return f"{j[0]} ({wj_render(j[1])}) ({wj_render(j[2])})"


def kripke_monotone(worlds, leq, tokens, j) -> bool:
    """Does forcing of j persist along the (reflexive, transitive) order?
    ``leq`` is a set of pairs, ``tokens`` maps (world, atom) to a set."""
    def count(w, j):
        if j[0] == "atom":
            return len(tokens.get((w, j[1]), ()))
        return 1 if forced(w, j) else 0

    def forced(w, j):
        if j[0] == "atom":
            return count(w, j) > 0
        if j[0] == "rule":
            return count(w, j[1]) == 0 or count(w, j[2]) > 0
        return all(count(v, j[1]) == 0 or count(v, j[2]) > 0
                   for v in worlds if (w, v) in leq)

    return all(forced(v, j) for u in worlds if forced(u, j)
               for v in worlds if (u, v) in leq)
