"""The base of the kernel's small value classes: verdicts, traces,
statement forms, evaluation results, rule reports, world models and the
run settings."""

from __future__ import annotations

from types import FunctionType


class Record:
    """An immutable value whose fields are the slots named, in order, in
    ``__match_args__``.

    A subclass declares ``__slots__ = __match_args__ = (...)`` and, for
    trailing fields with defaults, ``_defaults = {field: value}``; its
    ``__init__`` is then compiled from that list, with one
    ``object.__setattr__`` per field (a loop over the fields would cost
    over twice as much on the classes built on every check).  A class
    that writes its own ``__init__`` keeps it, and one that declares no
    fields (an abstract base) gets none.

    Equality, hash, ``repr`` and pickling are those of a frozen dataclass
    with these fields: the ``repr`` of a verdict is part of its recorded
    output.
    """

    __slots__ = ()
    __match_args__: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        if "__match_args__" in cls.__dict__ and "__init__" not in cls.__dict__:
            cls.__init__ = _compile_init(cls)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


_SET = {"_set": object.__setattr__}
_TEMPLATES: dict = {}  # number of fields n -> code of __init__(self, _0, ..., _n-1)


def _compile_init(cls: type) -> FunctionType:
    """``def __init__(self, f1, f2=d2): _set(self, "f1", f1); ...`` for
    the class's fields, with the defaults of ``cls._defaults``.  Source is
    compiled once per number of fields, as a template whose parameters and
    field names ``_0``, ``_1``, ... each class renames to its own."""
    fields = cls.__match_args__
    template = _TEMPLATES.get(len(fields))
    if template is None:
        params = [f"_{i}" for i in range(len(fields))]
        body = "".join(f"\n    _set(self, {p!r}, {p})" for p in params)
        ns: dict = {}
        exec(f"def __init__(self, {', '.join(params)}):{body}", _SET, ns)
        template = _TEMPLATES[len(fields)] = ns["__init__"].__code__
    rename = {f"_{i}": f for i, f in enumerate(fields)}
    code = template.replace(co_varnames=("self",) + fields,
                            co_consts=tuple(rename.get(c, c) for c in template.co_consts))
    tail = fields[len(fields) - len(cls._defaults):]
    init = FunctionType(code, _SET, "__init__", tuple(cls._defaults[f] for f in tail))
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init
