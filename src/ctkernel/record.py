"""The base of the kernel's small value classes: verdicts, traces,
statement forms, evaluation results, rule reports, world models, the
run settings and the term nodes; and ``instantiate``, which compiles the
functions that these classes build from their field lists."""

from __future__ import annotations

from types import FunctionType


class Record:
    """An immutable value whose fields are the slots named, in order, in
    ``__match_args__``.

    A subclass declares ``__slots__ = __match_args__ = (...)`` and, for
    trailing fields with defaults, ``_defaults = {field: value}``; its
    ``__init__`` is then compiled from that list, unrolled (a loop over
    the fields would cost over twice as much on the classes built on
    every check).  It stores each field through the setter of its slot,
    the slot descriptor's ``__set__``: a plain assignment ``self.f = f``
    is not possible, as ``__setattr__`` raises, and the setter skips the
    attribute lookup that ``object.__setattr__`` makes for each field.
    A class that writes its own ``__init__``, or whose base class set one
    in ``__init_subclass__`` before this one runs (the term nodes'), keeps
    it, and one that declares no fields (an abstract base) gets none.

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


def _compile_init(cls: type, lines: tuple = (), namespace: dict = {}) -> FunctionType:
    """``def __init__(self, f1, f2=d2): _s0(self, f1); ...`` for the
    class's fields, with the defaults of ``cls._defaults``, then
    ``lines``: ``_s{i}`` is the ``__set__`` of the slot of field i, bound
    in the function's own globals beside ``namespace``, and field i is
    the parameter ``_{i}`` in the source."""
    fields = cls.__match_args__
    body = [f"_s{i}(self, _{i})" for i in range(len(fields))] + list(lines)
    setters = {f"_s{i}": cls.__dict__[f].__set__ for i, f in enumerate(fields)}
    tail = fields[len(fields) - len(cls._defaults):]
    params = ", ".join(f"_{i}" for i in range(len(fields)))
    return instantiate(f"def __init__(self, {params}):\n    " + "\n    ".join(body), fields,
                       {**namespace, **setters}, cls, tuple(cls._defaults[f] for f in tail))


_CODE: dict = {}  # source -> the code of the function it defines


def instantiate(source: str, names: tuple, namespace: dict, owner: type,
                defaults: tuple = ()) -> FunctionType:
    """The one function that ``source`` defines, named as a method of
    ``owner``, with the placeholders ``_0``, ``_1``, ... renamed to
    ``names[0]``, ``names[1]``, ... wherever they stand as parameters or
    attribute names.  Each source is compiled once, in ``namespace``,
    which the function keeps as its globals; a later call with the same
    source only renames."""
    template = _CODE.get(source)
    if template is None:
        ns: dict = {}
        exec(source, namespace, ns)
        (function,) = ns.values()
        template = _CODE[source] = function.__code__
    rename = {f"_{i}": name for i, name in enumerate(names)}
    code = template.replace(
        co_varnames=tuple(rename.get(v, v) for v in template.co_varnames),
        co_names=tuple(rename.get(v, v) for v in template.co_names))
    function = FunctionType(code, namespace, code.co_name, defaults)
    function.__qualname__ = f"{owner.__qualname__}.{code.co_name}"
    function.__module__ = owner.__module__
    return function
