"""The base of the kernel's small value classes: verdicts, traces,
evaluation results, rule reports, world models and the run settings."""

from __future__ import annotations


class Record:
    """An immutable value whose fields are the slots named, in order, in
    ``__match_args__``.

    Equality, hash, ``repr`` and pickling are those of a frozen dataclass
    with these fields: the ``repr`` of a verdict is part of its recorded
    output.  Each subclass writes its own ``__init__``, which sets the
    fields with ``object.__setattr__``; a loop over the fields would cost
    over twice as much on the classes built on every check.
    """

    __slots__ = ()
    __match_args__: tuple = ()

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
