"""Run-wide knobs shared by the checkers and the CLI."""

from __future__ import annotations

from .record import Record

DEFAULT_FUEL = 10000
DEFAULT_DEPTH = 4
DEFAULT_SEARCH_DEPTH = 5
DEFAULT_INSTANCE_DEPTH = 2

_set = object.__setattr__


class RunConfig(Record):
    """Budgets for one invocation.

    fuel bounds computation steps (beta, projection, case dispatch);
    depth bounds the constructor nesting of enumerated canonical
    witnesses; search_depth bounds derivation search in the rule lab.
    The two main budgets are independent: fuel limits how long terms may
    compute, depth limits how far witness search may reach.
    """

    __slots__ = __match_args__ = ("fuel", "depth", "search_depth", "output_mode")

    def __init__(self, fuel: int = DEFAULT_FUEL, depth: int = DEFAULT_DEPTH,
                 search_depth: int = DEFAULT_SEARCH_DEPTH, output_mode: str = "human"):
        if fuel < 1 or depth < 1 or search_depth < 1:
            raise ValueError("all budget counts must be >= 1")
        if output_mode not in ("human", "machine"):
            raise ValueError(f"unknown output mode: {output_mode!r}")
        _set(self, "fuel", fuel)
        _set(self, "depth", depth)
        _set(self, "search_depth", search_depth)
        _set(self, "output_mode", output_mode)
