"""Abstract values tracked by the local and global analyses.

DefSite is a NamedTuple, so the slot sets hash and compare it in C.
EntrySlot stays a dataclass, so it never equals a DefSite of the same ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class DefSite(NamedTuple):
    """A value identified by the pc of the statement producing it.

    constant is set when the value is statically known (pushes and folded
    arithmetic); two occurrences of the same def site are the same value.
    """

    pc: int
    constant: int | None = None


@dataclass(frozen=True)
class EntrySlot:
    """Placeholder for slot `index` of a block's entry stack (0 is the top)."""

    block: int
    index: int


class Underflow:
    """Sentinel for a read below every value any predecessor supplied.
    Compared by identity: Underflow(), copies and unpickling give UNDERFLOW."""

    __slots__ = ()

    def __new__(cls) -> Underflow:
        return UNDERFLOW

    def __reduce__(self) -> str:
        return "UNDERFLOW"

    def __repr__(self) -> str:
        return "UNDERFLOW"


UNDERFLOW = object.__new__(Underflow)

AbstractValue = DefSite | EntrySlot | Underflow


def constant_of(value: AbstractValue) -> int | None:
    return value.constant if isinstance(value, DefSite) else None


def sort_key(value: AbstractValue) -> tuple:
    """Total order used wherever value sets are iterated deterministically."""
    if isinstance(value, DefSite):
        return (0, value.pc, -1 if value.constant is None else value.constant)
    if isinstance(value, EntrySlot):
        return (1, value.block, value.index)
    return (2, 0, 0)
