"""Call-structure facts shared between the pattern detectors and the analyses."""

from __future__ import annotations

from collections.abc import Callable
from typing import Generic, NamedTuple, TypeVar

T = TypeVar("T")


class PatternFacts(NamedTuple):
    """Raw, unverified pattern-detector output for one program.

    public_call_candidates:  (block, selector, target) triples
    private_call_candidates: (caller, continuation, push_pc) triples
    private_returns:         blocks jumping to an entry-stack value
    """

    public_call_candidates: frozenset[tuple[int, int, int]] = frozenset()
    private_call_candidates: frozenset[tuple[int, int, int]] = frozenset()
    private_returns: frozenset[int] = frozenset()


class _Cached(Generic[T]):
    """functools.cached_property without its lock, which CPython 3.11 takes
    on every first read: the first read stores the value in the instance
    dict, which every later read finds before this descriptor."""

    def __init__(self, compute: Callable[[ConfirmedFacts], T]) -> None:
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, facts: ConfirmedFacts | None, owner: type | None = None) -> T | _Cached[T]:
        if facts is None:
            return self  # read on the class
        value = facts.__dict__[self.name] = self.compute(facts)
        return value


class _ConfirmedFields(NamedTuple):
    public_calls: frozenset[tuple[int, int]] = frozenset()
    private_calls: frozenset[tuple[int, int]] = frozenset()
    private_returns: frozenset[int] = frozenset()
    important_edges: frozenset[tuple[int, int]] = frozenset()


class ConfirmedFacts(_ConfirmedFields):
    """Call facts driving context merges, after any pre-analysis filtering.

    public_calls:  (dispatch block, function entry) pairs
    private_calls: (caller block, continuation block) pairs

    Equal field by field, as a tuple. Not slotted, so private_callers and
    callers_of, which merge reads on every jump edge out of a caller or a
    return, are computed once per object.
    """

    @_Cached
    def private_callers(self) -> frozenset[int]:
        return frozenset(caller for caller, _ in self.private_calls)

    @_Cached
    def callers_of(self) -> dict[int, frozenset[int]]:
        """continuation -> the caller blocks of the private calls that pass it,
        so a return into nxt matches a call site c on the context exactly when
        c in callers_of[nxt]."""
        callers: dict[int, set[int]] = {}
        for caller, cont in self.private_calls:
            callers.setdefault(cont, set()).add(caller)
        return {cont: frozenset(sites) for cont, sites in callers.items()}


def raw_confirmed(candidates: PatternFacts) -> ConfirmedFacts:
    """Project candidates into call facts without any filtering."""
    public, private, returns = candidates
    # tuple.__new__ builds a record without its NamedTuple's Python-level __new__
    return tuple.__new__(
        ConfirmedFacts,
        (
            frozenset((b, t) for b, _s, t in public),
            frozenset((b, c) for b, c, _p in private),
            returns,
            frozenset(),
        ),
    )
