"""Call-structure facts shared between the pattern detectors and the analyses."""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple


class PatternFacts(NamedTuple):
    """Raw, unverified pattern-detector output for one program.

    public_call_candidates:  (block, selector, target) triples
    private_call_candidates: (caller, continuation, push_pc) triples
    private_returns:         blocks jumping to an entry-stack value
    """

    public_call_candidates: frozenset[tuple[int, int, int]] = frozenset()
    private_call_candidates: frozenset[tuple[int, int, int]] = frozenset()
    private_returns: frozenset[int] = frozenset()


class _ConfirmedFields(NamedTuple):
    public_calls: frozenset[tuple[int, int]] = frozenset()
    private_calls: frozenset[tuple[int, int]] = frozenset()
    private_returns: frozenset[int] = frozenset()
    important_edges: frozenset[tuple[int, int]] = frozenset()


class ConfirmedFacts(_ConfirmedFields):
    """Call facts driving context merges, after any pre-analysis filtering.

    public_calls:  (dispatch block, function entry) pairs
    private_calls: (caller block, continuation block) pairs

    Equal field by field, as a tuple. Not slotted, so private_callers, which
    merge reads on every jump edge, is computed once per object.
    """

    @cached_property
    def private_callers(self) -> frozenset[int]:
        return frozenset(caller for caller, _ in self.private_calls)


def raw_confirmed(candidates: PatternFacts) -> ConfirmedFacts:
    """Project candidates into call facts without any filtering."""
    return ConfirmedFacts(
        public_calls=frozenset((b, t) for b, _s, t in candidates.public_call_candidates),
        private_calls=frozenset((b, c) for b, c, _p in candidates.private_call_candidates),
        private_returns=candidates.private_returns,
    )
