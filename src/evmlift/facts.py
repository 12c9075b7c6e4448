"""Call-structure facts shared between the pattern detectors and the analyses.

Both records are complete when built. A ConfirmedFacts carries
private_callers, which merge reads on every jump edge out of a caller, as a
field: confirmed_facts computes it, and every ConfirmedFacts comes from there.
"""

from __future__ import annotations

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


class ConfirmedFacts(NamedTuple):
    """Call facts driving context merges, after any pre-analysis filtering.

    public_calls:    (dispatch block, function entry) pairs
    private_calls:   (caller block, continuation block) pairs
    private_callers: the caller blocks of private_calls
    """

    public_calls: frozenset[tuple[int, int]]
    private_calls: frozenset[tuple[int, int]]
    private_returns: frozenset[int]
    important_edges: frozenset[tuple[int, int]]
    private_callers: frozenset[int]


def confirmed_facts(
    public_calls: frozenset[tuple[int, int]] = frozenset(),
    private_calls: frozenset[tuple[int, int]] = frozenset(),
    private_returns: frozenset[int] = frozenset(),
    important_edges: frozenset[tuple[int, int]] = frozenset(),
) -> ConfirmedFacts:
    """The facts with their private callers; none given is none confirmed."""
    callers = frozenset(caller for caller, _cont in private_calls)
    # tuple.__new__ builds a record without its NamedTuple's Python-level __new__
    return tuple.__new__(ConfirmedFacts, (public_calls, private_calls, private_returns, important_edges, callers))


def raw_confirmed(candidates: PatternFacts) -> ConfirmedFacts:
    """Project candidates into call facts without any filtering."""
    public, private, returns = candidates
    return confirmed_facts(
        frozenset((b, t) for b, _s, t in public), frozenset((b, c) for b, c, _p in private), returns
    )
