"""Context sensitivity for the global analysis.

A context pairs the most recent public entry point with a bounded stack of
private call sites. The shrinking scheme pops that stack back down when a
return is provably matched to a call site still on it, so recursion-free
call chains end in the same context they started in. It also pushes the
source block on every important edge, a merge the pre-analysis blames for
bringing two or more jump targets into one stack slot, so the paths into
such a merge are analysed apart; merged data buys no jump precision and
splits no context. Every push follows one rule: a block already on the
stack is cut back to first unless it is a return, so a loop through an
important edge or a recursion through a call site holds one entry for it;
unmatched returns still grow. No pre-analysis means no important edges.
When the confirmed facts merge every jump the pre-analysis recorded into
the context it recorded, the main pass returns the pre-analysis fixpoint
itself (see analysis.analyze). The transactional scheme only ever
prepends, ignores important edges, and is kept as the comparison baseline.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from typing import NamedTuple

from .facts import ConfirmedFacts


class Scheme(enum.Enum):
    SHRINKING = "shrinking"
    TRANSACTIONAL = "transactional"


DEFAULT_DEPTH: dict[Scheme, int] = {
    Scheme.SHRINKING: 20,
    Scheme.TRANSACTIONAL: 8,
}


class SchemeConfig(NamedTuple):
    scheme: Scheme
    depth: int


class Context(NamedTuple):
    """public is the active function entry block; private lists call sites,
    most recent first, never longer than the configured depth. A tuple, so
    the fixpoint's keys hash and compare without Python-level calls; merge
    builds one with tuple.__new__, without the NamedTuple's Python-level
    __new__."""

    public: int | None
    private: tuple[int, ...]

    def __str__(self) -> str:
        pub = "-" if self.public is None else f"0x{self.public:x}"
        return f"<{pub}|{','.join(f'0x{c:x}' for c in self.private)}>"


INITIAL_CONTEXT = Context(None, ())


def cut_to(private: tuple[int, ...], call_site: int) -> tuple[int, ...]:
    """Drop everything up to and including the matched call site."""
    return private[private.index(call_site) + 1 :]


def merge(
    cfg: SchemeConfig,
    facts: ConfirmedFacts,
    ctx: Context,
    cur: int,
    nxt: int,
) -> Context:
    """The context a jump from cur in ctx to nxt lands in, under cfg's scheme."""
    return merge_for(cfg.scheme)(cfg, facts, ctx, cur, nxt)


def merge_for(scheme: Scheme) -> Callable[[SchemeConfig, ConfirmedFacts, Context, int, int], Context]:
    """The merge of one scheme, for a caller that merges many jumps under it."""
    return _merge_transactional if scheme is Scheme.TRANSACTIONAL else _merge_shrinking


def merge_sources(facts: ConfirmedFacts) -> frozenset[int]:
    """The blocks out of which merge can change the context: the sources of
    public calls and important edges, private callers and private returns.
    Under either scheme, merge returns ctx itself on a jump out of any other
    block."""
    return (
        frozenset(cur for cur, _nxt in facts.public_calls | facts.important_edges)
        | facts.private_callers
        | facts.private_returns
    )


def _merge_shrinking(
    cfg: SchemeConfig,
    facts: ConfirmedFacts,
    ctx: Context,
    cur: int,
    nxt: int,
) -> Context:
    if (cur, nxt) in facts.public_calls:
        return tuple.__new__(Context, (nxt, ctx.private))
    is_return = cur in facts.private_returns
    matched = None
    if is_return:
        matched = next((c for c in ctx.private if (c, nxt) in facts.private_calls), None)
    grow = (
        cur in facts.private_callers
        or (is_return and matched is None)
        or (cur, nxt) in facts.important_edges
    )
    if grow:  # a block already on the context, unless a return, is cut back to first
        private = cut_to(ctx.private, cur) if cur in ctx.private and not is_return else ctx.private
        return tuple.__new__(Context, (ctx.public, ((cur,) + private)[: cfg.depth]))
    if is_return:
        return tuple.__new__(Context, (ctx.public, cut_to(ctx.private, matched)))
    return ctx


def _merge_transactional(
    cfg: SchemeConfig,
    facts: ConfirmedFacts,
    ctx: Context,
    cur: int,
    nxt: int,
) -> Context:
    if (cur, nxt) in facts.public_calls:
        return tuple.__new__(Context, (nxt, ctx.private))
    if cur in facts.private_callers or cur in facts.private_returns:
        return tuple.__new__(Context, (ctx.public, ((cur,) + ctx.private)[: cfg.depth]))
    return ctx
