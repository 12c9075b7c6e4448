"""Context sensitivity for the global analysis.

A context pairs the most recent public entry point with a bounded stack of
private call sites. The shrinking scheme pops that stack back down when a
return is provably matched to a call site still on it, so recursion-free
call chains end in the same context they started in. It also pushes the
source block on every important edge, a merge the pre-analysis blames for
bringing two or more jump targets into one stack slot, so the paths into
such a merge are analysed apart; merged data buys no jump precision and
splits no context. A source already on the stack is cut back to first, so
a loop through an important edge holds one entry for it. When no
pre-analysis ran there are no important edges. When the confirmed facts
merge every jump the pre-analysis recorded into the context it recorded,
the main pass returns the pre-analysis fixpoint itself (see
analysis.analyze). The transactional scheme only ever prepends, ignores
important edges, and is retained as the comparison baseline.
"""

from __future__ import annotations

import enum
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
    the fixpoint's keys hash and compare without Python-level calls."""

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
    if cfg.scheme is Scheme.TRANSACTIONAL:
        return _merge_transactional(cfg, facts, ctx, cur, nxt)
    return _merge_shrinking(cfg, facts, ctx, cur, nxt)


def _merge_shrinking(
    cfg: SchemeConfig,
    facts: ConfirmedFacts,
    ctx: Context,
    cur: int,
    nxt: int,
) -> Context:
    if (cur, nxt) in facts.public_calls:
        return Context(nxt, ctx.private)
    is_return = cur in facts.private_returns
    matched = None
    if is_return:
        matched = next((c for c in ctx.private if (c, nxt) in facts.private_calls), None)
    grow = (
        cur in facts.private_callers
        or (is_return and matched is None)
        or (cur, nxt) in facts.important_edges
    )
    if grow:
        private = ctx.private
        if cur in private and not is_return and cur not in facts.private_callers:
            private = cut_to(private, cur)  # an important edge in a loop: one entry per source
        return Context(ctx.public, ((cur,) + private)[: cfg.depth])
    if is_return:
        return Context(ctx.public, cut_to(ctx.private, matched))
    return ctx


def _merge_transactional(
    cfg: SchemeConfig,
    facts: ConfirmedFacts,
    ctx: Context,
    cur: int,
    nxt: int,
) -> Context:
    if (cur, nxt) in facts.public_calls:
        return Context(nxt, ctx.private)
    if cur in facts.private_callers or cur in facts.private_returns:
        return Context(ctx.public, ((cur,) + ctx.private)[: cfg.depth])
    return ctx
