"""Context-sensitive global stack analysis.

Propagates sets of abstract values through the block graph, one stack slot
at a time, under a chosen context scheme. The analysis is a plain monotone
worklist fixpoint: per (context, block) pair it joins entry environments,
applies the block summary as a transfer function, and feeds exit
environments to the successors the resolved jump targets induce. It is
deliberately incomplete: it stops at a fact limit or a deadline and
reports which of the three stop conditions ended the run.
"""

from __future__ import annotations

import math
import time
from collections import deque
from functools import cached_property
from typing import TypeVar

from .bytecode import BytecodeProgram, Terminator
from .context import INITIAL_CONTEXT, Context, SchemeConfig, merge
from .facts import ConfirmedFacts
from .local import BlockSummary
from .values import UNDERFLOW, AbstractValue, EntrySlot, sort_key

STOP_FIXPOINT = "fixpoint"
STOP_FACT_LIMIT = "fact-limit"
STOP_TIMEOUT = "timeout"

DEFAULT_FACT_LIMIT = 1_000_000
# Entry-stack slots modeled per (context, block) pair; deeper slots are cut.
MAX_STACK_DEPTH = 100

# Slot sets are frozensets shared between envs and keys; none is ever
# mutated, so passing one through a block or into a store needs no copy.
Env = dict[int, frozenset[AbstractValue]]
PairKey = tuple[Context, int]

_UNDERFLOW_ONLY = frozenset({UNDERFLOW})

K = TypeVar("K")


class AnalysisResult:
    """Entry envs (block_input), resolved jumps and edges per context.

    An exit env is not stored: it is transfer_block of the block's entry env.
    fact_count counts the tuples of the three relations: one entry-stack
    value, jump target or edge each. The slot sets of block_input are
    frozensets shared with other keys and exit envs; a slot that grows is
    replaced by a new set, never updated in place. facts and cfg are what
    the run merged contexts under and fact_limit the limit it ran under, so
    a later run can tell whether it would replay this one (see _replays).
    per_block is built on its first read, which must come after analyze
    returns, and kept with the result, so every reader of one result shares
    one projection. A plain class: analyze fills it in place, and per_block
    is cached in the instance's __dict__.
    """

    def __init__(
        self,
        *,
        block_input: dict[PairKey, Env] | None = None,
        facts: ConfirmedFacts | None = None,
        cfg: SchemeConfig | None = None,
        fact_limit: int = DEFAULT_FACT_LIMIT,
    ) -> None:
        self.block_input: dict[PairKey, Env] = {} if block_input is None else block_input
        self.block_jump_target: set[tuple[Context, int, AbstractValue, int]] = set()
        self.global_block_edge: set[tuple[Context, int, Context, int]] = set()
        self.stop_condition = STOP_FIXPOINT
        self.fact_count = 0
        self.transfers = 0
        self.facts = facts
        self.cfg = cfg
        self.fact_limit = fact_limit

    def edge_pairs(self) -> frozenset[tuple[int, int]]:
        """Context-free projection of the edge relation."""
        return frozenset((b, b2) for _c, b, _c2, b2 in self.global_block_edge)

    @cached_property
    def per_block(self) -> dict[int, Env]:
        """block_input projected onto blocks, merging contexts slot-wise
        with the fixpoint's own join."""
        merged: dict[int, Env] = {}
        for (_ctx, bid), env in self.block_input.items():
            _join(merged, bid, env)
        return merged


def transfer_block(summary: BlockSummary, input_env: Env) -> Env:
    """Exit environment induced by one entry environment.

    A read of an empty entry slot yields UNDERFLOW. A slot read or passed
    through holds the entry env's own set, not a copy. Slots from
    MAX_STACK_DEPTH down are dropped.
    """
    produced = summary.produced
    out: Env = {}
    for j, value in enumerate(produced[:MAX_STACK_DEPTH]):
        if isinstance(value, EntrySlot):
            out[j] = input_env.get(value.index) or _UNDERFLOW_ONLY
        else:
            out[j] = frozenset((value,))
    shift = len(produced) - summary.consumed_depth
    for k in sorted(input_env):
        if k >= summary.consumed_depth and k + shift < MAX_STACK_DEPTH:
            out[k + shift] = input_env[k]
    return out


def _join(store: dict[K, Env], key: K, env: Env) -> int:
    """Slot-wise union of env into store[key]; returns the number of new tuples.

    The dict of a new key is copied, since one exit env feeds several
    successors; its slot sets are shared. A slot that grows gets a new set.
    """
    cur = store.get(key)
    if cur is None:
        store[key] = dict(env)
        return sum(map(len, env.values()))
    added = 0
    for slot, vals in env.items():
        have = cur.get(slot)
        if have is None:
            cur[slot] = vals
            added += len(vals)
        elif vals is not have and not vals <= have:
            grown = have | vals
            added += len(grown) - len(have)
            cur[slot] = grown
    return added


def _replays(
    prior: AnalysisResult, facts: ConfirmedFacts, cfg: SchemeConfig, fact_limit: int
) -> bool:
    """Whether analyze under facts and cfg would rebuild prior call for call.

    The fixpoint reads facts and cfg only through merge, once per resolved
    jump. If merge gives the recorded successor context on every recorded
    jump edge, the run makes the same calls in the same order as the one
    that built prior. Under prior's own cfg, a merge that reads no fact in
    which facts and prior.facts differ gives what it gave then, so only the
    edges _reading_changed_facts keeps are evaluated; under another cfg
    every jump edge is. A JUMPI whose fallthrough is its own target records
    a fallthrough edge under the same key, which must then match as well
    where the key is evaluated. Under prior's own fact limit, checked
    between steps, the same calls stop at the same step, so a prior the
    limit stopped replays as exactly as one that reached its fixpoint. A
    prior that timed out stopped wherever the clock ran out.
    """
    if prior.stop_condition == STOP_TIMEOUT or prior.fact_limit != fact_limit:
        return False
    edges = prior.global_block_edge
    if cfg == prior.cfg:
        edges = _reading_changed_facts(prior.facts, facts, edges)
    sources = {bid for _ctx, bid, _ctx2, _t in edges}
    jumps = {(ctx, bid, t) for ctx, bid, _value, t in prior.block_jump_target if bid in sources}
    return all(
        merge(cfg, facts, ctx, bid, t) == ctx2
        for ctx, bid, ctx2, t in edges
        if (ctx, bid, t) in jumps
    )


def _reading_changed_facts(
    old: ConfirmedFacts, new: ConfirmedFacts, edges: set[tuple[Context, int, Context, int]]
) -> list[tuple[Context, int, Context, int]]:
    """The edges from cur to nxt whose merge reads a fact old and new disagree on.

    merge reads whether (cur, nxt) is a public call or an important edge,
    whether cur is a private caller or a private return, and, at a return,
    which call sites have nxt as their continuation. After confirmation,
    which only drops candidates and adds important edges, these are the
    dropped public calls, the important edges, the edges out of dropped
    callers, and the return edges into the continuation of a dropped call.
    """
    pairs = (old.public_calls ^ new.public_calls) | (old.important_edges ^ new.important_edges)
    sources = (old.private_callers ^ new.private_callers) | (
        old.private_returns ^ new.private_returns
    )
    returns = old.private_returns | new.private_returns
    continuations = {cont for _caller, cont in old.private_calls ^ new.private_calls}
    return [
        (ctx, bid, ctx2, t)
        for ctx, bid, ctx2, t in edges
        if bid in sources or (t in continuations and bid in returns) or (bid, t) in pairs
    ]


def analyze(
    program: BytecodeProgram,
    summaries: dict[int, BlockSummary],
    facts: ConfirmedFacts,
    cfg: SchemeConfig,
    fact_limit: int = DEFAULT_FACT_LIMIT,
    deadline: float = math.inf,
    prior: AnalysisResult | None = None,
) -> AnalysisResult:
    """Run the fixpoint, or return prior itself when the run would replay it.

    The run stops past fact_limit facts or once time.monotonic() passes
    deadline. prior must come from analyze over the same program and
    summaries; only its facts, scheme and fact limit may differ. It is
    returned as it is, not copied, when it did not time out, ran under
    fact_limit, and every merge it recorded gives the same context under
    facts and cfg. Under prior's own cfg only the merges that read a fact
    prior.facts and facts disagree on are evaluated; under another cfg all
    of them are.
    """
    if prior is not None and _replays(prior, facts, cfg, fact_limit):
        return prior
    result = AnalysisResult(facts=facts, cfg=cfg, fact_limit=fact_limit)
    if 0 not in program.blocks:
        return result
    jump_target = program.jump_target

    queue: deque[PairKey] = deque()
    queued: set[PairKey] = set()

    def schedule(key: PairKey) -> None:
        if key not in queued:
            queued.add(key)
            queue.append(key)

    def propagate(key: PairKey, env: Env) -> None:
        # A new key may add no tuple (the empty entry env, or the successor
        # of an empty exit stack) and must still be transferred once.
        new = key not in result.block_input
        added = _join(result.block_input, key, env)
        result.fact_count += added
        if added or new:
            schedule(key)

    propagate((INITIAL_CONTEXT, 0), {})

    while queue:
        if result.fact_count > fact_limit:
            result.stop_condition = STOP_FACT_LIMIT
            return result
        if time.monotonic() > deadline:
            result.stop_condition = STOP_TIMEOUT
            return result

        key = queue.popleft()
        queued.discard(key)
        ctx, bid = key
        summary = summaries[bid]
        if summary.too_deep:
            continue
        result.transfers += 1

        input_env = result.block_input[key]
        out_env = transfer_block(summary, input_env)

        block = program.blocks[bid]
        if block.terminator in (Terminator.JUMP, Terminator.CONDITIONAL_JUMP):
            if isinstance(summary.target_expr, EntrySlot):
                targets = input_env.get(summary.target_expr.index) or _UNDERFLOW_ONLY
            else:
                targets = {summary.target_expr}
            for value in sorted(targets, key=sort_key):
                const = jump_target(value)
                if const is None:
                    continue
                before = len(result.block_jump_target)
                result.block_jump_target.add((ctx, bid, value, const))
                result.fact_count += len(result.block_jump_target) - before
                ctx2 = merge(cfg, facts, ctx, bid, const)
                before = len(result.global_block_edge)
                result.global_block_edge.add((ctx, bid, ctx2, const))
                result.fact_count += len(result.global_block_edge) - before
                propagate((ctx2, const), out_env)
        if block.terminator in (Terminator.CONDITIONAL_JUMP, Terminator.FALLTHROUGH):
            succ = block.fallthrough_pc
            if succ in program.blocks:
                before = len(result.global_block_edge)
                result.global_block_edge.add((ctx, bid, ctx, succ))
                result.fact_count += len(result.global_block_edge) - before
                propagate((ctx, succ), out_env)

    result.stop_condition = STOP_FIXPOINT
    return result
