"""Context-sensitive global stack analysis.

Propagates sets of abstract values through the block graph, one stack slot
at a time, under a chosen context scheme. The analysis is a plain monotone
worklist fixpoint: per (context, block) pair it joins entry environments,
applies the block summary as a transfer function, and feeds exit
environments to the successors the resolved jump targets induce. It is
deliberately incomplete: it stops at a fact budget or a deadline and
reports which of the three stop conditions ended the run.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import TypeVar

from .bytecode import BytecodeProgram, Terminator
from .context import INITIAL_CONTEXT, Context, SchemeConfig, merge
from .facts import ConfirmedFacts
from .local import BlockSummary
from .values import UNDERFLOW, AbstractValue, EntrySlot, sort_key

STOP_FIXPOINT = "fixpoint"
STOP_FACT_LIMIT = "fact-limit"
STOP_TIMEOUT = "timeout"

DEFAULT_MAX_STACK_DEPTH = 100

# Slot sets are frozensets shared between envs and keys; none is ever
# mutated, so passing one through a block or into a store needs no copy.
Env = dict[int, frozenset[AbstractValue]]
PairKey = tuple[Context, int]

_UNDERFLOW_ONLY = frozenset({UNDERFLOW})

K = TypeVar("K")


@dataclass
class AnalysisLimits:
    fact_limit: int | None = None
    deadline: float | None = None  # time.monotonic() value
    max_stack_depth: int = DEFAULT_MAX_STACK_DEPTH


@dataclass
class AnalysisResult:
    """Entry envs (block_input), resolved jumps and edges per context.

    An exit env is not stored: it is transfer_block of the block's entry env.
    fact_count counts the tuples of the three relations: one entry-stack
    value, jump target or edge each. The slot sets of block_input are
    frozensets shared with other keys and exit envs; a slot that grows is
    replaced by a new set, never updated in place.
    """

    block_input: dict[PairKey, Env] = field(default_factory=dict)
    block_jump_target: set[tuple[Context, int, AbstractValue, int]] = field(default_factory=set)
    global_block_edge: set[tuple[Context, int, Context, int]] = field(default_factory=set)
    stop_condition: str = STOP_FIXPOINT
    fact_count: int = 0
    transfers: int = 0

    def edge_pairs(self) -> frozenset[tuple[int, int]]:
        """Context-free projection of the edge relation."""
        return frozenset((b, b2) for _c, b, _c2, b2 in self.global_block_edge)


def per_block(store: dict[PairKey, Env]) -> dict[int, Env]:
    """Project a per-(context, block) store onto blocks, merging contexts
    slot-wise with the fixpoint's own join."""
    merged: dict[int, Env] = {}
    for (_ctx, bid), env in store.items():
        _join(merged, bid, env)
    return merged


def transfer_block(summary: BlockSummary, input_env: Env, max_stack_depth: int) -> Env:
    """Exit environment induced by one entry environment.

    A read of an empty entry slot yields UNDERFLOW. A slot read or passed
    through holds the entry env's own set, not a copy.
    """
    produced = summary.produced
    out: Env = {}
    for j, value in enumerate(produced[:max_stack_depth]):
        if isinstance(value, EntrySlot):
            out[j] = input_env.get(value.index) or _UNDERFLOW_ONLY
        else:
            out[j] = frozenset((value,))
    shift = len(produced) - summary.consumed_depth
    for k in sorted(input_env):
        if k >= summary.consumed_depth and k + shift < max_stack_depth:
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
    prior: AnalysisResult, facts: ConfirmedFacts, cfg: SchemeConfig, limits: AnalysisLimits
) -> bool:
    """Whether analyze under facts and cfg would rebuild prior call for call.

    The fixpoint reads facts and cfg only through merge, once per resolved
    jump. If merge gives the recorded successor context on every recorded
    jump edge, the run makes the same calls in the same order as the one
    that built prior. A JUMPI whose fallthrough is its own target records a
    fallthrough edge under the same key, which must then match as well. The
    fact limit, checked between steps, cannot stop a run whose final count
    is within it.
    """
    if prior.stop_condition != STOP_FIXPOINT:
        return False
    if limits.fact_limit is not None and prior.fact_count > limits.fact_limit:
        return False
    jumps = {(ctx, bid, t) for ctx, bid, _value, t in prior.block_jump_target}
    return all(
        merge(cfg, facts, ctx, bid, t) == ctx2
        for ctx, bid, ctx2, t in prior.global_block_edge
        if (ctx, bid, t) in jumps
    )


def analyze(
    program: BytecodeProgram,
    summaries: dict[int, BlockSummary],
    facts: ConfirmedFacts,
    cfg: SchemeConfig,
    limits: AnalysisLimits | None = None,
    prior: AnalysisResult | None = None,
) -> AnalysisResult:
    """Run the fixpoint, or return prior itself when the run would replay it.

    prior must come from analyze over the same program, summaries and
    max_stack_depth; only its facts, scheme and fact limit may differ. It is
    returned as it is, not copied, when it reached its fixpoint within
    limits.fact_limit and every merge it recorded gives the same context
    under facts and cfg.
    """
    limits = limits or AnalysisLimits()
    if prior is not None and _replays(prior, facts, cfg, limits):
        return prior
    result = AnalysisResult()
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
        if limits.fact_limit is not None and result.fact_count > limits.fact_limit:
            result.stop_condition = STOP_FACT_LIMIT
            return result
        if limits.deadline is not None and time.monotonic() > limits.deadline:
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
        out_env = transfer_block(summary, input_env, limits.max_stack_depth)

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
