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

from .bytecode import BytecodeProgram, Terminator
from .context import INITIAL_CONTEXT, Context, SchemeConfig, merge
from .facts import ConfirmedFacts
from .local import BlockSummary
from .values import UNDERFLOW, AbstractValue, EntrySlot, constant_of, sort_key

STOP_FIXPOINT = "fixpoint"
STOP_FACT_LIMIT = "fact-limit"
STOP_TIMEOUT = "timeout"

DEFAULT_MAX_STACK_DEPTH = 100

Env = dict[int, set[AbstractValue]]
PairKey = tuple[Context, int]


@dataclass
class AnalysisLimits:
    fact_limit: int | None = None
    deadline: float | None = None  # time.monotonic() value
    max_stack_depth: int = DEFAULT_MAX_STACK_DEPTH


@dataclass
class AnalysisResult:
    block_input: dict[PairKey, Env] = field(default_factory=dict)
    block_output: dict[PairKey, Env] = field(default_factory=dict)
    block_jump_target: set[tuple[Context, int, AbstractValue, int]] = field(default_factory=set)
    global_block_edge: set[tuple[Context, int, Context, int]] = field(default_factory=set)
    stop_condition: str = STOP_FIXPOINT
    fact_count: int = 0
    transfers: int = 0

    def edge_pairs(self) -> frozenset[tuple[int, int]]:
        """Context-free projection of the edge relation."""
        return frozenset((b, b2) for _c, b, _c2, b2 in self.global_block_edge)


def per_block(store: dict[PairKey, Env]) -> dict[int, Env]:
    """Project a per-(context, block) store onto blocks, merging contexts slot-wise."""
    merged: dict[int, Env] = {}
    for (_ctx, bid), env in store.items():
        slots = merged.setdefault(bid, {})
        for slot, vals in env.items():
            slots.setdefault(slot, set()).update(vals)
    return merged


def transfer_block(summary: BlockSummary, input_env: Env, max_stack_depth: int) -> Env:
    """Exit environment induced by one entry environment.

    A read of an empty entry slot yields UNDERFLOW.
    """
    produced = summary.produced
    out: Env = {}
    for j, value in enumerate(produced[:max_stack_depth]):
        if isinstance(value, EntrySlot):
            out[j] = set(input_env.get(value.index) or {UNDERFLOW})
        else:
            out[j] = {value}
    shift = len(produced) - summary.consumed_depth
    for k in sorted(input_env):
        if k >= summary.consumed_depth and k + shift < max_stack_depth:
            out[k + shift] = set(input_env[k])
    return out


def _join(store: dict[PairKey, Env], key: PairKey, env: Env) -> tuple[bool, int]:
    """Slot-wise union of env into store[key]; reports growth and new tuples."""
    cur = store.setdefault(key, {})
    changed = False
    added = 0
    for slot in sorted(env):
        have = cur.setdefault(slot, set())
        fresh = env[slot] - have
        if fresh:
            have |= fresh
            added += len(fresh)
            changed = True
    return changed, added


def analyze(
    program: BytecodeProgram,
    summaries: dict[int, BlockSummary],
    facts: ConfirmedFacts,
    cfg: SchemeConfig,
    limits: AnalysisLimits | None = None,
) -> AnalysisResult:
    limits = limits or AnalysisLimits()
    result = AnalysisResult()
    if 0 not in program.blocks:
        return result
    jump_target_ids = program.jump_target_ids

    queue: deque[PairKey] = deque()
    queued: set[PairKey] = set()

    def schedule(key: PairKey) -> None:
        if key not in queued:
            queued.add(key)
            queue.append(key)

    def propagate(key: PairKey, env: Env) -> None:
        changed, added = _join(result.block_input, key, env)
        result.fact_count += added
        if changed or key not in result.block_output:
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

        input_env = result.block_input.get(key, {})
        out_env = transfer_block(summary, input_env, limits.max_stack_depth)
        _, added = _join(result.block_output, key, out_env)
        result.fact_count += added

        block = program.blocks[bid]
        if block.terminator in (Terminator.JUMP, Terminator.CONDITIONAL_JUMP):
            if isinstance(summary.target_expr, EntrySlot):
                targets = input_env.get(summary.target_expr.index) or {UNDERFLOW}
            else:
                targets = {summary.target_expr}
            for value in sorted(targets, key=sort_key):
                const = constant_of(value)
                if const not in jump_target_ids:
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
