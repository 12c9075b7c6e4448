"""Context-sensitive global stack analysis.

Propagates sets of abstract values through the block graph, one stack slot
at a time, under a chosen context scheme. The analysis is a plain monotone
worklist fixpoint: per (context, block) pair it joins entry environments,
applies the block summary as a transfer function, and feeds exit
environments to the successors the resolved jump targets induce. A block's
values are read against its entry env by resolve, the one reader that
transfer, the jump read, pre-analysis and the lifter share. It is
deliberately incomplete: it stops at a fact limit or a deadline and
reports which of the three stop conditions ended the run.
"""

from __future__ import annotations

import math
import time
from collections import deque
from itertools import zip_longest
from typing import NamedTuple, TypeVar

from .bytecode import BytecodeProgram
from .context import INITIAL_CONTEXT, Context, SchemeConfig, merge, merge_for, merge_sources
from .facts import ConfirmedFacts
from .local import BlockSummary
from .opcodes import TERM_CONDITIONAL_JUMP, TERM_FALLTHROUGH, TERM_JUMP
from .values import UNDERFLOW, AbstractValue, entry_slot

STOP_FIXPOINT = "fixpoint"
STOP_FACT_LIMIT = "fact-limit"
STOP_TIMEOUT = "timeout"

DEFAULT_FACT_LIMIT = 1_000_000
# Entry-stack slots modeled per (context, block) pair; deeper slots are cut.
MAX_STACK_DEPTH = 100

# An env is a tuple of slot sets, slot 0 at the top. Envs and their
# frozensets are shared between keys and never mutated, so passing one
# through a block or into a store needs no copy; a slot that grows gives a
# new tuple. Slot sets hold def sites and UNDERFLOW only, never an entry
# slot (see values).
Env = tuple[frozenset[AbstractValue], ...]
PairKey = tuple[Context, int]

_UNDERFLOW_ONLY = frozenset({UNDERFLOW})
_EMPTY: frozenset[AbstractValue] = frozenset()

K = TypeVar("K")


class AnalysisResult(NamedTuple):
    """Entry envs (block_input), resolved jumps and edges per context.

    An exit env is not stored: it is transfer_block of the block's entry env.
    fact_count counts the tuples of the three relations: one entry-stack
    value, jump target or edge each. The envs of block_input and their slot
    sets are shared with other keys and exit envs; an env that grows is
    replaced by a new tuple, never updated in place. facts and cfg are what
    the run merged contexts under and fact_limit the limit it ran under, so
    a later run can tell whether it would replay this one (see _replays).
    per_block (project of block_input) and pairs, the context-free edges,
    are built once when analyze returns, so every reader of one result
    shares one projection.
    """

    block_input: dict[PairKey, Env]
    block_jump_target: set[tuple[Context, int, AbstractValue, int]]
    global_block_edge: set[tuple[Context, int, Context, int]]
    stop_condition: str
    fact_count: int
    transfers: int
    facts: ConfirmedFacts
    cfg: SchemeConfig
    fact_limit: int
    per_block: dict[int, Env]
    pairs: frozenset[tuple[int, int]]

    def edge_pairs(self) -> frozenset[tuple[int, int]]:
        """Context-free projection of the edge relation."""
        return self.pairs


def project(block_input: dict[PairKey, Env]) -> dict[int, Env]:
    """block_input projected onto blocks: the slot-wise union of every
    context's entry env, built in one pass linear in the envs' slots.

    A block seen in one context maps to that context's env itself, and
    a slot no other context grows keeps the first context's set.
    """
    merged: dict[int, Env] = {}
    # The envs of each block seen with an env other than its first one.
    columns: dict[int, list[Env]] = {}
    for (_ctx, bid), env in block_input.items():
        first = merged.setdefault(bid, env)
        if first is not env:
            envs = columns.get(bid)
            if envs is None:
                columns[bid] = [first, env]
            else:
                envs.append(env)
    union = _EMPTY.union
    for bid, envs in columns.items():
        slots = []
        # Envs of different depths: a context that stops short adds nothing below.
        for column in zip_longest(*envs, fillvalue=_EMPTY):
            first = column[0]
            vals = union(*column)
            slots.append(first if len(vals) == len(first) else vals)
        merged[bid] = tuple(slots)
    return merged


def resolve(env: Env, value: AbstractValue) -> frozenset[AbstractValue]:
    """The values value holds against env, the entry env of the summary that
    names it: the one reader of a value against an env.

    An entry slot reads its slot set, or {UNDERFLOW} below the env's bottom,
    and a def site reads itself.
    """
    if value < UNDERFLOW:
        slot = entry_slot(value)
        return env[slot] if slot < len(env) else _UNDERFLOW_ONLY
    return frozenset((value,))


def transfer_block(summary: BlockSummary, input_env: Env) -> Env:
    """Exit environment induced by one entry environment.

    The produced slots come first, each resolved against the entry env,
    then the entry slots below the consumed ones, passed through as they
    are. Slots from MAX_STACK_DEPTH down are dropped.
    """
    out: list[frozenset[AbstractValue]] = []
    for value in summary.produced[:MAX_STACK_DEPTH]:
        out.append(resolve(input_env, value))
    consumed = summary.consumed_depth
    out += input_env[consumed : consumed + MAX_STACK_DEPTH - len(out)]
    return tuple(out)


def _join(store: dict[K, Env], key: K, cur: Env, env: Env) -> int:
    """Slot-wise union of env into cur, the env store holds at key; returns
    the number of new tuples.

    A key that grows gets a new tuple, and a slot that grows a new set; cur
    and its sets are never changed. A new key is stored by analyze itself.
    """
    added = 0
    joined = None
    for slot, (have, vals) in enumerate(zip(cur, env)):
        if vals is not have and not vals <= have:
            if joined is None:
                joined = list(cur)
            grown = joined[slot] = have | vals
            added += len(grown) - len(have)
    deeper = env[len(cur) :]
    if deeper:
        added += sum(map(len, deeper))
    elif joined is None:
        return 0
    store[key] = (cur if joined is None else tuple(joined)) + deeper
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
    edges _reading_changed_facts keeps are evaluated, and under prior's own
    facts too that is no edge, so the answer is yes without a look at the
    edges; under another cfg every jump edge is evaluated. A JUMPI whose
    fallthrough is its own target records a fallthrough edge under the same
    key, which must then match as well where the key is evaluated. Under
    prior's own fact limit, checked between steps, the same calls stop at
    the same step, so a prior the limit stopped replays as exactly as one
    that reached its fixpoint. A prior that timed out stopped wherever the
    clock ran out.
    """
    if prior.stop_condition == STOP_TIMEOUT or prior.fact_limit != fact_limit:
        return False
    edges = prior.global_block_edge
    if cfg == prior.cfg:
        if facts == prior.facts:
            return True
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
    # tuple.__new__ builds a record without its NamedTuple's Python-level __new__
    new = tuple.__new__
    if 0 not in program.blocks:
        return new(AnalysisResult, ({}, set(), set(), STOP_FIXPOINT, 0, 0, facts, cfg, fact_limit, {}, frozenset()))
    jump_target = program.targets.get
    sources = merge_sources(facts)
    scheme_merge = merge_for(cfg.scheme)

    # Per block that is not too deep: its summary, the entry slot it jumps
    # on (None when it jumps on none), the values a jump on a def site
    # reads, taken once here since a def site reads itself whatever the env,
    # its fallthrough block in the program (None when it has none), and
    # whether merge can change the context.
    plan: dict[int, tuple[BlockSummary, AbstractValue | None, tuple[AbstractValue, ...], int | None, bool]] = {}
    blocks = program.blocks
    for bid, summary in summaries.items():
        if summary.too_deep:
            continue
        block = blocks[bid]
        terminator = block.terminator
        slot = fall = None
        values: tuple[AbstractValue, ...] = ()
        if terminator == TERM_JUMP or terminator == TERM_CONDITIONAL_JUMP:
            if summary.target_expr < UNDERFLOW:
                slot = summary.target_expr
            else:
                values = tuple(resolve((), summary.target_expr))
        if terminator == TERM_CONDITIONAL_JUMP or terminator == TERM_FALLTHROUGH:
            fall = block.fallthrough_pc
            if fall not in blocks:
                fall = None
        plan[bid] = (summary, slot, values, fall, bid in sources)

    # Every relation only grows, so the facts so far are the two sets' sizes
    # plus the entry-env tuples each join added.
    block_input: dict[PairKey, Env] = {}
    jump_facts: set[tuple[Context, int, AbstractValue, int]] = set()
    edges: set[tuple[Context, int, Context, int]] = set()
    env_facts = transfers = 0
    stop = STOP_FIXPOINT
    start: PairKey = (INITIAL_CONTEXT, 0)
    block_input[start] = ()
    queue: deque[PairKey] = deque((start,))
    queued: set[PairKey] = {start}

    while queue:
        if env_facts + len(jump_facts) + len(edges) > fact_limit:
            stop = STOP_FACT_LIMIT
            break
        if time.monotonic() > deadline:
            stop = STOP_TIMEOUT
            break

        key = queue.popleft()
        queued.discard(key)
        ctx, bid = key
        step = plan.get(bid)
        if step is None:
            continue
        summary, slot, values, fall, merges = step
        transfers += 1

        input_env = block_input[key]
        out_env = transfer_block(summary, input_env)
        succs: list[PairKey] = []
        # An entry-slot jump reads the entry env on every transfer.
        for value in values if slot is None else sorted(resolve(input_env, slot)):
            target = jump_target(value)
            # UNDERFLOW names no block, so a read below the bottom jumps nowhere.
            if target is not None:
                ctx2 = scheme_merge(cfg, facts, ctx, bid, target) if merges else ctx
                jump_facts.add((ctx, bid, value, target))
                edges.add((ctx, bid, ctx2, target))
                succs.append((ctx2, target))
        if fall is not None:
            edges.add((ctx, bid, ctx, fall))
            succs.append((ctx, fall))
        for succ in succs:
            cur = block_input.get(succ)
            if cur is None:
                # A new key stores the exit env itself. It may add no tuple
                # (the successor of an empty exit stack) and must still be
                # transferred once; it cannot be queued yet.
                block_input[succ] = out_env
                env_facts += sum(map(len, out_env))
                queued.add(succ)
                queue.append(succ)
            elif added := _join(block_input, succ, cur, out_env):
                env_facts += added
                if succ not in queued:
                    queued.add(succ)
                    queue.append(succ)

    return new(
        AnalysisResult,
        (
            block_input,
            jump_facts,
            edges,
            stop,
            env_facts + len(jump_facts) + len(edges),
            transfers,
            facts,
            cfg,
            fact_limit,
            project(block_input),
            frozenset((b, b2) for _c, b, _c2, b2 in edges),
        ),
    )
