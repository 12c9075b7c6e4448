"""Incomplete global pre-analysis.

A first fixpoint pass runs over the still-unconfirmed local patterns. Its
relations are then used three ways: private call candidates are kept only
if the pushed continuation address is actually jumped to, public call
candidates only if the compared constant is checked against a value
derived from the first four bytes of call data, and edges that introduce
imprecision are collected so the main pass can split contexts there.
Confirmation reads the fixpoint's own per-block projection
(AnalysisResult.per_block). A pass that stops short of its fixpoint does
none of this: its outcome carries the raw candidates.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .analysis import DEFAULT_FACT_LIMIT, STOP_FIXPOINT, AnalysisResult, Env, analyze, transfer_block
from .bytecode import BytecodeProgram
from .context import Scheme, SchemeConfig
from .facts import ConfirmedFacts, PatternFacts, raw_confirmed
from .local import BlockSummary, chase_condition_to_eq
from .values import AbstractValue, EntrySlot, constant_of

SELECTOR_SHIFT = 0xE0
SELECTOR_DIVISOR = 1 << 224
SELECTOR_MASK = 0xFFFFFFFF


class PreanalysisOutcome(NamedTuple):
    result: AnalysisResult
    confirmed: ConfirmedFacts
    public_call_sites: frozenset[tuple[int, int, int]]  # (block, selector, target)


def _values(per_block: dict[int, Env], operand: AbstractValue) -> frozenset[AbstractValue]:
    """The values operand can hold, over every context's entry env."""
    if isinstance(operand, EntrySlot):
        return per_block.get(operand.block, {}).get(operand.index, frozenset())
    return frozenset((operand,))


def _has_constant(per_block: dict[int, Env], operand: AbstractValue, constant: int) -> bool:
    return any(constant_of(v) == constant for v in _values(per_block, operand))


def confirm_private_calls(
    raw: PatternFacts, result: AnalysisResult
) -> frozenset[tuple[int, int, int]]:
    """Keep call triples whose pushed continuation is jumped to somewhere:
    some jump on the value of the push at push_pc lands on cont."""
    jumped = {(value.pc, target) for _ctx, _bid, value, target in result.block_jump_target}
    return frozenset(
        (caller, cont, push_pc)
        for caller, cont, push_pc in raw.private_call_candidates
        if (push_pc, cont) in jumped
    )


def selector_values(
    summaries: dict[int, BlockSummary], per_block: dict[int, Env]
) -> frozenset[AbstractValue]:
    """Values derived from the first four bytes of call data.

    Seeds are loads of call-data word zero narrowed by a 224-bit shift or
    division; masking a member with 0xffffffff keeps membership, applied to
    a fixpoint so chained masks stay in the set.
    """
    records = [rec for s in summaries.values() for rec in s.ops]

    calldata_zero: set[AbstractValue] = set()
    for rec in records:
        if rec.opcode == "CALLDATALOAD" and _has_constant(per_block, rec.operands[0], 0):
            calldata_zero.add(rec.result)

    selectors: set[AbstractValue] = set()
    for rec in records:
        if rec.opcode == "SHR":
            if _has_constant(per_block, rec.operands[0], SELECTOR_SHIFT) and (
                _values(per_block, rec.operands[1]) & calldata_zero
            ):
                selectors.add(rec.result)
        elif rec.opcode == "DIV":
            if _has_constant(per_block, rec.operands[1], SELECTOR_DIVISOR) and (
                _values(per_block, rec.operands[0]) & calldata_zero
            ):
                selectors.add(rec.result)

    grew = True
    while grew:
        grew = False
        for rec in records:
            if rec.opcode != "AND" or rec.result in selectors:
                continue
            a, b = rec.operands
            masked = (
                _has_constant(per_block, a, SELECTOR_MASK) and _values(per_block, b) & selectors
            ) or (
                _has_constant(per_block, b, SELECTOR_MASK) and _values(per_block, a) & selectors
            )
            if masked:
                selectors.add(rec.result)
                grew = True
    return frozenset(selectors)


def confirm_public_calls(
    raw: PatternFacts,
    summaries: dict[int, BlockSummary],
    per_block: dict[int, Env],
    selectors: frozenset[AbstractValue],
) -> frozenset[tuple[int, int, int]]:
    kept = set()
    for bid, selector, target in raw.public_call_candidates:
        summary = summaries[bid]
        eq = chase_condition_to_eq(summary, summary.cond_expr)
        if eq is None:
            continue
        if any(_values(per_block, op) & selectors for op in eq.operands):
            kept.add((bid, selector, target))
    return frozenset(kept)


def compute_important_edges(
    result: AnalysisResult,
    program: BytecodeProgram,
    summaries: dict[int, BlockSummary],
) -> frozenset[tuple[int, int]]:
    """Edges where a merged-in value set first becomes imprecise for a jump.

    A slot is imprecise when its values carry two or more distinct jump
    targets. Only such a merge can split a jump: the global analysis never
    folds constants across blocks, so a merged data constant cannot become
    a jump target later, and values that carry one address all resolve a
    jump alike. Blaming any other merge would only grow contexts (a loop
    counter merged at its header would climb to the depth bound) with no
    jump resolved more precisely. The edge is blamed only if no
    predecessor's output was already imprecise in that slot.
    """
    jump_target = program.jump_target

    def imprecise(env: Env) -> set[int]:
        # The size test first: most slots hold one value and cost no scan.
        return {
            slot
            for slot, vals in env.items()
            if len(vals) >= 2 and len(set(map(jump_target, vals)) - {None}) >= 2
        }

    imprecise_in = {
        key: slots for key, env in result.block_input.items() if (slots := imprecise(env))
    }
    # Only edges into an imprecise slot can be blamed or carry the blame, so
    # only their sources' exit envs are needed.
    edges = [edge for edge in result.global_block_edge if edge[2:] in imprecise_in]
    sources = {(ctx, bid) for ctx, bid, _c2, _b2 in edges}
    imprecise_out = {
        (ctx, bid): imprecise(transfer_block(summaries[bid], result.block_input[(ctx, bid)]))
        for ctx, bid in sources
    }
    from_previous = {
        (ctx2, bid2, slot)
        for ctx, bid, ctx2, bid2 in edges
        for slot in imprecise_in[(ctx2, bid2)] & imprecise_out[(ctx, bid)]
    }
    return frozenset(
        (bid, bid2)
        for ctx, bid, ctx2, bid2 in edges
        for slot in imprecise_in[(ctx2, bid2)]
        if (ctx2, bid2, slot) not in from_previous
    )


def run_preanalysis(
    program: BytecodeProgram,
    summaries: dict[int, BlockSummary],
    raw: PatternFacts,
    depth: int,
    fact_limit: int = DEFAULT_FACT_LIMIT,
    deadline: float = math.inf,
) -> PreanalysisOutcome:
    """Run the fixpoint over the raw candidates and confirm what it saw.

    A run that stops before its fixpoint has not seen every jump, so
    filtering by it would drop real calls: it confirms nothing, returns the
    raw candidates, which are a sound superset, and blames no edge.
    """
    raw_facts = raw_confirmed(raw)
    cfg = SchemeConfig(Scheme.SHRINKING, depth)
    result = analyze(program, summaries, raw_facts, cfg, fact_limit, deadline)
    if result.stop_condition != STOP_FIXPOINT:
        return PreanalysisOutcome(result, raw_facts, raw.public_call_candidates)

    private_triples = confirm_private_calls(raw, result)
    selectors = selector_values(summaries, result.per_block)
    public_triples = confirm_public_calls(raw, summaries, result.per_block, selectors)
    confirmed = ConfirmedFacts(
        public_calls=frozenset((bid, target) for bid, _sel, target in public_triples),
        private_calls=frozenset((caller, cont) for caller, cont, _pc in private_triples),
        private_returns=raw.private_returns,
        important_edges=compute_important_edges(result, program, summaries),
    )
    return PreanalysisOutcome(result, confirmed, public_triples)
