"""Incomplete global pre-analysis.

A first fixpoint pass runs over the still-unconfirmed local patterns. Its
relations are then used three ways: private call candidates are kept only
if the pushed continuation address is actually jumped to, public call
candidates only if the compared constant is checked against a value
derived from the first four bytes of call data, and edges that introduce
imprecision are collected so the main pass can split contexts there.
Public-call confirmation reads the per-block projection the fixpoint
returns with (AnalysisResult.per_block) and runs only when there are
public candidates. A pass that stops short of its fixpoint does none of this:
its outcome carries the raw candidates.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .analysis import DEFAULT_FACT_LIMIT, STOP_FIXPOINT, AnalysisResult, Env, analyze, resolve, transfer_block
from .bytecode import BytecodeProgram
from .context import Scheme, SchemeConfig
from .facts import ConfirmedFacts, PatternFacts, confirmed_facts, raw_confirmed
from .local import BlockSummary, chase_condition_to_eq
from .values import AbstractValue

SELECTOR_SHIFT = 0xE0
SELECTOR_DIVISOR = 1 << 224
SELECTOR_MASK = 0xFFFFFFFF
_SELECTOR_OPCODES = frozenset({"CALLDATALOAD", "SHR", "DIV", "AND"})


class PreanalysisOutcome(NamedTuple):
    result: AnalysisResult
    confirmed: ConfirmedFacts
    public_call_sites: frozenset[tuple[int, int, int]]  # (block, selector, target)


def confirm_private_calls(
    raw: PatternFacts, result: AnalysisResult
) -> frozenset[tuple[int, int, int]]:
    """Keep call triples whose pushed continuation is jumped to somewhere:
    some jump on the value of the push at push_pc lands on cont."""
    jumped = {(value, target) for _ctx, _bid, value, target in result.block_jump_target}
    return frozenset(
        (caller, cont, push_pc)
        for caller, cont, push_pc in raw.private_call_candidates
        if (push_pc, cont) in jumped
    )


def selector_values(
    summaries: dict[int, BlockSummary], per_block: dict[int, Env], constants: dict[int, int]
) -> frozenset[AbstractValue]:
    """Values derived from the first four bytes of call data.

    Seeds are loads of call-data word zero narrowed by a 224-bit shift or
    division; masking a member with 0xffffffff keeps membership, applied to
    a fixpoint so chained masks stay in the set. constants is the
    program's pc -> constant table.
    """
    # Only these four opcodes seed or grow the set, so only their records are kept.
    records = [
        (per_block.get(bid, ()), opcode, operands, result)
        for bid, s in summaries.items()
        for _pc, opcode, operands, result in s.ops
        if opcode in _SELECTOR_OPCODES
    ]

    def has_constant(entry: Env, operand: AbstractValue, constant: int) -> bool:
        return any(constants.get(v) == constant for v in resolve(entry, operand))

    calldata_zero: set[AbstractValue] = set()
    for entry, opcode, operands, result in records:
        if opcode == "CALLDATALOAD" and has_constant(entry, operands[0], 0):
            calldata_zero.add(result)

    selectors: set[AbstractValue] = set()
    for entry, opcode, operands, result in records:
        if opcode == "SHR":
            if has_constant(entry, operands[0], SELECTOR_SHIFT) and (
                resolve(entry, operands[1]) & calldata_zero
            ):
                selectors.add(result)
        elif opcode == "DIV":
            if has_constant(entry, operands[1], SELECTOR_DIVISOR) and (
                resolve(entry, operands[0]) & calldata_zero
            ):
                selectors.add(result)

    grew = True
    while grew:
        grew = False
        for entry, opcode, operands, result in records:
            if opcode != "AND" or result in selectors:
                continue
            a, b = operands
            masked = (
                has_constant(entry, a, SELECTOR_MASK) and resolve(entry, b) & selectors
            ) or (
                has_constant(entry, b, SELECTOR_MASK) and resolve(entry, a) & selectors
            )
            if masked:
                selectors.add(result)
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
        _pc, _opcode, operands, _result = eq
        entry = per_block.get(bid, ())
        if any(resolve(entry, op) & selectors for op in operands):
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
    jump_target = program.targets.get

    def imprecise(env: Env) -> set[int]:
        # The size test first: most slots hold one value and cost no scan.
        return {
            slot
            for slot, vals in enumerate(env)
            if len(vals) >= 2 and len(set(map(jump_target, vals)) - {None}) >= 2
        }

    # Most envs hold one value per slot; those are passed over at C speed.
    imprecise_in = {
        key: slots
        for key, env in result.block_input.items()
        if env and max(map(len, env)) >= 2 and (slots := imprecise(env))
    }
    if not imprecise_in:
        return frozenset()
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
    # tuple.__new__ builds a record without its NamedTuple's Python-level __new__
    new = tuple.__new__
    raw_facts = raw_confirmed(raw)
    cfg = new(SchemeConfig, (Scheme.SHRINKING, depth))
    result = analyze(program, summaries, raw_facts, cfg, fact_limit, deadline)
    if result.stop_condition != STOP_FIXPOINT:
        return new(PreanalysisOutcome, (result, raw_facts, raw.public_call_candidates))

    private_triples = confirm_private_calls(raw, result)
    # Without public candidates there is nothing to confirm.
    public_triples: frozenset[tuple[int, int, int]] = frozenset()
    if raw.public_call_candidates:
        selectors = selector_values(summaries, result.per_block, program.constants)
        public_triples = confirm_public_calls(raw, summaries, result.per_block, selectors)
    confirmed = confirmed_facts(
        frozenset((bid, target) for bid, _sel, target in public_triples),
        frozenset((caller, cont) for caller, cont, _pc in private_triples),
        raw.private_returns,
        compute_important_edges(result, program, summaries),
    )
    return new(PreanalysisOutcome, (result, confirmed, public_triples))
