"""Incomplete global pre-analysis.

A first fixpoint pass runs over the still-unconfirmed local patterns. Its
relations are then used three ways: private call candidates are kept only
if the pushed continuation address is actually jumped to, public call
candidates only if the compared constant is checked against a value
derived from the first four bytes of call data, and edges that introduce
imprecision are collected so the main pass can split contexts there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import AnalysisLimits, AnalysisResult, Env, analyze, per_block, transfer_block
from .bytecode import BytecodeProgram
from .context import Scheme, SchemeConfig
from .facts import ConfirmedFacts, PatternFacts, raw_confirmed
from .local import BlockSummary, chase_condition_to_eq
from .values import AbstractValue, DefSite, EntrySlot, constant_of

DEFAULT_FACT_LIMIT = 1_000_000
SELECTOR_SHIFT = 0xE0
SELECTOR_DIVISOR = 1 << 224
SELECTOR_MASK = 0xFFFFFFFF


@dataclass(frozen=True)
class PreanalysisOutcome:
    result: AnalysisResult
    confirmed: ConfirmedFacts
    public_call_sites: frozenset[tuple[int, int, int]]  # (block, selector, target)


class _Resolver:
    """Resolves record operands to value sets using context-merged inputs."""

    def __init__(self, result: AnalysisResult):
        self.inputs = per_block(result.block_input)

    def values(self, operand: AbstractValue) -> frozenset[AbstractValue]:
        if isinstance(operand, EntrySlot):
            return self.inputs.get(operand.block, {}).get(operand.index, frozenset())
        if isinstance(operand, DefSite):
            return frozenset((operand,))
        return frozenset()

    def has_constant(self, operand: AbstractValue, constant: int) -> bool:
        return any(constant_of(v) == constant for v in self.values(operand))


def confirm_private_calls(
    raw: PatternFacts, result: AnalysisResult
) -> frozenset[tuple[int, int, int]]:
    """Keep call triples whose pushed continuation is jumped to somewhere."""
    jumped = {(value, target) for _ctx, _bid, value, target in result.block_jump_target}
    return frozenset(
        (caller, cont, push_pc)
        for caller, cont, push_pc in raw.private_call_candidates
        if (DefSite(push_pc, cont), cont) in jumped
    )


def selector_values(
    summaries: dict[int, BlockSummary], resolver: _Resolver
) -> frozenset[AbstractValue]:
    """Values derived from the first four bytes of call data.

    Seeds are loads of call-data word zero narrowed by a 224-bit shift or
    division; masking a member with 0xffffffff keeps membership, applied to
    a fixpoint so chained masks stay in the set.
    """
    records = [rec for s in summaries.values() for rec in s.ops]

    calldata_zero: set[AbstractValue] = set()
    for rec in records:
        if rec.opcode == "CALLDATALOAD" and resolver.has_constant(rec.operands[0], 0):
            calldata_zero.add(rec.result)

    selectors: set[AbstractValue] = set()
    for rec in records:
        if rec.opcode == "SHR":
            if resolver.has_constant(rec.operands[0], SELECTOR_SHIFT) and (
                resolver.values(rec.operands[1]) & calldata_zero
            ):
                selectors.add(rec.result)
        elif rec.opcode == "DIV":
            if resolver.has_constant(rec.operands[1], SELECTOR_DIVISOR) and (
                resolver.values(rec.operands[0]) & calldata_zero
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
                resolver.has_constant(a, SELECTOR_MASK) and resolver.values(b) & selectors
            ) or (
                resolver.has_constant(b, SELECTOR_MASK) and resolver.values(a) & selectors
            )
            if masked:
                selectors.add(rec.result)
                grew = True
    return frozenset(selectors)


def confirm_public_calls(
    raw: PatternFacts,
    summaries: dict[int, BlockSummary],
    resolver: _Resolver,
    selectors: frozenset[AbstractValue],
) -> frozenset[tuple[int, int, int]]:
    kept = set()
    for bid, selector, target in raw.public_call_candidates:
        summary = summaries[bid]
        eq = chase_condition_to_eq(summary, summary.cond_expr)
        if eq is None:
            continue
        if any(resolver.values(op) & selectors for op in eq.operands):
            kept.add((bid, selector, target))
    return frozenset(kept)


def compute_important_edges(
    result: AnalysisResult,
    program: BytecodeProgram,
    summaries: dict[int, BlockSummary],
    max_stack_depth: int,
) -> frozenset[tuple[int, int]]:
    """Edges where a merged-in value set first becomes imprecise for a jump.

    A slot is imprecise when its values carry two or more distinct jump
    targets. Only such a merge can split a jump: the global analysis never
    folds constants across blocks, so a merged data constant cannot become
    a jump target later, and values that carry one address all resolve a
    jump alike. Blaming any other merge would only grow contexts (a loop
    counter merged at its header would climb to the depth bound) with no
    jump resolved more precisely. The edge is blamed only if the
    imprecision neither flowed out of the predecessor in the same slot nor
    arrived imprecise from some predecessor's output.
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
        (ctx, bid): imprecise(
            transfer_block(summaries[bid], result.block_input[(ctx, bid)], max_stack_depth)
        )
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
        if (ctx2, bid2, slot) not in from_previous and slot not in imprecise_out[(ctx, bid)]
    )


def run_preanalysis(
    program: BytecodeProgram,
    summaries: dict[int, BlockSummary],
    raw: PatternFacts,
    depth: int,
    limits: AnalysisLimits | None = None,
) -> PreanalysisOutcome:
    limits = limits or AnalysisLimits(fact_limit=DEFAULT_FACT_LIMIT)
    cfg = SchemeConfig(Scheme.SHRINKING, depth)
    result = analyze(program, summaries, raw_confirmed(raw), cfg, limits)

    resolver = _Resolver(result)
    private_triples = confirm_private_calls(raw, result)
    selectors = selector_values(summaries, resolver)
    public_triples = confirm_public_calls(raw, summaries, resolver, selectors)
    confirmed = ConfirmedFacts(
        public_calls=frozenset((bid, target) for bid, _sel, target in public_triples),
        private_calls=frozenset((caller, cont) for caller, cont, _pc in private_triples),
        private_returns=raw.private_returns,
        important_edges=compute_important_edges(
            result, program, summaries, limits.max_stack_depth
        ),
    )
    return PreanalysisOutcome(result=result, confirmed=confirmed, public_call_sites=public_triples)
