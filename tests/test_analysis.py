"""Global worklist fixpoint over (context, block) pairs."""

import time

from conftest import asm, chained_call_code, layout
from evmlift.analysis import (
    AnalysisLimits,
    analyze,
    transfer_block,
)
from evmlift.bytecode import BytecodeProgram, extract_blocks
from evmlift.context import INITIAL_CONTEXT, Context, Scheme, SchemeConfig
from evmlift.facts import ConfirmedFacts
from evmlift.local import summarize_block, summarize_program
from evmlift.values import UNDERFLOW, DefSite, EntrySlot


def _summary(code: bytes, bid: int = 0):
    prog = extract_blocks(code)
    return summarize_block(prog.blocks[bid], prog)


A, B, C = DefSite(0x100, 0xA), DefSite(0x101, 0xB), DefSite(0x102, 0xC)


def test_transfer_constants():
    summary = _summary(asm("PUSH1 0x07", "STOP"))
    out = transfer_block(summary, {}, 100)
    assert out == {0: {DefSite(0x0, 0x07)}}


def test_transfer_shifts_passthrough_slots():
    summary = _summary(asm("POP", "STOP"))
    out = transfer_block(summary, {0: {A}, 1: {B}}, 100)
    assert out == {0: {B}}
    summary = _summary(asm("PUSH1 0x07", "STOP"))
    out = transfer_block(summary, {0: {A}}, 100)
    assert out == {0: {DefSite(0x0, 0x07)}, 1: {A}}


def test_transfer_reads_entry_slots():
    summary = _summary(asm("DUP2", "STOP"))
    out = transfer_block(summary, {0: {A}, 1: {B}}, 100)
    assert out == {0: {B}, 1: {A}, 2: {B}}


def test_transfer_flags_underflow():
    summary = _summary(asm("DUP1", "STOP"))
    out = transfer_block(summary, {}, 100)
    assert out == {0: {UNDERFLOW}, 1: {UNDERFLOW}}


def test_transfer_truncates_at_max_stack_depth():
    summary = _summary(asm("PUSH1 0x01", "PUSH1 0x02", "PUSH1 0x03", "STOP"))
    out = transfer_block(summary, {}, 2)
    assert out == {0: {DefSite(0x4, 3)}, 1: {DefSite(0x2, 2)}}
    summary = _summary(asm("PUSH1 0x07", "STOP"))
    out = transfer_block(summary, {0: {A}, 1: {B}, 2: {C}}, 2)
    assert out == {0: {DefSite(0x0, 7)}, 1: {A}}


def _analyze(code: bytes, facts=ConfirmedFacts(), scheme=Scheme.SHRINKING, limits=None):
    prog = extract_blocks(code)
    return analyze(prog, summarize_program(prog), facts, SchemeConfig.default(scheme), limits)


BRANCH = layout(
    {
        0: asm("PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x08", "JUMPI", "STOP"),
        8: asm("JUMPDEST", "STOP"),
    }
)


def test_conditional_jump_yields_both_edges_in_same_context():
    result = _analyze(BRANCH)
    assert result.stop_condition == "fixpoint"
    assert result.global_block_edge == {
        (INITIAL_CONTEXT, 0, INITIAL_CONTEXT, 8),
        (INITIAL_CONTEXT, 0, INITIAL_CONTEXT, 6),
    }
    assert result.edge_pairs() == frozenset({(0, 8), (0, 6)})
    assert result.block_jump_target == {(INITIAL_CONTEXT, 0, DefSite(0x3, 8), 8)}


def test_unresolved_jump_is_reported_not_followed():
    result = _analyze(asm("PUSH1 0x00", "CALLDATALOAD", "JUMP"))
    assert result.transfers == 1
    assert result.global_block_edge == set()
    assert result.block_jump_target == set()


def test_invalid_jump_target_is_reported():
    result = _analyze(asm("PUSH1 0x05", "JUMP", "STOP"))
    assert result.transfers == 1
    assert result.global_block_edge == set()
    assert result.block_jump_target == set()


def test_underflowing_entry_block_is_flagged():
    code = asm("DUP1", "STOP")
    result = _analyze(code)
    entry = result.block_input[(INITIAL_CONTEXT, 0)]
    assert transfer_block(_summary(code), entry, 100) == {0: {UNDERFLOW}, 1: {UNDERFLOW}}


CALL_RETURN = layout(
    {
        0x00: asm("PUSH1 0x06", "PUSH1 0x08", "JUMP"),
        0x06: asm("JUMPDEST", "STOP"),
        0x08: asm("JUMPDEST", "JUMP"),
    }
)
CALL_RETURN_FACTS = ConfirmedFacts(
    private_calls=frozenset({(0x0, 0x6)}),
    private_returns=frozenset({0x8}),
)


def test_call_edge_grows_context_and_return_restores_it():
    result = _analyze(CALL_RETURN, facts=CALL_RETURN_FACTS)
    inner = Context(None, (0x0,))
    assert result.global_block_edge == {
        (INITIAL_CONTEXT, 0x0, inner, 0x8),
        (inner, 0x8, INITIAL_CONTEXT, 0x6),
    }
    assert set(result.block_input) == {(INITIAL_CONTEXT, 0x0), (inner, 0x8), (INITIAL_CONTEXT, 0x6)}


def test_fact_limit_stops_early():
    result = _analyze(chained_call_code(), limits=AnalysisLimits(fact_limit=5))
    assert result.stop_condition == "fact-limit"
    assert result.fact_count > 5


def test_deadline_stops_early():
    result = _analyze(BRANCH, limits=AnalysisLimits(deadline=time.monotonic() - 1.0))
    assert result.stop_condition == "timeout"
    assert result.transfers == 0


def test_too_deep_blocks_are_not_transferred():
    code = asm(*(["POP"] * 1025 + ["STOP"]))
    result = _analyze(code)
    assert result.stop_condition == "fixpoint"
    assert result.transfers == 0


def test_empty_program_fixpoints_immediately():
    empty = BytecodeProgram(code=b"", blocks={}, jumpdests=frozenset())
    result = analyze(empty, {}, ConfirmedFacts(), SchemeConfig.default(Scheme.SHRINKING))
    assert result.stop_condition == "fixpoint"
    assert result.block_input == {}


def test_analysis_is_deterministic():
    first = _analyze(chained_call_code())
    second = _analyze(chained_call_code())
    assert first.block_input == second.block_input
    assert first.block_jump_target == second.block_jump_target
    assert first.global_block_edge == second.global_block_edge
    assert (first.fact_count, first.transfers) == (second.fact_count, second.transfers)
