"""Local block summaries and symbolic pattern detection."""

from conftest import (
    asm,
    balancing_example_code,
    dispatch_pair_code,
    inlined_call_code,
    chained_call_code,
    layout,
)
from evmlift.bytecode import extract_blocks
from evmlift.interpreter import binop
from evmlift.local import (
    chase_condition_to_eq,
    detect_patterns,
    detect_private_call_candidates,
    detect_private_returns,
    detect_public_call_candidates,
    detect_stack_balancing_blocks,
    summarize_block,
    summarize_program,
)
from evmlift.values import DefSite, EntrySlot

WORD = 1 << 256


def _summary(code: bytes, block: int = 0):
    prog = extract_blocks(code)
    return summarize_block(prog.blocks[block], prog), prog


def test_fold_semantics():
    # folding uses the interpreter's arithmetic; operands are top of stack first
    assert binop("ADD", WORD - 1, 2) == 1  # wraps mod 2^256
    assert binop("SUB", 1, 2) == WORD - 1
    assert binop("SHL", 4, 1) == 16  # operands are (shift, value)
    assert binop("SHR", 4, 0x100) == 0x10
    assert binop("DIV", 7, 2) == 3
    assert binop("DIV", 7, 0) == 0
    assert binop("AND", 0xFF0, 0x0FF) == 0x0F0
    assert binop("EQ", 5, 5) == 1
    assert binop("ISZERO", 0) == 1
    assert binop("ISZERO", 3) == 0


def test_summary_folds_constants():
    summary, _ = _summary(asm("PUSH1 0x02", "PUSH1 0x03", "ADD", "STOP"))
    assert summary.produced == (DefSite(0x4, 5),)
    assert summary.consumed_depth == 0


def test_summary_entry_slots_and_passthrough():
    # DUP2 forces two entry slots; the jump consumes the ADD result
    summary, _ = _summary(asm("DUP2", "ADD", "JUMP"))
    assert summary.consumed_depth == 2
    assert summary.produced == (EntrySlot(0, 1),)
    assert summary.target_expr == DefSite(0x1)
    assert summary.read_slots() == frozenset({0, 1})


def test_summary_swap_reorders():
    summary, _ = _summary(asm("PUSH1 0x07", "SWAP1", "STOP"))
    assert summary.produced == (EntrySlot(0, 0), DefSite(0x0, 7))
    assert summary.consumed_depth == 1


def test_summary_records_skip_stack_shuffles():
    summary, _ = _summary(asm("JUMPDEST", "PUSH1 0x01", "DUP1", "SWAP1", "POP", "ADD", "STOP"))
    assert [rec.opcode for rec in summary.ops] == ["PUSH1", "ADD", "STOP"]


def test_summary_too_deep():
    # consuming more entry slots than the EVM stack can hold
    ops = ["POP"] * 1025 + ["STOP"]
    summary, _ = _summary(asm(*ops))
    assert summary.too_deep
    deep_pushes, _ = _summary(asm(*(["PUSH1 0x00"] * 1025 + ["STOP"])))
    assert not deep_pushes.too_deep


def test_local_jump_target_requires_plausible_constant():
    # in-code target
    summary, _ = _summary(layout({0: asm("PUSH1 0x04", "JUMP"), 4: asm("JUMPDEST", "STOP")}))
    assert summary.local_jump_target == 0x4
    # out-of-code target
    summary, _ = _summary(asm("PUSH2 0xbeef", "JUMP"))
    assert summary.local_jump_target is None


def test_chase_condition_through_iszero():
    code = asm(
        "PUSH1 0x00",
        "CALLDATALOAD",
        "PUSH1 0x2a",
        "EQ",
        "ISZERO",
        "ISZERO",
        "PUSH1 0x10",
        "JUMPI",
        "STOP",
    )
    summary, _ = _summary(code)
    rec = chase_condition_to_eq(summary, summary.cond_expr)
    assert rec is not None and rec.opcode == "EQ"
    # a third negation is out of range
    code3 = asm(
        "PUSH1 0x00",
        "CALLDATALOAD",
        "PUSH1 0x2a",
        "EQ",
        "ISZERO",
        "ISZERO",
        "ISZERO",
        "PUSH1 0x10",
        "JUMPI",
        "STOP",
    )
    summary3, _ = _summary(code3)
    assert chase_condition_to_eq(summary3, summary3.cond_expr) is None


def test_public_call_candidates_on_dispatch_pair():
    prog = extract_blocks(dispatch_pair_code())
    found = detect_public_call_candidates(prog, summarize_program(prog))
    assert found == frozenset({(0x0, 0x12E49406, 0x38), (0x29, 0x87D7A5F4, 0x54)})


def test_public_candidate_requires_selector_width():
    # compared constant wider than four bytes is not a selector comparison
    code = layout(
        {
            0: asm("PUSH1 0x00", "CALLDATALOAD", "PUSH5 0x1100000000", "EQ", "PUSH1 0x10", "JUMPI", "STOP"),
            0x10: asm("JUMPDEST", "STOP"),
        }
    )
    prog = extract_blocks(code)
    assert detect_public_call_candidates(prog, summarize_program(prog)) == frozenset()


def test_private_call_candidates_on_inlined_call():
    prog = extract_blocks(inlined_call_code())
    summaries = summarize_program(prog)
    assert detect_private_call_candidates(prog, summaries) == frozenset({(0x129, 0x132, 0x12A)})
    assert detect_private_returns(prog, summaries) == frozenset({0x109})


def test_private_call_candidates_on_chained_calls():
    prog = extract_blocks(chained_call_code())
    summaries = summarize_program(prog)
    assert detect_private_call_candidates(prog, summaries) == frozenset(
        {
            (0x58, 0x72, 0x60),
            (0x58, 0x72, 0x66),
            (0x58, 0x77, 0x5A),
            (0x90, 0x72, 0x98),
            (0x90, 0x72, 0x9E),
            (0x90, 0x77, 0x92),
        }
    )
    assert detect_private_returns(prog, summaries) == frozenset({0x1C7, 0x1D0})


def test_stack_balancing_detection():
    prog = extract_blocks(balancing_example_code())
    assert detect_stack_balancing_blocks(prog) == frozenset({0x0})
    # an arithmetic op disqualifies the block
    prog2 = extract_blocks(asm("JUMPDEST", "SWAP1", "ADD", "JUMP"))
    assert detect_stack_balancing_blocks(prog2) == frozenset()


def test_detect_patterns_bundles_all_facts():
    prog = extract_blocks(chained_call_code())
    facts = detect_patterns(prog, summarize_program(prog))
    assert facts.public_call_candidates
    assert facts.private_call_candidates
    assert facts.private_returns == frozenset({0x1C7, 0x1D0})
