"""Local block summaries and symbolic pattern detection."""

from conftest import (
    asm,
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
    summarize_block,
    summarize_program,
)
from evmlift.pipeline import run_pipeline
from evmlift.values import entry_slot

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
    summary, prog = _summary(asm("PUSH1 0x02", "PUSH1 0x03", "ADD", "STOP"))
    assert summary.produced == (0x4,)
    assert prog.constants == {0x0: 2, 0x2: 3, 0x4: 5}
    assert summary.consumed_depth == 0


def test_pc_and_codesize_fold_to_what_the_code_fixes():
    # JUMPDEST; PC; PUSH1 5; ADD; JUMP; JUMPDEST; STOP: PC is 1, so 1 + 5 names 0x6
    code = bytes.fromhex("5b58600501565b00")
    summary, prog = _summary(code)
    assert prog.constants[0x1] == 0x1 and prog.constants[0x4] == 0x6
    assert summary.local_jump_target == 0x6
    res = run_pipeline(code)
    assert res.analysis.edge_pairs() == {(0x0, 0x6)}
    assert res.metrics.missing_control_flow == 0
    assert _summary(asm("CODESIZE", "PC", "STOP"))[1].constants == {0x0: 3, 0x1: 0x1}
    # A value folded from PC names 0x8 on block 0's exit stack, but it is no
    # push, so block 0 passes no continuation.
    prog = extract_blocks(layout({0x0: asm("PC", "PUSH1 0x08", "ADD", "PUSH1 0x08", "JUMP"), 0x8: asm("JUMPDEST", "STOP")}))
    summaries = summarize_program(prog)
    assert summaries[0x0].produced == (0x3,) and prog.targets[0x3] == 0x8
    assert summaries[0x0].local_jump_target == 0x8
    assert detect_patterns(prog, summaries).private_call_candidates == frozenset()


def test_summary_entry_slots_and_passthrough():
    # DUP2 forces two entry slots; the jump consumes the ADD result
    summary, prog = _summary(asm("DUP2", "ADD", "JUMP"))
    assert summary.consumed_depth == 2
    assert summary.produced == (entry_slot(1),)
    assert summary.target_expr == 0x1 and 0x1 not in prog.constants
    assert summary.read_slots() == frozenset({0, 1})
    # DUP16 puts entry slots 15..0 under the stack at once, POPs drop the
    # top three, and SWAP16 puts slots 18, 17, 16 under what is left.
    summary, _ = _summary(asm("DUP16", "SWAP16", "POP", "POP", "POP", "SWAP16", "STOP"))
    assert summary.consumed_depth == 19
    assert summary.produced == (entry_slot(18), *map(entry_slot, range(3, 18)), entry_slot(2))


def test_summary_swap_reorders():
    summary, prog = _summary(asm("PUSH1 0x07", "SWAP1", "STOP"))
    assert summary.produced == (entry_slot(0), 0x0)
    assert prog.constants == {0x0: 7}
    assert summary.consumed_depth == 1


def test_summary_records_skip_stack_shuffles():
    summary, _ = _summary(asm("JUMPDEST", "PUSH1 0x01", "DUP1", "SWAP1", "POP", "ADD", "STOP"))
    assert [opcode for _pc, opcode, _operands, _result in summary.ops] == ["PUSH1", "ADD", "STOP"]


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
    assert rec is not None
    _pc, opcode, _operands, _result = rec
    assert opcode == "EQ"
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
    found = detect_patterns(prog, summarize_program(prog)).public_call_candidates
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
    assert detect_patterns(prog, summarize_program(prog)).public_call_candidates == frozenset()


def test_private_call_candidates_on_inlined_call():
    prog = extract_blocks(inlined_call_code())
    facts = detect_patterns(prog, summarize_program(prog))
    assert facts.private_call_candidates == frozenset({(0x129, 0x132, 0x12A)})
    assert facts.private_returns == frozenset({0x109})


def test_private_call_candidates_on_chained_calls():
    prog = extract_blocks(chained_call_code())
    facts = detect_patterns(prog, summarize_program(prog))
    assert facts.private_call_candidates == frozenset(
        {
            (0x58, 0x72, 0x60),
            (0x58, 0x72, 0x66),
            (0x58, 0x77, 0x5A),
            (0x90, 0x72, 0x98),
            (0x90, 0x72, 0x9E),
            (0x90, 0x77, 0x92),
        }
    )
    assert facts.private_returns == frozenset({0x1C7, 0x1D0})


def test_detect_patterns_bundles_all_facts():
    prog = extract_blocks(chained_call_code())
    facts = detect_patterns(prog, summarize_program(prog))
    assert facts.public_call_candidates
    assert facts.private_call_candidates
    assert facts.private_returns == frozenset({0x1C7, 0x1D0})
