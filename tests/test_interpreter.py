"""Concrete reference interpreter."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import asm, layout
from evmlift.bytecode import extract_blocks
from evmlift.interpreter import (
    ARITHMETIC,
    EnvSets,
    EnvValuation,
    binop,
    concrete_execute,
    enumerate_edges,
    run_block,
)
from evmlift.local import FOLDABLE
from evmlift.opcodes import BY_NAME, STACK_LIMIT

WORD = 1 << 256


def _run(code: bytes, **kwargs):
    return concrete_execute(extract_blocks(code), **kwargs)


def test_straight_line_arithmetic():
    trace = _run(asm("PUSH1 0x01", "PUSH1 0x02", "ADD", "STOP"))
    assert trace.halted == "stop"
    assert trace.stack == (3,)
    assert trace.visits == (0,)


def test_signed_operations():
    # SDIV truncates toward zero; SMOD keeps the dividend's sign
    neg8 = WORD - 8
    neg2 = WORD - 2
    trace = _run(asm("PUSH1 0x03", f"PUSH32 0x{neg8:064x}", "SDIV", "STOP"))
    assert trace.stack == (neg2,)
    trace = _run(asm("PUSH1 0x03", f"PUSH32 0x{neg8:064x}", "SMOD", "STOP"))
    assert trace.stack == (WORD - 2,)


def test_signextend_and_sar():
    trace = _run(asm("PUSH1 0xff", "PUSH1 0x00", "SIGNEXTEND", "STOP"))
    assert trace.stack == (WORD - 1,)
    neg16 = WORD - 16
    trace = _run(asm(f"PUSH32 0x{neg16:064x}", "PUSH1 0x02", "SAR", "STOP"))
    assert trace.stack == (WORD - 4,)


def test_comparison_and_bitwise():
    trace = _run(asm("PUSH1 0x02", "PUSH1 0x01", "LT", "STOP"))
    assert trace.stack == (1,)
    trace = _run(asm("PUSH1 0x0f", "PUSH1 0xf0", "OR", "STOP"))
    assert trace.stack == (0xFF,)
    trace = _run(asm("PUSH1 0x00", "NOT", "STOP"))
    assert trace.stack == (WORD - 1,)


def test_division_by_zero_yields_zero():
    trace = _run(asm("PUSH1 0x00", "PUSH1 0x07", "DIV", "STOP"))
    assert trace.stack == (0,)
    trace = _run(asm("PUSH1 0x00", "PUSH1 0x07", "MOD", "STOP"))
    assert trace.stack == (0,)


@pytest.mark.parametrize(
    "opcode, a, b, expected",
    [
        # a is the top of the stack; a signed division by zero is 0 as well
        ("SDIV", 5, 0, 0),
        ("SMOD", WORD - 5, 0, 0),
        ("EXP", 3, 5, 243),
        ("EXP", 2, 255, 1 << 255),
        ("EXP", 2, 256, 0),  # 2**256 wraps to 0
        # byte index 31 or more leaves the word as it is
        ("SIGNEXTEND", 31, 0x80 << 240, 0x80 << 240),
        ("SIGNEXTEND", 40, 0xFF, 0xFF),
        # sign bit of byte 0 clear: the bits above it are cleared
        ("SIGNEXTEND", 0, 0x17F, 0x7F),
        ("SLT", WORD - 1, 0, 1),  # -1 < 0
        ("SLT", 0, WORD - 1, 0),
        ("SGT", 0, WORD - 1, 1),  # 0 > -1
        ("SGT", WORD - 1, 0, 0),
        ("BYTE", 31, 0x1234, 0x34),  # byte 31 is the least significant
        ("BYTE", 30, 0x1234, 0x12),
        ("BYTE", 0, 0xAB << 248, 0xAB),
        ("BYTE", 32, WORD - 1, 0),
        # a shift of 256 or more fills the word with the sign bit
        ("SAR", 256, WORD - 16, WORD - 1),
        ("SAR", 300, 16, 0),
    ],
)
def test_binop_matches_the_evm(opcode, a, b, expected):
    assert binop(opcode, a, b) == expected


def test_binop_rejects_an_opcode_it_does_not_cover():
    with pytest.raises(KeyError):
        binop("BALANCE", 1)


def test_every_arithmetic_entry_takes_its_opcodes_operands():
    for mnemonic, fn in ARITHMETIC.items():
        assert fn.__code__.co_argcount == BY_NAME[mnemonic].pops, mnemonic
        assert BY_NAME[mnemonic].pops in (1, 2, 3), mnemonic  # what step pops
        assert BY_NAME[mnemonic].pushes == 1, mnemonic


def test_constant_folding_folds_only_opcodes_in_the_table():
    assert FOLDABLE <= ARITHMETIC.keys()


_WORDS = st.lists(st.integers(0, WORD - 1), min_size=3, max_size=3)


@pytest.mark.parametrize("mnemonic", sorted(ARITHMETIC))
@given(words=_WORDS)
def test_every_arithmetic_entry_maps_words_to_a_word(mnemonic, words):
    assert 0 <= binop(mnemonic, *words[: BY_NAME[mnemonic].pops]) < WORD


def test_addmod_and_mulmod_reduce_the_full_precision_result():
    # ADDMOD(a, b, n) pops a first: (2**256 - 1 + 2) % 3 == 2, since 2**256 % 3 == 1
    trace = _run(asm("PUSH1 0x03", "PUSH1 0x02", f"PUSH32 0x{WORD - 1:064x}", "ADDMOD", "STOP"))
    assert trace.stack == (2,)
    # (2**256 - 1) ** 2 % 12 == 9, since 2**256 % 12 == 4
    max_word = f"PUSH32 0x{WORD - 1:064x}"
    trace = _run(asm("PUSH1 0x0c", max_word, max_word, "MULMOD", "STOP"))
    assert trace.stack == (9,)
    # a zero modulus gives 0
    trace = _run(asm("PUSH0", "PUSH1 0x02", "PUSH1 0x03", "ADDMOD", "STOP"))
    assert trace.stack == (0,)
    trace = _run(asm("PUSH0", "PUSH1 0x02", "PUSH1 0x03", "MULMOD", "STOP"))
    assert trace.stack == (0,)


def test_dup_and_swap_past_the_stack_are_invalid():
    assert _run(asm("PUSH1 0x01", "DUP2", "STOP")).halted == "invalid"
    assert _run(asm("PUSH1 0x01", "SWAP1", "STOP")).halted == "invalid"


def test_a_push_past_the_stack_limit_is_invalid():
    full = _run(asm(*["PUSH0"] * STACK_LIMIT, "STOP"))
    assert full.halted == "stop" and len(full.stack) == STACK_LIMIT
    assert _run(asm(*["PUSH0"] * (STACK_LIMIT + 1), "STOP")).halted == "invalid"


def test_jump_and_invalid_target():
    good = layout({0: asm("PUSH1 0x04", "JUMP"), 4: asm("JUMPDEST", "STOP")})
    trace = _run(good)
    assert trace.halted == "stop" and trace.visits == (0, 4)
    # jumping to an address without a JUMPDEST aborts
    bad = layout({0: asm("PUSH1 0x04", "JUMP"), 4: asm("STOP")})
    assert _run(bad).halted == "invalid"


def test_jumpi_follows_condition():
    code = layout(
        {
            0: asm("PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x08", "JUMPI", "STOP"),
            8: asm("JUMPDEST", "PUSH1 0x01", "POP", "STOP"),
        }
    )
    taken = _run(code, env=EnvValuation(calldata=bytes(31) + b"\x01"))
    assert taken.visits == (0, 8)
    fallthrough = _run(code, env=EnvValuation(calldata=b""))
    assert fallthrough.visits == (0, 6)


def test_fallthrough_off_code_end_stops():
    trace = _run(asm("PUSH1 0x01", "POP"))
    assert trace.halted == "stop"


def test_unknown_entry_block_is_invalid():
    trace = _run(asm("STOP"), entry_block=99)
    assert trace.halted == "invalid"


def test_out_of_steps():
    trace = _run(asm("JUMPDEST", "PUSH1 0x00", "JUMP"), max_steps=50)
    assert trace.halted == "out-of-steps"
    assert trace.steps == 50


def test_halt_reasons():
    assert _run(asm("PUSH0", "PUSH0", "REVERT")).halted == "revert"
    assert _run(asm("PUSH0", "PUSH0", "RETURN")).halted == "return"
    assert _run(bytes([0xFE])).halted == "invalid"
    assert _run(asm("PUSH0", "SELFDESTRUCT")).halted == "stop"


def test_stack_underflow_is_invalid():
    assert _run(asm("POP", "STOP")).halted == "invalid"
    # an arithmetic opcode short of operands pops all there is
    trace = _run(asm("PUSH1 0x01", "PUSH1 0x02", "ADDMOD", "STOP"))
    assert trace.halted == "invalid" and trace.stack == ()


def test_calldataload_zero_pads():
    trace = _run(
        asm("PUSH1 0x00", "CALLDATALOAD", "STOP"),
        env=EnvValuation(calldata=b"\xab"),
    )
    assert trace.stack == (0xAB << 248,)
    trace = _run(asm("PUSH1 0x40", "CALLDATALOAD", "STOP"), env=EnvValuation(calldata=b"\xab"))
    assert trace.stack == (0,)


def test_calldatasize():
    trace = _run(asm("CALLDATASIZE", "STOP"), env=EnvValuation(calldata=b"\x01\x02\x03"))
    assert trace.stack == (3,)


def test_storage_reads_and_writes():
    # writes land in a per-run copy, visible to later reads in the same run
    code = asm("PUSH1 0x2a", "PUSH1 0x05", "SSTORE", "PUSH1 0x05", "SLOAD", "STOP")
    env = EnvValuation()
    trace = concrete_execute(extract_blocks(code), env)
    assert trace.stack == (0x2A,)
    assert env.storage == {}
    preset = EnvValuation(storage={7: 99})
    trace = _run(asm("PUSH1 0x07", "SLOAD", "STOP"), env=preset)
    assert trace.stack == (99,)


def test_environment_defaults():
    trace = _run(asm("TIMESTAMP", "STOP"))
    assert trace.stack == (0,)
    trace = _run(asm("TIMESTAMP", "STOP"), env=EnvValuation(env={"TIMESTAMP": 123}))
    assert trace.stack == (123,)


def test_pc_pushes_its_own_address_whatever_the_valuation():
    code = layout({0: asm("PUSH1 0x04", "JUMP"), 4: asm("JUMPDEST", "PC", "STOP")})
    trace = _run(code, env=EnvValuation(env={"PC": 99}))
    assert trace.stack == (5,)
    assert run_block(extract_blocks(code), 4).exit_stack == (5,)


def test_codesize_pushes_the_length_of_the_code():
    code = asm("PUSH1 0x01", "POP", "CODESIZE", "STOP")
    trace = _run(code, env=EnvValuation(env={"CODESIZE": 99}))
    assert trace.stack == (len(code),)
    assert run_block(extract_blocks(code), 0).exit_stack == (len(code),)


def test_a_jump_computed_from_pc_lands_where_the_code_says():
    # JUMPDEST; PC; PUSH1 5; ADD; JUMP; JUMPDEST; STOP: PC is 1, so 1 + 5 names 0x6
    trace = _run(bytes.fromhex("5b58600501565b00"))
    assert trace.visits == (0, 6) and trace.halted == "stop"


def test_run_block_entry_stack_is_top_first():
    prog = extract_blocks(asm("SUB", "STOP"))
    result = run_block(prog, 0, entry_stack=(10, 4))
    assert result.exit_stack == (6,)
    assert result.halted == "stop"


def test_run_block_reports_jump():
    prog = extract_blocks(layout({0: asm("PUSH1 0x04", "JUMP"), 4: asm("JUMPDEST", "STOP")}))
    result = run_block(prog, 0)
    assert result.jump_target == 4 and result.halted is None


def test_enumerate_edges_covers_both_branches():
    code = layout(
        {
            0: asm("PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x08", "JUMPI", "STOP"),
            8: asm("JUMPDEST", "STOP"),
        }
    )
    prog = extract_blocks(code)
    edges = enumerate_edges(prog, EnvSets(calldatas=[b"", bytes(31) + b"\x01"]))
    assert edges == frozenset({(0, 6), (0, 8)})
