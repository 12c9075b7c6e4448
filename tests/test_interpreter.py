"""Concrete reference interpreter."""

import pytest

from conftest import asm, layout
from evmlift.bytecode import extract_blocks
from evmlift.interpreter import (
    EnvSets,
    EnvValuation,
    concrete_execute,
    enumerate_edges,
    run_block,
)

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


def test_run_block_entry_stack_is_top_first():
    prog = extract_blocks(asm("SUB", "STOP"))
    result = run_block(prog, 0, entry_stack=(10, 4))
    assert result.exit_stack == (6,)
    assert result.halted == "stop"


def test_run_block_reports_jump():
    prog = extract_blocks(layout({0: asm("PUSH1 0x04", "JUMP"), 4: asm("JUMPDEST", "STOP")}))
    result = run_block(prog, 0)
    assert result.jump_target == 4 and result.halted is None


def test_env_sets_product_cap():
    sets = EnvSets(calldatas=[b""] * 101, storages=[{}] * 101)
    with pytest.raises(ValueError):
        list(sets.valuations())


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
