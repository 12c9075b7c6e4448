"""Decoder and basic-block extraction."""

from dataclasses import replace

import pytest

from conftest import asm, chained_call_code, layout
from evmlift.bytecode import (
    BytecodeError,
    Terminator,
    disassemble,
    extract_blocks,
    parse_bytecode_text,
    read_bytecode_file,
)
from evmlift.opcodes import BY_NAME, TABLE

MAX_CODE_SIZE = 24576


def test_disassemble_simple():
    ins = disassemble(asm("PUSH1 0x01", "PUSH1 0x02", "ADD", "STOP"))
    assert [(i.pc, i.opcode) for i in ins] == [(0, "PUSH1"), (2, "PUSH1"), (4, "ADD"), (5, "STOP")]
    assert ins[0].pushed_value == 1 and ins[1].pushed_value == 2
    assert ins[0].size == 2 and ins[2].size == 1


def test_every_byte_decodes_through_the_one_table():
    halting = {"STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT"}
    for b in range(256):
        info = TABLE[b]
        ins = disassemble(bytes([b]))[0]
        assert ins.opcode == info.mnemonic
        if info.byte != b:
            assert (ins.opcode, ins.size) == ("INVALID", 1)
            assert extract_blocks(bytes([b])).blocks[0].terminator is Terminator.HALT
            continue
        assert BY_NAME[info.mnemonic].byte == b
        assert info.is_push is (0x5F <= b <= 0x7F)
        if info.is_push:
            assert info.size == ins.size == b - 0x5F + 1
        if info.mnemonic == "JUMP":
            assert info.terminator is Terminator.JUMP
        elif info.mnemonic == "JUMPI":
            assert info.terminator is Terminator.CONDITIONAL_JUMP
        elif info.mnemonic in halting:
            assert info.terminator is Terminator.HALT
        else:
            assert info.terminator is Terminator.FALLTHROUGH


def test_disassemble_truncated_push_zero_padded():
    # immediate runs past the end of the code: missing bytes read as zero
    ins = disassemble(bytes([0x61, 0xAB]))
    assert len(ins) == 1
    assert ins[0].opcode == "PUSH2"
    assert ins[0].pushed_value == 0xAB00
    ins = disassemble(b"\x60")
    assert ins[0].pushed_value == 0


def test_disassemble_undefined_bytes_halt():
    ins = disassemble(bytes([0x0C, 0xEF]))
    assert [i.opcode for i in ins] == ["INVALID", "INVALID"]


def test_code_size_limit():
    disassemble(bytes(MAX_CODE_SIZE))
    with pytest.raises(BytecodeError):
        disassemble(bytes(MAX_CODE_SIZE + 1))


def test_reading_a_file_enforces_the_code_size_limit(tmp_path):
    path = tmp_path / "code.hex"
    path.write_text("00" * MAX_CODE_SIZE)
    assert read_bytecode_file(path) == bytes(MAX_CODE_SIZE)
    path.write_bytes(bytes(MAX_CODE_SIZE + 1))  # raw binary
    with pytest.raises(BytecodeError, match="above the 24576-byte deployment limit"):
        read_bytecode_file(path)


def test_jumpdest_in_push_data_is_not_valid():
    # 0x61 0x5b 0x5b consumes both 0x5b bytes as immediate; only pc 3 counts
    assert extract_blocks(bytes([0x61, 0x5B, 0x5B, 0x5B])).jumpdests == frozenset({3})


def test_block_boundaries():
    # JUMPI ends a block; JUMPDEST starts one even mid-stream
    code = asm("PUSH1 0x00", "PUSH1 0x08", "JUMPI", "STOP", 0xFE, 0xFE, "JUMPDEST", "STOP")
    prog = extract_blocks(code)
    assert set(prog.blocks) == {0x0, 0x5, 0x6, 0x7, 0x8}
    assert prog.blocks[0x0].terminator is Terminator.CONDITIONAL_JUMP
    assert prog.blocks[0x5].terminator is Terminator.HALT
    assert prog.blocks[0x8].instructions[0].opcode == "JUMPDEST"
    assert prog.jumpdests == frozenset({0x8})


def test_fallthrough_terminator():
    code = asm("PUSH1 0x01", "POP", "JUMPDEST", "STOP")
    prog = extract_blocks(code)
    assert prog.blocks[0x0].terminator is Terminator.FALLTHROUGH
    assert prog.blocks[0x0].fallthrough_pc == 0x3


def test_chained_call_layout_is_byte_exact():
    code = chained_call_code()
    assert len(code) == 0x1D4
    ins = {i.pc: i for i in disassemble(code)}
    assert ins[0x1A].opcode == "CALLDATALOAD"
    assert ins[0x1D].opcode == "SHR"
    assert ins[0x24].opcode == "EQ"
    assert ins[0x2F].opcode == "EQ"
    assert ins[0x28].opcode == "JUMPI"
    assert ins[0x33].opcode == "JUMPI"
    assert ins[0x5A].opcode == "PUSH2" and ins[0x5A].pushed_value == 0x77
    assert ins[0x71].opcode == "JUMP"
    assert ins[0xA9].opcode == "JUMP"

    prog = extract_blocks(code)
    assert prog.jumpdests == frozenset({0x38, 0x44, 0x58, 0x72, 0x77, 0x90, 0x1C7, 0x1D0})
    assert prog.blocks[0x0].last.pc == 0x28
    assert prog.blocks[0x29].last.pc == 0x33
    assert prog.blocks[0x29].fallthrough_pc == 0x34
    assert prog.blocks[0x58].last.pc == 0x71
    assert prog.blocks[0x58].terminator is Terminator.JUMP
    assert prog.blocks[0x72].last.pc == 0x76
    assert prog.blocks[0x1C7].last.pc == 0x1CA


def test_jump_target_ids_cover_clones():
    prog = extract_blocks(asm("JUMPDEST", "STOP"))
    assert prog.jump_target_ids == frozenset({0x0})
    prog.blocks[0x40] = replace(prog.blocks[0x0], id=0x40)
    prog.clone_of[0x40] = 0x0
    assert 0x40 in prog.jump_target_ids


def test_parse_bytecode_text():
    assert parse_bytecode_text(b"6001") == b"\x60\x01"
    assert parse_bytecode_text(b"0x60 01\n") == b"\x60\x01"
    assert parse_bytecode_text(b"\x60\x01") is None  # binary, not hex text
    assert parse_bytecode_text(b"hello") is None
    with pytest.raises(BytecodeError) as err:
        parse_bytecode_text(b"0x60zz")
    assert err.value.offset == 4
    with pytest.raises(BytecodeError):
        parse_bytecode_text(b"600")  # dangling digit


def test_read_bytecode_file(tmp_path):
    hex_file = tmp_path / "a.hex"
    hex_file.write_text("0x6001\n")
    assert read_bytecode_file(hex_file) == b"\x60\x01"
    bin_file = tmp_path / "b.bin"
    bin_file.write_bytes(b"\x60\x01\xfe")
    assert read_bytecode_file(bin_file) == b"\x60\x01\xfe"


def test_layout_rejects_overlap():
    with pytest.raises(ValueError):
        layout({0: b"\x00\x00", 1: b"\x00"})
