"""Decoder and basic-block extraction."""

import pytest

from conftest import asm, chained_call_code, folded_continuation_code, layout
from evmlift.bytecode import (
    BytecodeError,
    disassemble,
    extract_blocks,
    parse_bytecode_text,
    read_bytecode_file,
)
from evmlift.cloning import apply_cloning
from evmlift.local import detect_patterns, summarize_program
from evmlift.opcodes import BY_NAME, TABLE, TERM_CONDITIONAL_JUMP, TERM_FALLTHROUGH, TERM_HALT, TERM_JUMP
from evmlift.values import UNDERFLOW, entry_slot

MAX_CODE_SIZE = 24576


def test_disassemble_simple():
    ins = disassemble(asm("PUSH1 0x01", "PUSH1 0x02", "ADD", "STOP"))
    assert [(pc, opcode) for pc, opcode, _pushed in ins] == [(0, "PUSH1"), (2, "PUSH1"), (4, "ADD"), (5, "STOP")]
    assert ins[0][2] == 1 and ins[1][2] == 2
    assert BY_NAME[ins[0][1]].size == 2 and BY_NAME[ins[2][1]].size == 1


def test_every_byte_decodes_through_the_one_table():
    halting = {"STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT"}
    for b in range(256):
        info = TABLE[b]
        ((_pc, opcode, _pushed),) = disassemble(bytes([b]))
        assert opcode == info.mnemonic
        if info.byte != b:
            assert (opcode, BY_NAME[opcode].size) == ("INVALID", 1)
            assert extract_blocks(bytes([b])).blocks[0].terminator == TERM_HALT
            continue
        assert BY_NAME[info.mnemonic].byte == b
        assert info.is_push is (0x5F <= b <= 0x7F)
        if info.is_push:
            assert info.size == BY_NAME[opcode].size == b - 0x5F + 1
        if info.mnemonic == "JUMP":
            assert info.terminator == TERM_JUMP
        elif info.mnemonic == "JUMPI":
            assert info.terminator == TERM_CONDITIONAL_JUMP
        elif info.mnemonic in halting:
            assert info.terminator == TERM_HALT
        else:
            assert info.terminator == TERM_FALLTHROUGH


def test_disassemble_truncated_push_zero_padded():
    # immediate runs past the end of the code: missing bytes read as zero
    ins = disassemble(bytes([0x61, 0xAB]))
    assert len(ins) == 1
    _pc, opcode, pushed = ins[0]
    assert opcode == "PUSH2"
    assert pushed == 0xAB00
    ((_pc, _opcode, pushed),) = disassemble(b"\x60")
    assert pushed == 0
    # every width, cut at every byte of its immediate, after a JUMPDEST
    for width in range(1, 33):
        immediate = bytes(range(0xE0, 0xE0 + width))
        for cut in range(width + 1):
            _jumpdest, (pc, opcode, pushed) = disassemble(bytes([0x5B, 0x5F + width]) + immediate[:cut])
            assert (pc, opcode) == (1, f"PUSH{width}")
            assert pushed == int.from_bytes(immediate[:cut].ljust(width, b"\x00"), "big")


def test_disassemble_undefined_bytes_halt():
    ins = disassemble(bytes([0x0C, 0xEF]))
    assert [opcode for _pc, opcode, _pushed in ins] == ["INVALID", "INVALID"]


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
    assert prog.blocks[0x0].terminator == TERM_CONDITIONAL_JUMP
    assert prog.blocks[0x5].terminator == TERM_HALT
    _pc, opcode, _pushed = prog.blocks[0x8].instructions[0]
    assert opcode == "JUMPDEST"
    assert prog.jumpdests == frozenset({0x8})


def test_fallthrough_terminator():
    code = asm("PUSH1 0x01", "POP", "JUMPDEST", "STOP")
    prog = extract_blocks(code)
    assert prog.blocks[0x0].terminator == TERM_FALLTHROUGH
    assert prog.blocks[0x0].fallthrough_pc == 0x3


def test_chained_call_layout_is_byte_exact():
    code = chained_call_code()
    assert len(code) == 0x1D4
    ins = {pc: (opcode, pushed) for pc, opcode, pushed in disassemble(code)}
    assert ins[0x1A][0] == "CALLDATALOAD"
    assert ins[0x1D][0] == "SHR"
    assert ins[0x24][0] == "EQ"
    assert ins[0x2F][0] == "EQ"
    assert ins[0x28][0] == "JUMPI"
    assert ins[0x33][0] == "JUMPI"
    assert ins[0x5A] == ("PUSH2", 0x77)
    assert ins[0x71][0] == "JUMP"
    assert ins[0xA9][0] == "JUMP"

    prog = extract_blocks(code)
    assert prog.jumpdests == frozenset({0x38, 0x44, 0x58, 0x72, 0x77, 0x90, 0x1C7, 0x1D0})
    assert prog.blocks[0x0].last[0] == 0x28
    assert prog.blocks[0x29].last[0] == 0x33
    assert prog.blocks[0x29].fallthrough_pc == 0x34
    assert prog.blocks[0x58].last[0] == 0x71
    assert prog.blocks[0x58].terminator == TERM_JUMP
    assert prog.blocks[0x72].last[0] == 0x76
    assert prog.blocks[0x1C7].last[0] == 0x1CA


def test_jump_target_names_a_clone_only_through_its_push():
    # k (0x20) is pushed at 0x2 (then folded by the ADD at 0x7) and at 0x13.
    prog = extract_blocks(folded_continuation_code())
    cloned, _ = apply_cloning(prog, detect_patterns(prog, summarize_program(prog)))
    assert cloned.clone_pushes == {0x2: 0x40, 0x13: 0x50}
    # a chosen push names its clone
    assert cloned.constants[0x2] == cloned.constants[0x13] == 0x20
    assert cloned.targets.get(0x2) == 0x40
    assert cloned.targets.get(0x13) == 0x50
    # a data constant equal to a clone id names nothing
    probe = cloned._replace(constants={}, targets={})
    probe.record_constants({0x5: 0x50})
    assert probe.targets.get(0x5) is None
    # a value folded from a chosen push names the jumpdest it carries
    assert cloned.constants[0x7] == 0x20 and cloned.targets.get(0x7) == 0x20
    # a value with no constant names nothing
    assert 0x4 not in cloned.constants and cloned.targets.get(0x4) is None
    assert cloned.targets.get(entry_slot(0)) is None
    assert cloned.targets.get(UNDERFLOW) is None


def test_parse_bytecode_text():
    assert parse_bytecode_text(b"6001") == b"\x60\x01"
    assert parse_bytecode_text(b"0x60 01\n") == b"\x60\x01"
    assert parse_bytecode_text(b"\x60\x01") is None  # binary, not hex text
    assert parse_bytecode_text(b"hello") is None
    assert parse_bytecode_text(b" \n\t") == b""  # whitespace only: empty code
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
