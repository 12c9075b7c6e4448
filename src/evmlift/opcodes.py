"""The one EVM opcode table: every per-opcode fact the lifter reads.

`TABLE` is indexed by byte. Each record carries the opcode's stack arity,
how it ends a basic block (`Terminator`), its width and whether it pushes,
all set once when the table is built. A byte no opcode uses holds INVALID's
record, so it decodes as a one-byte, halting INVALID. `BY_NAME` maps a
mnemonic to its record.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

STACK_LIMIT = 1024


class Terminator(Enum):
    """How an instruction ends a basic block; FALLTHROUGH when it does not."""

    JUMP = "jump"
    CONDITIONAL_JUMP = "conditional-jump"
    HALT = "halt"
    FALLTHROUGH = "fallthrough"


class OpInfo(NamedTuple):
    byte: int
    mnemonic: str
    pops: int
    pushes: int
    terminator: Terminator
    push_width: int
    dup_index: int
    swap_index: int
    size: int
    is_push: bool


def _build_table() -> tuple[OpInfo, ...]:
    t: dict[int, OpInfo] = {}

    def op(
        byte: int,
        mnemonic: str,
        pops: int,
        pushes: int,
        terminator: Terminator = Terminator.FALLTHROUGH,
        push_width: int = 0,
        dup_index: int = 0,
        swap_index: int = 0,
    ) -> None:
        is_push = mnemonic.startswith("PUSH")
        t[byte] = OpInfo(
            byte, mnemonic, pops, pushes, terminator, push_width, dup_index, swap_index, 1 + push_width, is_push
        )

    op(0x00, "STOP", 0, 0, Terminator.HALT)
    op(0x01, "ADD", 2, 1)
    op(0x02, "MUL", 2, 1)
    op(0x03, "SUB", 2, 1)
    op(0x04, "DIV", 2, 1)
    op(0x05, "SDIV", 2, 1)
    op(0x06, "MOD", 2, 1)
    op(0x07, "SMOD", 2, 1)
    op(0x08, "ADDMOD", 3, 1)
    op(0x09, "MULMOD", 3, 1)
    op(0x0A, "EXP", 2, 1)
    op(0x0B, "SIGNEXTEND", 2, 1)
    op(0x10, "LT", 2, 1)
    op(0x11, "GT", 2, 1)
    op(0x12, "SLT", 2, 1)
    op(0x13, "SGT", 2, 1)
    op(0x14, "EQ", 2, 1)
    op(0x15, "ISZERO", 1, 1)
    op(0x16, "AND", 2, 1)
    op(0x17, "OR", 2, 1)
    op(0x18, "XOR", 2, 1)
    op(0x19, "NOT", 1, 1)
    op(0x1A, "BYTE", 2, 1)
    op(0x1B, "SHL", 2, 1)
    op(0x1C, "SHR", 2, 1)
    op(0x1D, "SAR", 2, 1)
    op(0x20, "KECCAK256", 2, 1)
    op(0x30, "ADDRESS", 0, 1)
    op(0x31, "BALANCE", 1, 1)
    op(0x32, "ORIGIN", 0, 1)
    op(0x33, "CALLER", 0, 1)
    op(0x34, "CALLVALUE", 0, 1)
    op(0x35, "CALLDATALOAD", 1, 1)
    op(0x36, "CALLDATASIZE", 0, 1)
    op(0x37, "CALLDATACOPY", 3, 0)
    op(0x38, "CODESIZE", 0, 1)
    op(0x39, "CODECOPY", 3, 0)
    op(0x3A, "GASPRICE", 0, 1)
    op(0x3B, "EXTCODESIZE", 1, 1)
    op(0x3C, "EXTCODECOPY", 4, 0)
    op(0x3D, "RETURNDATASIZE", 0, 1)
    op(0x3E, "RETURNDATACOPY", 3, 0)
    op(0x3F, "EXTCODEHASH", 1, 1)
    op(0x40, "BLOCKHASH", 1, 1)
    op(0x41, "COINBASE", 0, 1)
    op(0x42, "TIMESTAMP", 0, 1)
    op(0x43, "NUMBER", 0, 1)
    op(0x44, "PREVRANDAO", 0, 1)
    op(0x45, "GASLIMIT", 0, 1)
    op(0x46, "CHAINID", 0, 1)
    op(0x47, "SELFBALANCE", 0, 1)
    op(0x48, "BASEFEE", 0, 1)
    op(0x49, "BLOBHASH", 1, 1)
    op(0x4A, "BLOBBASEFEE", 0, 1)
    op(0x50, "POP", 1, 0)
    op(0x51, "MLOAD", 1, 1)
    op(0x52, "MSTORE", 2, 0)
    op(0x53, "MSTORE8", 2, 0)
    op(0x54, "SLOAD", 1, 1)
    op(0x55, "SSTORE", 2, 0)
    op(0x56, "JUMP", 1, 0, Terminator.JUMP)
    op(0x57, "JUMPI", 2, 0, Terminator.CONDITIONAL_JUMP)
    op(0x58, "PC", 0, 1)
    op(0x59, "MSIZE", 0, 1)
    op(0x5A, "GAS", 0, 1)
    op(0x5B, "JUMPDEST", 0, 0)
    op(0x5C, "TLOAD", 1, 1)
    op(0x5D, "TSTORE", 2, 0)
    op(0x5E, "MCOPY", 3, 0)
    op(0x5F, "PUSH0", 0, 1)
    for n in range(1, 33):
        op(0x5F + n, f"PUSH{n}", 0, 1, push_width=n)
    for n in range(1, 17):
        op(0x7F + n, f"DUP{n}", n, n + 1, dup_index=n)
    for n in range(1, 17):
        op(0x8F + n, f"SWAP{n}", n + 1, n + 1, swap_index=n)
    for n in range(0, 5):
        op(0xA0 + n, f"LOG{n}", 2 + n, 0)
    op(0xF0, "CREATE", 3, 1)
    op(0xF1, "CALL", 7, 1)
    op(0xF2, "CALLCODE", 7, 1)
    op(0xF3, "RETURN", 2, 0, Terminator.HALT)
    op(0xF4, "DELEGATECALL", 6, 1)
    op(0xF5, "CREATE2", 4, 1)
    op(0xFA, "STATICCALL", 6, 1)
    op(0xFD, "REVERT", 2, 0, Terminator.HALT)
    op(0xFE, "INVALID", 0, 0, Terminator.HALT)
    op(0xFF, "SELFDESTRUCT", 1, 0, Terminator.HALT)
    return tuple(t.get(byte, t[0xFE]) for byte in range(256))


TABLE: tuple[OpInfo, ...] = _build_table()
BY_NAME: dict[str, OpInfo] = {info.mnemonic: info for info in TABLE}
