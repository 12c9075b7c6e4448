"""Bytecode decoding: instructions, basic blocks, and input file handling.

Decoding is one walk: `disassemble` reads each opcode's record from the
byte-indexed `opcodes.TABLE`, and `extract_blocks` cuts that stream into
basic blocks at each record's `Terminator` and collects the valid JUMPDESTs
as it goes. `Terminator` lives in `opcodes` and is re-exported here.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .opcodes import BY_NAME, TABLE, Terminator
from .values import AbstractValue, constant_of

MAX_CODE_SIZE = 24576


class BytecodeError(ValueError):
    """Raised for inputs that cannot be decoded into a program."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class Instruction(NamedTuple):
    """One decoded instruction (a NamedTuple: cheap to build, hashed in C).

    pushed_value is present exactly for the PUSH family; truncated immediates
    at the end of code are zero-padded on the right.
    """

    pc: int
    opcode: str
    pushed_value: int | None = None

    @property
    def size(self) -> int:
        return BY_NAME[self.opcode].size


class BasicBlock(NamedTuple):
    """Maximal straight-line instruction run; id is the pc of its first instruction."""

    id: int
    instructions: tuple[Instruction, ...]
    terminator: Terminator

    @property
    def last(self) -> Instruction:
        return self.instructions[-1]

    @property
    def fallthrough_pc(self) -> int:
        return self.last.pc + self.last.size


class _ProgramFields(NamedTuple):
    code: bytes
    blocks: dict[int, BasicBlock]
    jumpdests: frozenset[int]
    clone_of: dict[int, int]
    clone_pushes: dict[int, int]


class BytecodeProgram(_ProgramFields):
    """A decoded contract: code bytes, block map, and jump-target bookkeeping.

    Instructions always hold the bytecode's own values. Block cloning adds
    copies of blocks past the end of the code and records two maps, both
    empty for freshly decoded programs: clone_of takes each clone id to the
    original block it copies, and clone_pushes takes the pc of each push
    cloning chose to the clone it names. A clone is a name for a jump
    target, not a value, so jump_target is the one rule that maps a value
    to the block a jump on it lands on.
    """

    __slots__ = ()

    def __new__(
        cls,
        code: bytes,
        blocks: dict[int, BasicBlock],
        jumpdests: frozenset[int],
        clone_of: dict[int, int] | None = None,
        clone_pushes: dict[int, int] | None = None,
    ) -> BytecodeProgram:
        # each program gets its own empty maps, never one shared default
        return super().__new__(
            cls,
            code,
            blocks,
            jumpdests,
            {} if clone_of is None else clone_of,
            {} if clone_pushes is None else clone_pushes,
        )

    def jump_target(self, value: AbstractValue) -> int | None:
        """The block a jump on value lands on, or None when it names none.

        The value of a push cloning chose names that push's clone. Any other
        constant names the jumpdest it equals: a data constant that equals a
        clone id names no block, and a value folded from a chosen push names
        the jumpdest it carries, as the bytecode would jump.
        """
        const = constant_of(value)
        if const is None:
            return None
        clone = self.clone_pushes.get(value.pc)
        if clone is not None:
            return clone
        return const if const in self.jumpdests else None


def _within_limit(code: bytes) -> bytes:
    if len(code) > MAX_CODE_SIZE:
        raise BytecodeError(f"code is {len(code)} bytes, above the {MAX_CODE_SIZE}-byte deployment limit")
    return code


def disassemble(code: bytes) -> list[Instruction]:
    """Decode every byte; total on arbitrary input up to the size limit."""
    _within_limit(code)
    out: list[Instruction] = []
    pc = 0
    while pc < len(code):
        info = TABLE[code[pc]]
        value = None
        if info.is_push:
            # zero-pad pushes whose immediate runs off the end of the code
            raw = code[pc + 1 : pc + 1 + info.push_width].ljust(info.push_width, b"\x00")
            value = int.from_bytes(raw, "big")
        out.append(Instruction(pc, info.mnemonic, value))
        pc += info.size
    return out


def extract_blocks(code: bytes) -> BytecodeProgram:
    """Cut the instruction stream into basic blocks in one walk.

    A block starts at pc 0, at every JUMPDEST, and after every JUMP, JUMPI, or
    halting instruction. The walk that fixes where instructions begin also
    finds the valid jump destinations: a 0x5b byte inside PUSH data is never
    decoded as a JUMPDEST.
    """
    blocks: dict[int, BasicBlock] = {}
    jumpdests: list[int] = []
    body: list[Instruction] = []

    def cut(terminator: Terminator) -> None:
        blocks[body[0].pc] = BasicBlock(body[0].pc, tuple(body), terminator)
        body.clear()

    for ins in disassemble(code):
        if ins.opcode == "JUMPDEST":
            jumpdests.append(ins.pc)
            if body:
                cut(Terminator.FALLTHROUGH)
        body.append(ins)
        terminator = BY_NAME[ins.opcode].terminator
        if terminator is not Terminator.FALLTHROUGH:
            cut(terminator)
    if body:
        cut(Terminator.FALLTHROUGH)
    return BytecodeProgram(code, blocks, frozenset(jumpdests))


_HEX_DIGITS = set("0123456789abcdefABCDEF")


def parse_bytecode_text(data: bytes) -> bytes | None:
    """Interpret file content as a hex string if it looks like one.

    Returns the decoded bytes, or None when the content should be treated as
    raw binary bytecode. Raises BytecodeError (with the first bad character's
    file offset) for content with explicit hex intent that fails to parse.
    """
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return None

    digits: list[tuple[int, str]] = [(i, ch) for i, ch in enumerate(text) if not ch.isspace()]
    if not digits:
        return b""

    forced = False
    if len(digits) >= 2 and digits[0][1] == "0" and digits[1][1] in "xX":
        forced = True
        digits = digits[2:]

    first_bad = next(((i, ch) for i, ch in digits if ch not in _HEX_DIGITS), None)
    if first_bad is not None:
        if forced:
            raise BytecodeError(
                f"malformed hex input: bad character {first_bad[1]!r} at offset {first_bad[0]}",
                offset=first_bad[0],
            )
        return None
    if len(digits) % 2 != 0:
        raise BytecodeError(
            f"malformed hex input: dangling hex digit at offset {digits[-1][0]}",
            offset=digits[-1][0],
        )
    return bytes.fromhex("".join(ch for _, ch in digits))


def read_bytecode_file(path: str | Path) -> bytes:
    """Load a contract from a file of hex text or raw code; refuse it over the size limit."""
    data = Path(path).read_bytes()
    decoded = parse_bytecode_text(data)
    return _within_limit(data if decoded is None else decoded)
