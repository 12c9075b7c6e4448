"""Bytecode decoding: instructions, basic blocks, and input file handling.

Decoding and cutting are one walk: `extract_blocks` reads each byte's record
from the byte-indexed `opcodes.TABLE` once, takes push immediates from the
code zero-padded once at its end, cuts a block where the record's terminator
ends one, and collects the valid JUMPDESTs as it goes. `disassemble` is the
blocks' instructions in pc order.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .opcodes import BY_NAME, TABLE, TERM_FALLTHROUGH

MAX_CODE_SIZE = 24576


class BytecodeError(ValueError):
    """Raised for inputs that cannot be decoded into a program."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


# One decoded instruction: (pc, opcode, pushed_value). pushed_value is an
# int exactly for the PUSH family, with a truncated immediate at the end of
# code zero-padded on the right, and None otherwise. An exact tuple, read by
# position: a tuple display builds it from the free list, and the collector
# stops tracking it once scanned, since it holds only ints, a str and None.
Instruction = tuple[int, str, int | None]


class BasicBlock(NamedTuple):
    """Maximal straight-line instruction run; id is the pc of its first instruction."""

    id: int
    instructions: tuple[Instruction, ...]
    terminator: int  # how the last instruction ends it, an opcodes.TERM_* constant

    @property
    def last(self) -> Instruction:
        return self.instructions[-1]

    @property
    def fallthrough_pc(self) -> int:
        pc, opcode, _pushed = self.instructions[-1]
        return pc + BY_NAME[opcode].size


class BytecodeProgram(NamedTuple):
    """A decoded contract: code bytes, block map, and jump-target bookkeeping.

    Instructions always hold the bytecode's own values. Block cloning adds
    copies of blocks past the end of the code and records two maps, both
    empty for freshly decoded programs: clone_of takes each clone id to the
    original block it copies, and clone_pushes takes the pc of each push
    cloning chose to the clone it names. The local pass fills the last two
    maps: constants takes the pc of each def site whose value is statically
    known to that value, and targets takes it to the block a jump on the
    value lands on. record_constants adds both, once per summarize_program
    call and once for the pushes apply_cloning chose. A clone is a name for
    a jump target, not a value, so record_constants holds the one rule that
    maps a value to a block, and every phase reads it back as
    targets.get(value), which is None for a value that names no block. Every
    builder passes all four maps, so no two programs share one.
    """

    code: bytes
    blocks: dict[int, BasicBlock]
    jumpdests: frozenset[int]
    clone_of: dict[int, int]
    clone_pushes: dict[int, int]
    constants: dict[int, int]
    targets: dict[int, int]

    def record_constants(self, constants: dict[int, int]) -> None:
        """Add def-site constants and the block a jump on each lands on.

        constants may be self.constants itself, whose every entry is then
        mapped again. The value of a push cloning chose names that push's
        clone. Any other constant names the jumpdest it equals: a data
        constant that equals a clone id names no block, and a value folded
        from a chosen push names the jumpdest it carries, as the bytecode
        would jump.
        """
        self.constants.update(constants)
        clones, jumpdests, targets = self.clone_pushes, self.jumpdests, self.targets
        for pc, const in constants.items():
            target = clones.get(pc)
            if target is not None:
                targets[pc] = target
            elif const in jumpdests:
                targets[pc] = const


def _within_limit(code: bytes) -> bytes:
    if len(code) > MAX_CODE_SIZE:
        raise BytecodeError(f"code is {len(code)} bytes, above the {MAX_CODE_SIZE}-byte deployment limit")
    return code


def disassemble(code: bytes) -> list[Instruction]:
    """Decode every byte; total on arbitrary input up to the size limit."""
    # Blocks are stored in pc order, and every instruction is in one.
    return [ins for block in extract_blocks(code).blocks.values() for ins in block.instructions]


def extract_blocks(code: bytes) -> BytecodeProgram:
    """Decode the code and cut it into basic blocks in one walk.

    A block starts at pc 0, at every JUMPDEST, and after every JUMP, JUMPI, or
    halting instruction. The walk that fixes where instructions begin also
    finds the valid jump destinations: a 0x5b byte inside PUSH data is never
    decoded as a JUMPDEST.
    """
    _within_limit(code)
    # zero-padded once: an immediate that runs off the end reads zeros
    padded = code + bytes(32)
    from_bytes, table, jumpdest = int.from_bytes, TABLE, BY_NAME["JUMPDEST"]
    blocks: dict[int, BasicBlock] = {}
    jumpdests: list[int] = []
    body: list[Instruction] = []
    # tuple.__new__ builds a record without its NamedTuple's Python-level __new__
    new = tuple.__new__
    # A block is cut where it ends, in the loop: a call per block would cost
    # more than the cut itself. Its id is the pc of its first instruction.
    pc, end = 0, len(code)
    while pc < end:
        info = table[code[pc]]
        size = info.size
        if info is jumpdest:
            jumpdests.append(pc)
            if body:
                blocks[body[0][0]] = new(BasicBlock, (body[0][0], tuple(body), TERM_FALLTHROUGH))
                body = []
        body.append((pc, info.mnemonic, from_bytes(padded[pc + 1 : pc + size], "big") if info.is_push else None))
        terminator = info.terminator
        if terminator != TERM_FALLTHROUGH:
            blocks[body[0][0]] = new(BasicBlock, (body[0][0], tuple(body), terminator))
            body = []
        pc += size
    if body:
        blocks[body[0][0]] = new(BasicBlock, (body[0][0], tuple(body), TERM_FALLTHROUGH))
    return new(BytecodeProgram, (code, blocks, frozenset(jumpdests), {}, {}, {}, {}))


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
