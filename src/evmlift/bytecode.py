"""Bytecode decoding: instructions, basic blocks, and input file handling.

Decoding is one walk: `disassemble` reads each byte's record from the
byte-indexed `opcodes.TABLE` once, and takes push immediates from the code
zero-padded once at its end. `extract_blocks` cuts that stream into basic
blocks where `_CUTS`, the mnemonic -> `Terminator` table of the opcodes that
end a block, names one, and collects the valid JUMPDESTs as it goes.
`Terminator` lives in `opcodes` and is re-exported here.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .opcodes import BY_NAME, TABLE, TERM_FALLTHROUGH, Terminator

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
    terminator: Terminator

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
    maps through record_constants: constants takes the pc of each def site
    whose value is statically known to that value, and targets takes it to
    the block a jump on the value lands on. A clone is a name for a jump
    target, not a value, so record_constants holds the one rule that maps
    a value to a block, and every phase reads it back as targets.get(value),
    which is None for a value that names no block. Every builder passes all
    four maps, so no two programs share one.
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

        The value of a push cloning chose names that push's clone. Any other
        constant names the jumpdest it equals: a data constant that equals a
        clone id names no block, and a value folded from a chosen push names
        the jumpdest it carries, as the bytecode would jump.
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


# mnemonic -> how it ends a block, for every opcode that ends one
_CUTS = {info.mnemonic: info.terminator for info in TABLE if info.terminator is not TERM_FALLTHROUGH}


def disassemble(code: bytes) -> list[Instruction]:
    """Decode every byte; total on arbitrary input up to the size limit."""
    _within_limit(code)
    # zero-padded once: an immediate that runs off the end reads zeros
    padded = code + bytes(32)
    from_bytes = int.from_bytes
    out: list[Instruction] = []
    pc = 0
    while pc < len(code):
        info = TABLE[code[pc]]
        size = info.size
        value = from_bytes(padded[pc + 1 : pc + size], "big") if info.is_push else None
        out.append((pc, info.mnemonic, value))
        pc += size
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
        bid = body[0][0]  # the pc of its first instruction
        blocks[bid] = new(BasicBlock, (bid, tuple(body), terminator))
        body.clear()

    # tuple.__new__ builds a record without its NamedTuple's Python-level __new__
    new, cuts = tuple.__new__, _CUTS
    for ins in disassemble(code):
        pc, opcode, _pushed = ins
        if opcode == "JUMPDEST":
            jumpdests.append(pc)
            if body:
                cut(TERM_FALLTHROUGH)
        body.append(ins)
        terminator = cuts.get(opcode)
        if terminator is not None:
            cut(terminator)
    if body:
        cut(TERM_FALLTHROUGH)
    return BytecodeProgram(code, blocks, frozenset(jumpdests), {}, {}, {}, {})


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
