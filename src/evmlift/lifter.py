"""Lifting analysis results to three-address code.

Every block the global analysis visited becomes one IR block, with the
per-context environments merged. The def site at pc is named v<pc> in hex.
Entry-stack reads turn into names: a slot with a single incoming value uses
that value's name directly, a slot with several gets a PHI, and a slot the
analysis knows nothing about reads as the placeholder "?". Call blocks
whose unique jump target is a confirmed private entry render as
CALLPRIVATE, carrying the target and the argument slots up to and
including the pushed continuation address: the first slot of the block's
exit env, as transfer_block lays it out, that names a confirmed
continuation. One value -> token table per lift names every operand: each
def site once, and the entry slots a block reads, written before its
statements read them. TAC_OPCODES maps a mnemonic to the opcode its
statement shows.

One formatter writes the text: _write_statements holds the statement line
format and _write_block the block header, and TACStatement.render,
TACBlock.render and render_tac all go through them, so rendering makes no
Python call per statement. Numbers are written with hex(), which gives
f"0x{n:x}" for every n >= 0 at a fraction of a format spec's cost.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Collection, Iterable
from typing import NamedTuple

from .analysis import AnalysisResult, Env, resolve, transfer_block
from .bytecode import BytecodeProgram, Terminator
from .facts import ConfirmedFacts
from .local import BlockSummary
from .opcodes import TABLE
from .values import UNDERFLOW, AbstractValue, entry_slot

PLACEHOLDER = "?"
RULE = "=" * 33


class TACStatement(NamedTuple):
    label: str
    opcode: str
    operands: tuple[str, ...] = ()
    def_name: str | None = None
    const: int | None = None

    def render(self) -> str:
        lines: list[str] = []
        _write_statements((self,), lines.append)
        return lines[0]


class TACBlock(NamedTuple):
    id: int
    statements: tuple[TACStatement, ...]
    preds: tuple[int, ...] = ()
    succs: tuple[int, ...] = ()

    def render(self) -> str:
        lines: list[str] = []
        _write_block(self, lines.append)
        return "\n".join(lines)


class TACProgram(NamedTuple):
    blocks: dict[int, TACBlock]


def _write_statements(statements: Iterable[TACStatement], append: Callable[[str], None]) -> None:
    """Append one line per statement: the one place a statement's line
    format is written, in a loop that makes no Python call per statement."""
    for label, opcode, operands, def_name, const in statements:
        if operands:
            opcode = f"{opcode} {', '.join(operands)}"
        if def_name is None:
            append(f"{label}: {opcode}")
        elif const is None:
            append(f"{label}: {def_name} = {opcode}")
        else:
            append(f"{label}: {def_name}({hex(const)}) = {opcode}")


def _write_block(block: TACBlock, append: Callable[[str], None]) -> None:
    """Append a block's header line, edge line, rule and statements."""
    bid, statements, preds, succs = block
    append(f"Begin block {hex(bid)}\nprev=[{', '.join(map(hex, preds))}], succ=[{', '.join(map(hex, succs))}]\n{RULE}")
    _write_statements(statements, append)


def render_tac(tac: TACProgram) -> str:
    """Blocks by id, a blank line between two, and one newline at the end,
    also when there is no block."""
    lines: list[str] = []
    append = lines.append
    for bid in sorted(tac.blocks):
        if lines:
            append("")
        _write_block(tac.blocks[bid], append)
    return "\n".join(lines) + "\n"


# mnemonic -> the opcode its statement shows: every push is a CONST
TAC_OPCODES = {info.mnemonic: "CONST" if info.is_push else info.mnemonic for info in TABLE}


class _Names(dict):
    """Value -> its token, one table per lift. A def site's name is built
    once and shared by every statement that names the value; a block writes
    the tokens of the entry slots it reads before its statements read them."""

    def __init__(self) -> None:
        super().__init__({None: None})  # the result of a statement that defines none

    def __missing__(self, value: AbstractValue) -> str:
        name = self[value] = "v%x" % value
        return name


def lift(
    program: BytecodeProgram,
    summaries: dict[int, BlockSummary],
    result: AnalysisResult,
    confirmed: ConfirmedFacts,
) -> TACProgram:
    """Lift result to TAC from its per-block projection, which result owns
    and which is only read here."""
    # edge_pairs holds each pair once, so a list per source block is a set.
    edges: dict[int, list[int]] = {}
    for bid, succ in result.edge_pairs():
        targets = edges.get(bid)
        if targets is None:
            edges[bid] = [succ]
        else:
            targets.append(succ)
    jump_target = program.targets.get
    private_entries = frozenset(
        target
        for caller, _cont in confirmed.private_calls
        if (target := jump_target(summaries[caller].target_expr)) is not None
    )
    continuations = frozenset(cont for _caller, cont in confirmed.private_calls)
    blocks = program.blocks
    names = _Names()

    lifted: dict[int, tuple[tuple[TACStatement, ...], tuple[int, ...]]] = {}
    for bid, entry in sorted(result.per_block.items()):
        # A JUMP block's edges are its jump targets.
        targets = edges.get(bid, ())
        is_call = (
            len(targets) == 1
            and targets[0] in private_entries
            and blocks[bid].terminator is Terminator.JUMP
        )
        block = _lift_block(bid, summaries[bid], entry, targets, is_call, program, continuations, names)
        if block is not None:
            lifted[bid] = block

    # Blocks are lifted in id order, so each pred list comes out sorted.
    preds: dict[int, list[int]] = {}
    for bid, (_statements, succs) in lifted.items():
        for succ in succs:
            if succ in lifted:
                have = preds.get(succ)
                if have is None:
                    preds[succ] = [bid]
                else:
                    have.append(bid)
    # tuple.__new__ builds a record without its NamedTuple's Python-level __new__
    new = tuple.__new__
    return TACProgram(
        blocks={
            bid: new(TACBlock, (bid, statements, tuple(preds.get(bid, ())), succs))
            for bid, (statements, succs) in lifted.items()
        }
    )


def _lift_block(
    bid: int,
    summary: BlockSummary,
    entry: Env,
    succs: Collection[int],
    is_call: bool,
    program: BytecodeProgram,
    continuations: frozenset[int],
    names: _Names,
) -> tuple[tuple[TACStatement, ...], tuple[int, ...]] | None:
    """(statements, succs) of one block, or None when an entry slot it reads
    mixes UNDERFLOW with values.

    A call passes the exit slots down to the first that names a confirmed
    continuation and returns to the blocks that slot names. A call with no
    such slot passes its target alone and keeps its jump edge.
    """
    args: tuple[AbstractValue, ...] = ()
    if is_call:
        jump_target = program.targets.get
        for cont_slot, values in enumerate(transfer_block(summary, entry)):
            if not continuations.isdisjoint(map(jump_target, values)):
                # Exit slot j is produced[j], or else entry slot j - shift passed through.
                produced, consumed = summary.produced, summary.consumed_depth
                shift = len(produced) - consumed
                args = produced[: cont_slot + 1] + tuple(map(entry_slot, range(consumed, cont_slot + 1 - shift)))
                succs = set(map(jump_target, values))
                succs.discard(None)
                break

    # read holds every entry slot an operand names, so each gets its token
    # in names below before a statement reads it.
    statements: list[TACStatement] = []
    read = summary.read_slots()
    if args:
        read = read.union(entry_slot(v) for v in args if v < UNDERFLOW)
    for slot in sorted(read):
        operand = entry_slot(slot)
        values = resolve(entry, operand)
        if len(values) == 1:
            (value,) = values
            names[operand] = PLACEHOLDER if value == UNDERFLOW else names[value]
        else:
            real = sorted(values)
            if real[0] == UNDERFLOW:  # UNDERFLOW sorts first
                return None
            def_name = names[operand] = f"v{bid:x}_{slot:x}"
            operands = tuple(map(names.__getitem__, real))
            statements.append(TACStatement(f"{hex(bid)}_{hex(slot)}", "PHI", operands, def_name))

    # tuple.__new__ builds a record without its NamedTuple's Python-level __new__
    new, token, tac_opcodes, constants = tuple.__new__, names.__getitem__, TAC_OPCODES, program.constants
    for pc, opcode, operands, result in summary.ops:
        if is_call and opcode == "JUMP":
            def_name = f"v{pc:x}_0"
            if 0 in read and names[entry_slot(0)] == def_name:  # the PHI of a lone JUMP's slot 0
                def_name += "r"
            operands = tuple(map(token, (operands[0], *args)))
            statements.append(TACStatement(hex(pc), "CALLPRIVATE", operands, def_name))
            continue
        statements.append(
            new(
                TACStatement,
                (hex(pc), tac_opcodes[opcode], tuple(map(token, operands)) if operands else (), token(result), constants.get(result)),
            )
        )
    return tuple(statements), tuple(sorted(succs))


_HEADER_RE = re.compile(r"^Begin block (0x[0-9a-f]+)$")
_EDGES_RE = re.compile(r"^prev=\[(?P<prev>[^\]]*)\], succ=\[(?P<succ>[^\]]*)\]$")
_STMT_RE = re.compile(
    r"^(?P<label>\S+): (?:(?P<def>\S+?)(?:\((?P<const>0x[0-9a-f]+)\))? = )?"
    r"(?P<op>[A-Z][A-Z0-9]*)(?: (?P<operands>.*))?$"
)


def parse_tac(text: str) -> TACProgram:
    blocks: dict[int, TACBlock] = {}
    body = text.strip("\n")  # render_tac writes a lone newline for no blocks
    for chunk in body.split("\n\n") if body else ():
        lines = chunk.split("\n")
        if len(lines) < 3:
            raise ValueError(f"truncated block: {lines!r}")
        header = _HEADER_RE.match(lines[0])
        edges = _EDGES_RE.match(lines[1])
        if header is None or edges is None or lines[2] != RULE:
            raise ValueError(f"malformed block header: {lines[:3]!r}")
        bid = int(header.group(1), 16)
        parse_ids = lambda s: tuple(int(x, 16) for x in s.split(", ") if x)  # noqa: E731
        statements = []
        for line in lines[3:]:
            m = _STMT_RE.match(line)
            if m is None:
                raise ValueError(f"malformed statement: {line!r}")
            operands = tuple(m.group("operands").split(", ")) if m.group("operands") else ()
            statements.append(
                TACStatement(
                    label=m.group("label"),
                    opcode=m.group("op"),
                    operands=operands,
                    def_name=m.group("def"),
                    const=int(m.group("const"), 16) if m.group("const") else None,
                )
            )
        preds, succs = parse_ids(edges.group("prev")), parse_ids(edges.group("succ"))
        blocks[bid] = TACBlock(bid, tuple(statements), preds, succs)
    return TACProgram(blocks=blocks)
