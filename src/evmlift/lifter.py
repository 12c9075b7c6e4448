"""Lifting analysis results to three-address code.

Every block the global analysis visited becomes one IR block, with the
per-context environments merged. The def site at pc is named v<pc> in hex.
Entry-stack reads turn into names: a slot with a single incoming value uses
that value's name directly, a slot with several gets a PHI, and a slot the
analysis knows nothing about reads as the placeholder "?". Call blocks
whose unique jump target is a confirmed private entry render as
CALLPRIVATE, carrying the target and the argument slots up to and
including the pushed continuation address. One value -> token table
per lift names every operand: each def site once, and the entry slots a
block reads, written before its statements read them. TAC_OPCODES maps a
mnemonic to the opcode its statement shows.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .analysis import AnalysisResult, Env, transfer_block
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
        label, opcode, operands, def_name, const = self
        if operands:
            opcode = f"{opcode} {', '.join(operands)}"
        if def_name is None:
            return f"{label}: {opcode}"
        if const is None:
            return f"{label}: {def_name} = {opcode}"
        return f"{label}: {def_name}(0x{const:x}) = {opcode}"


_HEX = "0x{:x}".format


class TACBlock(NamedTuple):
    id: int
    statements: tuple[TACStatement, ...]
    preds: tuple[int, ...] = ()
    succs: tuple[int, ...] = ()

    def render(self) -> str:
        preds, succs = ", ".join(map(_HEX, self.preds)), ", ".join(map(_HEX, self.succs))
        head = f"Begin block 0x{self.id:x}\nprev=[{preds}], succ=[{succs}]\n{RULE}"
        return "\n".join([head, *map(TACStatement.render, self.statements)])


class TACProgram(NamedTuple):
    blocks: dict[int, TACBlock]


# mnemonic -> the opcode its statement shows: every push is a CONST
TAC_OPCODES = {info.mnemonic: "CONST" if info.is_push else info.mnemonic for info in TABLE}


class _Names(dict):
    """Value -> its token, one table per lift. A def site's name is built
    once and shared by every statement that names the value; a block writes
    the tokens of the entry slots it reads before its statements read them."""

    def __init__(self) -> None:
        super().__init__({None: None})  # the result of a statement that defines none

    def __missing__(self, value: AbstractValue) -> str:
        name = self[value] = f"v{value:x}"
        return name


def lift(
    program: BytecodeProgram,
    summaries: dict[int, BlockSummary],
    result: AnalysisResult,
    confirmed: ConfirmedFacts,
) -> TACProgram:
    """Lift result to TAC from its per-block projection, which result owns
    and which is only read here."""
    edges: dict[int, set[int]] = {}
    for bid, succ in result.edge_pairs():
        edges.setdefault(bid, set()).add(succ)
    jump_target = program.targets.get
    private_entries = frozenset(
        target
        for caller, _cont in confirmed.private_calls
        if (target := jump_target(summaries[caller].target_expr)) is not None
    )
    continuations = frozenset(cont for _caller, cont in confirmed.private_calls)
    names = _Names()

    lifted: dict[int, tuple[tuple[TACStatement, ...], tuple[int, ...]]] = {}
    for bid, entry in sorted(result.per_block.items()):
        # A JUMP block's edges are its jump targets.
        targets = edges.get(bid, set())
        is_call = (
            program.blocks[bid].terminator is Terminator.JUMP
            and len(targets) == 1
            and not private_entries.isdisjoint(targets)
        )
        block = _lift_block(bid, summaries[bid], entry, targets, is_call, program, continuations, names)
        if block is not None:
            lifted[bid] = block

    preds: dict[int, set[int]] = {bid: set() for bid in lifted}
    for bid, (_statements, succs) in lifted.items():
        for succ in succs:
            if succ in preds:
                preds[succ].add(bid)
    return TACProgram(
        blocks={
            bid: TACBlock(bid, statements, tuple(sorted(preds[bid])), succs)
            for bid, (statements, succs) in lifted.items()
        }
    )


def _lift_block(
    bid: int,
    summary: BlockSummary,
    entry: Env,
    succs: set[int],
    is_call: bool,
    program: BytecodeProgram,
    continuations: frozenset[int],
    names: _Names,
) -> tuple[tuple[TACStatement, ...], tuple[int, ...]] | None:
    """(statements, succs) of one block, or None when an entry slot it reads
    mixes UNDERFLOW with values.

    A call passes the exit slots down to its continuation slot, the first
    exit slot holding a value that names a confirmed continuation, and
    returns to the blocks that slot names. A call with no such slot passes
    its target alone and keeps its jump edge.
    """
    jump_target = program.targets.get
    produced = summary.produced
    args: tuple[AbstractValue, ...] = ()
    if is_call:
        # From the merged entry env, which differs from the per-context
        # union only by UNDERFLOW; only the blocks values name are read here.
        out = transfer_block(summary, entry)
        cont_slot = next(
            (slot for slot in sorted(out) if not continuations.isdisjoint(map(jump_target, out[slot]))),
            None,
        )
        if cont_slot is not None:
            # Exit slot j is produced[j], or else an entry slot passed through.
            shift = len(produced) - summary.consumed_depth
            args = tuple(
                produced[j] if j < len(produced) else entry_slot(j - shift) for j in range(cont_slot + 1)
            )
            succs = set(map(jump_target, out[cont_slot])) - {None}

    # read holds every entry slot an operand names, so each gets its token
    # in names below before a statement reads it.
    statements: list[TACStatement] = []
    read = summary.read_slots()
    if args:
        read = read.union(entry_slot(v) for v in args if v < UNDERFLOW)
    for slot in sorted(read):
        real = sorted(entry.get(slot, ()))
        if real and real[0] == UNDERFLOW:  # UNDERFLOW sorts first
            if len(real) > 1:
                return None
            real.clear()
        if not real:
            names[entry_slot(slot)] = PLACEHOLDER
        elif len(real) == 1:
            names[entry_slot(slot)] = names[real[0]]
        else:
            def_name = names[entry_slot(slot)] = f"v{bid:x}_{slot:x}"
            operands = tuple(map(names.__getitem__, real))
            statements.append(TACStatement(f"0x{bid:x}_0x{slot:x}", "PHI", operands, def_name))

    # tuple.__new__ builds a record without its NamedTuple's Python-level __new__
    new, token, tac_opcodes, constants = tuple.__new__, names.__getitem__, TAC_OPCODES, program.constants
    for pc, opcode, operands, result in summary.ops:
        if is_call and opcode == "JUMP":
            def_name = f"v{pc:x}_0"
            if 0 in read and names[entry_slot(0)] == def_name:  # the PHI of a lone JUMP's slot 0
                def_name += "r"
            operands = tuple(map(token, (operands[0], *args)))
            statements.append(TACStatement(f"0x{pc:x}", "CALLPRIVATE", operands, def_name))
            continue
        statements.append(
            new(
                TACStatement,
                (f"0x{pc:x}", tac_opcodes[opcode], tuple(map(token, operands)), token(result), constants.get(result)),
            )
        )
    return tuple(statements), tuple(sorted(succs))


def render_tac(tac: TACProgram) -> str:
    parts = [tac.blocks[bid].render() for bid in sorted(tac.blocks)]
    return "\n\n".join(parts) + "\n"


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
