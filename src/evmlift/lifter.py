"""Lifting analysis results to three-address code.

Every block the global analysis visited becomes one IR block, with the
per-context environments merged. Entry-stack reads turn into names: a slot
with a single incoming value uses that value's name directly, a slot with
several gets a PHI, and a slot the analysis knows nothing about reads as
the placeholder "?". Call blocks whose unique jump target is a confirmed
private entry render as CALLPRIVATE, carrying the target and the argument
slots up to and including the pushed continuation address. Statements and
blocks are NamedTuples, built without a setattr per field and compared in C.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from typing import NamedTuple

from .analysis import AnalysisResult, Env, transfer_block
from .bytecode import BytecodeProgram, Terminator
from .facts import ConfirmedFacts
from .local import BlockSummary
from .values import UNDERFLOW, AbstractValue, DefSite, EntrySlot, sort_key

PLACEHOLDER = "?"
RULE = "=" * 33


class TACStatement(NamedTuple):
    label: str
    opcode: str
    operands: tuple[str, ...] = ()
    def_name: str | None = None
    const: int | None = None

    def render(self) -> str:
        text = f"{self.label}: "
        if self.def_name is not None:
            text += self.def_name
            if self.const is not None:
                text += f"(0x{self.const:x})"
            text += " = "
        text += self.opcode
        if self.operands:
            text += " " + ", ".join(self.operands)
        return text


class TACBlock(NamedTuple):
    id: int
    statements: tuple[TACStatement, ...]
    preds: tuple[int, ...] = ()
    succs: tuple[int, ...] = ()

    def render(self) -> str:
        ids = lambda xs: ", ".join(f"0x{x:x}" for x in xs)  # noqa: E731
        lines = [
            f"Begin block 0x{self.id:x}",
            f"prev=[{ids(self.preds)}], succ=[{ids(self.succs)}]",
            RULE,
        ]
        lines.extend(stmt.render() for stmt in self.statements)
        return "\n".join(lines)


class TACProgram(NamedTuple):
    blocks: dict[int, TACBlock]


def _value_name(value: AbstractValue) -> str:
    if isinstance(value, DefSite):
        return f"v{value.pc:x}"
    raise ValueError(f"unnameable value {value!r}")


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
    jump_target = program.jump_target
    private_entries = frozenset(
        target
        for caller, _cont in confirmed.private_calls
        if (target := jump_target(summaries[caller].target_expr)) is not None
    )
    continuations = frozenset(cont for _caller, cont in confirmed.private_calls)

    lifted: dict[int, tuple[tuple[TACStatement, ...], tuple[int, ...]]] = {}
    for bid, entry in sorted(result.per_block.items()):
        # A JUMP block's edges are its jump targets.
        targets = edges.get(bid, set())
        is_call = (
            program.blocks[bid].terminator is Terminator.JUMP
            and len(targets) == 1
            and not private_entries.isdisjoint(targets)
        )
        block = _lift_block(bid, summaries[bid], entry, targets, is_call, jump_target, continuations)
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
    jump_target: Callable[[AbstractValue], int | None],
    continuations: frozenset[int],
) -> tuple[tuple[TACStatement, ...], tuple[int, ...]] | None:
    """(statements, succs) of one block, or None when an entry slot it reads
    mixes UNDERFLOW with values.

    A call passes the exit slots down to its continuation slot, the first
    exit slot holding a value that names a confirmed continuation, and
    returns to the blocks that slot names. A call with no such slot passes
    its target alone and keeps its jump edge.
    """
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
                produced[j] if j < len(produced) else EntrySlot(bid, j - shift) for j in range(cont_slot + 1)
            )
            succs = set(map(jump_target, out[cont_slot])) - {None}

    tokens: dict[int, str] = {}  # entry slot -> token
    statements: list[TACStatement] = []
    read = summary.read_slots().union(v.index for v in args if isinstance(v, EntrySlot))
    for slot in sorted(read):
        values = entry.get(slot, frozenset())
        real = sorted((v for v in values if v is not UNDERFLOW), key=sort_key)
        if not real:
            tokens[slot] = PLACEHOLDER
        elif UNDERFLOW in values:
            return None
        elif len(real) == 1:
            tokens[slot] = _value_name(real[0])
        else:
            def_name = tokens[slot] = f"v{bid:x}_{slot:x}"
            operands = tuple(_value_name(v) for v in real)
            statements.append(TACStatement(f"0x{bid:x}_0x{slot:x}", "PHI", operands, def_name))

    def token(value: AbstractValue) -> str:
        if isinstance(value, EntrySlot):
            return tokens.get(value.index, PLACEHOLDER)
        return _value_name(value)

    for rec in summary.ops:
        if is_call and rec.opcode == "JUMP":
            def_name = f"v{rec.pc:x}_0"
            if tokens.get(0) == def_name:  # the PHI of a lone JUMP's slot 0
                def_name += "r"
            operands = tuple(map(token, (rec.operands[0], *args)))
            statements.append(TACStatement(f"0x{rec.pc:x}", "CALLPRIVATE", operands, def_name))
            continue
        result = rec.result
        # positional: a NamedTuple built from keywords costs about twice as much
        statements.append(
            TACStatement(
                f"0x{rec.pc:x}",
                "CONST" if rec.opcode.startswith("PUSH") else rec.opcode,
                tuple(map(token, rec.operands)),
                None if result is None else _value_name(result),
                None if result is None else result.constant,
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
    for chunk in text.strip("\n").split("\n\n"):
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
