"""Lifting analysis results to three-address code.

Every block the global analysis visited becomes one IR block, with the
per-context environments merged. Entry-stack reads turn into names: a slot
with a single incoming value uses that value's name directly, a slot with
several gets a PHI, and a slot the analysis knows nothing about reads as
the placeholder "?". Call blocks whose unique jump target is a confirmed
private entry render as CALLPRIVATE, carrying the target and the argument
slots up to and including the pushed continuation address.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .analysis import AnalysisResult, Env, per_block, transfer_block
from .bytecode import BytecodeProgram, Terminator
from .facts import ConfirmedFacts
from .local import BlockSummary, OpRecord
from .values import UNDERFLOW, AbstractValue, DefSite, EntrySlot, constant_of, sort_key

PLACEHOLDER = "?"
RULE = "=" * 33


@dataclass(frozen=True)
class TACStatement:
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


@dataclass(frozen=True)
class TACBlock:
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


@dataclass(frozen=True)
class TACProgram:
    blocks: dict[int, TACBlock]


def _value_name(value: AbstractValue) -> str:
    if isinstance(value, DefSite):
        return f"v{value.pc:x}"
    raise ValueError(f"unnameable value {value!r}")


@dataclass
class _BlockNames:
    tokens: dict[int, str] = field(default_factory=dict)  # entry slot -> token
    phis: list[TACStatement] = field(default_factory=list)
    dropped: bool = False


def _name_entry_slots(
    bid: int, slots: set[int], merged_in: dict[int, set[AbstractValue]]
) -> _BlockNames:
    names = _BlockNames()
    for slot in sorted(slots):
        values = merged_in.get(slot, set())
        real = sorted((v for v in values if v is not UNDERFLOW), key=sort_key)
        if not real:
            names.tokens[slot] = PLACEHOLDER
        elif UNDERFLOW in values:
            names.dropped = True
            return names
        elif len(real) == 1:
            names.tokens[slot] = _value_name(real[0])
        else:
            def_name = f"v{bid:x}_{slot:x}"
            names.tokens[slot] = def_name
            names.phis.append(
                TACStatement(
                    label=f"0x{bid:x}_0x{slot:x}",
                    opcode="PHI",
                    operands=tuple(_value_name(v) for v in real),
                    def_name=def_name,
                )
            )
    return names


class _Lifter:
    def __init__(
        self,
        program: BytecodeProgram,
        summaries: dict[int, BlockSummary],
        result: AnalysisResult,
        confirmed: ConfirmedFacts,
        max_stack_depth: int,
    ):
        self.program = program
        self.summaries = summaries
        self.max_stack_depth = max_stack_depth
        self.merged_in = per_block(result.block_input)

        self.jump_targets: dict[int, set[int]] = {}
        for _ctx, bid, _value, target in result.block_jump_target:
            self.jump_targets.setdefault(bid, set()).add(target)
        self.edges: dict[int, set[int]] = {}
        for bid, succ in result.edge_pairs():
            self.edges.setdefault(bid, set()).add(succ)

        self.private_entries = frozenset(
            target
            for caller, _cont in confirmed.private_calls
            if (target := summaries[caller].local_jump_target) is not None
        )
        self.continuation_ids = frozenset(cont for _caller, cont in confirmed.private_calls)

    def lift(self) -> TACProgram:
        blocks: dict[int, TACBlock] = {}
        for bid in sorted(self.merged_in):
            block = self._build_block(bid)
            if block is not None:
                blocks[bid] = block

        preds: dict[int, set[int]] = {bid: set() for bid in blocks}
        for bid, block in blocks.items():
            for succ in block.succs:
                if succ in preds:
                    preds[succ].add(bid)
        return TACProgram(
            blocks={
                bid: TACBlock(bid, block.statements, tuple(sorted(preds[bid])), block.succs)
                for bid, block in blocks.items()
            }
        )

    def _call_info(self, bid: int) -> tuple[int, int | None, Env] | None:
        """(target, continuation slot, exit env) when the block is a private call."""
        if self.program.blocks[bid].terminator is not Terminator.JUMP:
            return None
        targets = self.jump_targets.get(bid, set())
        if len(targets) != 1:
            return None
        target = next(iter(targets))
        if target not in self.private_entries:
            return None
        cont_slot = None
        # From the merged entry env, which differs from the per-context
        # union only by UNDERFLOW; only constants are read here.
        out = transfer_block(self.summaries[bid], self.merged_in[bid], self.max_stack_depth)
        for slot in sorted(out):
            if {constant_of(v) for v in out[slot]} & self.continuation_ids:
                cont_slot = slot
                break
        return target, cont_slot, out

    def _build_block(self, bid: int) -> TACBlock | None:
        summary = self.summaries[bid]
        call_info = self._call_info(bid)

        consumed = set(summary.read_slots())
        if call_info is not None and call_info[1] is not None:
            produced_len = len(summary.produced)
            for exit_slot in range(call_info[1] + 1):
                if exit_slot < produced_len:
                    value = summary.produced[exit_slot]
                    if isinstance(value, EntrySlot):
                        consumed.add(value.index)
                else:
                    consumed.add(exit_slot - produced_len + summary.consumed_depth)

        names = _name_entry_slots(bid, consumed, self.merged_in.get(bid, {}))
        if names.dropped:
            return None

        def token(value: AbstractValue) -> str:
            if isinstance(value, EntrySlot):
                return names.tokens.get(value.index, PLACEHOLDER)
            if isinstance(value, DefSite):
                return _value_name(value)
            return PLACEHOLDER

        def exit_token(slot: int) -> str:
            if slot < len(summary.produced):
                return token(summary.produced[slot])
            return names.tokens.get(slot - len(summary.produced) + summary.consumed_depth, PLACEHOLDER)

        statements = list(names.phis)
        for rec in summary.ops:
            if rec.opcode.startswith("PUSH"):
                statements.append(
                    TACStatement(
                        label=f"0x{rec.pc:x}",
                        opcode="CONST",
                        def_name=_value_name(rec.result),
                        const=rec.result.constant,
                    )
                )
            elif rec.opcode == "JUMP" and call_info is not None:
                statements.append(self._call_statement(rec, call_info, names, token, exit_token))
            else:
                def_name = None
                const = None
                if rec.result is not None:
                    def_name = _value_name(rec.result)
                    const = rec.result.constant
                statements.append(
                    TACStatement(
                        label=f"0x{rec.pc:x}",
                        opcode=rec.opcode,
                        operands=tuple(token(v) for v in rec.operands),
                        def_name=def_name,
                        const=const,
                    )
                )

        return TACBlock(id=bid, statements=tuple(statements), succs=self._successors(bid, call_info))

    def _call_statement(self, rec: OpRecord, call_info, names: _BlockNames, token, exit_token) -> TACStatement:
        target, cont_slot, _out = call_info
        operands = [token(rec.operands[0])]
        if cont_slot is not None:
            operands.extend(exit_token(slot) for slot in range(cont_slot + 1))
        taken = {phi.def_name for phi in names.phis}
        def_name = f"v{rec.pc:x}_0"
        while def_name in taken:
            def_name += "r"
        return TACStatement(
            label=f"0x{rec.pc:x}",
            opcode="CALLPRIVATE",
            operands=tuple(operands),
            def_name=def_name,
        )

    def _successors(self, bid: int, call_info) -> tuple[int, ...]:
        if call_info is not None and call_info[1] is not None:
            _target, cont_slot, out = call_info
            succs = {c for v in out[cont_slot] if (c := constant_of(v)) is not None}
            return tuple(sorted(succs))
        return tuple(sorted(self.edges.get(bid, ())))


def lift(
    program: BytecodeProgram,
    summaries: dict[int, BlockSummary],
    result: AnalysisResult,
    confirmed: ConfirmedFacts,
    max_stack_depth: int,
) -> TACProgram:
    return _Lifter(program, summaries, result, confirmed, max_stack_depth).lift()


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
        blocks[bid] = TACBlock(
            id=bid,
            statements=tuple(statements),
            preds=parse_ids(edges.group("prev")),
            succs=parse_ids(edges.group("succ")),
        )
    return TACProgram(blocks=blocks)
