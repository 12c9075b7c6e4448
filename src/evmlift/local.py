"""Local analysis: symbolic per-block execution and call-pattern detection.

Each block is executed once over an unbounded stack of entry placeholders.
The resulting summary is the only thing the global analysis ever needs from
the block's instructions. Summaries and op records are NamedTuples, one per
block or instruction, built without a setattr per field and hashed in C.
"""

from __future__ import annotations

from typing import NamedTuple

from .bytecode import BasicBlock, BytecodeProgram, Terminator
from .facts import PatternFacts
from .interpreter import binop
from .opcodes import BY_NAME, STACK_LIMIT
from .values import AbstractValue, DefSite, EntrySlot, constant_of

MAX_SELECTOR = 0xFFFFFFFF

# Folding is deliberately limited to the operators dispatchers are built from.
FOLDABLE = {"AND", "ADD", "SUB", "SHL", "SHR", "DIV", "EQ", "ISZERO"}

_BALANCING_OK = {"JUMPDEST", "POP"} | {f"SWAP{n}" for n in range(1, 17)} | {f"DUP{n}" for n in range(1, 17)}


class OpRecord(NamedTuple):
    """Operand/result view of one instruction, in entry-relative terms."""

    pc: int
    opcode: str
    operands: tuple[AbstractValue, ...]
    result: AbstractValue | None


class BlockSummary(NamedTuple):
    """Net stack effect of a block over symbolic entry slots.

    produced lists the explicit exit-stack prefix (top first); exit slot j for
    j >= len(produced) is entry slot j - len(produced) + consumed_depth,
    passed through untouched.
    """

    consumed_depth: int
    produced: tuple[AbstractValue, ...]
    target_expr: AbstractValue | None = None
    cond_expr: AbstractValue | None = None
    local_jump_target: int | None = None
    ops: tuple[OpRecord, ...] = ()
    too_deep: bool = False

    def read_slots(self) -> frozenset[int]:
        """Entry-slot indices any instruction actually consumes."""
        return frozenset(v.index for rec in self.ops for v in rec.operands if isinstance(v, EntrySlot))


def summarize_block(block: BasicBlock, program: BytecodeProgram) -> BlockSummary:
    stack: list[AbstractValue] = []  # top of stack at the end
    depth = 0
    ops: list[OpRecord] = []
    target_expr: AbstractValue | None = None
    cond_expr: AbstractValue | None = None
    too_deep = False

    def need(n: int) -> None:
        nonlocal depth
        while len(stack) < n:
            stack.insert(0, EntrySlot(block.id, depth))
            depth += 1

    def pop(n: int) -> list[AbstractValue]:
        need(n)
        popped = stack[-n:][::-1] if n else []
        del stack[len(stack) - n :]
        return popped

    for ins in block.instructions:
        info = BY_NAME[ins.opcode]
        if info.is_push:
            result = DefSite(ins.pc, ins.pushed_value)
            stack.append(result)
            ops.append(OpRecord(ins.pc, ins.opcode, (), result))
        elif info.dup_index:
            need(info.dup_index)
            stack.append(stack[-info.dup_index])
        elif info.swap_index:
            n = info.swap_index
            need(n + 1)
            stack[-1], stack[-n - 1] = stack[-n - 1], stack[-1]
        elif ins.opcode in ("POP", "JUMPDEST"):
            if ins.opcode == "POP":
                pop(1)
        elif info.terminator is Terminator.JUMP:
            target_expr = pop(1)[0]
            ops.append(OpRecord(ins.pc, "JUMP", (target_expr,), None))
        elif info.terminator is Terminator.CONDITIONAL_JUMP:
            target_expr, cond_expr = pop(2)
            ops.append(OpRecord(ins.pc, "JUMPI", (target_expr, cond_expr), None))
        else:
            operands = pop(info.pops)
            result = None
            if info.pushes:
                consts = [constant_of(v) for v in operands]
                if ins.opcode in FOLDABLE and all(c is not None for c in consts):
                    result = DefSite(ins.pc, binop(ins.opcode, *consts))
                else:
                    result = DefSite(ins.pc)
                stack.append(result)
            ops.append(OpRecord(ins.pc, ins.opcode, tuple(operands), result))
        if depth > STACK_LIMIT:
            too_deep = True
            break

    local_target = None
    if isinstance(target_expr, DefSite) and target_expr.constant is not None:
        t = target_expr.constant
        if t < len(program.code) or target_expr in program.clone_pushes:
            local_target = t

    return BlockSummary(
        depth, tuple(reversed(stack)), target_expr, cond_expr, local_target, tuple(ops), too_deep
    )


def summarize_program(program: BytecodeProgram) -> dict[int, BlockSummary]:
    return {bid: summarize_block(program.blocks[bid], program) for bid in sorted(program.blocks)}


def chase_condition_to_eq(summary: BlockSummary, value: AbstractValue) -> OpRecord | None:
    """Follow at most two ISZEROs from the JUMPI condition back to an EQ."""
    by_pc = {rec.pc: rec for rec in summary.ops}
    hops = 0
    while isinstance(value, DefSite) and value.pc in by_pc:
        rec = by_pc[value.pc]
        if rec.opcode == "EQ":
            return rec
        if rec.opcode == "ISZERO" and hops < 2:
            hops += 1
            value = rec.operands[0]
            continue
        return None
    return None


def detect_public_call_candidates(
    program: BytecodeProgram, summaries: dict[int, BlockSummary]
) -> frozenset[tuple[int, int, int]]:
    """Blocks that look like function-selector dispatch checks.

    An EQ against a constant of at most four bytes must feed the block's JUMPI
    condition, and the JUMPI target must be a block-local constant jumpdest.
    Whether the compared value is really the call-data selector is left to the
    pre-analysis.
    """
    out = set()
    for bid, summary in summaries.items():
        block = program.blocks[bid]
        if block.terminator is not Terminator.CONDITIONAL_JUMP or summary.too_deep:
            continue
        target = summary.target_expr
        if not isinstance(target, DefSite) or target.constant is None:
            continue
        if target.constant not in program.jumpdests:
            continue
        eq = chase_condition_to_eq(summary, summary.cond_expr)
        if eq is None:
            continue
        selector = next(
            (
                c
                for c in (constant_of(eq.operands[0]), constant_of(eq.operands[1]))
                if c is not None and c <= MAX_SELECTOR
            ),
            None,
        )
        if selector is not None:
            out.add((bid, selector, target.constant))
    return frozenset(out)


def detect_private_call_candidates(
    program: BytecodeProgram, summaries: dict[int, BlockSummary]
) -> frozenset[tuple[int, int, int]]:
    """Blocks that jump to a constant while leaving a pushed jumpdest behind.

    One (caller, continuation, push_pc) triple is emitted per qualifying push
    statement, however many copies of it the exit stack holds.
    """
    out = set()
    for bid, summary in summaries.items():
        block = program.blocks[bid]
        if block.terminator is not Terminator.JUMP or summary.too_deep:
            continue
        if summary.local_jump_target is None:
            continue
        push_pcs = {ins.pc for ins in block.instructions if ins.pushed_value is not None}
        seen: set[int] = set()
        for value in summary.produced:
            if not isinstance(value, DefSite) or value.constant is None:
                continue
            if value.pc in push_pcs and value.pc not in seen and program.jump_target(value) is not None:
                seen.add(value.pc)
                out.add((bid, value.constant, value.pc))
    return frozenset(out)


def detect_private_returns(
    program: BytecodeProgram, summaries: dict[int, BlockSummary]
) -> frozenset[int]:
    """Blocks whose JUMP target comes off the entry stack rather than from the block."""
    out = set()
    for bid, summary in summaries.items():
        if program.blocks[bid].terminator is Terminator.JUMP and isinstance(summary.target_expr, EntrySlot):
            out.add(bid)
    return frozenset(out)


def detect_stack_balancing_blocks(program: BytecodeProgram) -> frozenset[int]:
    """JUMP-terminated blocks containing only stack-shuffling instructions."""
    out = set()
    for bid, block in program.blocks.items():
        if block.terminator is not Terminator.JUMP:
            continue
        if all(ins.opcode in _BALANCING_OK for ins in block.instructions[:-1]):
            out.add(bid)
    return frozenset(out)


def detect_patterns(program: BytecodeProgram, summaries: dict[int, BlockSummary]) -> PatternFacts:
    return PatternFacts(
        public_call_candidates=detect_public_call_candidates(program, summaries),
        private_call_candidates=detect_private_call_candidates(program, summaries),
        private_returns=detect_private_returns(program, summaries),
    )
