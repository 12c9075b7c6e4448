"""Local analysis: symbolic per-block execution and call-pattern detection.

Each block is executed once over an unbounded stack of entry placeholders.
The resulting summary is the only thing the global analysis ever needs from
the block's instructions. Each instruction costs one read of EFFECTS, the
mnemonic -> (entry slots read, kind) table built at import from
opcodes.TABLE, and entry slots missing under the stack go there in one
slice assignment. Values are ints (see values); the constants the pass
knows for pushes and folded results go into the program's pc -> constant
table.
"""

from __future__ import annotations

from typing import NamedTuple

from .bytecode import BasicBlock, BytecodeProgram, Terminator
from .facts import PatternFacts
from .interpreter import binop
from .opcodes import STACK_LIMIT, TABLE, OpInfo
from .values import UNDERFLOW, AbstractValue, entry_slot

MAX_SELECTOR = 0xFFFFFFFF

# Folding is deliberately limited to the operators dispatchers are built from.
FOLDABLE = {"AND", "ADD", "SUB", "SHL", "SHR", "DIV", "EQ", "ISZERO"}

# How summarize_block moves the stack: one kind per opcode. Every kind from
# JUMP on pops its operands into an OpRecord; from DEF on it pushes a result.
PUSH, DUP, SWAP, DROP, JUMP, JUMPI, EFFECT, DEF, FOLD = range(9)


def _effect(info: OpInfo) -> tuple[int, int]:
    """(entry slots the instruction reads, its kind)"""
    if info.is_push:
        return 0, PUSH
    if info.dup_index:
        return info.dup_index, DUP
    if info.swap_index:
        return info.swap_index + 1, SWAP
    if info.mnemonic in ("POP", "JUMPDEST"):
        return info.pops, DROP
    if info.terminator is Terminator.JUMP:
        return 1, JUMP
    if info.terminator is Terminator.CONDITIONAL_JUMP:
        return 2, JUMPI
    if not info.pushes:
        return info.pops, EFFECT
    return info.pops, FOLD if info.mnemonic in FOLDABLE else DEF


# mnemonic -> (reads, kind), the one record summarize_block reads per instruction
EFFECTS = {info.mnemonic: _effect(info) for info in TABLE}


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
        return frozenset(entry_slot(v) for rec in self.ops for v in rec.operands if v < UNDERFLOW)


def summarize_block(block: BasicBlock, program: BytecodeProgram) -> BlockSummary:
    """Summary of block; records the constants it knows in program."""
    stack: list[AbstractValue] = []  # top of stack at the end
    depth = 0
    ops: list[OpRecord] = []
    constants: dict[int, int] = {}
    target_expr: AbstractValue | None = None
    cond_expr: AbstractValue | None = None
    too_deep = False
    # tuple.__new__ builds a record without its NamedTuple's Python-level __new__
    new, effects = tuple.__new__, EFFECTS

    for pc, opcode, pushed in block.instructions:
        reads, kind = effects[opcode]
        if len(stack) < reads:
            # entry slots depth + missing - 1, ..., depth go under the stack
            missing = reads - len(stack)
            stack[:0] = map(entry_slot, range(depth + missing - 1, depth - 1, -1))
            depth += missing
        if kind == PUSH:
            constants[pc] = pushed
            stack.append(pc)
            ops.append(new(OpRecord, (pc, opcode, (), pc)))
        elif kind == DUP:
            stack.append(stack[-reads])
        elif kind == SWAP:
            stack[-1], stack[-reads] = stack[-reads], stack[-1]
        elif kind == DROP:
            del stack[len(stack) - reads :]
        else:
            operands = tuple(stack[: -reads - 1 : -1])  # top first
            del stack[len(stack) - reads :]
            result = None
            if kind >= DEF:
                result = pc
                if kind == FOLD:
                    consts = [constants.get(v) for v in operands]
                    if None not in consts:
                        constants[result] = binop(opcode, *consts)
                stack.append(result)
            elif kind == JUMP:
                target_expr = operands[0]
            elif kind == JUMPI:
                target_expr, cond_expr = operands
            ops.append(new(OpRecord, (pc, opcode, operands, result)))
        if depth > STACK_LIMIT:
            too_deep = True
            break

    program.record_constants(constants)
    local_target = constants.get(target_expr)
    if local_target is not None and local_target >= len(program.code):
        local_target = None

    return BlockSummary(
        depth, tuple(reversed(stack)), target_expr, cond_expr, local_target, tuple(ops), too_deep
    )


def summarize_program(
    program: BytecodeProgram, known: dict[int, BlockSummary] | None = None
) -> dict[int, BlockSummary]:
    """Summaries of every block, in block order.

    A summary depends only on the block and len(program.code), so a block
    id in known, summarized over the same code and blocks, keeps that
    summary. apply_cloning returns every original block unchanged and
    copies its constants into the cloned program, so with the first
    summaries as known only the clones are summarized and recorded.
    """
    known = known or {}
    return {
        bid: known[bid] if bid in known else summarize_block(program.blocks[bid], program)
        for bid in sorted(program.blocks)
    }


def chase_condition_to_eq(summary: BlockSummary, value: AbstractValue) -> OpRecord | None:
    """Follow at most two ISZEROs from the JUMPI condition back to an EQ."""
    by_pc = {rec.pc: rec for rec in summary.ops}
    hops = 0
    while value in by_pc:
        rec = by_pc[value]
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
    condition, and the JUMPI target must be a block-local constant that names
    a block (BytecodeProgram.jump_target).
    Whether the compared value is really the call-data selector is left to the
    pre-analysis.
    """
    out = set()
    for bid, summary in summaries.items():
        block = program.blocks[bid]
        if block.terminator is not Terminator.CONDITIONAL_JUMP or summary.too_deep:
            continue
        target = program.jump_target(summary.target_expr)
        if target is None:
            continue
        eq = chase_condition_to_eq(summary, summary.cond_expr)
        if eq is None:
            continue
        consts = map(program.constants.get, eq.operands)
        selector = next((c for c in consts if c is not None and c <= MAX_SELECTOR), None)
        if selector is not None:
            out.add((bid, selector, target))
    return frozenset(out)


def detect_private_call_candidates(
    program: BytecodeProgram, summaries: dict[int, BlockSummary]
) -> frozenset[tuple[int, int, int]]:
    """Blocks that jump to a constant while leaving a pushed block address behind.

    One (caller, continuation, push_pc) triple is emitted per qualifying push
    statement, however many copies of it the exit stack holds; the
    continuation is the block jump_target names, a clone for a push cloning
    chose.
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
            if value not in push_pcs or value in seen:
                continue
            continuation = program.jump_target(value)
            if continuation is not None:
                seen.add(value)
                out.add((bid, continuation, value))
    return frozenset(out)


def detect_private_returns(
    program: BytecodeProgram, summaries: dict[int, BlockSummary]
) -> frozenset[int]:
    """Blocks whose JUMP target comes off the entry stack rather than from the block.

    A too-deep block that stopped before its JUMP has no target_expr.
    """
    out = set()
    for bid, summary in summaries.items():
        target = summary.target_expr
        if program.blocks[bid].terminator is Terminator.JUMP and target is not None and target < UNDERFLOW:
            out.add(bid)
    return frozenset(out)


def detect_patterns(program: BytecodeProgram, summaries: dict[int, BlockSummary]) -> PatternFacts:
    return PatternFacts(
        public_call_candidates=detect_public_call_candidates(program, summaries),
        private_call_candidates=detect_private_call_candidates(program, summaries),
        private_returns=detect_private_returns(program, summaries),
    )
