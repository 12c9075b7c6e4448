"""Local analysis: symbolic per-block execution and call-pattern detection.

Each block is executed once over an unbounded stack of entry placeholders.
The resulting summary is the only thing the global analysis ever needs from
the block's instructions. Each instruction costs one read of EFFECTS, the
mnemonic -> (entry slots read, kind) table built at import from
opcodes.TABLE, and entry slots missing under the stack go there in one
slice assignment. Values are ints (see values); the constants the pass
knows for pushes, folded results, PC and CODESIZE go into the program's
pc -> constant table. summarize_program has every block write into that
table itself and records their jump targets in one call, whatever the
number of blocks. detect_patterns then finds every call pattern in one
walk over the summaries; after cloning, the walk covers only the clones.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from .bytecode import BasicBlock, BytecodeProgram
from .facts import PatternFacts
from .interpreter import binop
from .opcodes import STACK_LIMIT, TABLE, TERM_CONDITIONAL_JUMP, TERM_JUMP, OpInfo
from .values import UNDERFLOW, AbstractValue, entry_slot

MAX_SELECTOR = 0xFFFFFFFF

# Folding is deliberately limited to the operators dispatchers are built from.
FOLDABLE = {"AND", "ADD", "SUB", "SHL", "SHR", "DIV", "EQ", "ISZERO"}
# The opcodes whose value the code fixes: PC's own address and CODESIZE.
FROM_CODE = {"PC", "CODESIZE"}

# How _summarize moves the stack: one kind per opcode. Every kind from
# JUMP on pops its operands into an OpRecord; from DEF on it pushes a result.
PUSH, DUP, SWAP, DROP, JUMP, JUMPI, EFFECT, DEF, FOLD, CODE = range(10)


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
    if info.terminator == TERM_JUMP:
        return 1, JUMP
    if info.terminator == TERM_CONDITIONAL_JUMP:
        return 2, JUMPI
    if not info.pushes:
        return info.pops, EFFECT
    if info.mnemonic in FROM_CODE:
        return 0, CODE
    return info.pops, FOLD if info.mnemonic in FOLDABLE else DEF


# mnemonic -> (reads, kind), the one record _summarize reads per instruction
EFFECTS = {info.mnemonic: _effect(info) for info in TABLE}


# Operand/result view of one instruction, in entry-relative terms:
# (pc, opcode, operands, result), operands top first and result None for an
# instruction that pushes nothing. An exact tuple, read by position: a tuple
# display builds it from the free list, and the collector stops tracking it
# once scanned, since it holds only ints, a str, None and a tuple of ints.
OpRecord = tuple[int, str, tuple[AbstractValue, ...], AbstractValue | None]


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
        return frozenset(
            entry_slot(v) for _pc, _opcode, operands, _result in self.ops for v in operands if v < UNDERFLOW
        )


def _summarize(block: BasicBlock, program: BytecodeProgram, constants: dict[int, int]) -> BlockSummary:
    """Summary of block; writes the constants it knows into constants.

    The block folds against constants, which may hold other blocks'
    constants too: a def site is a pc, unique program-wide, and an entry
    slot is negative, so the block reads only the entries it wrote.
    """
    stack: list[AbstractValue] = []  # top of stack at the end
    depth = 0
    ops: list[OpRecord] = []
    target_expr: AbstractValue | None = None
    cond_expr: AbstractValue | None = None
    too_deep = False
    effects = EFFECTS

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
            ops.append((pc, opcode, (), pc))
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
                elif kind == CODE:
                    # A clone runs as the block it copies, so its PC reads the original's address.
                    if opcode == "PC":
                        constants[result] = pc - block.id + program.clone_of.get(block.id, block.id)
                    else:
                        constants[result] = len(program.code)
                stack.append(result)
            elif kind == JUMP:
                target_expr = operands[0]
            elif kind == JUMPI:
                target_expr, cond_expr = operands
            ops.append((pc, opcode, operands, result))
        if depth > STACK_LIMIT:
            too_deep = True
            break

    local_target = constants.get(target_expr)
    if local_target is not None and local_target >= len(program.code):
        local_target = None

    # tuple.__new__ builds a record without its NamedTuple's Python-level __new__
    return tuple.__new__(
        BlockSummary, (depth, tuple(reversed(stack)), target_expr, cond_expr, local_target, tuple(ops), too_deep)
    )


def summarize_program(
    program: BytecodeProgram, known: dict[int, BlockSummary] | None = None
) -> dict[int, BlockSummary]:
    """Summaries of every block, in block order, with one write of their
    constants into program.

    A summary depends only on the block, len(program.code) and, for a
    clone, the block it copies, so a block id in known, summarized over the
    same code and blocks, keeps that summary. apply_cloning returns every
    original block unchanged and copies its constants into the cloned
    program, so with the first summaries as known only the clones are
    summarized and recorded. Every block folds against one table (see
    _summarize): program.constants itself when known is empty, otherwise a
    table of the blocks summarized here. record_constants then runs once;
    adding program.constants to itself changes nothing.
    """
    known = known or {}
    blocks = program.blocks
    constants: dict[int, int] = {} if known else program.constants
    summaries = {
        bid: known[bid] if bid in known else _summarize(blocks[bid], program, constants) for bid in sorted(blocks)
    }
    program.record_constants(constants)
    return summaries


def chase_condition_to_eq(summary: BlockSummary, value: AbstractValue) -> OpRecord | None:
    """Follow at most two ISZEROs from the JUMPI condition back to an EQ."""
    by_pc = {rec[0]: rec for rec in summary.ops}
    hops = 0
    while value in by_pc:
        rec = by_pc[value]
        _pc, opcode, operands, _result = rec
        if opcode == "EQ":
            return rec
        if opcode == "ISZERO" and hops < 2:
            hops += 1
            value = operands[0]
            continue
        return None
    return None


def detect_patterns(
    program: BytecodeProgram, summaries: dict[int, BlockSummary], known: PatternFacts | None = None
) -> PatternFacts:
    """The call-pattern candidates of every block, in one walk.

    Each block branches once on its terminator:
    - a JUMP block whose target comes off the entry stack is a private
      return (a too-deep block that stopped before its JUMP has no
      target_expr);
    - any other JUMP block with a local jump target is a private caller,
      with one (caller, continuation, push_pc) triple per push on its exit
      stack that names a block, however many copies of it the stack holds;
      the continuation is a clone for a push cloning chose;
    - a JUMPI block whose condition an EQ against a constant of at most four
      bytes feeds, and whose target names a block, is a public-call
      candidate (block, selector, target); whether the compared value is
      really the call-data selector is left to the pre-analysis.
    An entry slot never carries a constant, so the two JUMP cases never
    overlap. Every value names its block through program.targets.

    known is the first walk's facts when program is apply_cloning's result
    and summaries are summarize_program(program, first summaries). Only the
    clones are walked then. Every original block keeps its summary, and
    cloning moves only the targets of the chosen pushes, each a push of a
    private caller and never a JUMPI's target, so the known public
    candidates and returns carry over, and each known private candidate
    reads its continuation again through program.targets.
    """
    targets = program.targets
    if known is None:
        public: set[tuple[int, int, int]] = set()
        private: set[tuple[int, int, int]] = set()
        returns: set[int] = set()
        walk: Iterable[int] = summaries
    else:
        public = set(known.public_call_candidates)
        private = {(caller, targets[push], push) for caller, _cont, push in known.private_call_candidates}
        returns = set(known.private_returns)
        walk = program.clone_of
    blocks, constants = program.blocks, program.constants
    for bid in walk:
        summary = summaries[bid]
        block = blocks[bid]
        terminator = block.terminator
        if terminator == TERM_JUMP:
            expr = summary.target_expr
            if expr is not None and expr < UNDERFLOW:
                returns.add(bid)
            elif summary.local_jump_target is not None and not summary.too_deep:
                pushes = {pc for pc, _opcode, pushed in block.instructions if pushed is not None}
                for value in pushes.intersection(summary.produced):
                    if (continuation := targets.get(value)) is not None:
                        private.add((bid, continuation, value))
        elif terminator == TERM_CONDITIONAL_JUMP:
            if summary.too_deep or (target := targets.get(summary.target_expr)) is None:
                continue
            eq = chase_condition_to_eq(summary, summary.cond_expr)
            if eq is None:
                continue
            _pc, _opcode, operands, _result = eq
            consts = map(constants.get, operands)
            selector = next((c for c in consts if c is not None and c <= MAX_SELECTOR), None)
            if selector is not None:
                public.add((bid, selector, target))
    # tuple.__new__ builds a record without its NamedTuple's Python-level __new__
    return tuple.__new__(PatternFacts, (frozenset(public), frozenset(private), frozenset(returns)))
