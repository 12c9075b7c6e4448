"""Control-flow normalization by block cloning.

A continuation that several private calls pass is a shared join point:
every call returns into it, and the values it carries on merge there. Each
of its call pushes gets a private copy of the block, placed at a fresh id
past the end of the code, so each copy sees one call. Cloning decides
which block a jump lands on; it does not change what the bytecode
computes. No instruction is rewritten: the copy is named by its push's pc
(BytecodeProgram.clone_pushes), and a jump on that push's value resolves
to it (BytecodeProgram.record_constants). The transform runs exactly once.
"""

from __future__ import annotations

from typing import NamedTuple

from .bytecode import BasicBlock, BytecodeProgram
from .facts import PatternFacts
from .opcodes import TERM_JUMP


class CloneInstance(NamedTuple):
    push_pc: int
    original: int
    clone_id: int


def select_clone_candidates(
    program: BytecodeProgram, facts: PatternFacts
) -> dict[int, tuple[int, ...]]:
    """Map each continuation worth cloning to the call pushes that get a copy.

    A continuation qualifies when two or more distinct private-call pushes
    name it and it ends in a JUMP; one that halts passes nothing on, so a
    copy of it would split no merge. It is always a JUMPDEST block, since
    program.targets names nothing else.
    """
    sites: dict[int, set[int]] = {}
    for _caller, continuation, push_pc in facts.private_call_candidates:
        sites.setdefault(continuation, set()).add(push_pc)
    return {
        bid: tuple(sorted(pcs))
        for bid, pcs in sites.items()
        if len(pcs) >= 2 and program.blocks[bid].terminator == TERM_JUMP
    }


def _rebase(block: BasicBlock, clone_id: int) -> BasicBlock:
    offset = clone_id - block.id
    instructions = tuple((pc + offset, opcode, pushed) for pc, opcode, pushed in block.instructions)
    # tuple.__new__ builds a record without its NamedTuple's Python-level __new__
    return tuple.__new__(BasicBlock, (clone_id, instructions, block.terminator))


def apply_cloning(
    program: BytecodeProgram, facts: PatternFacts
) -> tuple[BytecodeProgram, tuple[CloneInstance, ...]]:
    """Copy each candidate block per push site and name each copy by its push.

    The result shares program's code and every one of its blocks, so only
    the clones need a summary (see local.summarize_program) and a pattern
    walk (see local.detect_patterns). It starts from copies of program's
    constants and targets and records only the chosen pushes' constants
    again, through record_constants, so each chosen push names its clone
    and every other target stays as it was.
    """
    candidates = select_clone_candidates(program, facts)
    if not candidates:
        return program, ()

    instances: list[CloneInstance] = []
    next_id = (len(program.code) // 16 + 1) * 16
    for original in sorted(candidates):
        span = program.blocks[original].fallthrough_pc - original
        stride = max(16, -(-span // 16) * 16)
        for push_pc in candidates[original]:
            instances.append(CloneInstance(push_pc, original, next_id))
            next_id += stride

    blocks = dict(program.blocks)
    for inst in instances:
        blocks[inst.clone_id] = _rebase(program.blocks[inst.original], inst.clone_id)
    cloned: BytecodeProgram = tuple.__new__(
        BytecodeProgram,
        (
            program.code,
            blocks,
            program.jumpdests,
            {inst.clone_id: inst.original for inst in instances},  # clone_of
            {inst.push_pc: inst.clone_id for inst in instances},  # clone_pushes
            dict(program.constants),
            dict(program.targets),
        ),
    )
    constants = program.constants
    cloned.record_constants({inst.push_pc: constants[inst.push_pc] for inst in instances})
    return cloned, tuple(instances)
