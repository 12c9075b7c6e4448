"""Control-flow normalization by block cloning.

Blocks whose address is pushed from several places act as shared join
points and are the main source of value merging in the global analysis.
Each qualifying push site gets a private copy of the block: the copy is
placed at a fresh id past the end of the code and the push is rewritten to
point at it. Copies are made from the pristine originals before any push is
rewritten, and the transform runs exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bytecode import BasicBlock, BytecodeProgram, Terminator
from .facts import PatternFacts
from .local import detect_stack_balancing_blocks
from .values import DefSite


@dataclass(frozen=True)
class CloneInstance:
    push_pc: int
    original: int
    clone_id: int


def select_clone_candidates(
    program: BytecodeProgram, facts: PatternFacts
) -> dict[int, tuple[int, ...]]:
    """Map each block worth cloning to the push sites that get a copy.

    A block qualifies when it is jumped-to code (JUMPDEST head, JUMP tail)
    and either serves as the continuation of two or more distinct call
    pushes, or is a stack-balancing block whose address is pushed from two
    or more places anywhere in the program.
    """
    sites: dict[int, set[int]] = {}

    by_continuation: dict[int, set[int]] = {}
    for _caller, continuation, push_pc in facts.private_call_candidates:
        by_continuation.setdefault(continuation, set()).add(push_pc)
    for continuation, pcs in by_continuation.items():
        if len(pcs) >= 2:
            sites.setdefault(continuation, set()).update(pcs)

    balancing_pushes: dict[int, set[int]] = {b: set() for b in detect_stack_balancing_blocks(program)}
    if balancing_pushes:
        for block in program.blocks.values():
            for ins in block.instructions:
                if ins.pushed_value in balancing_pushes:
                    balancing_pushes[ins.pushed_value].add(ins.pc)
    for bid, pcs in balancing_pushes.items():
        if len(pcs) >= 2:
            sites.setdefault(bid, set()).update(pcs)

    out: dict[int, tuple[int, ...]] = {}
    for bid, pcs in sites.items():
        block = program.blocks.get(bid)
        if block is None or block.terminator is not Terminator.JUMP:
            continue
        if block.instructions[0].opcode != "JUMPDEST":
            continue
        out[bid] = tuple(sorted(pcs))
    return out


def _rebase(block: BasicBlock, clone_id: int) -> BasicBlock:
    offset = clone_id - block.id
    instructions = tuple(ins._replace(pc=ins.pc + offset) for ins in block.instructions)
    return BasicBlock(id=clone_id, instructions=instructions, terminator=block.terminator)


def apply_cloning(
    program: BytecodeProgram, facts: PatternFacts
) -> tuple[BytecodeProgram, tuple[CloneInstance, ...]]:
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

    # pc -> owning block, from the pre-clone program so rewrites never chase
    # a moved instruction
    owner: dict[int, int] = {}
    for bid, block in program.blocks.items():
        for ins in block.instructions:
            owner[ins.pc] = bid

    for inst in instances:
        bid = owner[inst.push_pc]
        block = blocks[bid]
        rewritten = tuple(
            ins._replace(pushed_value=inst.clone_id) if ins.pc == inst.push_pc else ins
            for ins in block.instructions
        )
        blocks[bid] = BasicBlock(id=block.id, instructions=rewritten, terminator=block.terminator)

    clone_of = dict(program.clone_of)
    clone_of.update({inst.clone_id: inst.original for inst in instances})
    cloned = BytecodeProgram(
        code=program.code,
        blocks=blocks,
        jumpdests=program.jumpdests,
        clone_of=clone_of,
        clone_pushes=program.clone_pushes | {DefSite(inst.push_pc, inst.clone_id) for inst in instances},
    )
    return cloned, tuple(instances)
