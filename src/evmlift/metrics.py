"""Precision and completeness metrics over one analysis run.

The first two count imprecision the lifted code exposes directly:
polymorphic jump targets and unresolved operands. The next three count
structure the lifter failed to recover: unstructured control flow, blocks
lost to underflow, and blocks with fewer successors than their terminator
requires: one jump target for a JUMP or JUMPI, plus the next block for a
JUMPI or a fall through, unless it lies past the end of the code (an
implicit STOP). The stop condition says whether the run even reached a
fixpoint.
"""

from __future__ import annotations

from typing import NamedTuple

from .analysis import AnalysisResult
from .bytecode import BytecodeProgram
from .facts import ConfirmedFacts
from .lifter import PLACEHOLDER, TACProgram
from .opcodes import TERM_CONDITIONAL_JUMP, TERM_HALT, TERM_JUMP


class MetricsReport(NamedTuple):
    polymorphic_jump_target: int
    unresolved_operand: int
    unstructured_control_flow: int
    missing_ir_block: int
    missing_control_flow: int
    stop_condition: str

    def to_json(self) -> str:
        """The report as json.dumps(self._asdict(), indent=2) writes it, plus
        a newline: five counts and a stop condition that needs no escaping."""
        return (
            "{{\n"
            '  "polymorphic_jump_target": {},\n'
            '  "unresolved_operand": {},\n'
            '  "unstructured_control_flow": {},\n'
            '  "missing_ir_block": {},\n'
            '  "missing_control_flow": {},\n'
            '  "stop_condition": "{}"\n'
            "}}\n"
        ).format(*self)


def compute_metrics(
    program: BytecodeProgram,
    tac: TACProgram,
    result: AnalysisResult,
    confirmed: ConfirmedFacts,
    stop_condition: str,
) -> MetricsReport:
    first: dict[tuple, int] = {}  # (context, block) -> the first target seen
    polymorphic: set[tuple] = set()
    for ctx, bid, _value, target in result.block_jump_target:
        if first.setdefault((ctx, bid), target) != target:
            polymorphic.add((ctx, bid))

    unresolved = 0
    unstructured = 0
    missing_cf = 0
    for bid, block in tac.blocks.items():
        for stmt in block.statements:
            if PLACEHOLDER in stmt.operands:
                unresolved += 1
        terminator = program.blocks[bid].terminator
        succs = len(block.succs)
        if terminator == TERM_JUMP and bid not in confirmed.private_returns and succs > 1:
            unstructured += 1
        elif terminator == TERM_CONDITIONAL_JUMP and succs > 2:
            unstructured += 1
        # compared with `is`: an Enum dict key hashes through a Python-level __hash__
        required = 2 if terminator == TERM_CONDITIONAL_JUMP else 0 if terminator == TERM_HALT else 1
        # A fall needs its next block only where analyze adds that edge, so
        # a block one successor short is short only if it does; the
        # fallthrough is looked up for such a block alone.
        if succs < required and (
            terminator == TERM_JUMP or succs < required - 1 or program.blocks[bid].fallthrough_pc in program.blocks
        ):
            missing_cf += 1

    endpoints = {b for pair in result.edge_pairs() for b in pair}
    missing_ir = sum(1 for b in endpoints if b not in tac.blocks)

    # tuple.__new__ builds a record without its NamedTuple's Python-level __new__
    return tuple.__new__(
        MetricsReport, (len(polymorphic), unresolved, unstructured, missing_ir, missing_cf, stop_condition)
    )
