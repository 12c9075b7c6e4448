"""Precision and completeness metrics over one analysis run.

The first two count imprecision the lifted code exposes directly:
polymorphic jump targets and unresolved operands. The next three count
structure the lifter failed to recover: unstructured control flow, blocks
lost to underflow, and blocks with fewer successors than their terminator
requires. The stop condition says whether the run even reached a fixpoint.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .analysis import AnalysisResult
from .bytecode import BytecodeProgram, Terminator
from .facts import ConfirmedFacts
from .lifter import PLACEHOLDER, TACProgram


class MetricsReport(NamedTuple):
    polymorphic_jump_target: int
    unresolved_operand: int
    unstructured_control_flow: int
    missing_ir_block: int
    missing_control_flow: int
    stop_condition: str

    def to_json(self) -> str:
        return json.dumps(self._asdict(), indent=2) + "\n"


def compute_metrics(
    program: BytecodeProgram,
    tac: TACProgram,
    result: AnalysisResult,
    confirmed: ConfirmedFacts,
    stop_condition: str,
) -> MetricsReport:
    by_pair: dict[tuple, set[int]] = {}
    for ctx, bid, _value, target in result.block_jump_target:
        by_pair.setdefault((ctx, bid), set()).add(target)
    polymorphic = sum(1 for targets in by_pair.values() if len(targets) >= 2)

    unresolved = sum(
        1
        for block in tac.blocks.values()
        for stmt in block.statements
        if PLACEHOLDER in stmt.operands
    )

    unstructured = 0
    missing_cf = 0
    for bid, block in tac.blocks.items():
        terminator = program.blocks[bid].terminator
        succs = len(block.succs)
        if terminator is Terminator.JUMP and bid not in confirmed.private_returns and succs > 1:
            unstructured += 1
        elif terminator is Terminator.CONDITIONAL_JUMP and succs > 2:
            unstructured += 1
        # compared with `is`: an Enum dict key hashes through a Python-level __hash__
        required = 2 if terminator is Terminator.CONDITIONAL_JUMP else 0 if terminator is Terminator.HALT else 1
        if succs < required:
            missing_cf += 1

    endpoints = {b for pair in result.edge_pairs() for b in pair}
    missing_ir = sum(1 for b in endpoints if b not in tac.blocks)

    return MetricsReport(
        polymorphic_jump_target=polymorphic,
        unresolved_operand=unresolved,
        unstructured_control_flow=unstructured,
        missing_ir_block=missing_ir,
        missing_control_flow=missing_cf,
        stop_condition=stop_condition,
    )
