"""Precision and completeness counters."""

import json

import pytest
from conftest import (
    asm,
    dispatch_pair_code,
    chained_call_code,
    poly_merge_code,
    underflow_drop_code,
    unresolved_operand_code,
)
from evmlift.analysis import STOP_FACT_LIMIT, STOP_FIXPOINT, STOP_TIMEOUT
from evmlift.metrics import MetricsReport
from evmlift.pipeline import RunConfig, run_pipeline


def test_clean_dispatch_scores_zero_everywhere():
    m = run_pipeline(dispatch_pair_code()).metrics
    assert (
        m.polymorphic_jump_target,
        m.unresolved_operand,
        m.unstructured_control_flow,
        m.missing_ir_block,
        m.missing_control_flow,
    ) == (0, 0, 0, 0, 0)
    assert m.stop_condition == "fixpoint"


def test_polymorphic_target_counts_two_valued_jumps():
    m = run_pipeline(poly_merge_code(), RunConfig(preanalysis=False)).metrics
    assert m.polymorphic_jump_target == 1
    assert m.unstructured_control_flow == 0  # the join is a recognized return


def test_important_edge_splitting_removes_polymorphism():
    m = run_pipeline(poly_merge_code(), RunConfig(preanalysis=True)).metrics
    assert m.polymorphic_jump_target == 0


def test_unresolved_operand_counts_placeholders():
    m = run_pipeline(unresolved_operand_code()).metrics
    assert m.unresolved_operand == 1
    assert m.missing_ir_block == 0


def test_unstructured_control_flow_cloning_contrast():
    with_cloning = run_pipeline(chained_call_code()).metrics
    without = run_pipeline(chained_call_code(), RunConfig(cloning=False)).metrics
    assert with_cloning.unstructured_control_flow == 0
    assert without.unstructured_control_flow == 1


def test_missing_ir_counts_dropped_edge_endpoints():
    m = run_pipeline(underflow_drop_code()).metrics
    assert m.missing_ir_block == 1


def test_missing_control_flow_counts_underfilled_terminators():
    # an unresolvable jump leaves its block with zero successors
    m = run_pipeline(asm("PUSH1 0x00", "CALLDATALOAD", "JUMP")).metrics
    assert m.missing_control_flow == 1
    assert m.unresolved_operand == 0


def test_a_fall_past_the_end_of_the_code_needs_no_successor():
    # PUSH1 1; POP falls off the end: an implicit STOP, as the interpreter runs it
    assert run_pipeline(bytes.fromhex("600150")).metrics.missing_control_flow == 0
    # a JUMPI whose fallthrough lies past the end needs its target alone
    code = asm("PUSH1 0x05", "JUMP", "JUMPDEST", "STOP", "JUMPDEST", "PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x03", "JUMPI")
    res = run_pipeline(code)
    assert res.tac.blocks[0x5].succs == (0x3,) and res.metrics.missing_control_flow == 0
    # one whose fallthrough lies in the code still needs both
    code = asm("PUSH1 0x00", "CALLDATALOAD", "JUMPI", "STOP")
    assert run_pipeline(code).metrics.missing_control_flow == 1


def test_stop_condition_is_carried_through():
    m = run_pipeline(chained_call_code(), RunConfig(fact_limit=5)).metrics
    assert m.stop_condition == "fact-limit"


def test_json_keys_follow_the_field_order():
    m = run_pipeline(dispatch_pair_code()).metrics
    decoded = json.loads(m.to_json())
    assert tuple(decoded) == MetricsReport._fields
    assert decoded["stop_condition"] == "fixpoint"
    assert m.to_json().endswith("\n")


@pytest.mark.parametrize("stop", [STOP_FIXPOINT, STOP_FACT_LIMIT, STOP_TIMEOUT])
def test_json_is_what_the_json_module_writes(stop):
    for m in (MetricsReport(0, 0, 0, 0, 0, stop), MetricsReport(3, 120, 1, 7, 20_000, stop)):
        assert m.to_json() == json.dumps(m._asdict(), indent=2) + "\n"
