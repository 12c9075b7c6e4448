"""Pipeline driver: phase wiring and configuration."""

import inspect
from functools import cached_property
from typing import ForwardRef

import pytest

from conftest import (
    analysis_outputs,
    asm,
    chained_call_code,
    dispatch_pair_code,
    gen_deep_program,
    never_jumped_code,
)
from evmlift import preanalysis
from evmlift.analysis import DEFAULT_FACT_LIMIT, MAX_STACK_DEPTH, AnalysisResult, analyze
from evmlift.bytecode import extract_blocks
from evmlift.context import Scheme
from evmlift.facts import raw_confirmed
from evmlift.lifter import render_tac
from evmlift.pipeline import RunConfig, run_pipeline


def test_depth_defaults_follow_scheme():
    assert RunConfig().depth == 20
    assert RunConfig(scheme=Scheme.TRANSACTIONAL).depth == 8
    assert RunConfig(scheme=Scheme.TRANSACTIONAL, context_depth=4).depth == 4


def test_scheme_used_is_the_configured_scheme():
    res = run_pipeline(dispatch_pair_code())
    assert res.scheme_used.scheme is Scheme.SHRINKING
    assert res.scheme_used.depth == 20

    plain = run_pipeline(dispatch_pair_code(), RunConfig(preanalysis=False))
    assert plain.scheme_used.scheme is Scheme.SHRINKING

    transactional = run_pipeline(dispatch_pair_code(), RunConfig(scheme=Scheme.TRANSACTIONAL))
    assert transactional.scheme_used.scheme is Scheme.TRANSACTIONAL
    assert transactional.scheme_used.depth == 8


def test_cloning_reruns_local_phases_on_cloned_program():
    res = run_pipeline(chained_call_code())
    assert {c.clone_id for c in res.clones} == {0x1E0, 0x1F0, 0x200, 0x210}
    assert 0x1F0 in res.summaries
    assert (0x58, 0x1F0, 0x66) in res.patterns.private_call_candidates
    assert (0x58, 0x72, 0x66) not in res.patterns.private_call_candidates


def test_cloning_keeps_every_input_instruction():
    code = chained_call_code()
    res = run_pipeline(code)
    decoded = extract_blocks(code).blocks
    assert {bid: res.program.blocks[bid] for bid in decoded} == decoded
    assert set(res.program.blocks) - set(decoded) == set(res.program.clone_of)


def test_cloning_disabled_keeps_program_intact():
    res = run_pipeline(chained_call_code(), RunConfig(cloning=False))
    assert res.clones == () and res.program.clone_of == {}
    assert 0x1E0 not in res.program.blocks


def test_preanalysis_disabled_uses_raw_candidates():
    res = run_pipeline(dispatch_pair_code(), RunConfig(preanalysis=False))
    assert res.preanalysis is None
    assert res.confirmed == raw_confirmed(res.patterns)


def test_truncated_preanalysis_falls_back_to_raw_candidates():
    code = gen_deep_program(8, 4)
    truncated = run_pipeline(code, RunConfig(fact_limit=10))
    assert truncated.preanalysis.result.stop_condition == "fact-limit"
    assert truncated.metrics.stop_condition == "fact-limit"
    pre, raw = truncated.preanalysis, truncated.patterns
    assert pre.confirmed == truncated.confirmed == raw_confirmed(raw)
    assert pre.public_call_sites == raw.public_call_candidates
    plain = run_pipeline(code, RunConfig(preanalysis=False, fact_limit=10))
    assert render_tac(truncated.tac) == render_tac(plain.tac)
    assert truncated.metrics == plain.metrics
    assert truncated.metrics.polymorphic_jump_target == 0


def test_a_preanalysis_the_fact_limit_stopped_is_the_main_pass():
    # Same raw facts, scheme and limit: a rerun would replay it step for step.
    res = run_pipeline(gen_deep_program(8, 4), RunConfig(fact_limit=10))
    assert res.preanalysis.result.stop_condition == "fact-limit"
    assert res.analysis is res.preanalysis.result
    fresh = analyze(res.program, res.summaries, raw_confirmed(res.patterns), res.scheme_used, 10)
    assert analysis_outputs(fresh) == analysis_outputs(res.analysis)


def test_a_truncated_preanalysis_does_no_confirmation_work(monkeypatch):
    def refuse(*_args):
        raise AssertionError("confirmation ran on a truncated pre-analysis")

    confirmation = (
        "confirm_private_calls",
        "selector_values",
        "confirm_public_calls",
        "compute_important_edges",
    )
    for name in confirmation:
        monkeypatch.setattr(preanalysis, name, refuse)
    truncated = run_pipeline(gen_deep_program(8, 4), RunConfig(fact_limit=10))
    assert truncated.preanalysis.result.stop_condition == "fact-limit"
    with pytest.raises(AssertionError, match="truncated"):
        run_pipeline(gen_deep_program(8, 4))


def test_zero_timeout_reports_timeout():
    res = run_pipeline(chained_call_code(), RunConfig(timeout=0.0))
    assert res.analysis.stop_condition == "timeout"
    assert res.metrics.stop_condition == "timeout"


def test_every_pass_is_bounded_by_one_default_fact_limit():
    for run in (analyze, preanalysis.run_preanalysis):
        fact_limit = inspect.signature(run).parameters["fact_limit"]
        assert fact_limit.default == DEFAULT_FACT_LIMIT, run.__name__
        assert fact_limit.annotation == "int", run.__name__  # None, for no limit, is not an int
    limits = [name for name in RunConfig._fields if "limit" in name]
    assert limits == ["fact_limit"]
    assert RunConfig().fact_limit == DEFAULT_FACT_LIMIT
    assert RunConfig.__annotations__["timeout"] == ForwardRef("float")


@pytest.fixture
def projections(monkeypatch):
    """The results whose per_block projection was built, one entry per build."""
    build = AnalysisResult.__dict__["per_block"].func
    built = []

    def counted(result):
        built.append(result)
        return build(result)

    prop = cached_property(counted)
    prop.__set_name__(AnalysisResult, "per_block")
    monkeypatch.setattr(AnalysisResult, "per_block", prop)
    return built


def test_a_reused_fixpoint_shares_one_projection(projections):
    res = run_pipeline(chained_call_code())
    assert res.analysis is res.preanalysis.result
    assert res.analysis.per_block is res.preanalysis.result.per_block
    assert projections == [res.analysis]


@pytest.mark.parametrize(
    "code, config",
    [(never_jumped_code, RunConfig()), (chained_call_code, RunConfig(scheme=Scheme.TRANSACTIONAL))],
    ids=["default", "no-shrinking"],
)
def test_each_result_of_a_rerun_builds_its_own_projection(projections, code, config):
    res = run_pipeline(code(), config)
    assert res.analysis is not res.preanalysis.result
    assert projections == [res.preanalysis.result, res.analysis]
    # Confirmation was the pre-analysis projection's last reader.
    assert "per_block" not in vars(res.preanalysis.result)
    assert "per_block" in vars(res.analysis)


def test_fact_limit_reports_fact_limit():
    res = run_pipeline(chained_call_code(), RunConfig(fact_limit=5))
    assert res.preanalysis.result.stop_condition == "fact-limit"
    assert res.analysis.stop_condition == "fact-limit"
    assert res.metrics.stop_condition == "fact-limit"


def test_pipeline_is_deterministic():
    first = run_pipeline(chained_call_code())
    second = run_pipeline(chained_call_code())
    assert render_tac(first.tac) == render_tac(second.tac)
    assert first.metrics == second.metrics


def test_confirmed_public_calls_on_dispatch_pair():
    res = run_pipeline(dispatch_pair_code())
    assert res.confirmed.public_calls == frozenset({(0x0, 0x38), (0x29, 0x54)})
    assert res.analysis.stop_condition == "fixpoint"


def test_a_loop_that_grows_the_stack_stops_at_the_modeled_depth():
    # Each trip pushes one value and jumps back to 0x0, so the entry env of
    # 0x0 gains a slot per trip; only the depth cap lets the fixpoint end.
    res = run_pipeline(asm("JUMPDEST", "PUSH1 0x01", "PUSH1 0x00", "JUMP"))
    assert res.analysis.stop_condition == "fixpoint"
    slots = [slot for env in res.analysis.block_input.values() for slot in env]
    assert max(slots) == MAX_STACK_DEPTH - 1
