"""Pipeline driver: phase wiring and configuration."""

from dataclasses import replace

from conftest import dispatch_pair_code, chained_call_code, gen_deep_program
from evmlift.bytecode import extract_blocks
from evmlift.context import Scheme
from evmlift.facts import raw_confirmed
from evmlift.lifter import render_tac
from evmlift.pipeline import RunConfig, run_pipeline
from evmlift.preanalysis import DEFAULT_FACT_LIMIT


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
    truncated = run_pipeline(code, RunConfig(preanalysis_fact_limit=10))
    assert truncated.preanalysis.result.stop_condition == "fact-limit"
    assert truncated.analysis.stop_condition == "fixpoint"
    assert truncated.metrics.stop_condition == "fact-limit"
    assert truncated.confirmed == raw_confirmed(truncated.patterns)
    plain = run_pipeline(code, RunConfig(preanalysis=False))
    assert render_tac(truncated.tac) == render_tac(plain.tac)
    assert replace(truncated.metrics, stop_condition="fixpoint") == plain.metrics
    assert truncated.metrics.polymorphic_jump_target == 0


def test_zero_timeout_reports_timeout():
    res = run_pipeline(chained_call_code(), RunConfig(timeout=0.0))
    assert res.analysis.stop_condition == "timeout"
    assert res.metrics.stop_condition == "timeout"


def test_default_config_bounds_the_main_pass():
    assert RunConfig().main_fact_limit == DEFAULT_FACT_LIMIT


def test_main_fact_limit_reports_fact_limit():
    res = run_pipeline(chained_call_code(), RunConfig(main_fact_limit=5))
    assert res.analysis.stop_condition == "fact-limit"


def test_pipeline_is_deterministic():
    first = run_pipeline(chained_call_code())
    second = run_pipeline(chained_call_code())
    assert render_tac(first.tac) == render_tac(second.tac)
    assert first.metrics == second.metrics


def test_confirmed_public_calls_on_dispatch_pair():
    res = run_pipeline(dispatch_pair_code())
    assert res.confirmed.public_calls == frozenset({(0x0, 0x38), (0x29, 0x54)})
    assert res.analysis.stop_condition == "fixpoint"
