"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import gauge
import run
from spans import SPAN_NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

ev = run.import_evmlift()


def small_runs(seed: int) -> list[run.ProgramRun]:
    programs = corpus.sound_corpus(seed)[:30] + corpus.deep_corpus(seed)[-1:] + corpus.dispatch_corpus(seed)[-1:]
    return [run.ProgramRun(p) for p in programs]


def test_default_seed_corpora_match_the_pinned_digests():
    for workload, make in corpus.CORPORA.items():
        assert corpus.corpus_digest(make(corpus.DEFAULT_SEED)) == corpus.CORPUS_SHA256[workload]


def test_generators_are_deterministic_per_seed():
    for make in corpus.CORPORA.values():
        first = corpus.corpus_digest(make(7))
        assert corpus.corpus_digest(make(7)) == first
        assert corpus.corpus_digest(make(8)) != first


def test_size_series_end_at_the_largest_program_under_half_the_limit():
    assert corpus._largest_under(lambda n: bytes(10 * n), 20, 24576) == 2457
    for make in (corpus.deep_corpus, corpus.dispatch_corpus):
        sizes = [len(p.code) for p in make(3)]
        assert sizes == sorted(sizes, reverse=True)
        assert 0.97 * corpus.SERIES_MAX_SIZE < sizes[0] < corpus.SERIES_MAX_SIZE


def test_dispatch_loops_backward_and_confirms_every_public_call():
    functions = 12
    code, selectors = corpus.gen_dispatch_program(functions, random.Random(5))
    res = ev.pipeline.run_pipeline(code)
    assert len(res.preanalysis.public_call_sites) == functions
    assert {sel for _b, sel, _t in res.preanalysis.public_call_sites} == set(selectors)
    assert res.clones == ()
    latches = [
        bid
        for bid, summary in res.summaries.items()
        if summary.local_jump_target is not None and summary.local_jump_target < bid
    ]
    assert len(latches) == functions
    oracle = ev.interpreter.enumerate_edges(
        res.program,
        ev.interpreter.EnvSets(calldatas=corpus.dispatch_calldatas(selectors, random.Random(1))),
    )
    assert all(any((bid, bid2) in oracle for bid2 in range(bid)) for bid in latches)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 2001)]) == (1980.0, "p99")
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, "p90")
    assert run.tail([1.0, 5.0, 3.0]) == (5.0, "max")


def test_gauge_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    assert gauge.gauge() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        gauge.gauge()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_wall_time_is_rescaled_by_the_gauge_reads_around_and_within_it():
    scale = gauge.SpeedScale()
    scale.starts, scale.ends = [0.0, 1.0, 2.0], [0.01, 1.01, 2.01]
    scale.readings = [0.002, 0.004, 0.008]
    scaled, wall = scale.rescale(0.5, 1.5)
    assert wall == pytest.approx(0.5 + 0.49)
    assert scaled == pytest.approx(gauge.REFERENCE_S * (0.5 / 0.003 + 0.49 / 0.006))
    with pytest.raises(ValueError):
        scale.rescale(1.5, 2.5)


def test_lift_pass_rescales_every_lift_while_sampling():
    handler = signal.getsignal(signal.SIGALRM)
    scale = gauge.SpeedScale()
    runs = [run.ProgramRun(p) for p in corpus.sound_corpus(6)[:40]]
    with scale.sampling():
        elapsed = run.lift_pass(ev, runs, scale=scale)
    assert all(len(r.times) == len(r.wall) == 1 and r.times[0] > 0 for r in runs)
    assert 0 < sum(r.wall[0] for r in runs) <= elapsed
    assert signal.getsignal(signal.SIGALRM) == handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_traced_pass_emits_the_untraced_output_and_times_every_layer():
    runs = small_runs(4)
    originals = {name: getattr(ev.pipeline, name) for name in ("run_pipeline", "analyze", "lift")}
    plain, traced = run.Observed(), run.Observed()
    run.lift_pass(ev, runs, plain, check=True)
    tracer = Tracer()
    with tracer.installed():
        run.lift_pass(ev, runs, traced, count=True)
    assert [r.failure for r in runs] == [None] * len(runs)
    assert plain.missed_edges == 0 and plain.oracle_edges > 0
    assert plain.digest.hexdigest() == traced.digest.hexdigest()
    assert tracer.missing == [] and traced.unreadable == []
    assert all(seconds > 0 for seconds in tracer.self_times().values())
    assert set(tracer.self_times()) == set(SPAN_NAMES)
    assert {name: getattr(ev.pipeline, name) for name in originals} == originals


def test_missing_trace_target_is_reported_and_skipped(monkeypatch):
    monkeypatch.delattr(ev.pipeline, "compute_metrics")
    tracer = Tracer()
    with tracer.installed():
        assert ev.pipeline.lift is not ev.lifter.__dict__["lift"]
    assert tracer.missing == ["evmlift.pipeline.compute_metrics"]
    assert ev.pipeline.lift is ev.lifter.__dict__["lift"]


def test_reports_carry_every_metric_named_in_benchmark_json():
    runs = small_runs(5)
    e2e = run.end_to_end(ev, "small", runs, seconds=0.5)
    assert [r.failure for r in runs] == [None] * len(runs)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: v["unit"] for name, v in e2e.items()
    }
    layers, same_output = run.traced(ev, "small", runs, seconds=0.5)
    assert same_output
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: v["unit"] for name, v in layers.items()
    }


def test_run_fails_without_a_result_where_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sound", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
