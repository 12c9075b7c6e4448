"""Seeded end-to-end benchmark for the evmlift lifter.

Run from the repository root:

    python3 perfbench/run.py --workload sound --seed 0 --seconds 34 --trace 0

One process and one thread lift the workload's corpus back to back (a closed
loop): every program once, then again in corpus order, skipping any program
whose last lift would overrun --seconds, until none fits. The timed work per
program is run_pipeline, render_tac and MetricsReport.to_json, which is what
`evmlift lift` computes minus the file writes. Outside the timed region every
program is checked once: the concrete interpreter's edges must all appear in
the analysis, and the TAC must round-trip through parse_tac.

Every time in the end-to-end metrics is rescaled to a reference CPU speed
by the gauge in gauge.py, read every 0.2 s while lifting; the report also
prints the unscaled figures. --trace 0 prints the end-to-end metrics;
--trace 1 alternates untraced and traced passes and prints per-layer self
time and work counts instead. The last line of output is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from corpus import CORPORA, CORPUS_SHA256, DEFAULT_SEED, Program, corpus_digest
from gauge import REFERENCE_S, SpeedScale
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 15
ORACLE_MAX_STEPS = 100_000
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10

QUALITY = (
    "polymorphic_jump_target",
    "unresolved_operand",
    "unstructured_control_flow",
    "missing_ir_block",
    "missing_control_flow",
)

# Self time of each span name, reported under this per-layer metric.
SPAN_METRIC = {
    "pipeline": "pipeline.self_s",
    "bytecode": "bytecode.s",
    "local": "local.s",
    "cloning": "cloning.s",
    "preanalysis.confirm": "preanalysis.confirm_s",
    "preanalysis.fixpoint": "preanalysis.fixpoint_s",
    "analysis": "analysis.s",
    "lifter": "lifter.s",
    "metrics": "metrics.s",
    "lifter.render": "lifter.render_s",
}

# Work counts read from public PipelineResult fields, summed over the corpus.
COUNTERS = {
    "bytecode.blocks": lambda r: len(r.program.blocks) - len(r.clones),
    "local.private_candidates": lambda r: len(r.patterns.private_call_candidates),
    "local.public_candidates": lambda r: len(r.patterns.public_call_candidates),
    "local.too_deep": lambda r: sum(s.too_deep for s in r.summaries.values()),
    "cloning.clones": lambda r: len(r.clones),
    "cloning.blocks_after": lambda r: len(r.program.blocks),
    "preanalysis.facts": lambda r: r.preanalysis.result.fact_count,
    "preanalysis.transfers": lambda r: r.preanalysis.result.transfers,
    "preanalysis.important_edges": lambda r: len(r.confirmed.important_edges),
    "preanalysis.truncated": lambda r: int(r.preanalysis.result.stop_condition != "fixpoint"),
    "analysis.facts": lambda r: r.analysis.fact_count,
    "analysis.transfers": lambda r: r.analysis.transfers,
    "analysis.pairs": lambda r: len(r.analysis.block_input),
    "analysis.edges": lambda r: len(r.analysis.global_block_edge),
    "analysis.contexts": lambda r: len({ctx for ctx, _bid in r.analysis.block_input}),
    "lifter.blocks": lambda r: len(r.tac.blocks),
    "lifter.statements": lambda r: sum(len(b.statements) for b in r.tac.blocks.values()),
    "lifter.phis": lambda r: sum(
        s.opcode == "PHI" for b in r.tac.blocks.values() for s in b.statements
    ),
    # numerators and denominators of the ratios below, not reported alone
    "private_confirmed": lambda r: len(r.confirmed.private_calls),
    "private_pairs": lambda r: len({(c, k) for c, k, _p in r.patterns.private_call_candidates}),
    "public_confirmed": lambda r: len(r.preanalysis.public_call_sites),
}
MAXIMA = {
    "analysis.max_context_len": lambda r: max(
        (len(ctx.private) for ctx, _bid in r.analysis.block_input), default=0
    ),
}
RATIOS = {
    "preanalysis.private_confirmed_ratio": ("private_confirmed", "private_pairs"),
    "preanalysis.public_confirmed_ratio": ("public_confirmed", "local.public_candidates"),
    "analysis.transfers_per_pair": ("analysis.transfers", "analysis.pairs"),
    "analysis.pre_fact_ratio": ("analysis.facts", "preanalysis.facts"),
}


def import_evmlift():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "evmlift" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no evmlift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import evmlift
    import evmlift.bytecode
    import evmlift.interpreter
    import evmlift.lifter
    import evmlift.pipeline

    if Path(evmlift.__file__).resolve().parent != SRC / "evmlift":
        raise SystemExit(f"perfbench: imported evmlift from {evmlift.__file__}, not {SRC}")
    return evmlift


def measure_setup(scale: SpeedScale) -> tuple[float, float]:
    """Median time of `import evmlift, evmlift.cli` in a fresh interpreter.

    Returns the median of the rescaled samples and of the wall times. The
    interpreter's own start is left out: no change to the package moves it,
    and it only adds noise. The first import compiles the bytecode cache and
    is not counted, since users pay that once per install.
    """
    probe = (
        "import time; t = time.perf_counter(); import evmlift, evmlift.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, wall = [], []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=60,
        )
        wall.append(float(out.stdout.split()[-1]))
        scaled.append(wall[-1] * scale.factor())
    return statistics.median(scaled[1:]), statistics.median(wall[1:])


@dataclass
class ProgramRun:
    program: Program
    times: list[float] = field(default_factory=list)  # rescaled by the gauge
    wall: list[float] = field(default_factory=list)
    failure: str | None = None


@dataclass
class Observed:
    """What one checked pass saw: output digest, quality counts, work counts."""

    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    quality: dict[str, int] = field(default_factory=lambda: dict.fromkeys(QUALITY, 0))
    not_fixpoint: int = 0
    missed_edges: int = 0
    oracle_edges: int = 0
    oracle_s: float = 0.0
    counters: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    maxima: dict[str, int] = field(default_factory=lambda: dict.fromkeys(MAXIMA, 0))
    unreadable: list[str] = field(default_factory=list)


def check_program(ev, run: ProgramRun, res, tac: str, seen: Observed) -> None:
    """Soundness against the concrete oracle and the TAC round trip.

    The interpreter runs the input bytecode, not the lifter's cloned program,
    so a fault in cloning cannot shape the reference; lifted edges are
    compared with clone ids mapped back to the blocks they copy.
    """
    original = ev.bytecode.extract_blocks(run.program.code)
    env_sets = ev.interpreter.EnvSets(calldatas=run.program.calldatas)
    start = time.perf_counter()
    oracle = ev.interpreter.enumerate_edges(original, env_sets, ORACLE_MAX_STEPS)
    seen.oracle_s += time.perf_counter() - start
    block = res.program.clone_of
    lifted = {(block.get(a, a), block.get(b, b)) for a, b in res.analysis.edge_pairs()}
    missed = oracle - lifted
    seen.oracle_edges += len(oracle)
    seen.missed_edges += len(missed)
    if missed:
        shown = ", ".join(f"0x{a:x}->0x{b:x}" for a, b in sorted(missed)[:5])
        run.failure = f"oracle edges missed: {shown}"
    elif ev.lifter.render_tac(ev.lifter.parse_tac(tac)) != tac:
        run.failure = "TAC does not round-trip through parse_tac"


def count_program(res, seen: Observed) -> None:
    for name, read in COUNTERS.items():
        try:
            seen.counters[name] += read(res)
        except (AttributeError, TypeError):
            if name not in seen.unreadable:
                seen.unreadable.append(name)
    for name, read in MAXIMA.items():
        try:
            seen.maxima[name] = max(seen.maxima[name], read(res))
        except (AttributeError, TypeError):
            if name not in seen.unreadable:
                seen.unreadable.append(name)


def observe(ev, run: ProgramRun, res, tac: str, metrics_json: str, seen: Observed,
            check: bool, count: bool) -> None:
    """Hash and inspect one lift's output, outside the timed region."""
    for part in (run.program.name, tac, metrics_json):
        data = part.encode()
        seen.digest.update(len(data).to_bytes(8, "big") + data)
    for name in QUALITY:
        seen.quality[name] += getattr(res.metrics, name)
    seen.not_fixpoint += res.metrics.stop_condition != "fixpoint"
    if check:
        try:
            check_program(ev, run, res, tac, seen)
        except Exception as exc:  # the oracle itself failing is a failed check
            run.failure = f"check raised {type(exc).__name__}: {exc}"
    if count:
        count_program(res, seen)


def lift_pass(
    ev,
    runs: list[ProgramRun],
    seen: Observed | None = None,
    check: bool = False,
    count: bool = False,
    budget: float = math.inf,
    scale: SpeedScale | None = None,
) -> float:
    """Lift every program once, in corpus order; returns the timed wall seconds.

    A program whose previous lift time would take the pass past `budget` is
    skipped. With `seen`, the outputs are hashed and inspected outside the
    timed region. With `scale`, which must be sampling, each lift time is
    rescaled by the gauge reads around and within it once the pass is over.
    """
    timed = 0.0
    clock = time.perf_counter
    lifts: list[tuple[ProgramRun, float, float]] = []
    for run in runs:
        if run.failure is not None:
            continue
        if run.wall and timed + run.wall[-1] > budget:
            continue
        start = clock()
        try:
            res = ev.pipeline.run_pipeline(run.program.code)
            tac = ev.lifter.render_tac(res.tac)
            metrics_json = res.metrics.to_json()
        except Exception as exc:  # a failing program is counted; the run goes on
            timed += clock() - start
            run.failure = f"raised {type(exc).__name__}: {exc}"
            continue
        end = clock()
        timed += end - start
        lifts.append((run, start, end))
        if seen is not None:
            observe(ev, run, res, tac, metrics_json, seen, check, count)
        # The next lift starts without this one's result in the heap.
        del res, tac, metrics_json
    if scale is not None:
        scale.read()
    for run, start, end in lifts:
        scaled, wall = scale.rescale(start, end) if scale else (end - start, end - start)
        run.times.append(scaled)
        run.wall.append(wall)
    return timed


def tail(values: list[float]) -> tuple[float, str]:
    """Highest standard percentile with at least ten samples beyond it, else the max."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return ordered[rank - 1], f"p{q:g}"
    return ordered[-1], "max"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report(lines: list[tuple[str, float, str, str]]) -> None:
    for name, value, unit, note in lines:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<40} {text:>14} {unit:<6} {note}".rstrip())


def quality(seen: Observed, runs: list[ProgramRun]) -> list[tuple[str, float, str, str]]:
    """Precision and soundness of the checked pass, as report lines."""
    failed = sum(r.failure is not None for r in runs)
    return [
        *((name, seen.quality[name], "count", "") for name in QUALITY),
        ("not_fixpoint", seen.not_fixpoint, "count", ""),
        ("oracle_missed_edges", seen.missed_edges, "count",
         f"of {seen.oracle_edges} concrete edges, oracle ran {seen.oracle_s:.1f} s"),
        ("failed_ratio", failed / len(runs), "ratio", f"{failed} of {len(runs)} programs"),
    ]


def end_to_end(ev, workload: str, runs: list[ProgramRun], seconds: float) -> dict:
    scale = SpeedScale()
    setup_s, setup_wall = measure_setup(scale)
    seen = Observed()
    with scale.sampling():
        timed = lift_pass(ev, runs, seen, check=True, scale=scale)
        pass_times = [timed]
        while more := lift_pass(ev, runs, budget=seconds - timed, scale=scale):
            pass_times.append(more)
            timed += more
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    lifted = [r for r in runs if r.times]
    per_program = [statistics.median(r.times) for r in lifted] or [0.0]
    per_program_wall = [statistics.median(r.wall) for r in lifted] or [0.0]
    kbytes = sum(len(r.program.code) for r in lifted) / 1000
    kbytes_per_s = kbytes / sum(per_program) if lifted else 0.0
    kbytes_per_s_wall = kbytes / sum(per_program_wall) if lifted else 0.0
    tail_s, tail_label = tail(per_program)
    lifts = [len(r.times) for r in lifted] or [0]

    shown = ", ".join(f"{t:.2f}" for t in pass_times)
    print(f"workload {workload}: {len(runs)} programs, passes timed at {shown} s")
    reads = scale.readings
    print(f"  gauge: {len(reads)} reads, median {1000 * statistics.median(reads):.3f} ms, "
          f"range {1000 * min(reads):.3f}-{1000 * max(reads):.3f} ms, "
          f"times rescaled to {1000 * REFERENCE_S:.3f} ms")
    lines = [
        ("setup_s", setup_s, "s", f"median of {SETUP_SAMPLES} fresh imports; "
         f"{setup_wall:.4g} s unscaled"),
        ("kbytes_per_s", kbytes_per_s, "KB/s", f"{kbytes:.1f} KB per pass; "
         f"{kbytes_per_s_wall:.4g} KB/s unscaled"),
        ("lift_s.p50", statistics.median(per_program), "s",
         f"{statistics.median(per_program_wall):.4g} s unscaled"),
        ("lift_s.tail", tail_s, "s", f"{tail_label} of {len(per_program)} programs, "
         f"each the median of {min(lifts)}-{max(lifts)} lifts; "
         f"{tail(per_program_wall)[0]:.4g} s unscaled"),
        ("peak_rss_mb", peak_rss_mb, "MB", ""),
    ]
    report(lines + quality(seen, runs))
    print(f"  output_sha256 {seen.digest.hexdigest()}")
    return {name: metric(value, unit) for name, value, unit, _note in lines}


def traced(ev, workload: str, runs: list[ProgramRun], seconds: float) -> tuple[dict, bool]:
    tracer = Tracer()
    plain_seen, traced_seen = Observed(), Observed()
    plain_walls, traced_walls, layer_times = [], [], []
    spans_per_pass: dict[str, int] = {}
    # The checked pass is the run's first, on a cold heap and with the oracle
    # in between, so the overhead compares traced passes with later untraced
    # ones only.
    timed = lift_pass(ev, runs, plain_seen, check=True)
    while not traced_walls or timed + traced_walls[-1] + plain_walls[-1] <= seconds:
        first = not traced_walls
        with tracer.installed():
            wall = lift_pass(ev, runs, traced_seen if first else None, count=first)
        layer_times.append(tracer.self_times())
        if first:
            spans_per_pass = tracer.counts()
        tracer.reset()
        plain = lift_pass(ev, runs)
        traced_walls.append(wall)
        plain_walls.append(plain)
        timed += wall + plain

    same_output = plain_seen.digest.hexdigest() == traced_seen.digest.hexdigest()
    c = traced_seen.counters
    values: dict[str, tuple[float, str]] = {}
    for span, name in SPAN_METRIC.items():
        values[name] = (statistics.median(t[span] for t in layer_times), "s")
    values["local.calls"] = (spans_per_pass.get("local", 0), "count")
    for name, total in c.items():
        if "." in name:
            values[name] = (total, "count")
    for name, value in traced_seen.maxima.items():
        values[name] = (value, "count")
    for name, (num, den) in RATIOS.items():
        values[name] = (c[num] / c[den] if c[den] else 0.0, "ratio")
    for name, value, unit, _note in quality(plain_seen, runs):
        values[name] = (value, unit)
    values["interpreter.s"] = (plain_seen.oracle_s, "s")
    values["interpreter.edges"] = (plain_seen.oracle_edges, "count")
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    values["trace.overhead_s"] = (overhead, "s")

    print(f"workload {workload}: {len(runs)} programs, {len(traced_walls)} untraced + traced pass pairs")
    total = sum(values[name][0] for name in SPAN_METRIC.values()) or 1.0
    print("  self time per layer, median traced pass:")
    for name in SPAN_METRIC.values():
        secs = values[name][0]
        print(f"    {name:<28} {secs:10.4f} s {100 * secs / total:6.1f}%")
    report([(name, v, unit, "") for name, (v, unit) in values.items() if name not in SPAN_METRIC.values()])
    print(f"  output_sha256 untraced {plain_seen.digest.hexdigest()}")
    print(f"  output_sha256 traced   {traced_seen.digest.hexdigest()}")
    for name in tracer.missing:
        print(f"  trace: {name} not found; its layer reads 0")
    for name in traced_seen.unreadable:
        print(f"  trace: counter {name} could not be read; it reads 0")
    if not same_output:
        print("  traced output differs from untraced output")
    return {name: metric(v, unit) for name, (v, unit) in values.items()}, same_output


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().split("\n")[0])
    parser.add_argument("--workload", choices=sorted(CORPORA), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ev = import_evmlift()
    make = CORPORA[args.workload]
    pinned = corpus_digest(make(DEFAULT_SEED))
    if pinned != CORPUS_SHA256[args.workload]:
        raise SystemExit(
            f"perfbench: {args.workload} corpus for seed {DEFAULT_SEED} hashes to {pinned}, "
            f"not the pinned {CORPUS_SHA256[args.workload]}; the generators changed"
        )
    programs = make(args.seed)
    print(f"corpus {args.workload} seed {args.seed}: {len(programs)} programs, sha256 {corpus_digest(programs)}")
    runs = [ProgramRun(p) for p in programs]

    if args.trace:
        metrics, same_output = traced(ev, args.workload, runs, args.seconds)
    else:
        metrics, same_output = end_to_end(ev, args.workload, runs, args.seconds), True
    failed = sum(r.failure is not None for r in runs)
    for run in runs:
        if run.failure is not None:
            print(f"  FAILED {run.program.name}: {run.failure}")
    print(json.dumps({
        "correct": failed == 0 and same_output,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
