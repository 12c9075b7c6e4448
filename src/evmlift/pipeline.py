"""End-to-end driver: bytecode in, lifted code and metrics out.

Phases run in a fixed order: decode, local patterns, cloning, local
patterns again over the clones, pre-analysis and fact confirmation, the
main context-sensitive analysis, lifting, metrics. All phases share one
wall-clock deadline. Cloning rewrites no instruction and returns every
original block unchanged, so the second local pass summarizes only the
clones, and every other block keeps its first summary; pattern detection
walks only the clones too, starting from the first walk's facts.
Every phase maps a value to a block through one pc -> block table,
BytecodeProgram.targets, which the local passes and cloning fill by the
one rule that names clones (BytecodeProgram.record_constants). The
pre-analysis decides what it confirms, also when it stops short; the main
pass runs under those facts and the same fact limit, so it returns the
pre-analysis result whenever it would replay it, also when the limit
stopped it. Each analysis result carries its per-block projection, one
env tuple per block built in one pass over the entry envs when analyze
returns, sharing the env of a block seen in one context and each slot set
no other context grew, so when the main pass returns the pre-analysis
result, the lifter reads the projection public-call confirmation read.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .analysis import DEFAULT_FACT_LIMIT, STOP_FIXPOINT, AnalysisResult, analyze
from .bytecode import BytecodeProgram, extract_blocks
from .cloning import CloneInstance, apply_cloning
from .context import DEFAULT_DEPTH, Scheme, SchemeConfig
from .facts import ConfirmedFacts, PatternFacts, raw_confirmed
from .lifter import TACProgram, lift
from .local import BlockSummary, detect_patterns, summarize_program
from .metrics import MetricsReport, compute_metrics
from .preanalysis import PreanalysisOutcome, run_preanalysis

DEFAULT_TIMEOUT = 200.0


class RunConfig(NamedTuple):
    scheme: Scheme = Scheme.SHRINKING
    context_depth: int | None = None
    cloning: bool = True
    preanalysis: bool = True
    fact_limit: int = DEFAULT_FACT_LIMIT  # bounds each pass
    timeout: float = DEFAULT_TIMEOUT  # bounds the whole run

    @property
    def depth(self) -> int:
        if self.context_depth is not None:
            return self.context_depth
        return DEFAULT_DEPTH[self.scheme]


class PipelineResult(NamedTuple):
    program: BytecodeProgram
    summaries: dict[int, BlockSummary]
    patterns: PatternFacts
    clones: tuple[CloneInstance, ...]
    preanalysis: PreanalysisOutcome | None
    confirmed: ConfirmedFacts
    scheme_used: SchemeConfig
    analysis: AnalysisResult  # preanalysis.result itself when the main pass reused it
    tac: TACProgram
    metrics: MetricsReport


# Built once: a NamedTuple's generated __new__ is a Python-level call.
DEFAULT_CONFIG = RunConfig()


def run_pipeline(code: bytes, config: RunConfig | None = None) -> PipelineResult:
    config = config or DEFAULT_CONFIG
    deadline = time.monotonic() + config.timeout
    depth = config.depth

    program = extract_blocks(code)
    summaries = summarize_program(program)
    patterns = detect_patterns(program, summaries)

    clones: tuple[CloneInstance, ...] = ()
    if config.cloning:
        cloned, clones = apply_cloning(program, patterns)
        if clones:
            summaries = summarize_program(cloned, summaries)
            patterns = detect_patterns(cloned, summaries, patterns)
        program = cloned

    pre: PreanalysisOutcome | None = None
    if config.preanalysis:
        pre = run_preanalysis(program, summaries, patterns, depth, config.fact_limit, deadline)
    confirmed = pre.confirmed if pre is not None else raw_confirmed(patterns)
    # tuple.__new__ builds a record without its NamedTuple's Python-level __new__
    new = tuple.__new__
    scheme_cfg = new(SchemeConfig, (config.scheme, depth))

    prior = pre.result if pre is not None else None
    analysis = analyze(
        program, summaries, confirmed, scheme_cfg, config.fact_limit, deadline, prior
    )
    tac = lift(program, summaries, analysis, confirmed)
    # A truncated pre-analysis is reported. If the main pass stopped short too,
    # its stop wins, so a run that ran out of time always reads timeout.
    stop = analysis.stop_condition
    if stop == STOP_FIXPOINT and pre is not None:
        stop = pre.result.stop_condition
    metrics = compute_metrics(program, tac, analysis, confirmed, stop)

    return new(
        PipelineResult,
        (program, summaries, patterns, clones, pre, confirmed, scheme_cfg, analysis, tac, metrics),
    )
