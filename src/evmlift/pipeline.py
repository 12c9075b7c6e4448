"""End-to-end driver: bytecode in, lifted code and metrics out.

Phases run in a fixed order: decode, local patterns, cloning, local
patterns again over the cloned program, pre-analysis and fact
confirmation, the main context-sensitive analysis, lifting, metrics. All
phases share one wall-clock deadline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .analysis import (
    DEFAULT_MAX_STACK_DEPTH,
    STOP_FIXPOINT,
    AnalysisLimits,
    AnalysisResult,
    analyze,
)
from .bytecode import BytecodeProgram, extract_blocks
from .cloning import CloneInstance, apply_cloning
from .context import DEFAULT_DEPTH, Scheme, SchemeConfig
from .facts import ConfirmedFacts, PatternFacts, raw_confirmed
from .lifter import TACProgram, lift
from .local import BlockSummary, detect_patterns, summarize_program
from .metrics import MetricsReport, compute_metrics
from .preanalysis import DEFAULT_FACT_LIMIT, PreanalysisOutcome, run_preanalysis

DEFAULT_TIMEOUT = 200.0


@dataclass(frozen=True)
class RunConfig:
    scheme: Scheme = Scheme.SHRINKING
    context_depth: int | None = None
    cloning: bool = True
    preanalysis: bool = True
    preanalysis_fact_limit: int = DEFAULT_FACT_LIMIT
    main_fact_limit: int | None = None
    timeout: float | None = DEFAULT_TIMEOUT
    max_stack_depth: int = DEFAULT_MAX_STACK_DEPTH

    @property
    def depth(self) -> int:
        if self.context_depth is not None:
            return self.context_depth
        return DEFAULT_DEPTH[self.scheme]


@dataclass
class PipelineResult:
    program: BytecodeProgram
    summaries: dict[int, BlockSummary]
    patterns: PatternFacts
    clones: tuple[CloneInstance, ...]
    preanalysis: PreanalysisOutcome | None
    confirmed: ConfirmedFacts
    scheme_used: SchemeConfig
    analysis: AnalysisResult
    tac: TACProgram
    metrics: MetricsReport


def run_pipeline(code: bytes, config: RunConfig | None = None) -> PipelineResult:
    config = config or RunConfig()
    deadline = None
    if config.timeout is not None:
        deadline = time.monotonic() + config.timeout

    program = extract_blocks(code)
    summaries = summarize_program(program)
    patterns = detect_patterns(program, summaries)

    clones: tuple[CloneInstance, ...] = ()
    if config.cloning:
        program, clones = apply_cloning(program, patterns)
        if clones:
            summaries = summarize_program(program)
            patterns = detect_patterns(program, summaries)

    pre: PreanalysisOutcome | None = None
    if config.preanalysis:
        pre_limits = AnalysisLimits(config.preanalysis_fact_limit, deadline, config.max_stack_depth)
        pre = run_preanalysis(program, summaries, patterns, config.depth, pre_limits)
    if pre is not None and pre.result.stop_condition == STOP_FIXPOINT:
        confirmed = pre.confirmed
    else:
        # A truncated pre-analysis has not seen every jump, so filtering by it
        # would drop real calls; the raw candidates are a sound superset.
        confirmed = raw_confirmed(patterns)
    scheme_cfg = SchemeConfig(config.scheme, config.depth)

    limits = AnalysisLimits(config.main_fact_limit, deadline, config.max_stack_depth)
    analysis = analyze(program, summaries, confirmed, scheme_cfg, limits)
    tac = lift(program, summaries, analysis, confirmed, config.max_stack_depth)
    # A truncated pre-analysis is reported. If the main pass stopped short too,
    # its stop wins, so a run that ran out of time always reads timeout.
    stop = analysis.stop_condition
    if stop == STOP_FIXPOINT and pre is not None:
        stop = pre.result.stop_condition
    metrics = compute_metrics(program, tac, analysis, confirmed, stop)

    return PipelineResult(
        program=program,
        summaries=summaries,
        patterns=patterns,
        clones=clones,
        preanalysis=pre,
        confirmed=confirmed,
        scheme_used=scheme_cfg,
        analysis=analysis,
        tac=tac,
        metrics=metrics,
    )
