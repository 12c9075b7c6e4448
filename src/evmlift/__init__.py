"""Static lifter from EVM bytecode to three-address code."""

from .analysis import AnalysisResult, analyze
from .bytecode import (
    BasicBlock,
    BytecodeError,
    BytecodeProgram,
    Instruction,
    disassemble,
    extract_blocks,
    parse_bytecode_text,
    read_bytecode_file,
)
from .cloning import CloneInstance, apply_cloning, select_clone_candidates
from .context import DEFAULT_DEPTH, Context, Scheme, SchemeConfig, merge
from .facts import ConfirmedFacts, PatternFacts
from .interpreter import BlockRun, EnvSets, EnvValuation, Trace, concrete_execute, enumerate_edges, run_block
from .lifter import (
    TACBlock,
    TACProgram,
    TACStatement,
    lift,
    parse_tac,
    render_tac,
)
from .local import BlockSummary, OpRecord, detect_patterns, summarize_program
from .metrics import MetricsReport, compute_metrics
from .pipeline import PipelineResult, RunConfig, run_pipeline
from .preanalysis import PreanalysisOutcome, run_preanalysis
from .values import UNDERFLOW, entry_slot

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "BasicBlock",
    "BlockRun",
    "BlockSummary",
    "BytecodeError",
    "BytecodeProgram",
    "CloneInstance",
    "ConfirmedFacts",
    "Context",
    "DEFAULT_DEPTH",
    "EnvSets",
    "EnvValuation",
    "Instruction",
    "MetricsReport",
    "OpRecord",
    "PatternFacts",
    "PipelineResult",
    "PreanalysisOutcome",
    "RunConfig",
    "Scheme",
    "SchemeConfig",
    "TACBlock",
    "TACProgram",
    "TACStatement",
    "Trace",
    "UNDERFLOW",
    "analyze",
    "apply_cloning",
    "compute_metrics",
    "concrete_execute",
    "detect_patterns",
    "disassemble",
    "entry_slot",
    "enumerate_edges",
    "extract_blocks",
    "lift",
    "merge",
    "parse_bytecode_text",
    "parse_tac",
    "read_bytecode_file",
    "render_tac",
    "run_block",
    "run_pipeline",
    "run_preanalysis",
    "select_clone_candidates",
    "summarize_program",
]
