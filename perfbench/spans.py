"""Spans around the evmlift calls the pipeline makes, for the traced run.

The tracer swaps wrappers into the module namespaces the calls are looked up
in, records one span per call (name, parent, start, end) in memory, and puts
the originals back on exit. A target that no longer exists is reported and
skipped, so a refactor of the package cannot crash the benchmark.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute path in it, span name). Spans of one name add up to one
# layer's time; run.py maps each name to its per-layer metric.
TARGETS = (
    ("evmlift.pipeline", "run_pipeline", "pipeline"),
    ("evmlift.pipeline", "extract_blocks", "bytecode"),
    ("evmlift.pipeline", "summarize_program", "local"),
    ("evmlift.pipeline", "detect_patterns", "local"),
    ("evmlift.pipeline", "apply_cloning", "cloning"),
    ("evmlift.pipeline", "run_preanalysis", "preanalysis.confirm"),
    ("evmlift.preanalysis", "analyze", "preanalysis.fixpoint"),
    ("evmlift.pipeline", "analyze", "analysis"),
    ("evmlift.pipeline", "lift", "lifter"),
    ("evmlift.pipeline", "compute_metrics", "metrics"),
    ("evmlift.metrics", "MetricsReport.to_json", "metrics"),
    ("evmlift.lifter", "render_tac", "lifter.render"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _m, _a, name in TARGETS))


@dataclass
class Span:
    name: str
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._open
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            spans.append(Span(name, stack[-1] if stack else None, clock()))
            index = len(spans) - 1
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = clock()

        return wrapped

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        patched = []
        for module_name, attr, name in TARGETS:
            *parents, leaf = attr.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in parents:
                    owner = getattr(owner, part)
                original = vars(owner)[leaf]
            except (ImportError, AttributeError, KeyError):
                target = f"{module_name}.{attr}"
                if target not in self.missing:
                    self.missing.append(target)
                continue
            setattr(owner, leaf, self._wrap(original, name))
            patched.append((owner, leaf, original))
        try:
            yield self
        finally:
            for owner, leaf, original in reversed(patched):
                setattr(owner, leaf, original)

    def reset(self) -> None:
        self.spans.clear()
        self._open.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for span in self.spans:
            totals[span.name] += span.end - span.start
            if span.parent is not None:
                parent = self.spans[span.parent]
                totals[parent.name] -= span.end - span.start
        return totals

    def counts(self) -> dict[str, int]:
        out = dict.fromkeys(SPAN_NAMES, 0)
        for span in self.spans:
            out[span.name] += 1
        return out
