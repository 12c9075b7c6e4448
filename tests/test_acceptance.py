"""Acceptance gate: one test per shipped guarantee, each timed against its
stated budget.  Results are collected into conftest.ACCEPTANCE_RESULTS and
printed as a one-line-per-criterion table at the end of the run."""

import random
import re
import time
from contextlib import contextmanager

import conftest
from conftest import (
    SELECTOR_ONE,
    SELECTOR_TWO,
    chained_call_code,
    dispatch_pair_code,
    gen_chained_program,
    gen_deep_program,
    gen_sound_program,
    important_edges_code,
    inlined_call_code,
    never_jumped_code,
    non_selector_eq_code,
    oracle_calldatas,
    poly_merge_code,
    underflow_drop_code,
    unresolved_operand_code,
)
from test_preanalysis import rule_based_important_edges

from evmlift.bytecode import extract_blocks
from evmlift.cli import main
from evmlift.context import INITIAL_CONTEXT, Context, Scheme, SchemeConfig, merge
from evmlift.facts import ConfirmedFacts
from evmlift.interpreter import EnvSets, enumerate_edges
from evmlift.lifter import parse_tac, render_tac
from evmlift.local import detect_patterns, summarize_program
from evmlift.pipeline import RunConfig, run_pipeline
from evmlift.preanalysis import run_preanalysis


@contextmanager
def criterion(number: int, summary: str, budget: float | None):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if budget is not None:
            assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"
    except BaseException:
        conftest.ACCEPTANCE_RESULTS.append(f"criterion {number}: FAIL  {summary}")
        raise
    conftest.ACCEPTANCE_RESULTS.append(
        f"criterion {number}: PASS  {summary} [{elapsed:.2f}s]"
    )


def test_criterion_1_shrinking_returns_to_the_entry_context():
    facts = ConfirmedFacts(
        private_calls=frozenset({(0x1CA, 0x1D3), (0x1B9, 0x1C3)}),
        private_returns=frozenset({0x1A0, 0x1A8}),
    )
    # Call at 0x1CA into 0x1B0..0x1B9, nested call at 0x1B9 into 0x1C0..0x1A8,
    # then the two returns unwind through 0x1C3 and 0x1D3.
    edges = [
        (0x1CA, 0x1B0),
        (0x1B0, 0x1B9),
        (0x1B9, 0x1C0),
        (0x1C0, 0x1A8),
        (0x1A8, 0x1C3),
        (0x1C3, 0x1A0),
        (0x1A0, 0x1D3),
    ]
    entry = Context(None, (0xA,))

    def final(scheme: Scheme) -> Context:
        cfg = SchemeConfig(scheme, 4)
        ctx = entry
        for cur, nxt in edges:
            ctx = merge(cfg, facts, ctx, cur, nxt)
        return ctx

    with criterion(1, "matched returns shrink the context back to its entry value", 1.0):
        assert final(Scheme.SHRINKING) == entry
        trans = final(Scheme.TRANSACTIONAL)
        assert trans.private == (0x1A0, 0x1A8, 0x1B9, 0x1CA)
        assert 0xA not in trans.private


def test_criterion_2_cloning_straightens_the_chained_calls():
    with criterion(2, "cloning yields single-successor call blocks, no merges", 1.0):
        cloned = run_pipeline(chained_call_code())
        chain = []
        cur = 0x58
        while any(s.opcode == "CALLPRIVATE" for s in cloned.tac.blocks[cur].statements):
            chain.append(cur)
            succs = cloned.tac.blocks[cur].succs
            assert len(succs) == 1, f"call block 0x{cur:x} has succs {succs}"
            cur = succs[0]
        assert chain == [0x58, 0x1F0, 0x1E0]
        assert cloned.metrics.unstructured_control_flow == 0
        assert cloned.metrics.polymorphic_jump_target == 0

        uncloned = run_pipeline(chained_call_code(), RunConfig(cloning=False))
        assert uncloned.metrics.unstructured_control_flow >= 1
        sizes = [
            len(s.operands)
            for s in uncloned.tac.blocks[0x72].statements
            if s.opcode == "PHI"
        ]
        assert sorted(set(sizes)) == [2, 4]


def test_criterion_3_analysis_edges_cover_concrete_edges():
    env_sets = EnvSets(calldatas=oracle_calldatas())
    with criterion(3, "oracle edges of 1000 generated programs all covered", 300.0):
        checked = 0
        for seed in range(1000):
            res = run_pipeline(gen_sound_program(random.Random(seed)))
            oracle = enumerate_edges(res.program, env_sets)
            missing = oracle - res.analysis.edge_pairs()
            assert not missing, f"seed {seed}: oracle edges {sorted(missing)} missed"
            checked += 1
        assert checked >= 1000


def _preanalyze(code: bytes):
    prog = extract_blocks(code)
    summaries = summarize_program(prog)
    raw = detect_patterns(prog, summaries)
    return raw, run_preanalysis(prog, summaries, raw, 8)


def test_criterion_4_preanalysis_filters_and_blames():
    with criterion(4, "candidate filtering and important-edge derivation exact", 3.0):
        t0 = time.monotonic()
        raw, outcome = _preanalyze(never_jumped_code())
        assert raw.private_call_candidates == frozenset({(0x0, 0x10, 0x0)})
        assert outcome.confirmed.private_calls == frozenset()
        assert time.monotonic() - t0 < 1.0

        t0 = time.monotonic()
        _, outcome = _preanalyze(dispatch_pair_code())
        assert outcome.public_call_sites == frozenset(
            {(0x0, SELECTOR_ONE, 0x38), (0x29, SELECTOR_TWO, 0x54)}
        )
        raw, outcome = _preanalyze(non_selector_eq_code())
        assert raw.public_call_candidates == frozenset({(0x0, 0x5, 0x10)})
        assert outcome.public_call_sites == frozenset()
        assert time.monotonic() - t0 < 1.0

        t0 = time.monotonic()
        _, outcome = _preanalyze(important_edges_code())
        summaries = summarize_program(extract_blocks(important_edges_code()))
        expected = rule_based_important_edges(outcome.result, summaries)
        assert expected == frozenset({(0x6, 0x18), (0x10, 0x18)})
        assert outcome.confirmed.important_edges == expected
        assert time.monotonic() - t0 < 1.0


def _direction_corpus() -> list[bytes]:
    corpus = []
    for i in range(90):
        corpus.append(gen_deep_program(5 + i % 3, 2, random.Random(i)))
    for i in range(90):
        corpus.append(gen_deep_program(9 + i % 5, 4, random.Random(1000 + i)))
    for i in range(40):
        corpus.append(gen_chained_program(random.Random(2000 + i)))
    return corpus


def test_criterion_5_schemes_and_cloning_never_regress():
    def cfg(scheme: Scheme, cloning: bool) -> RunConfig:
        # Equal depth and fact budget for both schemes; no wall clock so the
        # explosion counts are reproducible.
        return RunConfig(
            scheme=scheme,
            context_depth=8,
            cloning=cloning,
            preanalysis=False,
            main_fact_limit=20_000,
            timeout=None,
        )

    corpus = _direction_corpus()
    assert len(corpus) >= 200
    with criterion(5, "shrinking and cloning each at least as good corpus-wide", 600.0):
        shrink_bombs = trans_bombs = shrink_poly = trans_poly = 0
        cloned_unstructured = uncloned_unstructured = 0
        for code in corpus:
            shrink = run_pipeline(code, cfg(Scheme.SHRINKING, cloning=False))
            trans = run_pipeline(code, cfg(Scheme.TRANSACTIONAL, cloning=False))
            shrink_bombs += shrink.metrics.stop_condition != "fixpoint"
            trans_bombs += trans.metrics.stop_condition != "fixpoint"
            shrink_poly += shrink.metrics.polymorphic_jump_target
            trans_poly += trans.metrics.polymorphic_jump_target
            cloned = run_pipeline(code, cfg(Scheme.SHRINKING, cloning=True))
            cloned_unstructured += cloned.metrics.unstructured_control_flow
            uncloned_unstructured += shrink.metrics.unstructured_control_flow
        assert shrink_bombs <= trans_bombs
        assert shrink_poly <= trans_poly
        assert cloned_unstructured <= uncloned_unstructured
        # The comparisons must not be vacuous.
        assert trans_bombs > 0
        assert trans_poly > 0
        assert uncloned_unstructured > 0


def _corpus_files(root) -> dict[str, bytes]:
    programs = {
        "dispatch": dispatch_pair_code(),
        "inlined": inlined_call_code(),
        "chained": chained_call_code(),
        "poly": poly_merge_code(),
        "never": never_jumped_code(),
        "noneq": non_selector_eq_code(),
        "merge": important_edges_code(),
        "drop": underflow_drop_code(),
        "unres": unresolved_operand_code(),
        "deep2": gen_deep_program(5, 2),
        "deep4": gen_deep_program(6, 4),
    }
    for seed in range(15):
        programs[f"gen{seed:02d}"] = gen_sound_program(random.Random(seed))
    for seed in range(5):
        programs[f"chain{seed}"] = gen_chained_program(random.Random(50 + seed))
    for name, code in programs.items():
        (root / f"{name}.hex").write_text(code.hex() + "\n")
    return programs


def test_criterion_6_batch_runs_are_byte_identical(tmp_path):
    with criterion(6, "two batch runs emit byte-identical outputs", 120.0):
        programs = _corpus_files(tmp_path)

        def snapshot() -> dict[str, bytes]:
            assert main(["lift", "--batch", str(tmp_path), "--jobs", "2"]) == 0
            out = {}
            for path in sorted(tmp_path.iterdir()):
                if path.suffix in (".tac", ".json"):
                    out[path.name] = path.read_bytes()
            return out

        first = snapshot()
        second = snapshot()
        assert len(first) == 2 * len(programs)
        assert first == second


_HEADER = re.compile(r"^Begin block 0x[0-9a-f]+$")
_ID_LIST = r"(?:0x[0-9a-f]+(?:, 0x[0-9a-f]+)*)?"
_EDGES = re.compile(rf"^prev=\[{_ID_LIST}\], succ=\[{_ID_LIST}\]$")
_TOKEN = r"(?:\?|v[0-9a-f]+(?:_[0-9a-f]+)?r*)"
_STMT = re.compile(
    rf"^0x[0-9a-f]+(?:_0x[0-9a-f]+)?: (?:{_TOKEN}(?:\(0x[0-9a-f]+\))? = )?"
    rf"[A-Z][A-Z0-9]*( {_TOKEN}(, {_TOKEN})*)?$"
)


def test_criterion_7_emitted_text_matches_the_grammar():
    with criterion(7, "emitted text matches the grammar and round trips", 10.0):
        res = run_pipeline(chained_call_code())
        text = render_tac(res.tac)
        assert "0x5a: v5a(0x77) = CONST" in text.split("\n")
        for chunk in text.strip("\n").split("\n\n"):
            lines = chunk.split("\n")
            assert _HEADER.match(lines[0]), lines[0]
            assert _EDGES.match(lines[1]), lines[1]
            assert lines[2] == "=" * 33
            for line in lines[3:]:
                assert _STMT.match(line), line
        parsed = parse_tac(text)
        assert parsed.blocks == res.tac.blocks
        assert render_tac(parsed) == text
