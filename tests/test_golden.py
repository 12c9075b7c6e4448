"""Golden output: the TAC and metrics of a fixed corpus, pinned by digest.

A refactor that must not change what the lifter emits keeps these digests.
Each one is a sha256 over the rendered TAC and metrics JSON of every input,
in order, under each of the four standard sweep configurations. A change
that is meant to alter the output updates the digests in the same commit
and says why.
"""

import hashlib
import random

import pytest

import conftest
from conftest import analysis_outputs
from evmlift import local
from evmlift.analysis import _replays, analyze
from evmlift.bytecode import disassemble, extract_blocks
from evmlift.cli import SWEEP_CONFIGS
from evmlift.cloning import apply_cloning
from evmlift.context import merge
from evmlift.lifter import render_tac
from evmlift.local import detect_patterns, summarize_program
from evmlift.pipeline import RunConfig, run_pipeline


FIXTURES = (
    conftest.dispatch_pair_code,
    conftest.inlined_call_code,
    conftest.chained_call_code,
    conftest.never_jumped_code,
    conftest.non_selector_eq_code,
    conftest.important_edges_code,
    conftest.underflow_drop_code,
    conftest.unresolved_operand_code,
    conftest.balancing_example_code,
    conftest.poly_merge_code,
    conftest.lost_edge_code,
    conftest.push_as_data_code,
)

def _random_corpus() -> list[bytes]:
    rng = random.Random("golden-random")
    return [conftest.random_code(rng, True) for _ in range(200)]


CORPORA = {
    "fixtures": lambda: [build() for build in FIXTURES],
    "sound": lambda: [conftest.gen_sound_program(random.Random(seed)) for seed in range(200)],
    "deep": lambda: [conftest.gen_deep_program(8, 4), conftest.gen_deep_program(30, 4)],
    # Backward jumps (loop latches) and confirmed public calls, which no other corpus has.
    "dispatch": lambda: [conftest.gen_dispatch_program(n) for n in (16, 24, 32)],
    # Private recursion, whose call sites no context depth can keep apart.
    "recursion": lambda: [conftest.recursive_call_code()],
    # Jump-heavy byte soup: dropped blocks, "?" operands and calls no
    # generator shapes, which the other corpora rarely reach.
    "random": _random_corpus,
}

GOLDEN = {
    "fixtures": "a21e3b67ce7d33b0106d7e39d023a12c526bb8ab26b5c3441d62104533de21ee",
    "sound": "e892cea679662aa9b27f777aadccf9f4da9f37c91c2ca3e908c2a83c694cb32f",
    "deep": "3644b6a69788fc67d4965c57910288fdc7e5a54637dbe1407d3d1540f882deaa",
    "dispatch": "86a162f068426e32644e112f0d3bab84c8cb5845200717ccd63c111f9adc61e8",
    "recursion": "c0948b9fde34894367a9214f7a27872dea3d51d28c082645025db85bace57078",
    "random": "69febcd8bd94e68757236c55b1c6607fd6728678e7c7a5754525261c7c164515",
}


# Runs per config whose main pass returns the pre-analysis fixpoint. A
# change that loses reuse, and with it the main pass it saves, shows here.
REUSED = {
    "fixtures": {"default": 9, "no-shrinking": 6, "no-cloning": 9},
    "sound": {"default": 200, "no-shrinking": 24, "no-cloning": 200},
    "deep": {"default": 2, "no-shrinking": 0, "no-cloning": 2},
    "dispatch": {"default": 3, "no-shrinking": 0, "no-cloning": 3},
    "recursion": {"default": 1, "no-shrinking": 0, "no-cloning": 1},
    # One input (the 158th) no longer reuses: its main pass cuts an important
    # edge's source back instead of pushing it again, 3,616 facts to 956.
    "random": {"default": 191, "no-shrinking": 193, "no-cloning": 191},
}


def output_digest(programs: list[bytes]) -> str:
    digest = hashlib.sha256()
    for code in programs:
        for _name, overrides in SWEEP_CONFIGS:
            res = run_pipeline(code, RunConfig(**overrides))
            digest.update(render_tac(res.tac).encode())
            digest.update(res.metrics.to_json().encode())
    return digest.hexdigest()


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_output_matches_golden_digest(corpus):
    assert output_digest(CORPORA[corpus]()) == GOLDEN[corpus]


def _full_replay_check(prior, facts, cfg, fact_limit) -> bool:
    """The reuse decision evaluating merge on every recorded jump edge."""
    if prior.stop_condition == "timeout" or prior.fact_limit != fact_limit:
        return False
    jumps = {(ctx, bid, t) for ctx, bid, _value, t in prior.block_jump_target}
    return all(
        merge(cfg, facts, ctx, bid, t) == ctx2
        for ctx, bid, ctx2, t in prior.global_block_edge
        if (ctx, bid, t) in jumps
    )


def _check_reuse(code: bytes, name: str, config: RunConfig):
    """Run config; the fast reuse decision must match the full one, and a
    reused pre-analysis must equal a fresh main pass. Returns the result."""
    res = run_pipeline(code, config)
    prior = res.preanalysis.result
    decided = _replays(prior, res.confirmed, res.scheme_used, config.fact_limit)
    assert decided == (res.analysis is prior), name
    full = _full_replay_check(prior, res.confirmed, res.scheme_used, config.fact_limit)
    assert decided == full, name
    if decided:
        fresh = analyze(res.program, res.summaries, res.confirmed, res.scheme_used, config.fact_limit)
        assert analysis_outputs(fresh) == analysis_outputs(res.analysis), name
    return res


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_a_reused_preanalysis_equals_a_fresh_main_pass(corpus):
    reused = dict.fromkeys(REUSED[corpus], 0)
    for code in CORPORA[corpus]():
        for name, overrides in SWEEP_CONFIGS:  # default first
            config = RunConfig(**overrides)
            if not config.preanalysis:
                continue  # no prior to reuse
            res = _check_reuse(code, name, config)
            reused[name] += res.analysis is res.preanalysis.result
            # Half the default pre-analysis facts stops nearly every pre-analysis
            # short; under default the main pass then runs the same raw facts,
            # scheme and limit, so it must return the truncated pre-analysis.
            if name == "default":
                half = res.preanalysis.result.fact_count // 2
            res = _check_reuse(code, name, RunConfig(fact_limit=half, **overrides))
            if name == "default":
                assert res.analysis is res.preanalysis.result, name
    assert reused == REUSED[corpus]


# Neither dispatch nor recursion has a block worth cloning.
@pytest.mark.parametrize("corpus", sorted(set(CORPORA) - {"dispatch", "recursion"}))
def test_cloning_resummarizes_only_the_blocks_it_wrote(corpus, monkeypatch):
    summarized = []
    summarize_block = local.summarize_block

    def counted(block, program):
        summarized.append(block.id)
        return summarize_block(block, program)

    monkeypatch.setattr(local, "summarize_block", counted)
    cloned_programs = 0
    for code in CORPORA[corpus]():
        program = extract_blocks(code)
        summaries = summarize_program(program)
        cloned, clones = apply_cloning(program, detect_patterns(program, summaries))
        if not clones:
            continue
        cloned_programs += 1
        # Cloning writes the clones and nothing else.
        clone_ids = {i.clone_id for i in clones}
        assert all(cloned.blocks[bid] is block for bid, block in program.blocks.items())
        assert set(cloned.blocks) == set(program.blocks) | clone_ids
        summarized.clear()
        resummarized = summarize_program(cloned, summaries)
        assert sorted(summarized) == sorted(clone_ids)
        assert all(resummarized[bid] is summaries[bid] for bid in program.blocks)
        for name, overrides in SWEEP_CONFIGS:
            config = RunConfig(**overrides)
            if not config.cloning:
                continue
            summarized.clear()
            res = run_pipeline(code, config)
            assert len(summarized) == len(program.blocks) + len(clones), name
            assert res.summaries == resummarized == summarize_program(res.program), name
    assert cloned_programs


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_every_const_carries_the_value_the_bytecode_pushes(corpus):
    # A clone's statements carry the copy's pcs; the value is the one pushed
    # at the pc of the instruction copied.
    consts = 0
    for code in CORPORA[corpus]():
        pushed = {ins.pc: ins.pushed_value for ins in disassemble(code) if ins.pushed_value is not None}
        for name, overrides in SWEEP_CONFIGS:
            res = run_pipeline(code, RunConfig(**overrides))
            for bid, block in res.tac.blocks.items():
                shift = res.program.clone_of.get(bid, bid) - bid
                for stmt in block.statements:
                    if stmt.opcode == "CONST":
                        consts += 1
                        assert stmt.const == pushed[int(stmt.label, 16) + shift], (name, stmt)
    assert consts


def test_recursion_resolves_the_same_jumps_under_every_config():
    # polymorphic_jump_target counts (context, block) pairs, so it moves with
    # the number of contexts; the targets each block jumps to must not.
    per_block = []
    for _name, overrides in SWEEP_CONFIGS:
        res = run_pipeline(conftest.recursive_call_code(), RunConfig(**overrides))
        targets: dict[int, set[int]] = {}
        for _ctx, bid, _value, target in res.analysis.block_jump_target:
            targets.setdefault(bid, set()).add(target)
        per_block.append(targets)
    assert all(targets == per_block[0] for targets in per_block)
    assert sum(len(t) > 1 for t in per_block[0].values()) == 2  # the two return blocks
