"""Golden output: the TAC and metrics of a fixed corpus, pinned by digest.

A refactor that must not change what the lifter emits keeps these digests.
Each corpus pins two: a sha256 over the rendered TAC of every input, in
order, under each of the four standard sweep configurations, and one over
the metrics JSON of the same runs. A change that is meant to alter the
output updates the digests in the same commit and says why; one that moves
the TAC alone (a block more or less, say) shows that the metrics held.
The corpora, and the sweep fixture that lifts each once per session for
the checks that only read the results, live in conftest.
"""

import hashlib
from typing import NamedTuple

import pytest

import conftest
from conftest import CORPORA, analysis_outputs
from evmlift import analysis, local
from evmlift.analysis import _replays, analyze
from evmlift.bytecode import disassemble, extract_blocks
from evmlift.cli import SWEEP_CONFIGS
from evmlift.cloning import apply_cloning
from evmlift.context import merge
from evmlift.interpreter import EnvValuation, concrete_execute
from evmlift.lifter import render_tac
from evmlift.local import _summarize, detect_patterns, summarize_program
from evmlift.pipeline import RunConfig, run_pipeline


class Digests(NamedTuple):
    tac: str
    metrics: str


GOLDEN = {
    "fixtures": Digests(
        "5882814dc066de9b10e9ff98748540ccc7c18436e50b1aabd3792b02d7b812d7",
        "15224ac6777b67b4be0f73404b72e3e7b5c5007abaa01772b9428035ed6941af",
    ),
    "sound": Digests(
        "e38be9d14e0ed1bead6f3dcce7256ce7b7c1c33228dea178ff469bd4c2a29b19",
        "47fdcddcd9ceeea8e5e986645591d48c0fab9904a0f904df40d550f096be6c23",
    ),
    "deep": Digests(
        "3e4e87074b65cf3c2020e6c6645bb3e9aceb39d12f1ff7f05f76cc44072cf62e",
        "11f700be8124f54715bbed3bd8b867c6563d3620dcde2b22cc499d045a0cfa54",
    ),
    "dispatch": Digests(
        "31b1e588598aedcaa84b3a5173fab75ca71e0254ada97c0de6e4263057195ec7",
        "8ace52bf25c4a27ef87078a564c8ccc86323e6437f0c885866a05e66f50ba56a",
    ),
    # The fixture alone gives 45c013c7… and 59fe7baf….
    "recursion": Digests(
        "fd80eb57146d329637be3e80258e12409dc4d3cc6787ed4737f0827aa82fbaef",
        "bedea2694fc716b44f3e580f50d162bed022263cdbcede2f934497d62731c28b",
    ),
    # A fall past the end of the code needs no successor: inputs 65, 86,
    # 87, 92 and 159 count one missing_control_flow fewer than before.
    # PC and CODESIZE fold to constants, which the TAC of inputs 136 and
    # 190 shows under every config; their metrics are unchanged.
    "random": Digests(
        "fc2b913f13181ceff1efe92f9d59b78bd821dc44ea5043125b67c6be15d48b86",
        "ab4d73219d9e2900f5ad50e7e8f29097840b8b24a55a6e6238c40af78a605608",
    ),
}


# Runs per config whose main pass returns the pre-analysis fixpoint. A
# change that loses reuse, and with it the main pass it saves, shows here.
REUSED = {
    "fixtures": {"default": 9, "no-shrinking": 6, "no-cloning": 9},
    "sound": {"default": 200, "no-shrinking": 24, "no-cloning": 200},
    "deep": {"default": 2, "no-shrinking": 0, "no-cloning": 2},
    "dispatch": {"default": 3, "no-shrinking": 0, "no-cloning": 3},
    "recursion": {"default": 5, "no-shrinking": 0, "no-cloning": 5},
    # The 158th input's block 0x31 is a raw private caller and an important
    # edge's source: both passes cut it back to one entry, so they agree.
    "random": {"default": 192, "no-shrinking": 193, "no-cloning": 192},
}


def output_digests(lifts) -> Digests:
    """Digests of the lifts' TAC and metrics, in the sweep's order."""
    tac, metrics = hashlib.sha256(), hashlib.sha256()
    for lift in lifts:
        tac.update(render_tac(lift.res.tac).encode())
        metrics.update(lift.res.metrics.to_json().encode())
    return Digests(tac.hexdigest(), metrics.hexdigest())


@pytest.mark.parametrize("sweep", sorted(CORPORA), indirect=True)
def test_output_matches_golden_digest(sweep):
    assert output_digests(sweep.lifts) == GOLDEN[sweep.corpus]


# perfbench/run.py's output_sha256 of each benchmark workload at seed 0
# under the default config. The golden deep corpus stops at 30 stages; the
# benchmark's reaches deep-210, whose return dispatcher has 1,660 contexts.
BENCHMARK_OUTPUTS = {
    "sound": "4a6769d74aa35ee61d588ef0797c84aa0d42ed5a466ff994da2cf32304f20295",
    "deep": "e03027bb39bfc45bf0224e6e536b06e0e135e9f67f28f0904c322ba1d336b6ee",
    "dispatch": "4354dd460f3017ac6b2616eb52b5f454d2f46d84091d5855a0e61bd514be113a",
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_OUTPUTS))
def test_benchmark_output_matches_its_pinned_digest(workload):
    # Hashed as the benchmark hashes it: (name, TAC, metrics JSON) per
    # program, each part behind its 8-byte big-endian length.
    digest = hashlib.sha256()
    for program in conftest._perfbench_corpus().CORPORA[workload](0):
        res = run_pipeline(program.code)
        for part in (program.name, render_tac(res.tac), res.metrics.to_json()):
            data = part.encode()
            digest.update(len(data).to_bytes(8, "big") + data)
    assert digest.hexdigest() == BENCHMARK_OUTPUTS[workload]


# sha256 over the concrete interpreter's Trace (visits, halt reason, steps,
# final stack) of every program under each oracle calldata. The edge oracle
# checks only that the lifted graph covers the traced edges, so it passes an
# interpreter that loses an edge or pushes a wrong word; this digest moves
# with any trace.
ORACLE_TRACES = {
    "deep": "82505f290aa4f1d7f476ae8d47dc9cd1d7aa87f9c9186c6f104335b7612ed8d6",
    "dispatch": "8ab1f940da4fa2ebc13374492f60b19922912fe31b0b56ceb17fb3c8a7c21a34",
    "fixtures": "f0ad40570e46be02b11bd04277b4a1b7b537063cde555e8505a8cc42b0d9dcfe",
    "random": "e3a029bfb744eb171707326b9fa3a93eb7541d8bd8d183d6476a49d33d2b5484",
    "recursion": "6ff63f24a430e88d402f25df4992dde69dc842042fc477680344e44d35da68c0",
    "sound": "a9ed20eda915a6db2a7f1267515119ce093a43768062a75880ba79c0a87f3437",
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_oracle_traces_match_their_pinned_digest(corpus):
    digest = hashlib.sha256()
    for code in CORPORA[corpus]():
        program = extract_blocks(code)
        for calldata in conftest.oracle_calldatas():
            digest.update(repr(concrete_execute(program, EnvValuation(calldata))).encode())
    assert digest.hexdigest() == ORACLE_TRACES[corpus]


@pytest.mark.parametrize("sweep", sorted(CORPORA), indirect=True)
def test_clone_only_pattern_detection_equals_a_full_walk(sweep):
    # After cloning, detect_patterns walks only the clones, starting from
    # the first walk's facts; a walk over every block must agree.
    for code, name, config, res in sweep.lifts:
        if config.cloning:
            assert res.patterns == detect_patterns(res.program, res.summaries), (code.hex(), name)


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


def _check_reuse(res, name: str, config: RunConfig):
    """res is a run under config; the fast reuse decision must match the
    full one, and a reused pre-analysis must equal a fresh main pass."""
    prior = res.preanalysis.result
    decided = _replays(prior, res.confirmed, res.scheme_used, config.fact_limit)
    assert decided == (res.analysis is prior), name
    full = _full_replay_check(prior, res.confirmed, res.scheme_used, config.fact_limit)
    assert decided == full, name
    if decided:
        fresh = analyze(res.program, res.summaries, res.confirmed, res.scheme_used, config.fact_limit)
        assert analysis_outputs(fresh) == analysis_outputs(res.analysis), name


@pytest.mark.parametrize("sweep", sorted(CORPORA), indirect=True)
def test_a_reused_preanalysis_equals_a_fresh_main_pass(sweep):
    reused = dict.fromkeys(REUSED[sweep.corpus], 0)
    for code, name, config, res in sweep.lifts:  # default first for each input
        if not config.preanalysis:
            continue  # no prior to reuse
        _check_reuse(res, name, config)
        reused[name] += res.analysis is res.preanalysis.result
        # Half the default pre-analysis facts stops nearly every pre-analysis
        # short; under default the main pass then runs the same raw facts,
        # scheme and limit, so it must return the truncated pre-analysis.
        if name == "default":
            half = res.preanalysis.result.fact_count // 2
        halved = config._replace(fact_limit=half)
        res = run_pipeline(code, halved)
        _check_reuse(res, name, halved)
        if name == "default":
            assert res.analysis is res.preanalysis.result, name
    assert reused == REUSED[sweep.corpus]


@pytest.mark.parametrize("sweep", sorted(CORPORA), indirect=True)
def test_a_preanalysis_replays_under_its_own_facts_without_a_merge(sweep, monkeypatch):
    # Under its own facts, scheme and limit a run replays itself: _replays
    # answers at once, without comparing facts edge by edge or calling merge.
    def called(*args):
        raise AssertionError("called")

    monkeypatch.setattr(analysis, "merge", called)
    monkeypatch.setattr(analysis, "_reading_changed_facts", called)
    checked = 0
    for code, name, _config, res in sweep.lifts:
        prior = res.preanalysis and res.preanalysis.result
        if prior and prior.stop_condition != "timeout":
            assert _replays(prior, prior.facts, prior.cfg, prior.fact_limit), (code.hex(), name)
            checked += 1
    assert checked


class _Visits(dict):
    """A summaries dict that records each block whose summary is read."""

    def __init__(self, summaries):
        super().__init__(summaries)
        self.keys_read = []

    def __getitem__(self, bid):
        self.keys_read.append(bid)
        return super().__getitem__(bid)


# Neither dispatch nor recursion has a block worth cloning.
@pytest.mark.parametrize("corpus", sorted(set(CORPORA) - {"dispatch", "recursion"}))
def test_cloning_resummarizes_only_the_blocks_it_wrote(corpus, monkeypatch):
    # summarize_program summarizes each block through local._summarize.
    summarized = []
    summarize = local._summarize

    def counted(block, program, constants):
        summarized.append(block.id)
        return summarize(block, program, constants)

    monkeypatch.setattr(local, "_summarize", counted)
    cloned_programs = 0
    for code in CORPORA[corpus]():
        program = extract_blocks(code)
        summaries = summarize_program(program)
        facts = detect_patterns(program, summaries)
        cloned, clones = apply_cloning(program, facts)
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
        # Detecting again moves only the facts of the clones and of the
        # callers of chosen pushes, whose continuations are now clones.
        chosen_callers = {c for c, _k, push in facts.private_call_candidates if push in cloned.clone_pushes}
        again = detect_patterns(cloned, resummarized)
        # Starting from the first walk's facts, the second walk visits the
        # clones and nothing else, and finds what the full walk finds.
        visited = _Visits(resummarized)
        assert detect_patterns(cloned, visited, facts) == again, code.hex()
        assert sorted(visited.keys_read) == sorted(clone_ids), code.hex()
        for before, after in zip(facts, again):
            moved = {fact if isinstance(fact, int) else fact[0] for fact in before ^ after}
            assert moved <= clone_ids | chosen_callers, code.hex()
        for name, overrides in SWEEP_CONFIGS:
            config = RunConfig(**overrides)
            if not config.cloning:
                continue
            summarized.clear()
            res = run_pipeline(code, config)
            assert len(summarized) == len(program.blocks) + len(clones), name
            assert res.summaries == resummarized == summarize_program(res.program), name
    assert cloned_programs


def _summarize_alone(block, program):
    """The summary of one block that records its own constants in program."""
    constants: dict[int, int] = {}
    summary = _summarize(block, program, constants)
    program.record_constants(constants)
    return summary


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_one_table_write_leaves_what_per_block_writes_leave(corpus):
    # summarize_program has every block write into one constant table and
    # maps it to targets once; _summarize_alone records each block's own.
    # Both leave the same tables, in the same order, before and after cloning.
    def tables(program):
        return list(program.constants.items()), list(program.targets.items())

    cloned_programs = 0
    for code in CORPORA[corpus]():
        program, per_block = extract_blocks(code), extract_blocks(code)
        summaries = summarize_program(program)
        assert summaries == {bid: _summarize_alone(per_block.blocks[bid], per_block) for bid in sorted(per_block.blocks)}
        assert tables(program) == tables(per_block), code.hex()
        patterns = detect_patterns(program, summaries)
        cloned, clones = apply_cloning(program, patterns)
        per_block_cloned, _clones = apply_cloning(per_block, patterns)
        cloned_programs += bool(clones)
        summarize_program(cloned, summaries)
        for bid in sorted(per_block_cloned.clone_of):
            _summarize_alone(per_block_cloned.blocks[bid], per_block_cloned)
        assert tables(cloned) == tables(per_block_cloned), code.hex()
    assert cloned_programs or corpus in ("dispatch", "recursion")


@pytest.mark.parametrize("corpus", ["random", "sound"])
def test_every_clone_copies_a_continuation_two_call_pushes_name(corpus):
    clones_seen = 0
    for code in CORPORA[corpus]():
        program = extract_blocks(code)
        facts = detect_patterns(program, summarize_program(program))
        naming: dict[int, set[int]] = {}
        for _caller, continuation, push_pc in facts.private_call_candidates:
            naming.setdefault(continuation, set()).add(push_pc)
        _, clones = apply_cloning(program, facts)
        for inst in clones:
            assert inst.push_pc in naming.get(inst.original, ()), (code.hex(), inst)
            assert len(naming[inst.original]) >= 2, (code.hex(), inst)
        clones_seen += len(clones)
    assert clones_seen


@pytest.mark.parametrize("sweep", sorted(CORPORA), indirect=True)
def test_every_const_carries_the_value_the_bytecode_pushes(sweep):
    # A clone's statements carry the copy's pcs; the value is the one pushed
    # at the pc of the instruction copied.
    consts = 0
    for code, name, _config, res in sweep.lifts:
        pushed = {pc: value for pc, _opcode, value in disassemble(code) if value is not None}
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
