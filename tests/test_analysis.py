"""Global worklist fixpoint over (context, block) pairs."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CORPORA,
    analysis_outputs,
    asm,
    chained_call_code,
    gen_deep_program,
    gen_dispatch_program,
    layout,
    never_jumped_code,
    recursive_call_code,
)
from evmlift.analysis import (
    DEFAULT_FACT_LIMIT,
    MAX_STACK_DEPTH,
    _reading_changed_facts,
    analyze,
    project,
    resolve,
    transfer_block,
)
from evmlift.bytecode import BytecodeProgram, extract_blocks
from evmlift.cli import SWEEP_CONFIGS
from evmlift.context import DEFAULT_DEPTH, INITIAL_CONTEXT, Context, Scheme, SchemeConfig
from evmlift.facts import confirmed_facts, raw_confirmed
from evmlift.local import BlockSummary, summarize_program
from evmlift.pipeline import RunConfig, run_pipeline
from evmlift.values import UNDERFLOW, entry_slot


def _summary(code: bytes, bid: int = 0):
    prog = extract_blocks(code)
    return summarize_program(prog)[bid]


A, B, C = 0x100, 0x101, 0x102  # def sites


def test_resolve_reads_a_value_against_an_env():
    env = (frozenset({A, B}), frozenset({C}))
    # an entry slot inside the env reads its slot set itself
    assert resolve(env, entry_slot(0)) is env[0]
    assert resolve(env, entry_slot(1)) is env[1]
    # one below the env's bottom reads UNDERFLOW
    assert resolve(env, entry_slot(2)) == {UNDERFLOW}
    assert resolve((), entry_slot(0)) == {UNDERFLOW}
    # a def site reads itself, whatever the env
    assert resolve(env, A) == {A}
    assert resolve((), 0) == {0}


def test_transfer_constants():
    prog = extract_blocks(asm("PUSH1 0x07", "STOP"))
    out = transfer_block(summarize_program(prog)[0], ())
    assert out == ({0x0},)
    assert prog.constants == {0x0: 0x07}


def test_transfer_shifts_passthrough_slots():
    summary = _summary(asm("POP", "STOP"))
    out = transfer_block(summary, ({A}, {B}))
    assert out == ({B},)
    summary = _summary(asm("PUSH1 0x07", "STOP"))
    out = transfer_block(summary, ({A},))
    assert out == ({0x0}, {A})


def test_transfer_reads_entry_slots():
    summary = _summary(asm("DUP2", "STOP"))
    out = transfer_block(summary, ({A}, {B}))
    assert out == ({B}, {A}, {B})


def test_transfer_flags_underflow():
    summary = _summary(asm("DUP1", "STOP"))
    out = transfer_block(summary, ())
    assert out == ({UNDERFLOW}, {UNDERFLOW})


def test_transfer_truncates_at_the_modeled_stack_depth():
    pushes = MAX_STACK_DEPTH + 1
    summary = _summary(asm(*[f"PUSH1 0x{i:02x}" for i in range(pushes)], "STOP"))
    out = transfer_block(summary, ())
    # Slot j holds push number pushes - 1 - j; the first push, past the cap, is cut.
    kept = [pushes - 1 - j for j in range(MAX_STACK_DEPTH)]
    assert out == tuple({2 * i} for i in kept)
    summary = _summary(asm("PUSH1 0x07", "STOP"))
    # An env is dense, so the slots between A and B hold def sites of their own.
    middle = tuple({0x200 + k} for k in range(MAX_STACK_DEPTH - 3))
    entry = ({A},) + middle + ({B}, {C}, {C})
    out = transfer_block(summary, entry)
    assert out == ({0x0}, {A}) + middle + ({B},)


def test_transfer_block_lays_out_the_exit_stack_up_to_the_modeled_depth():
    filler = tuple(range(1000, 1000 + MAX_STACK_DEPTH))  # def sites
    cont, pushed = frozenset({7}), 7
    cases = [
        # a push at exit slot MAX_STACK_DEPTH is cut, one slot up it is kept
        (BlockSummary(0, filler + (pushed,)), (), None),
        (BlockSummary(0, filler[1:] + (pushed,)), (), MAX_STACK_DEPTH - 1),
        # entry slot k passes through to exit slot k + 1 here, below the cut
        (BlockSummary(1, (1000, 1001)), ({1002},) * (MAX_STACK_DEPTH - 1) + (cont,), None),
        (BlockSummary(1, (1000, 1001)), ({1002},) * (MAX_STACK_DEPTH - 2) + (cont,), MAX_STACK_DEPTH - 1),
        # a produced entry slot holds its entry set, and one past the env's bottom UNDERFLOW
        (BlockSummary(1, (1000, entry_slot(0))), (cont | {1001},), 1),
        (BlockSummary(1, (entry_slot(0), pushed)), (), 1),
        # a consumed entry slot is not passed through
        (BlockSummary(2, (entry_slot(1),)), (cont, frozenset({1000})), None),
    ]
    for summary, entry, slot in cases:
        out = transfer_block(summary, entry)
        assert len(out) <= MAX_STACK_DEPTH
        assert [j for j, values in enumerate(out) if pushed in values] == ([] if slot is None else [slot]), summary
    assert transfer_block(BlockSummary(1, (entry_slot(0), pushed)), ()) == ({UNDERFLOW}, {pushed})
    # A slot read or passed through holds the entry env's own set.
    entry = (cont | {1001}, cont)
    out = transfer_block(BlockSummary(1, (1000, entry_slot(0))), entry)
    assert out == ({1000}, entry[0], cont) and out[1] is entry[0] and out[2] is entry[1]


def _analyze(code: bytes, facts=confirmed_facts(), scheme=Scheme.SHRINKING, **limits):
    prog = extract_blocks(code)
    config = SchemeConfig(scheme, DEFAULT_DEPTH[scheme])
    return analyze(prog, summarize_program(prog), facts, config, **limits)


BRANCH = layout(
    {
        0: asm("PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x08", "JUMPI", "STOP"),
        8: asm("JUMPDEST", "STOP"),
    }
)


def test_conditional_jump_yields_both_edges_in_same_context():
    result = _analyze(BRANCH)
    assert result.stop_condition == "fixpoint"
    assert result.global_block_edge == {
        (INITIAL_CONTEXT, 0, INITIAL_CONTEXT, 8),
        (INITIAL_CONTEXT, 0, INITIAL_CONTEXT, 6),
    }
    assert result.edge_pairs() == frozenset({(0, 8), (0, 6)})
    assert result.edge_pairs() is result.edge_pairs()  # built once per result
    assert result.block_jump_target == {(INITIAL_CONTEXT, 0, 0x3, 8)}


def test_unresolved_jump_is_reported_not_followed():
    result = _analyze(asm("PUSH1 0x00", "CALLDATALOAD", "JUMP"))
    assert result.transfers == 1
    assert result.global_block_edge == set()
    assert result.block_jump_target == set()


def test_invalid_jump_target_is_reported():
    result = _analyze(asm("PUSH1 0x05", "JUMP", "STOP"))
    assert result.transfers == 1
    assert result.global_block_edge == set()
    assert result.block_jump_target == set()


def test_underflowing_entry_block_is_flagged():
    code = asm("DUP1", "STOP")
    result = _analyze(code)
    entry = result.block_input[(INITIAL_CONTEXT, 0)]
    assert transfer_block(_summary(code), entry) == ({UNDERFLOW}, {UNDERFLOW})


CALL_RETURN = layout(
    {
        0x00: asm("PUSH1 0x06", "PUSH1 0x08", "JUMP"),
        0x06: asm("JUMPDEST", "STOP"),
        0x08: asm("JUMPDEST", "JUMP"),
    }
)
CALL_RETURN_FACTS = confirmed_facts(
    private_calls=frozenset({(0x0, 0x6)}),
    private_returns=frozenset({0x8}),
)


def test_call_edge_grows_context_and_return_restores_it():
    result = _analyze(CALL_RETURN, facts=CALL_RETURN_FACTS)
    inner = Context(None, (0x0,))
    assert result.global_block_edge == {
        (INITIAL_CONTEXT, 0x0, inner, 0x8),
        (inner, 0x8, INITIAL_CONTEXT, 0x6),
    }
    assert set(result.block_input) == {(INITIAL_CONTEXT, 0x0), (inner, 0x8), (INITIAL_CONTEXT, 0x6)}


def test_fact_limit_stops_early():
    result = _analyze(chained_call_code(), fact_limit=5)
    assert result.stop_condition == "fact-limit"
    assert result.fact_count > 5


def test_deadline_stops_early():
    result = _analyze(BRANCH, deadline=time.monotonic() - 1.0)
    assert result.stop_condition == "timeout"
    assert result.transfers == 0


def test_too_deep_blocks_are_not_transferred():
    code = asm(*(["POP"] * 1025 + ["STOP"]))
    result = _analyze(code)
    assert result.stop_condition == "fixpoint"
    assert result.transfers == 0


def test_empty_program_fixpoints_immediately():
    empty = BytecodeProgram(b"", {}, frozenset(), {}, {}, {}, {})
    config = SchemeConfig(Scheme.SHRINKING, DEFAULT_DEPTH[Scheme.SHRINKING])
    result = analyze(empty, {}, confirmed_facts(), config)
    assert result.stop_condition == "fixpoint"
    assert result.block_input == {}


def test_analysis_is_deterministic():
    first = _analyze(chained_call_code())
    second = _analyze(chained_call_code())
    assert first.block_input == second.block_input
    assert first.block_jump_target == second.block_jump_target
    assert first.global_block_edge == second.global_block_edge
    assert (first.fact_count, first.transfers) == (second.fact_count, second.transfers)


# Block 0's one exit env ({0xaa},) feeds both its jump target 0x10 and its
# fallthrough 0x08; 0x08 then jumps to 0x10 with 0xbb in the same slot.
SHARED_EXIT = layout(
    {
        0x00: asm("PUSH1 0xaa", "PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x10", "JUMPI"),
        0x08: asm("POP", "PUSH1 0xbb", "PUSH1 0x10", "JUMP"),
        0x10: asm("JUMPDEST", "STOP"),
    }
)


def _slot_sets(store):
    return [vals for env in store.values() for vals in env]


def test_a_grown_successor_leaves_its_sibling_alone():
    result = _analyze(SHARED_EXIT)
    aa, bb = 0x0, 0x9  # the pushes of 0xaa and 0xbb
    assert result.block_input[(INITIAL_CONTEXT, 0x10)] == ({aa, bb},)
    assert result.block_input[(INITIAL_CONTEXT, 0x08)] == ({aa},)
    # Slot sets are shared between keys, which is sound only if none can change.
    assert all(isinstance(vals, frozenset) for vals in _slot_sets(result.block_input))


def test_per_block_merges_contexts_without_touching_the_store():
    inner = Context(None, (0x0,))
    store = {
        (INITIAL_CONTEXT, 0x8): (frozenset({A}), frozenset({C})),
        (inner, 0x8): (frozenset({B}),),
        (inner, 0x6): (),
    }
    merged = project(store)
    assert merged == {0x8: ({A, B}, {C}), 0x6: ()}
    assert store[(INITIAL_CONTEXT, 0x8)] == ({A}, {C})
    assert store[(inner, 0x8)] == ({B},)
    assert all(isinstance(vals, frozenset) for vals in _slot_sets(merged))
    # A block seen in one context maps to that context's env itself; a block
    # whose env a second context grows gets a new one.
    assert merged[0x6] is store[(inner, 0x6)]
    assert all(merged[0x8] is not env for env in store.values())
    # A slot neither context grows keeps the first context's set.
    assert merged[0x8][1] is store[(INITIAL_CONTEXT, 0x8)][1]


def test_per_block_joins_any_number_of_contexts_without_touching_the_store():
    contexts = [Context(None, (c,)) for c in range(4)]
    first = (frozenset({A}), frozenset({C}))
    store = {(contexts[0], 0x8): first}
    store.update({(ctx, 0x8): (frozenset({v}),) for ctx, v in zip(contexts[1:], (B, C, A))})
    merged = project(store)
    assert merged == {0x8: ({A, B, C}, {C})}
    assert first == ({A}, {C})
    assert [env for env in store.values()][1:] == [({B},), ({C},), ({A},)]
    # A context that reaches deeper than the joined env so far adds its slots.
    store[(INITIAL_CONTEXT, 0x8)] = (frozenset({A}), frozenset({C}), frozenset({B}))
    assert project(store) == {0x8: ({A, B, C}, {C}, {B})}


def _slotwise_fold(store):
    """Reference projection: one context at a time, each slot joined on its own."""
    out = {}
    for (_ctx, bid), env in store.items():
        have = out.get(bid, ())
        slots = []
        for i in range(max(len(have), len(env))):
            vals = have[i] if i < len(have) else frozenset()
            slots.append(vals | env[i] if i < len(env) else vals)
        out[bid] = tuple(slots)
    return out


def _check_per_block(store):
    before = dict(store)
    merged = project(store)
    assert merged == _slotwise_fold(store)
    assert store == before and all(store[key] is env for key, env in before.items())
    assert all(type(env) is tuple for env in merged.values())
    assert all(type(vals) is frozenset for vals in _slot_sets(merged))
    envs_of: dict[int, list] = {}
    for (_ctx, bid), env in store.items():
        envs_of.setdefault(bid, []).append(env)
    for bid, (first, *rest) in envs_of.items():
        # A block seen in one context, or with one env shared by all its
        # contexts, maps to that env itself.
        if all(env is first for env in rest):
            assert merged[bid] is first
        # A slot no other context grows keeps the first context's set.
        for i, vals in enumerate(first):
            if all(len(env) <= i or env[i] <= vals for env in rest):
                assert merged[bid][i] is vals
    return merged


@st.composite
def _stores(draw):
    """Entry stores over a few blocks and contexts: envs of uneven depth whose
    slots are drawn from a few shared sets or built fresh. Like the fixpoint's
    store, several keys may hold one env."""
    fresh = st.frozensets(st.integers(0, 24), min_size=1, max_size=4)
    shared = draw(st.lists(fresh, min_size=1, max_size=4))
    env = st.lists(st.one_of(st.sampled_from(shared), fresh), max_size=5).map(tuple)
    shared_envs = draw(st.lists(env, min_size=1, max_size=3))
    keys = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), unique=True, max_size=16))
    return {(Context(None, (c,)), bid): draw(st.one_of(st.sampled_from(shared_envs), env)) for c, bid in keys}


@given(_stores())
@settings(deadline=None)
def test_per_block_equals_the_slotwise_fold(store):
    _check_per_block(store)


def test_per_block_joins_one_block_in_two_thousand_contexts():
    # The benchmark's deep-210 shape: its return dispatcher has 1,660
    # contexts. Every seventh context reaches one slot deeper.
    shared = frozenset({A, B})
    store = {
        (Context(None, (c,)), 0x8): (frozenset({c}), shared) + ((frozenset({C}),) if c % 7 == 0 else ())
        for c in range(2000)
    }
    merged = _check_per_block(store)
    assert merged == {0x8: (frozenset(range(2000)), shared, frozenset({C}))}
    assert merged[0x8][1] is shared


@pytest.mark.parametrize("sweep", sorted(CORPORA), indirect=True)
def test_every_env_is_a_tuple_of_nonempty_slot_sets(sweep):
    for code, name, _config, res in sweep.lifts:
        passes = filter(None, (res.preanalysis and res.preanalysis.result, res.analysis))
        for result in passes:
            for env in (*result.block_input.values(), *result.per_block.values()):
                assert type(env) is tuple and len(env) <= MAX_STACK_DEPTH, (code.hex(), name)
                assert all(type(vals) is frozenset and vals for vals in env), (code.hex(), name)


# (fact_count, transfers) of the pre-analysis (None when it is off) and of the
# main pass, per sweep config. fact_count decides where fact-limit cuts a run,
# and no golden corpus comes near the default limit, so a join that miscounts
# new tuples would change no output there; these numbers catch it.
COUNTERS = {
    "dispatch-16": (
        lambda: gen_dispatch_program(16),
        {
            "default": ((1018, 276), (1018, 276)),
            "no-shrinking": ((1018, 276), (2502, 490)),
            "no-cloning": ((1018, 276), (1018, 276)),
            "no-preanalysis": (None, (1018, 276)),
        },
    ),
    "deep-8": (
        lambda: gen_deep_program(8, 4),
        {
            "default": ((671, 189), (671, 189)),
            # Balancing blocks are no longer cloned per push: fewer blocks (was 60567, 13905).
            "no-shrinking": ((671, 189), (45207, 10449)),
            "no-cloning": ((653, 183), (653, 183)),
            "no-preanalysis": (None, (671, 189)),
        },
    ),
    # A recursive call site already on the context is cut back before it is
    # pushed again; pushing it on every trip took 10655 facts.
    "recursion": (
        recursive_call_code,
        {
            "default": ((4768, 2349), (4768, 2349)),
            "no-shrinking": ((2728, 1347), (3488, 1630)),
            "no-cloning": ((4768, 2349), (4768, 2349)),
            "no-preanalysis": (None, (4768, 2349)),
        },
    ),
}


def _stored_tuples(result) -> int:
    """Entry-stack values, jump targets and edges: what fact_count counts."""
    return (
        sum(map(len, _slot_sets(result.block_input)))
        + len(result.block_jump_target)
        + len(result.global_block_edge)
    )


@pytest.mark.parametrize("program", sorted(COUNTERS))
def test_fixpoint_counters_are_pinned(program):
    build, expected = COUNTERS[program]
    code = build()
    for name, overrides in SWEEP_CONFIGS:
        res = run_pipeline(code, RunConfig(**overrides))
        pre = res.preanalysis.result if res.preanalysis else None
        passes = (pre, res.analysis)
        counted = tuple(r and (r.fact_count, r.transfers) for r in passes)
        assert counted == expected[name], name
        for result in filter(None, passes):
            assert result.stop_condition == "fixpoint"
            assert result.fact_count == _stored_tuples(result), name


def _reused(res) -> bool:
    return res.preanalysis is not None and res.analysis is res.preanalysis.result


def test_main_pass_reruns_when_a_merge_differs():
    # The raw private call at 0x0 grows the pre-analysis context on 0x0 -> 0x8;
    # confirmation drops it, so the main pass merges to a different context.
    res = run_pipeline(never_jumped_code())
    assert not _reused(res)
    pre_edges = res.preanalysis.result.global_block_edge
    assert pre_edges == {(INITIAL_CONTEXT, 0x0, Context(None, (0x0,)), 0x8)}
    assert res.analysis.global_block_edge == {(INITIAL_CONTEXT, 0x0, INITIAL_CONTEXT, 0x8)}
    res = run_pipeline(chained_call_code(), RunConfig(scheme=Scheme.TRANSACTIONAL))
    assert not _reused(res)
    assert res.analysis.global_block_edge != res.preanalysis.result.global_block_edge


@pytest.mark.parametrize(
    "limit, stop", [(DEFAULT_FACT_LIMIT, "fixpoint"), (10, "fact-limit")], ids=["fixpoint", "fact-limit"]
)
def test_a_prior_is_reused_only_under_its_own_fact_limit(limit, stop):
    prog = extract_blocks(gen_deep_program(8, 4))
    summaries = summarize_program(prog)
    config = SchemeConfig(Scheme.SHRINKING, DEFAULT_DEPTH[Scheme.SHRINKING])

    def run(fact_limit, prior=None):
        return analyze(prog, summaries, confirmed_facts(), config, fact_limit, prior=prior)

    prior = run(limit)
    assert prior.stop_condition == stop and prior.fact_limit == limit
    # The limit is checked between steps, so a rerun under it stops where prior did.
    assert run(limit, prior) is prior
    assert analysis_outputs(run(limit)) == analysis_outputs(prior)
    for other in (limit - 1, limit + 1):
        rerun = run(other, prior)
        assert rerun is not prior and rerun.fact_limit == other


def test_a_prior_that_timed_out_is_never_reused():
    prog = extract_blocks(BRANCH)
    summaries = summarize_program(prog)
    config = SchemeConfig(Scheme.SHRINKING, DEFAULT_DEPTH[Scheme.SHRINKING])
    prior = analyze(prog, summaries, confirmed_facts(), config, deadline=time.monotonic() - 1.0)
    assert prior.stop_condition == "timeout"
    rerun = analyze(prog, summaries, confirmed_facts(), config, prior=prior)
    assert rerun is not prior and rerun.stop_condition == "fixpoint"


# 0x0 calls 0x10 leaving continuations 0x20 and 0x30 behind. 0x10 pushes
# 0x20 again and falls through to the return 0x13, which jumps on that second
# push; 0x20 then returns to 0x30 on the pushed value. So only (0x0, 0x30) is
# confirmed: 0x0 stays a caller and nothing else changes, yet the return edge
# 0x13 -> 0x20 no longer matches the call at 0x0.
DROPPED_CONTINUATION = layout(
    {
        0x00: asm("PUSH1 0x20", "PUSH1 0x30", "PUSH1 0x10", "JUMP"),
        0x10: asm("JUMPDEST", "PUSH1 0x20"),
        0x13: asm("JUMPDEST", "JUMP"),
        0x20: asm("JUMPDEST", "CALLVALUE", "POP", "JUMP"),
        0x30: asm("JUMPDEST", "STOP"),
    }
)


def test_main_pass_reruns_when_a_dropped_call_changes_a_return_merge():
    res = run_pipeline(DROPPED_CONTINUATION)
    raw = raw_confirmed(res.patterns)
    assert res.confirmed == confirmed_facts(
        private_calls=frozenset({(0x0, 0x30)}), private_returns=raw.private_returns
    )
    assert raw.private_calls == {(0x0, 0x20), (0x0, 0x30)}
    assert raw.private_returns == {0x13, 0x20}
    assert not _reused(res)
    called = Context(None, (0x0,))
    return_edge = (called, 0x13, INITIAL_CONTEXT, 0x20)
    pre_edges = res.preanalysis.result.global_block_edge
    assert _reading_changed_facts(raw, res.confirmed, pre_edges) == [return_edge]
    assert (called, 0x13, Context(None, (0x13, 0x0)), 0x20) in res.analysis.global_block_edge


def test_only_merges_reading_a_changed_fact_are_checked():
    ctx = INITIAL_CONTEXT
    edges = {(ctx, bid, ctx, t) for bid in (1, 2, 3, 4, 5) for t in (10, 11)}
    old = confirmed_facts(
        public_calls=frozenset({(1, 10), (5, 10)}),
        private_calls=frozenset({(2, 12), (3, 11), (9, 11)}),
        private_returns=frozenset({4, 5}),
    )
    new = confirmed_facts(
        public_calls=frozenset({(5, 10)}),  # (1, 10) dropped
        private_calls=frozenset({(3, 11)}),  # caller 2 and continuation 11 of 9 dropped
        private_returns=old.private_returns,
        important_edges=frozenset({(3, 10)}),
    )
    picked = {(bid, t) for _c, bid, _c2, t in _reading_changed_facts(old, new, edges)}
    assert picked == {(1, 10), (2, 10), (2, 11), (3, 10), (4, 11), (5, 11)}
    assert _reading_changed_facts(new, new, edges) == []
