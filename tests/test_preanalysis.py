"""Pre-analysis: candidate filtering and important-edge discovery."""

import pytest

from conftest import (
    SELECTOR_ONE,
    SELECTOR_TWO,
    asm,
    dispatch_pair_code,
    chained_call_code,
    code_address_merge_code,
    gen_deep_program,
    gen_dispatch_program,
    important_edges_code,
    layout,
    never_jumped_code,
    non_selector_eq_code,
    one_address_merge_code,
    recursive_call_code,
)
from evmlift.analysis import transfer_block
from evmlift.bytecode import extract_blocks
from evmlift.cloning import apply_cloning
from evmlift.facts import PatternFacts, raw_confirmed
from evmlift.local import detect_patterns, summarize_program
from evmlift.preanalysis import (
    compute_important_edges,
    run_preanalysis,
    selector_values,
)


def _pre(code: bytes, depth: int = 8):
    prog = extract_blocks(code)
    summaries = summarize_program(prog)
    raw = detect_patterns(prog, summaries)
    return raw, run_preanalysis(prog, summaries, raw, depth), summaries


def test_raw_confirmed_projects_candidates():
    raw = PatternFacts(
        public_call_candidates=frozenset({(0x0, 0xAB, 0x38)}),
        private_call_candidates=frozenset({(0x58, 0x72, 0x60)}),
        private_returns=frozenset({0x1C7}),
    )
    confirmed = raw_confirmed(raw)
    assert confirmed.public_calls == frozenset({(0x0, 0x38)})
    assert confirmed.private_calls == frozenset({(0x58, 0x72)})
    assert confirmed.private_returns == frozenset({0x1C7})


def test_unjumped_continuation_is_filtered_out():
    raw, outcome, _ = _pre(never_jumped_code())
    assert raw.private_call_candidates == frozenset({(0x0, 0x10, 0x0)})
    assert outcome.confirmed.private_calls == frozenset()


def test_jumped_continuations_are_kept():
    raw, outcome, _ = _pre(chained_call_code())
    assert len(raw.private_call_candidates) == 6
    assert outcome.confirmed.private_calls == frozenset(
        {(0x58, 0x72), (0x58, 0x77), (0x90, 0x72), (0x90, 0x77)}
    )
    assert outcome.confirmed.private_returns == frozenset({0x1C7, 0x1D0})


def test_dispatch_comparisons_are_kept():
    raw, outcome, _ = _pre(dispatch_pair_code())
    sites = frozenset({(0x0, SELECTOR_ONE, 0x38), (0x29, SELECTOR_TWO, 0x54)})
    assert raw.public_call_candidates == sites
    assert outcome.public_call_sites == sites
    assert outcome.confirmed.public_calls == frozenset({(0x0, 0x38), (0x29, 0x54)})


def test_non_selector_comparison_is_filtered_out():
    raw, outcome, _ = _pre(non_selector_eq_code())
    assert raw.public_call_candidates == frozenset({(0x0, 0x5, 0x10)})
    assert outcome.public_call_sites == frozenset()
    assert outcome.confirmed.public_calls == frozenset()


def test_selector_values_seeded_by_shift():
    prog = extract_blocks(dispatch_pair_code())
    summaries = summarize_program(prog)
    raw = detect_patterns(prog, summaries)
    outcome = run_preanalysis(prog, summaries, raw, 8)
    selectors = selector_values(summaries, outcome.result.per_block, prog.constants)
    assert 0x1D in selectors  # the 224-bit shift of call-data word zero


DIV_MASK_DISPATCH = layout(
    {
        0x00: asm(
            "PUSH1 0x00",
            "CALLDATALOAD",
            f"PUSH29 0x{1 << 224:058x}",
            "SWAP1",
            "DIV",
            "PUSH4 0xffffffff",
            "AND",
            "PUSH4 0x12e49406",
            "EQ",
            "PUSH2 0x36",
            "JUMPI",
            "STOP",
        ),
        0x36: asm("JUMPDEST", "STOP"),
    }
)


def test_division_and_mask_selector_is_confirmed():
    raw, outcome, _ = _pre(DIV_MASK_DISPATCH)
    assert raw.public_call_candidates == frozenset({(0x0, 0x12E49406, 0x36)})
    assert outcome.confirmed.public_calls == frozenset({(0x0, 0x36)})
    # both the division and the masked alias count as selector values
    prog = extract_blocks(DIV_MASK_DISPATCH)
    selectors = selector_values(summarize_program(prog), outcome.result.per_block, prog.constants)
    assert 0x22 in selectors and 0x28 in selectors


def rule_based_important_edges(result, summaries, constants, jumpdests, clone_pushes):
    """Independent evaluation of the imprecision-introduction rules.

    A slot is imprecise when its values carry two or more distinct jump
    targets: the clone of a push cloning chose, or else the jumpdest a
    constant equals. Merged data, or one address from several pushes,
    never splits a jump, so it blames nothing.
    """

    def target(v):
        if v not in constants:
            return None
        if v in clone_pushes:
            return clone_pushes[v]
        return constants[v] if constants[v] in jumpdests else None

    def splits_a_jump(vals):
        return len({target(v) for v in vals} - {None}) >= 2

    def at(env, slot):
        return env[slot] if slot < len(env) else ()

    def imprecise_in(ctx, bid, slot):
        return splits_a_jump(at(result.block_input.get((ctx, bid), ()), slot))

    def imprecise_out(ctx, bid, slot):
        env = transfer_block(summaries[bid], result.block_input[(ctx, bid)])
        return splits_a_jump(at(env, slot))

    edges = result.global_block_edge
    blamed = set()
    for ctx, bid, ctx2, bid2 in edges:
        for slot in range(len(result.block_input.get((ctx2, bid2), ()))):
            if not imprecise_in(ctx2, bid2, slot):
                continue
            if imprecise_out(ctx, bid, slot):
                continue
            carried = any(
                imprecise_out(pctx, pbid, slot)
                for pctx, pbid, tctx, tbid in edges
                if (tctx, tbid) == (ctx2, bid2)
            )
            if not carried:
                blamed.add((bid, bid2))
    return frozenset(blamed)


def _blamed(code: bytes):
    """compute_important_edges, the rule oracle and the confirmed facts' edges
    on one program's pre-analysis, run as the pipeline runs it: after cloning."""
    prog = extract_blocks(code)
    summaries = summarize_program(prog)
    prog, _clones = apply_cloning(prog, detect_patterns(prog, summaries))
    summaries = summarize_program(prog, summaries)
    outcome = run_preanalysis(prog, summaries, detect_patterns(prog, summaries), 8)
    assert outcome.result.stop_condition == "fixpoint"
    computed = compute_important_edges(outcome.result, prog, summaries)
    oracle = rule_based_important_edges(
        outcome.result, summaries, prog.constants, prog.jumpdests, prog.clone_pushes
    )
    return computed, oracle, outcome.confirmed.important_edges


def test_constant_merge_blames_both_incoming_edges():
    expected = frozenset({(0x6, 0x1C), (0x10, 0x1C)})
    assert _blamed(code_address_merge_code()) == (expected, expected, expected)


@pytest.mark.parametrize(
    "build", [important_edges_code, one_address_merge_code], ids=["data", "one-address"]
)
def test_a_merge_that_splits_no_jump_blames_nothing(build):
    assert _blamed(build()) == (frozenset(),) * 3


def test_precise_flows_blame_no_edges():
    assert _blamed(dispatch_pair_code()) == (frozenset(),) * 3


@pytest.mark.parametrize(
    "build",
    [lambda: gen_dispatch_program(16), lambda: gen_deep_program(8, 4), recursive_call_code],
    ids=["dispatch-16", "deep-8", "recursion"],
)
def test_important_edges_match_the_rule_oracle(build):
    computed, oracle, _confirmed = _blamed(build())
    assert computed == oracle
