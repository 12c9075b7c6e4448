"""Pre-analysis: candidate filtering and important-edge discovery."""

import pytest

from conftest import (
    SELECTOR_ONE,
    SELECTOR_TWO,
    asm,
    dispatch_pair_code,
    chained_call_code,
    gen_deep_program,
    gen_dispatch_program,
    important_edges_code,
    layout,
    never_jumped_code,
    non_selector_eq_code,
)
from evmlift.analysis import DEFAULT_MAX_STACK_DEPTH, transfer_block
from evmlift.bytecode import extract_blocks
from evmlift.facts import PatternFacts, raw_confirmed
from evmlift.local import detect_patterns, summarize_program
from evmlift.preanalysis import (
    _Resolver,
    compute_important_edges,
    run_preanalysis,
    selector_values,
)
from evmlift.values import DefSite


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
    selectors = selector_values(summaries, _Resolver(outcome.result))
    assert DefSite(0x1D) in selectors  # the 224-bit shift of call-data word zero


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
    selectors = selector_values(
        summarize_program(extract_blocks(DIV_MASK_DISPATCH)), _Resolver(outcome.result)
    )
    assert DefSite(0x22) in selectors and DefSite(0x28) in selectors


def rule_based_important_edges(result, summaries):
    """Independent evaluation of the imprecision-introduction rules."""

    def imprecise_in(ctx, bid, slot):
        return len(result.block_input.get((ctx, bid), {}).get(slot, ())) >= 2

    def imprecise_out(ctx, bid, slot):
        env = transfer_block(summaries[bid], result.block_input[(ctx, bid)], DEFAULT_MAX_STACK_DEPTH)
        return len(env.get(slot, ())) >= 2

    edges = result.global_block_edge
    blamed = set()
    for ctx, bid, ctx2, bid2 in edges:
        for slot in result.block_input.get((ctx2, bid2), {}):
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


def _important_edges(outcome, summaries):
    return compute_important_edges(outcome.result, summaries, DEFAULT_MAX_STACK_DEPTH)


def test_constant_merge_blames_both_incoming_edges():
    raw, outcome, summaries = _pre(important_edges_code())
    expected = frozenset({(0x6, 0x18), (0x10, 0x18)})
    assert _important_edges(outcome, summaries) == expected
    assert rule_based_important_edges(outcome.result, summaries) == expected
    assert outcome.confirmed.important_edges == expected


def test_precise_flows_blame_no_edges():
    _, outcome, summaries = _pre(dispatch_pair_code())
    assert outcome.confirmed.important_edges == frozenset()
    assert rule_based_important_edges(outcome.result, summaries) == _important_edges(outcome, summaries)


@pytest.mark.parametrize(
    "build",
    [lambda: gen_dispatch_program(16), lambda: gen_deep_program(8, 4)],
    ids=["dispatch-16", "deep-8"],
)
def test_important_edges_match_the_rule_oracle(build):
    _, outcome, summaries = _pre(build())
    assert outcome.result.stop_condition == "fixpoint"
    assert rule_based_important_edges(outcome.result, summaries) == _important_edges(outcome, summaries)
