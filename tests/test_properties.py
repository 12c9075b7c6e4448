"""Property tests: local summaries, merges, and pipeline invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import asm, gen_sound_program, random_code
from evmlift.bytecode import extract_blocks, parse_bytecode_text
from evmlift.context import Context, Scheme, SchemeConfig, merge
from evmlift.facts import confirmed_facts
from evmlift.interpreter import run_block
from evmlift.lifter import parse_tac, render_tac
from evmlift.local import detect_patterns, summarize_program
from evmlift.opcodes import BY_NAME, TABLE, TERM_FALLTHROUGH
from evmlift.pipeline import run_pipeline
from evmlift.values import UNDERFLOW, entry_slot

SENTINEL_BASE = 1 << 128
SENTINELS = tuple(SENTINEL_BASE + i for i in range(64))

SHUFFLE_OPS = ["POP", "DUP1", "DUP2", "DUP3", "DUP4", "SWAP1", "SWAP2", "SWAP3", "SWAP4"]


def _shuffle_items():
    pushes = st.integers(0, 255).map(lambda c: f"PUSH1 0x{c:02x}")
    return st.one_of(pushes, st.sampled_from(SHUFFLE_OPS))


@given(st.lists(_shuffle_items(), min_size=1, max_size=12))
@settings(deadline=None)
def test_shuffle_summaries_concretize_to_interpreter_stacks(items):
    prog = extract_blocks(asm(*items, "STOP"))
    summary = summarize_program(prog)[0]
    assert summary.consumed_depth <= len(SENTINELS)

    def concrete(value):
        if value < UNDERFLOW:
            return SENTINELS[entry_slot(value)]
        assert value >= 0 and value in prog.constants
        return prog.constants[value]

    expected = tuple(concrete(v) for v in summary.produced)
    expected += SENTINELS[summary.consumed_depth :]
    result = run_block(prog, 0, entry_stack=SENTINELS)
    assert result.halted == "stop"
    assert result.exit_stack == expected


FOLDABLE_BINARY = ["ADD", "SUB", "AND", "DIV", "EQ", "SHL", "SHR"]


@st.composite
def _folding_items(draw):
    items = []
    height = 0
    for _ in range(draw(st.integers(1, 14))):
        pool = ["push"]
        if height >= 1:
            pool.append("unary")
        if height >= 2:
            pool.append("binary")
        kind = draw(st.sampled_from(pool))
        if kind == "push":
            value = draw(st.integers(0, (1 << 16) - 1))
            items.append(f"PUSH2 0x{value:04x}")
            height += 1
        elif kind == "unary":
            items.append("ISZERO")
        else:
            items.append(draw(st.sampled_from(FOLDABLE_BINARY)))
            height -= 1
    return items


@given(_folding_items())
@settings(deadline=None)
def test_constant_folding_matches_interpreter(items):
    prog = extract_blocks(asm(*items, "STOP"))
    summary = summarize_program(prog)[0]
    assert summary.consumed_depth == 0
    folded = tuple(map(prog.constants.get, summary.produced))
    assert all(c is not None for c in folded)
    result = run_block(prog, 0, entry_stack=())
    assert result.exit_stack == folded


_small = st.integers(0, 7)
_pairs = st.frozensets(st.tuples(_small, _small), max_size=6)


@given(
    scheme=st.sampled_from(list(Scheme)),
    depth=st.integers(1, 5),
    public=st.one_of(st.none(), _small),
    private=st.lists(_small, max_size=5),
    public_calls=_pairs,
    private_calls=_pairs,
    returns=st.frozensets(_small, max_size=4),
    important=_pairs,
    cur=_small,
    nxt=_small,
)
@settings(deadline=None)
def test_merge_invariants(
    scheme, depth, public, private, public_calls, private_calls, returns, important, cur, nxt
):
    facts = confirmed_facts(public_calls, private_calls, returns, important)
    ctx = Context(public, tuple(private)[:depth])
    out = merge(SchemeConfig(scheme, depth), facts, ctx, cur, nxt)

    assert len(out.private) <= depth
    if (cur, nxt) in public_calls:
        assert out == Context(nxt, ctx.private)
    else:
        assert out.public == ctx.public
        grown = Context(ctx.public, ((cur,) + ctx.private)[:depth])
        cuts = {Context(ctx.public, ctx.private[i + 1 :]) for i in range(len(ctx.private))}
        assert out == ctx or out == grown or out in cuts
        if scheme is Scheme.TRANSACTIONAL:
            assert out in (ctx, grown)
    assert out == _reference_merge(scheme, depth, facts, ctx, cur, nxt)


_tiny = st.integers(0, 3)


@given(
    scheme=st.sampled_from(list(Scheme)),
    depth=st.integers(1, 5),
    private=st.lists(_tiny, max_size=5),
    private_calls=st.frozensets(st.tuples(_tiny, _tiny), max_size=8),
    important=st.frozensets(st.tuples(_tiny, _tiny), max_size=2),
    cur=_tiny,
    nxt=_tiny,
)
@settings(deadline=None)
def test_a_return_merges_as_the_reference_says(scheme, depth, private, private_calls, important, cur, nxt):
    # Out of a return, over few blocks: the context often holds several call
    # sites whose continuation is nxt, so a match against any but the most
    # recent one shows.
    facts = confirmed_facts(frozenset(), private_calls, frozenset({cur}), important)
    ctx = Context(None, tuple(private)[:depth])
    out = merge(SchemeConfig(scheme, depth), facts, ctx, cur, nxt)
    assert out == _reference_merge(scheme, depth, facts, ctx, cur, nxt)


def _reference_merge(scheme, depth, facts, ctx, cur, nxt):
    """The merge rule written out, one case at a time, from the fields alone.

    A public call enters its target with the call sites kept. Under the
    transactional scheme a private caller or return is pushed. Under the
    shrinking scheme a return cuts back to the most recent call site on the
    context whose continuation is nxt, unless the return is also a private
    caller or an important edge's source there; an unmatched return grows;
    any other push of a block already on the context cuts it back first.
    """
    public, private = ctx
    if (cur, nxt) in facts.public_calls:
        return Context(nxt, private)
    callers = {caller for caller, _cont in facts.private_calls}
    is_return = cur in facts.private_returns
    if scheme is Scheme.TRANSACTIONAL:
        if cur in callers or is_return:
            return Context(public, ((cur,) + private)[:depth])
        return ctx
    pushes = cur in callers or (cur, nxt) in facts.important_edges
    if is_return:
        if not pushes:
            for i, site in enumerate(private):
                if (site, nxt) in facts.private_calls:
                    return Context(public, private[i + 1 :])
        return Context(public, ((cur,) + private)[:depth])
    if pushes:
        if cur in private:
            private = private[private.index(cur) + 1 :]
        return Context(public, ((cur,) + private)[:depth])
    return ctx


@given(st.binary(min_size=1, max_size=64))
@settings(deadline=None)
def test_hex_text_round_trips_through_parser(blob):
    assert parse_bytecode_text(blob.hex().encode()) == blob
    assert parse_bytecode_text(b"0x" + blob.hex().encode()) == blob
    spaced = "\n".join(blob.hex()[i : i + 8] for i in range(0, len(blob.hex()), 8))
    assert parse_bytecode_text(b"0x" + spaced.encode()) == blob


@given(st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=15)
def test_pipeline_is_deterministic_on_generated_programs(seed):
    code = gen_sound_program(random.Random(seed))
    first = run_pipeline(code)
    second = run_pipeline(code)
    assert render_tac(first.tac) == render_tac(second.tac)
    assert first.metrics == second.metrics


@given(st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=15)
def test_rendered_output_round_trips_on_generated_programs(seed):
    code = gen_sound_program(random.Random(seed))
    tac = run_pipeline(code).tac
    parsed = parse_tac(render_tac(tac))
    assert parsed.blocks == tac.blocks


def test_pipeline_terminates_on_random_bytes():
    rng = random.Random("random-bytes")
    for i in range(300):
        code = random_code(rng, jump_biased=i % 2 == 1)
        res = run_pipeline(code)
        # Every input reaches its fixpoint well inside the default fact limit,
        # so context pumping that grows again shows here as a fact-limit run.
        assert res.metrics.stop_condition == "fixpoint", code.hex()
        text = render_tac(res.tac)
        assert render_tac(parse_tac(text)) == text, code.hex()
        # Pattern detection after cloning walks only the clones.
        assert res.patterns == detect_patterns(res.program, res.summaries), code.hex()


@pytest.mark.parametrize(
    "seed, draws, size, reused",
    [("ctx-probe", 152, 128, False), ("p3", 324, 532, True)],
    ids=["ctx-probe-151", "p3-323"],
)
def test_an_important_edge_in_a_loop_no_longer_pumps_the_context(seed, draws, size, reused):
    # ctx-probe #151 has important edges inside a loop: pushing the source
    # on every trip took its main pass to the default fact limit. p3 #323
    # pushes a raw private caller on every trip: its pre-analysis reached the
    # fact limit. Cutting back to a source already on the context reaches a
    # fixpoint in both.
    rng = random.Random(seed)
    for _ in range(draws):
        code = random_code(rng, jump_biased=True)
    assert len(code) == size
    res = run_pipeline(code)
    assert res.preanalysis.result.stop_condition == "fixpoint"
    assert res.metrics.stop_condition == "fixpoint"
    assert (res.analysis is res.preanalysis.result) is reused


def test_a_run_the_fact_limit_ends_in_the_preanalysis_costs_one_pass():
    # A 294-byte input whose pre-analysis reaches the default fact limit.
    # The main pass would replay it under the same raw facts, scheme and
    # limit, so it returns that result instead of running it again.
    rng = random.Random("p1")
    for _ in range(1409):
        code = random_code(rng, jump_biased=True)
    assert len(code) == 294
    res = run_pipeline(code)
    assert res.preanalysis.result.stop_condition == "fact-limit"
    assert res.metrics.stop_condition == "fact-limit"
    assert res.analysis is res.preanalysis.result


def _scan(code: bytes) -> list[tuple[int, str, int | None]]:
    """The instructions, found byte by byte: PUSH0..PUSH32 (0x5f..0x7f) push
    their 0..32 immediate bytes, zero-padded past the end of the code, and
    every other opcode carries none."""
    out = []
    pc = 0
    while pc < len(code):
        byte = code[pc]
        width = byte - 0x5F if 0x5F <= byte <= 0x7F else -1
        pushed = int.from_bytes(code[pc + 1 : pc + 1 + width].ljust(width, b"\0"), "big") if width >= 0 else None
        out.append((pc, TABLE[byte].mnemonic, pushed))
        pc += 1 + max(width, 0)
    return out


def _decoding_inputs() -> list[bytes]:
    fixtures = (
        conftest.dispatch_pair_code,
        conftest.inlined_call_code,
        conftest.chained_call_code,
        conftest.never_jumped_code,
        conftest.non_selector_eq_code,
        conftest.important_edges_code,
        conftest.code_address_merge_code,
        conftest.one_address_merge_code,
        conftest.underflow_drop_code,
        conftest.unresolved_operand_code,
        conftest.balancing_example_code,
        conftest.poly_merge_code,
        conftest.recursive_call_code,
    )
    # empty code, a lone PUSH1, a trailing JUMP, STOP JUMPDEST
    inputs = [b"", b"\x60", asm("PUSH1 0x00", "JUMP"), asm("STOP", "JUMPDEST")]
    inputs += [build() for build in fixtures]
    rng = random.Random("decoding")
    inputs += [random_code(rng, jump_biased=i % 2 == 1) for i in range(1000)]
    return inputs


def test_blocks_cut_the_instruction_stream_at_jumpdests_and_terminators():
    for code in _decoding_inputs():
        program = extract_blocks(code)
        blocks = list(program.blocks.values())
        assert [b.id for b in blocks] == sorted(program.blocks), code.hex()
        stream = [ins for block in blocks for ins in block.instructions]
        scanned = _scan(code)
        assert stream == scanned, code.hex()
        previous = None
        for block in blocks:
            (first_pc, first, _pushed), (_pc, last, _pushed) = block.instructions[0], block.instructions[-1]
            assert block.id == first_pc
            assert (
                block.id == 0
                or first == "JUMPDEST"
                or BY_NAME[previous.last[1]].terminator != TERM_FALLTHROUGH
            ), code.hex()
            assert all(op != "JUMPDEST" for _pc, op, _pushed in block.instructions[1:]), code.hex()
            assert all(
                BY_NAME[op].terminator == TERM_FALLTHROUGH for _pc, op, _pushed in block.instructions[:-1]
            ), code.hex()
            assert block.terminator == BY_NAME[last].terminator, code.hex()
            previous = block
        assert program.jumpdests == {pc for pc, op, _pushed in scanned if op == "JUMPDEST"}, code.hex()
