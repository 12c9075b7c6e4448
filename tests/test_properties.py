"""Property tests: local summaries, merges, and pipeline invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import asm, gen_sound_program
from evmlift.bytecode import Terminator, disassemble, extract_blocks, parse_bytecode_text
from evmlift.context import Context, Scheme, SchemeConfig, merge
from evmlift.facts import ConfirmedFacts
from evmlift.interpreter import run_block
from evmlift.lifter import parse_tac, render_tac
from evmlift.local import summarize_block
from evmlift.opcodes import BY_NAME
from evmlift.pipeline import run_pipeline
from evmlift.values import DefSite, EntrySlot

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
    summary = summarize_block(prog.blocks[0], prog)
    assert summary.consumed_depth <= len(SENTINELS)

    def concrete(value):
        if isinstance(value, EntrySlot):
            return SENTINELS[value.index]
        assert isinstance(value, DefSite) and value.constant is not None
        return value.constant

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
    summary = summarize_block(prog.blocks[0], prog)
    assert summary.consumed_depth == 0
    folded = tuple(v.constant for v in summary.produced)
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
    facts = ConfirmedFacts(public_calls, private_calls, returns, important)
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


# Jump-heavy byte soup: jumpdests, jumps, stack shuffles and pushes of the
# jumpdests' own offsets, so random inputs reach the global analysis and not
# just decoding. Other bytes are drawn from the non-push opcodes, so every
# byte the generator places is decoded as the instruction it placed.
_JUMPY = (0x5B, 0x56, 0x57, 0x80, 0x81, 0x90, 0x91, 0x50, 0x5F)
_NON_PUSH = tuple(b for b in range(256) if not 0x60 <= b <= 0x7F)


def _random_code(rng: random.Random, jump_biased: bool) -> bytes:
    size = rng.randint(1, 600)
    if not jump_biased:
        return rng.randbytes(size)
    out = bytearray()
    pushes: list[int] = []
    jumpdests: list[int] = []
    while len(out) < size:
        roll = rng.random()
        if roll < 0.25:
            pushes.append(len(out) + 1)
            out += b"\x61\x00\x00"  # PUSH2, address filled in below
            continue
        op = rng.choice(_JUMPY) if roll < 0.8 else rng.choice(_NON_PUSH)
        if op == 0x5B:
            jumpdests.append(len(out))
        out.append(op)
    for at in pushes:
        address = rng.choice(jumpdests) if jumpdests and rng.random() < 0.9 else rng.randrange(size)
        out[at : at + 2] = address.to_bytes(2, "big")
    return bytes(out[:size])


def test_pipeline_terminates_on_random_bytes():
    rng = random.Random("random-bytes")
    for i in range(300):
        code = _random_code(rng, jump_biased=i % 2 == 1)
        res = run_pipeline(code)
        # The default fact limit, not the wall clock, bounds every run.
        assert res.metrics.stop_condition != "timeout", code.hex()
        text = render_tac(res.tac)
        assert render_tac(parse_tac(text)) == text, code.hex()


def _scan_jumpdests(code: bytes) -> frozenset[int]:
    """0x5b bytes outside PUSH immediates, found byte by byte: PUSH1..PUSH32
    (0x60..0x7f) carry 1..32 immediate bytes, every other opcode none."""
    dests = set()
    pc = 0
    while pc < len(code):
        byte = code[pc]
        if byte == 0x5B:
            dests.add(pc)
        pc += 1 + (byte - 0x5F if 0x60 <= byte <= 0x7F else 0)
    return frozenset(dests)


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
    inputs += [_random_code(rng, jump_biased=i % 2 == 1) for i in range(1000)]
    return inputs


def test_blocks_cut_the_instruction_stream_at_jumpdests_and_terminators():
    for code in _decoding_inputs():
        program = extract_blocks(code)
        blocks = list(program.blocks.values())
        assert [b.id for b in blocks] == sorted(program.blocks), code.hex()
        stream = [ins for block in blocks for ins in block.instructions]
        assert stream == disassemble(code), code.hex()
        previous = None
        for block in blocks:
            first, last = block.instructions[0], block.instructions[-1]
            assert block.id == first.pc
            assert (
                block.id == 0
                or first.opcode == "JUMPDEST"
                or BY_NAME[previous.last.opcode].terminator is not Terminator.FALLTHROUGH
            ), code.hex()
            assert all(ins.opcode != "JUMPDEST" for ins in block.instructions[1:]), code.hex()
            assert all(
                BY_NAME[ins.opcode].terminator is Terminator.FALLTHROUGH for ins in block.instructions[:-1]
            ), code.hex()
            assert block.terminator is BY_NAME[last.opcode].terminator, code.hex()
            previous = block
        assert program.jumpdests == _scan_jumpdests(code), code.hex()
