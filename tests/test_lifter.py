"""Lifted three-address code: naming, PHIs, calls, rendering."""

import re
from pathlib import Path

import pytest

from conftest import (
    CORPORA,
    asm,
    inlined_call_code,
    chained_call_code,
    layout,
    underflow_drop_code,
    unresolved_operand_code,
)
from evmlift.analysis import transfer_block
from evmlift.lifter import TACBlock, TACProgram, parse_tac, render_tac
from evmlift.pipeline import RunConfig, run_pipeline


@pytest.fixture(scope="module")
def cloned():
    return run_pipeline(chained_call_code())


@pytest.fixture(scope="module")
def uncloned():
    return run_pipeline(chained_call_code(), RunConfig(cloning=False))


def lines(tac, bid):
    return [stmt.render() for stmt in tac.blocks[bid].statements]


def test_const_definitions_carry_value_annotations(cloned):
    assert "0x5a: v5a(0x77) = CONST" in lines(cloned.tac, 0x58)


def test_call_chain_is_one_call_per_block(cloned):
    tac = cloned.tac
    first = tac.blocks[0x58]
    assert (first.preds, first.succs) == ((0x38,), (0x1F0,))
    assert lines(tac, 0x58)[-1] == "0x71: v71_0 = CALLPRIVATE v6e, v6d, v6a, v66"

    second = tac.blocks[0x1F0]
    assert (second.preds, second.succs) == ((0x58, 0x1C7), (0x1E0,))
    assert lines(tac, 0x1F0)[-1] == "0x1f4: v1f4_0 = CALLPRIVATE v1f1, v1c8, v65, v60"

    third = tac.blocks[0x1E0]
    assert third.succs == (0x77,)
    assert lines(tac, 0x1E0)[-1] == "0x1e4: v1e4_0 = CALLPRIVATE v1e1, v1c8, v5f, v5a"

    # the store at the end of the chain consumes the summed result
    assert "0x79: SSTORE v78, v1c8" in lines(tac, 0x77)


def test_callee_entry_has_call_edges_only_in_statements(cloned):
    helper = cloned.tac.blocks[0x1C7]
    assert helper.preds == ()
    assert helper.succs == (0x77, 0x1E0, 0x1F0, 0x200)
    rendered = lines(cloned.tac, 0x1C7)
    assert rendered[0] == "0x1c7_0x0: v1c7_0 = PHI v6d, v1c8, v1d1"
    phi_sizes = [len(s.operands) for s in cloned.tac.blocks[0x1C7].statements if s.opcode == "PHI"]
    assert phi_sizes == [3, 5, 5]
    assert "0x1c8: v1c8 = ADD v1c7_0, v1c7_1" in rendered
    assert rendered[-1] == "0x1ca: JUMP v1c7_2"


def test_merged_continuation_without_cloning(uncloned):
    merged = uncloned.tac.blocks[0x72]
    assert merged.preds == (0x58, 0x72, 0x90, 0x1C7, 0x1D0)
    assert merged.succs == (0x72, 0x77)
    assert lines(uncloned.tac, 0x72) == [
        "0x72_0x0: v72_0 = PHI v1c8, v1d1",
        "0x72_0x1: v72_1 = PHI v5f, v65, v97, v9d",
        "0x72_0x2: v72_2 = PHI v5a, v60, v92, v98",
        "0x73: v73(0x1c7) = CONST",
        "0x76: v76_0 = CALLPRIVATE v73, v72_0, v72_1, v72_2",
    ]


def test_a_data_constant_equal_to_a_clone_id_is_no_continuation_operand():
    # A chain of three calls to the helper 0x28 through the shared 0x30,
    # pushed at 0x4 and 0x8 and cloned to 0x40 and 0x50. The data push at 0x6
    # sits between them and equals 0x50, the continuation of block 0x0's
    # call. The call in clone 0x50 returns to 0x40, through the push at 0x4.
    code = layout(
        {
            0x00: asm(
                "PUSH1 0x20", "PUSH1 0x01", "PUSH1 0x30", "PUSH1 0x50", "PUSH1 0x30",
                "PUSH1 0x03", "PUSH1 0x04", "PUSH1 0x28", "JUMP",
            ),
            0x20: asm("JUMPDEST", "POP", "STOP"),
            0x28: asm("JUMPDEST", "ADD", "SWAP1", "JUMP"),
            0x30: asm("JUMPDEST", "PUSH1 0x28", "JUMP"),
        }
    )
    res = run_pipeline(code)
    assert [(i.push_pc, i.clone_id) for i in res.clones] == [(0x4, 0x40), (0x8, 0x50)]
    assert res.tac.blocks[0x50].succs == (0x40,)
    assert lines(res.tac, 0x50)[-1] == "0x53: v53_0 = CALLPRIVATE v51, v29, v6, v4"


def test_a_non_jumpdest_constant_is_no_call_successor():
    # 0x30 calls the helper 0x28 and returns through its entry slot 1, which
    # holds the continuation 0x20 on the path through 0x06 and the data
    # constant 0x07 on the path through 0x10. Only 0x20 names a block.
    code = layout(
        {
            0x00: asm("PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x10", "JUMPI"),
            0x06: asm("PUSH1 0x20", "PUSH1 0x30", "PUSH1 0x03", "PUSH1 0x28", "JUMP"),
            0x10: asm("JUMPDEST", "PUSH1 0x07", "PUSH1 0x30", "PUSH1 0x03", "PUSH1 0x28", "JUMP"),
            0x20: asm("JUMPDEST", "POP", "STOP"),
            0x28: asm("JUMPDEST", "ISZERO", "SWAP1", "JUMP"),
            0x30: asm("JUMPDEST", "PUSH1 0x28", "JUMP"),
        }
    )
    res = run_pipeline(code, RunConfig(cloning=False))
    assert lines(res.tac, 0x30)[-1] == "0x33: v33_0 = CALLPRIVATE v31, v29, v30_1"
    assert res.tac.blocks[0x30].succs == (0x20,)
    assert res.metrics.unstructured_control_flow == 0


def test_a_call_that_passes_no_continuation_has_one_operand():
    # 0x6 calls the helper 0x28 with the continuation 0x20. 0x10 jumps to the
    # same helper, but its exit stack holds only data, so no slot names a
    # confirmed continuation: the call carries its target alone, and its
    # successor is the jump edge into the helper.
    code = layout(
        {
            0x00: asm("PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x10", "JUMPI"),
            0x06: asm("PUSH1 0x20", "PUSH1 0x03", "PUSH1 0x28", "JUMP"),
            0x10: asm("JUMPDEST", "PUSH1 0x07", "PUSH1 0x03", "PUSH1 0x28", "JUMP"),
            0x20: asm("JUMPDEST", "POP", "STOP"),
            0x28: asm("JUMPDEST", "ISZERO", "SWAP1", "JUMP"),
        }
    )
    res = run_pipeline(code)
    assert res.confirmed.private_calls == frozenset({(0x6, 0x20)})
    assert lines(res.tac, 0x6)[-1] == "0xc: vc_0 = CALLPRIVATE va, v8, v6"
    assert res.tac.blocks[0x6].succs == (0x20,)
    assert lines(res.tac, 0x10)[-1] == "0x17: v17_0 = CALLPRIVATE v15"
    assert res.tac.blocks[0x10].succs == (0x28,)


def test_a_call_named_like_its_blocks_phi_takes_the_r_suffix():
    # The block 0x14 is a lone JUMP reached by fallthrough, so its JUMP has
    # the block's pc. Its slot 0 merges two pushes of the helper 0x28, which
    # 0x30 calls, and gets the PHI v14_0; the call the JUMP renders as
    # would take the same name, so it gets v14_0r.
    code = layout(
        {
            0x00: asm(
                "PUSH1 0x20", "PUSH1 0x28", "PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x0d", "JUMPI",
                "POP", "PUSH1 0x28",
            ),
            0x0D: asm("JUMPDEST", "PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x30", "JUMPI", "JUMP"),
            0x20: asm("JUMPDEST", "STOP"),
            0x28: asm("JUMPDEST", "CALLVALUE", "POP", "JUMP"),
            0x30: asm("JUMPDEST", "PUSH1 0x20", "PUSH1 0x28", "JUMP"),
        }
    )
    res = run_pipeline(code)
    assert res.confirmed.private_calls == frozenset({(0x30, 0x20)})
    assert lines(res.tac, 0x14) == [
        "0x14_0x0: v14_0 = PHI v2, vb",
        "0x14: v14_0r = CALLPRIVATE v14_0, v0",
    ]
    assert res.tac.blocks[0x14].succs == (0x20,)


def test_single_call_and_return(cloned):
    res = run_pipeline(inlined_call_code())
    assert res.confirmed.private_calls == frozenset({(0x129, 0x132)})
    assert res.confirmed.private_returns == frozenset({0x109})
    caller = res.tac.blocks[0x129]
    assert caller.succs == (0x132,)
    assert lines(res.tac, 0x129)[-1] == "0x131: v131_0 = CALLPRIVATE v12e, v0, v12a"
    callee = res.tac.blocks[0x109]
    assert (callee.preds, callee.succs) == ((), (0x132,))
    rendered = lines(res.tac, 0x109)
    assert "0x11f: v11f = AND v10a, v0" in rendered
    assert rendered[-1] == "0x121: JUMP v12a"


def test_underflow_mix_drops_block():
    res = run_pipeline(underflow_drop_code())
    assert res.metrics.missing_ir_block == 1
    assert 0x18 not in res.tac.blocks


def test_unknown_slot_reads_as_placeholder():
    res = run_pipeline(unresolved_operand_code())
    assert "0x9: v9 = ISZERO ?" in lines(res.tac, 0x8)


def test_a_read_below_the_entry_env_reads_as_placeholder():
    # 0xa is reached with one slot, the 0x5 pushed at 0x0, and its ADD reads two
    code = layout(
        {
            0x0: asm("PUSH1 0x05", "PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x0a", "JUMPI", "STOP"),
            0xA: asm("JUMPDEST", "ADD", "POP", "STOP"),
        }
    )
    res = run_pipeline(code)
    assert res.analysis.per_block[0xA] == ({0x0},)
    assert lines(res.tac, 0xA) == ["0xb: vb = ADD v0, ?", "0xd: STOP"]


def test_render_parse_round_trip(cloned, uncloned):
    # an empty program renders as a lone newline and parses back to no blocks
    for res in (cloned, uncloned, run_pipeline(b"")):
        text = render_tac(res.tac)
        parsed = parse_tac(text)
        assert parsed.blocks == res.tac.blocks
        assert render_tac(parsed) == text


def test_parse_rejects_malformed_text():
    with pytest.raises(ValueError):
        parse_tac("not a block")
    good = "Begin block 0x1\nprev=[], succ=[]\n" + "=" * 33
    parse_tac(good)
    with pytest.raises(ValueError):
        parse_tac(good + "\nbroken statement line")
    with pytest.raises(ValueError):
        parse_tac("Begin block 0x1\nprev=[], succ=[]\n" + "=" * 32)


def test_readme_tac_sample_is_an_excerpt_of_the_rendered_output(cloned):
    # The sample in README.md's "TAC format" section shows blocks 0x58 and
    # 0x1c7 of chained_call_code under the default config; a "..." line
    # stands for statements left out.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sample = readme.split("## TAC format", 1)[1].split("```\n")[1]
    blocks = render_tac(cloned.tac).rstrip("\n").split("\n\n")
    rendered = {text.split("\n", 1)[0]: text for text in blocks}
    paragraphs = sample.rstrip("\n").split("\n\n")
    headers = [paragraph.split("\n", 1)[0] for paragraph in paragraphs]
    assert headers == ["Begin block 0x58", "Begin block 0x1c7"]
    for header, paragraph in zip(headers, paragraphs):
        pattern = r"\n(?:.*\n)*".join(map(re.escape, paragraph.split("\n...\n")))
        assert re.fullmatch(pattern, rendered[header]), paragraph


@pytest.mark.parametrize("sweep", sorted(CORPORA), indirect=True)
def test_the_continuation_scan_agrees_with_the_exit_env(sweep):
    # Each CALLPRIVATE passes the exit slots down to the first that names a
    # confirmed continuation, and its succ list is the blocks that slot names;
    # a call with no such slot passes its target alone.
    calls = 0
    for code, name, _config, res in sweep.lifts:
        jump_target = res.program.targets.get
        continuations = frozenset(cont for _caller, cont in res.confirmed.private_calls)
        for bid, block in res.tac.blocks.items():
            if not block.statements or block.statements[-1].opcode != "CALLPRIVATE":
                continue
            calls += 1
            out = transfer_block(res.summaries[bid], res.analysis.per_block[bid])
            named = [set(map(jump_target, values)) - {None} for values in out]
            slots = [slot for slot, blocks in enumerate(named) if not continuations.isdisjoint(blocks)]
            operands = block.statements[-1].operands
            if slots:
                assert block.succs == tuple(sorted(named[slots[0]])), (code.hex(), name, bid)
                assert len(operands) == slots[0] + 2, (code.hex(), name, bid)
            else:
                assert len(operands) == 1, (code.hex(), name, bid)
    assert calls


@pytest.mark.parametrize("sweep", sorted(CORPORA), indirect=True)
def test_every_render_writes_the_same_lines(sweep):
    for _code, name, _config, res in sweep.lifts:
        if name != "default":
            continue
        tac = res.tac
        blocks = [tac.blocks[bid] for bid in sorted(tac.blocks)]
        assert render_tac(tac) == "\n\n".join(block.render() for block in blocks) + "\n"
        for block in blocks:
            assert block.render().split("\n")[3:] == [stmt.render() for stmt in block.statements]
    assert render_tac(TACProgram({})) == "\n"
    assert TACBlock(0x1, ()).render() == "Begin block 0x1\nprev=[], succ=[]\n" + "=" * 33
