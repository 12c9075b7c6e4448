"""Block cloning: candidate selection and program rewriting."""

from conftest import asm, chained_call_code, layout
from evmlift.bytecode import extract_blocks
from evmlift.cloning import CloneInstance, apply_cloning, select_clone_candidates
from evmlift.facts import PatternFacts
from evmlift.interpreter import concrete_execute
from evmlift.lifter import render_tac
from evmlift.local import detect_patterns, summarize_program
from evmlift.pipeline import RunConfig, run_pipeline


def _chained():
    prog = extract_blocks(chained_call_code())
    facts = detect_patterns(prog, summarize_program(prog))
    return prog, facts


def test_shared_continuation_selected_with_all_push_sites():
    prog, facts = _chained()
    assert select_clone_candidates(prog, facts) == {0x72: (0x60, 0x66, 0x98, 0x9E)}


def test_halting_continuation_is_not_cloned():
    # 0x77 is also pushed from two call sites but ends in STOP, so a copy
    # could never be re-entered through a jump
    prog, facts = _chained()
    pushed = {pc for _, cont, pc in facts.private_call_candidates if cont == 0x77}
    assert pushed == {0x5A, 0x92}
    assert 0x77 not in select_clone_candidates(prog, facts)


def test_apply_cloning_instances_and_ids():
    prog, facts = _chained()
    cloned, instances = apply_cloning(prog, facts)
    assert instances == (
        CloneInstance(0x60, 0x72, 0x1E0),
        CloneInstance(0x66, 0x72, 0x1F0),
        CloneInstance(0x98, 0x72, 0x200),
        CloneInstance(0x9E, 0x72, 0x210),
    )
    assert cloned.clone_of == {0x1E0: 0x72, 0x1F0: 0x72, 0x200: 0x72, 0x210: 0x72}
    assert {i.clone_id for i in instances} <= cloned.jump_target_ids


def test_apply_cloning_rewrites_only_the_push_sites():
    prog, facts = _chained()
    cloned, _ = apply_cloning(prog, facts)

    def push_at(program, bid, pc):
        (ins,) = [i for i in program.blocks[bid].instructions if i.pc == pc]
        return ins.pushed_value

    assert push_at(cloned, 0x58, 0x60) == 0x1E0
    assert push_at(cloned, 0x58, 0x66) == 0x1F0
    assert push_at(cloned, 0x90, 0x98) == 0x200
    assert push_at(cloned, 0x90, 0x9E) == 0x210
    # the halting continuation keeps its original address
    assert push_at(cloned, 0x58, 0x5A) == 0x77
    # originals in the source program are untouched
    assert push_at(prog, 0x58, 0x60) == 0x72


def test_clone_bodies_are_pristine_rebased_copies():
    prog, facts = _chained()
    cloned, _ = apply_cloning(prog, facts)
    original = cloned.blocks[0x72]
    clone = cloned.blocks[0x1F0]
    assert [i.pc for i in clone.instructions] == [0x1F0, 0x1F1, 0x1F4]
    assert [i.opcode for i in clone.instructions] == [i.opcode for i in original.instructions]
    # the push inside the copy still targets the shared helper
    assert clone.instructions[1].pushed_value == 0x1C7
    assert clone.terminator is original.terminator


def test_no_candidates_returns_program_unchanged():
    prog = extract_blocks(asm("JUMPDEST", "STOP"))
    out, instances = apply_cloning(prog, PatternFacts())
    assert out is prog and instances == ()


def test_balancing_block_cloned_per_push_site():
    code = layout(
        {
            0x00: asm("PUSH2 0x10", "PUSH2 0x10", "JUMP"),
            0x10: asm("JUMPDEST", "SWAP1", "POP", "JUMP"),
        }
    )
    prog = extract_blocks(code)
    facts = PatternFacts()
    assert select_clone_candidates(prog, facts) == {0x10: (0x0, 0x3)}
    cloned, instances = apply_cloning(prog, facts)
    assert [i.clone_id for i in instances] == [0x20, 0x30]
    entry = cloned.blocks[0x0].instructions
    assert (entry[0].pushed_value, entry[1].pushed_value) == (0x20, 0x30)


def test_single_push_site_keeps_block_shared():
    code = layout(
        {
            0x00: asm("PUSH2 0x10", "JUMP"),
            0x10: asm("JUMPDEST", "SWAP1", "POP", "JUMP"),
        }
    )
    prog = extract_blocks(code)
    facts = PatternFacts()
    assert select_clone_candidates(prog, facts) == {}


def test_clone_id_stride_covers_wide_blocks():
    body = ["SWAP1"] * 15
    code = layout(
        {
            0x00: asm("PUSH2 0x10", "PUSH2 0x10", "JUMP"),
            0x10: asm("JUMPDEST", *body, "JUMP"),
        }
    )
    prog = extract_blocks(code)
    facts = PatternFacts()
    _, instances = apply_cloning(prog, facts)
    # 17-byte block span rounds the stride up to 32
    assert [i.clone_id for i in instances] == [0x30, 0x50]


def test_a_data_constant_equal_to_a_clone_id_names_no_block():
    # 0x30 is a balancing block pushed at 0x2 and 0x23, so cloning copies it
    # to 0x40 and 0x50. Block 0x28 jumps on PUSH2 0x40, which no JUMPDEST
    # holds: a concrete run halts there and, without cloning, no edge leaves
    # it. The clone id it happens to equal must not make it a jump.
    code = layout(
        {
            0x00: asm("PUSH1 0x20", "PUSH1 0x30", "JUMP"),
            0x20: asm("JUMPDEST", "PUSH1 0x28", "PUSH1 0x30", "JUMP"),
            0x28: asm("JUMPDEST", "PUSH2 0x40", "JUMP"),
            0x30: asm("JUMPDEST", "JUMP"),
        }
    )
    trace = concrete_execute(extract_blocks(code))
    assert (trace.visits[-1], trace.halted) == (0x28, "invalid")
    plain = run_pipeline(code, RunConfig(cloning=False))
    assert not {succ for bid, succ in plain.analysis.edge_pairs() if bid == 0x28}

    res = run_pipeline(code)
    assert [(i.push_pc, i.clone_id) for i in res.clones] == [(0x2, 0x40), (0x23, 0x50)]
    edges = res.analysis.edge_pairs()
    assert {(0x0, 0x40), (0x20, 0x50)} <= edges
    assert not {succ for bid, succ in edges if bid == 0x28}
    assert res.summaries[0x28].local_jump_target is None
    assert "0x2c: JUMP v29\n" in render_tac(res.tac)


def test_a_data_constant_equal_to_a_clone_id_is_no_call_continuation():
    # As above, but block 0x28 calls 0x20 and leaves PUSH2 0x40 behind: once
    # 0x30 is cloned to 0x40 that data constant must not read as a pushed
    # return address.
    code = layout(
        {
            0x00: asm("PUSH1 0x20", "PUSH1 0x30", "JUMP"),
            0x20: asm("JUMPDEST", "PUSH1 0x28", "PUSH1 0x30", "JUMP"),
            0x28: asm("JUMPDEST", "PUSH2 0x40", "PUSH1 0x20", "JUMP"),
            0x30: asm("JUMPDEST", "JUMP"),
        }
    )
    res = run_pipeline(code)
    assert [i.clone_id for i in res.clones] == [0x40, 0x50]
    assert res.summaries[0x28].local_jump_target == 0x20
    assert not {c for c in res.patterns.private_call_candidates if c[0] == 0x28}
