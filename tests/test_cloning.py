"""Block cloning: candidate selection, and clones named by their push pcs."""

from conftest import (
    asm,
    chained_call_code,
    folded_continuation_code,
    layout,
    lifted_edges,
    shared_continuation_code,
    shared_tail_code,
)
from evmlift.bytecode import extract_blocks
from evmlift.cli import SWEEP_CONFIGS
from evmlift.cloning import CloneInstance, apply_cloning, select_clone_candidates
from evmlift.facts import PatternFacts
from evmlift.interpreter import concrete_execute, enumerate_edges, run_block
from evmlift.lifter import render_tac
from evmlift.local import detect_patterns, summarize_program
from evmlift.metrics import MetricsReport
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
    assert cloned.clone_pushes == {0x60: 0x1E0, 0x66: 0x1F0, 0x98: 0x200, 0x9E: 0x210}


def test_apply_cloning_rewrites_no_push():
    prog, facts = _chained()
    cloned, _ = apply_cloning(prog, facts)
    # every original block comes back as the same object, pushes included
    assert all(cloned.blocks[bid] is block for bid, block in prog.blocks.items())
    (pushed,) = [pushed for pc, _opcode, pushed in cloned.blocks[0x58].instructions if pc == 0x60]
    assert pushed == 0x72
    # the clone is named by the push's pc, not by its value
    assert cloned.constants[0x60] == 0x72 and cloned.targets.get(0x60) == 0x1E0
    assert cloned.constants[0x5A] == 0x77 and cloned.targets.get(0x5A) == 0x77


def test_clone_bodies_are_pristine_rebased_copies():
    prog, facts = _chained()
    cloned, _ = apply_cloning(prog, facts)
    original = cloned.blocks[0x72]
    clone = cloned.blocks[0x1F0]
    assert [pc for pc, _opcode, _pushed in clone.instructions] == [0x1F0, 0x1F1, 0x1F4]
    assert [op for _pc, op, _pushed in clone.instructions] == [op for _pc, op, _pushed in original.instructions]
    # the push inside the copy still targets the shared helper
    _pc, _opcode, pushed = clone.instructions[1]
    assert pushed == 0x1C7
    assert clone.terminator == original.terminator


def test_no_candidates_returns_program_unchanged():
    prog = extract_blocks(asm("JUMPDEST", "STOP"))
    out, instances = apply_cloning(prog, PatternFacts())
    assert out is prog and instances == ()


def test_single_push_site_keeps_block_shared():
    # Block 0x0 calls 0x30 with the continuation 0x20, which no other push
    # names, so it stays one block.
    code = layout(
        {
            0x00: asm("PUSH1 0x18", "PUSH1 0x20", "PUSH1 0x30", "JUMP"),
            0x18: asm("JUMPDEST", "STOP"),
            0x20: asm("JUMPDEST", "JUMP"),
            0x30: asm("JUMPDEST", "JUMP"),
        }
    )
    prog = extract_blocks(code)
    facts = detect_patterns(prog, summarize_program(prog))
    assert (0x0, 0x20, 0x2) in facts.private_call_candidates
    assert select_clone_candidates(prog, facts) == {}


def test_clone_id_stride_covers_wide_blocks():
    # Block 0x0 calls 0x40 twice with the continuation 0x10, whose 17-byte
    # span rounds the stride up to 32.
    body = ["SWAP1"] * 15
    code = layout(
        {
            0x00: asm("PUSH1 0x30", "PUSH1 0x10", "PUSH1 0x10", "PUSH1 0x40", "JUMP"),
            0x10: asm("JUMPDEST", *body, "JUMP"),
            0x30: asm("JUMPDEST", "STOP"),
            0x40: asm("JUMPDEST", "JUMP"),
        }
    )
    prog = extract_blocks(code)
    cloned, instances = apply_cloning(prog, detect_patterns(prog, summarize_program(prog)))
    assert [(i.push_pc, i.clone_id) for i in instances] == [(0x2, 0x50), (0x4, 0x70)]
    assert cloned.constants[0x2] == cloned.constants[0x4] == 0x10
    assert cloned.targets.get(0x2) == 0x50
    assert cloned.targets.get(0x4) == 0x70


def test_a_data_constant_equal_to_a_clone_id_names_no_block():
    # shared_continuation_code copies k (0x20) to 0x40 and 0x50. Block 0x18
    # jumps on PUSH1 0x40, which no JUMPDEST holds: a concrete run halts
    # there and, without cloning, no edge leaves it. The clone id it
    # happens to equal must not make it a jump.
    code = shared_continuation_code(asm("JUMPDEST", "PUSH1 0x40", "JUMP"))
    trace = concrete_execute(extract_blocks(code))
    assert (trace.visits[-1], trace.halted) == (0x18, "invalid")
    plain = run_pipeline(code, RunConfig(cloning=False))
    assert not {succ for bid, succ in plain.analysis.edge_pairs() if bid == 0x18}

    res = run_pipeline(code)
    assert [(i.push_pc, i.clone_id) for i in res.clones] == [(0x2, 0x40), (0x13, 0x50)]
    edges = res.analysis.edge_pairs()
    assert {(0x30, 0x40), (0x30, 0x50), (0x50, 0x18)} <= edges
    assert not {succ for bid, succ in edges if bid == 0x18}
    assert res.summaries[0x18].local_jump_target is None
    assert "0x1b: JUMP v19\n" in render_tac(res.tac)
    # The interpreter runs the bytecode only: over the cloned program it
    # never enters a clone, and the lifted path maps back to its walk.
    assert concrete_execute(res.program) == trace
    assert set(zip(trace.visits, trace.visits[1:])) <= lifted_edges(res)


def test_a_data_constant_equal_to_a_clone_id_is_no_call_continuation():
    # As above, but block 0x18 calls f (0x30) and leaves PUSH1 0x40 behind:
    # once k is cloned to 0x40 that data constant must not read as a pushed
    # return address.
    code = shared_continuation_code(asm("JUMPDEST", "PUSH1 0x40", "PUSH1 0x30", "JUMP"))
    res = run_pipeline(code)
    assert [(i.push_pc, i.clone_id) for i in res.clones] == [(0x2, 0x40), (0x13, 0x50)]
    assert {(0x0, 0x40, 0x2), (0x10, 0x50, 0x13)} <= res.patterns.private_call_candidates
    assert res.summaries[0x18].local_jump_target == 0x30
    assert not {c for c in res.patterns.private_call_candidates if c[0] == 0x18}


def test_a_folded_copy_of_a_chosen_push_jumps_to_the_original():
    # The push at 0x2 is chosen for a clone, but only its folded copy (the
    # ADD at 0x7) is jumped on: that jump lands on the original k (0x20),
    # which returns to 0x10, whose call returns through the push at 0x13 to
    # the clone 0x50.
    code = folded_continuation_code()
    oracle = enumerate_edges(extract_blocks(code))
    assert oracle == {(0x0, 0x38), (0x38, 0x20), (0x20, 0x10), (0x10, 0x30), (0x30, 0x20), (0x20, 0x18)}
    res = run_pipeline(code)
    assert [(i.push_pc, i.clone_id) for i in res.clones] == [(0x2, 0x40), (0x13, 0x50)]
    edges = res.analysis.edge_pairs()
    assert edges == {(0x0, 0x38), (0x38, 0x20), (0x20, 0x10), (0x10, 0x30), (0x30, 0x50), (0x50, 0x18)}
    assert lifted_edges(res) == oracle
    assert res.metrics.missing_control_flow == 0


def test_a_cloned_pc_reads_the_original_address():
    # k (0x20) holds a PC at 0x21; each clone runs as k, so the PC at its
    # copy's pc folds to 0x21, the address the bytecode pushes.
    code = layout(
        {
            0x00: asm("PUSH1 0x10", "PUSH1 0x20", "PUSH1 0x30", "JUMP"),
            0x10: asm("JUMPDEST", "PUSH1 0x18", "PUSH1 0x20", "PUSH1 0x30", "JUMP"),
            0x18: asm("JUMPDEST", "STOP"),
            0x20: asm("JUMPDEST", "PC", "SWAP1", "JUMP"),
            0x30: asm("JUMPDEST", "JUMP"),
        }
    )
    res = run_pipeline(code)
    assert res.program.clone_of == {0x40: 0x20, 0x50: 0x20}
    assert [res.program.constants[pc] for pc in (0x21, 0x41, 0x51)] == [0x21, 0x21, 0x21]
    assert run_block(extract_blocks(code), 0x20, entry_stack=(0x10,)) == ((0x21,), 0x10, None)


def test_a_tail_shared_by_calls_with_their_own_continuations_merges_in_a_phi():
    # The shared function exit the paper starts from: two calls pass
    # different continuations to one JUMPDEST POP JUMP block. No continuation
    # is named twice, so nothing is cloned. The tail stays one block whose
    # return address is a PHI of both, and its two successors are a return,
    # not unstructured control flow.
    code = shared_tail_code()
    for name, overrides in SWEEP_CONFIGS:
        res = run_pipeline(code, RunConfig(**overrides))
        assert res.metrics == MetricsReport(0, 0, 0, 0, 0, "fixpoint"), name
        assert res.clones == () and res.program.clone_of == {}, name
        with_phi = [bid for bid, b in res.tac.blocks.items() if any(s.opcode == "PHI" for s in b.statements)]
        assert with_phi == [0x20], name
        tail = res.tac.blocks[0x20]
        assert [s.render() for s in tail.statements] == ["0x20_0x1: v20_1 = PHI v6, v11", "0x22: JUMP v20_1"]
        assert tail.succs == (0x18, 0x1C), name
        assert 0x20 in res.confirmed.private_returns, name
