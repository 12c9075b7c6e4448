"""The package's frozen records are tuples.

A tuple subclass is built without a setattr per field and hashes and
compares in C, which the fixpoint's slot-set unions and the lifter rely on
for speed, and a NamedTuple class is defined without the import and class
decoration cost of a dataclass. ConfirmedFacts is a tuple with an instance
dict, so it can cache private_callers. The abstract values the records hold
are plain ints (see evmlift.values), so a plain tuple of them drops out of
the collector's tracking once scanned. CPython un-tracks only exact tuples,
so the NamedTuple records, tuple subclasses, stay tracked for good. The two
records built once per instruction, Instruction and OpRecord, are read only
by position, so they are exact tuples: a tuple display builds one, and it
drops out of the collector's tracking like any other tuple of ints. The
records built once per block or statement are built with tuple.__new__,
without the NamedTuple's Python-level __new__, and are still exactly their
record type.
"""

import ast
import gc
import random
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_code
from evmlift import analysis, lifter
from evmlift.bytecode import BasicBlock, BytecodeProgram, Instruction, disassemble, extract_blocks
from evmlift.cli import SWEEP_CONFIGS
from evmlift.cloning import CloneInstance, apply_cloning
from evmlift.context import SchemeConfig
from evmlift.facts import ConfirmedFacts, PatternFacts
from evmlift.interpreter import BlockRun, EnvSets, EnvValuation, Trace
from evmlift.lifter import TACBlock, TACProgram, TACStatement
from evmlift.local import BlockSummary, OpRecord, detect_patterns, summarize_block, summarize_program
from evmlift.metrics import MetricsReport
from evmlift.opcodes import STACK_LIMIT, Terminator
from evmlift.pipeline import PipelineResult, RunConfig, run_pipeline
from evmlift.preanalysis import PreanalysisOutcome
from evmlift.values import UNDERFLOW, entry_slot
from test_golden import CORPORA

RECORDS = (
    BlockSummary,
    TACStatement,
    TACBlock,
    PatternFacts,
    BasicBlock,
    BytecodeProgram,
    RunConfig,
    PipelineResult,
    PreanalysisOutcome,
    TACProgram,
    SchemeConfig,
    CloneInstance,
    MetricsReport,
    EnvValuation,
    EnvSets,
    Trace,
    BlockRun,
)


# Aliases of an exact tuple type: a record of either is a tuple itself.
TUPLE_ALIASES = {"Instruction": Instruction, "OpRecord": OpRecord}


@pytest.mark.parametrize(
    "record",
    [*RECORDS, *(pytest.param(alias, id=name) for name, alias in TUPLE_ALIASES.items())],
    ids=lambda record: record.__name__,
)
def test_record_is_a_tuple_that_hashes_and_compares_as_one(record):
    record = typing.get_origin(record) or record
    assert issubclass(record, tuple)
    assert record.__hash__ is tuple.__hash__
    assert record.__eq__ is tuple.__eq__
    # no per-instance __dict__: an exact tuple has none to give up
    assert record is tuple or record.__slots__ == ()


def test_records_never_share_a_default_map():
    first, second = BytecodeProgram(b"", {}, frozenset()), BytecodeProgram(b"", {}, frozenset())
    assert first.clone_of == {} and first.clone_of is not second.clone_of
    assert first.clone_pushes == {} and first.clone_pushes is not second.clone_pushes
    assert first.constants == {} and first.constants is not second.constants
    assert first.targets == {} and first.targets is not second.targets
    assert EnvValuation().storage == {} and EnvValuation().storage is not EnvValuation().storage
    assert EnvValuation().env == {} and EnvValuation().env is not EnvValuation().env


def test_confirmed_facts_compare_by_field_and_compute_private_callers_once():
    def facts():
        return ConfirmedFacts(private_calls=frozenset({(0x6, 0x30), (0x8, 0x30), (0x8, 0x40)}))

    first = facts()
    assert first == facts() and hash(first) == hash(facts())
    assert first != facts()._replace(private_returns=frozenset({0x30}))
    callers = first.private_callers
    assert callers == {0x6, 0x8}
    assert first.private_callers is callers
    by_continuation = first.callers_of
    assert by_continuation == {0x30: {0x6, 0x8}, 0x40: {0x8}}
    assert first.callers_of is by_continuation


def test_def_site_never_equals_an_entry_slot_of_the_same_ints():
    # Def site pc is pc and entry slot i is -2 - i, so def sites, UNDERFLOW
    # and entry slots fill the disjoint ranges [0, ...), {-1} and (..., -2].
    indices = range(STACK_LIMIT + 2)
    slots = {entry_slot(i) for i in indices}
    assert len(slots) == len(indices)
    assert max(slots) == -2 < UNDERFLOW == -1
    assert slots.isdisjoint(indices) and UNDERFLOW not in slots
    assert all(entry_slot(entry_slot(i)) == i for i in indices)


def test_slot_sets_hold_only_def_sites_and_underflow(monkeypatch):
    seen: set[int] = set()
    real = analysis.transfer_block

    def spy(summary, input_env):
        out = real(summary, input_env)
        for values in out:
            seen.update(values)
        return out

    monkeypatch.setattr(analysis, "transfer_block", spy)
    for corpus in sorted(CORPORA):
        for code in CORPORA[corpus]():
            for _name, overrides in SWEEP_CONFIGS:
                run_pipeline(code, RunConfig(**overrides))
    assert all(type(v) is int for v in seen)
    assert min(seen) == UNDERFLOW and max(seen) >= 0


def test_records_name_only_def_sites_and_entry_slots():
    # The stack summarize_block keeps holds nothing else, so the lifter and
    # the resolver need no fallback for any other value: a def site is the
    # pc of one of the block's own instructions, and an entry slot one the
    # block consumed. A run's summaries depend only on whether it cloned, so
    # the summaries of the cloned program, which keep every original
    # block's, cover all four sweep configs.
    sites = slots = 0
    for corpus in sorted(CORPORA):
        for code in CORPORA[corpus]():
            program = extract_blocks(code)
            summaries = summarize_program(program)
            cloned, _clones = apply_cloning(program, detect_patterns(program, summaries))
            for bid, summary in summarize_program(cloned, summaries).items():
                pcs = {pc for pc, _opcode, _pushed in cloned.blocks[bid].instructions}
                named = [summary.target_expr, summary.cond_expr, *summary.produced]
                named += [v for _pc, _opcode, operands, _result in summary.ops for v in operands]
                for v in named:
                    if v is None:
                        continue
                    assert type(v) is int and v != UNDERFLOW
                    if v < UNDERFLOW:
                        assert entry_slot(v) < summary.consumed_depth
                        slots += 1
                    else:
                        assert v in pcs
                        sites += 1
    assert sites and slots


def test_a_lift_leaves_its_value_tuples_untracked():
    # Tuples of ints drop out of the collector's tracking once it has
    # scanned them, so a lift's summaries add nothing to later collections.
    # So do the per-instruction records, exact tuples of ints, strs, None
    # and such tuples.
    results = [run_pipeline(code) for code in CORPORA["deep"]()]
    gc.collect()
    tuples = [
        values
        for res in results
        for summary in res.summaries.values()
        for values in (summary.produced, *(operands for _pc, _opcode, operands, _result in summary.ops))
        if values
    ]
    assert tuples
    assert not [values for values in tuples if gc.is_tracked(values)]
    instructions = [ins for res in results for block in res.program.blocks.values() for ins in block.instructions]
    ops = [rec for res in results for summary in res.summaries.values() for rec in summary.ops]
    assert instructions and ops
    assert all(type(rec) is tuple for rec in instructions + ops)
    assert not [rec for rec in instructions + ops if gc.is_tracked(rec)]
    # The records that hold them are tuple subclasses, which stay tracked.
    assert all(gc.is_tracked(summary) for res in results for summary in res.summaries.values())
    assert all(gc.is_tracked(block) for res in results for block in res.program.blocks.values())


def test_instruction_and_op_record_layouts():
    # (pc, opcode, pushed_value) and (pc, opcode, operands top first, result)
    program = extract_blocks(bytes.fromhex("600156"))
    instructions = disassemble(program.code)
    ops = summarize_block(program.blocks[0], program).ops
    assert instructions == [(0, "PUSH1", 1), (2, "JUMP", None)]
    assert ops == ((0, "PUSH1", (), 0), (2, "JUMP", (0,), None))
    assert all(type(rec) is tuple for rec in (*instructions, *ops))


def test_a_lift_leaves_no_reference_cycles():
    # Reference counting alone frees what a lift makes: with the collector
    # off, a collection afterwards finds no cyclic garbage to save.
    codes = [code for corpus in ("fixtures", "deep", "dispatch", "recursion") for code in CORPORA[corpus]()]
    codes += CORPORA["sound"]()[:50]
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for code in codes:
            res = run_pipeline(code)
            lifter.render_tac(res.tac)
            res.metrics.to_json()
        del res
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert garbage == []


def test_records_built_with_tuple_new_are_exactly_their_type():
    # extract_blocks, summarize_block and the lifter build these records
    # with tuple.__new__, which checks neither the arity nor the type: each
    # must still be its record type and equal the record its fields rebuild.
    records = {BasicBlock: 0, BlockSummary: 0, TACStatement: 0, TACBlock: 0}
    for corpus in sorted(CORPORA):
        for code in CORPORA[corpus]():
            res = run_pipeline(code)
            built = [
                *res.program.blocks.values(),
                *res.summaries.values(),
                *res.tac.blocks.values(),
                *(stmt for block in res.tac.blocks.values() for stmt in block.statements),
            ]
            for record in built:
                kind = type(record)
                assert kind in records and record == kind(*record), (corpus, record)
                records[kind] += 1
    assert all(records.values()), records


@given(seed=st.integers(0, 2**32 - 1), jump_biased=st.booleans())
@settings(deadline=None, max_examples=60)
def test_a_block_that_consumes_no_entry_slot_reads_none(seed, jump_biased):
    # The lifter walks no entry slot for such a block, so none may be read.
    program = extract_blocks(random_code(random.Random(seed), jump_biased))
    for summary in summarize_program(program).values():
        read = summary.read_slots()
        assert all(slot < summary.consumed_depth for slot in read)
        if summary.consumed_depth == 0:
            assert read == frozenset()


def test_no_function_reads_a_terminator_member_as_an_attribute():
    """Every function compares against the module-level names in opcodes.

    The Enum metaclass defines __getattr__, so on CPython 3.11 a read of
    Terminator.JUMP takes the slow attribute hook: 101 ns against 8 ns for a
    module-level name such as opcodes.TERM_JUMP, paid once per block in the
    fixpoint's plan, the pattern walk, the lifter and the metrics. Reads at
    module level, which run once at import, stay allowed.
    """
    members = set(Terminator.__members__)
    found = set()  # a nested function's reads are walked with its parent's too
    for path in sorted(Path(analysis.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "Terminator"
                    and node.attr in members
                ):
                    found.add(f"{path.name}:{node.lineno} Terminator.{node.attr}")
    assert sorted(found) == []
