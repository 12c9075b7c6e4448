"""The package's frozen records are tuples.

A tuple subclass is built without a setattr per field and hashes and
compares in C, which the fixpoint's slot-set unions and the lifter rely on
for speed, and a NamedTuple class is defined without the import and class
decoration cost of a dataclass. No record has an instance dict: each is
complete when built. The abstract values the records hold are plain ints (see evmlift.values), so a plain tuple of them drops out of
the collector's tracking once scanned. CPython un-tracks only exact tuples,
so the NamedTuple records, tuple subclasses, stay tracked for good. The two
records built once per instruction, Instruction and OpRecord, are read only
by position, so they are exact tuples: a tuple display builds one, and it
drops out of the collector's tracking like any other tuple of ints. The
records a lift builds, once per lift, per block, per statement or per
context, are built with tuple.__new__, without the NamedTuple's
Python-level __new__, which is eval'd Python and costs about three times
as much for a record of ten fields called by keyword. Each is still exactly
its record type, with each field holding a value of its annotated type.
"""

import ast
import collections
import enum
import functools
import gc
import random
import types
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evmlift
from conftest import CORPORA, random_code
from evmlift import analysis, lifter
from evmlift.analysis import AnalysisResult
from evmlift.bytecode import BasicBlock, BytecodeError, BytecodeProgram, Instruction, disassemble, extract_blocks
from evmlift.cloning import apply_cloning
from evmlift.context import Context, Scheme, SchemeConfig
from evmlift.facts import ConfirmedFacts, PatternFacts, confirmed_facts
from evmlift.interpreter import BlockRun
from evmlift.lifter import TACBlock, TACProgram, TACStatement
from evmlift.local import BlockSummary, OpRecord, detect_patterns, summarize_program
from evmlift.metrics import MetricsReport
from evmlift.opcodes import STACK_LIMIT
from evmlift.pipeline import PipelineResult, run_pipeline
from evmlift.preanalysis import PreanalysisOutcome
from evmlift.values import UNDERFLOW, entry_slot

# Every class the package exports, less its enums, its exceptions and its
# aliases of tuple types.
RECORDS = tuple(
    kind
    for kind in map(evmlift.__dict__.get, evmlift.__all__)
    if isinstance(kind, type)
    and typing.get_origin(kind) is None
    and not issubclass(kind, (enum.Enum, Exception))
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
    assert not record.__dictoffset__


def test_records_are_every_exported_class_but_enums_and_exceptions():
    assert AnalysisResult in RECORDS and BlockRun in RECORDS and ConfirmedFacts in RECORDS
    assert Scheme not in RECORDS and BytecodeError not in RECORDS
    assert not {Instruction, OpRecord} & set(RECORDS)


def test_records_never_share_a_default_map():
    first, second = extract_blocks(b""), extract_blocks(b"")
    for field in ("clone_of", "clone_pushes", "constants", "targets"):
        assert getattr(first, field) == {} and getattr(first, field) is not getattr(second, field)


def test_confirmed_facts_compare_by_field_and_compute_private_callers_once():
    def facts():
        return confirmed_facts(private_calls=frozenset({(0x6, 0x30), (0x8, 0x30), (0x8, 0x40)}))

    first = facts()
    assert first == facts() and hash(first) == hash(facts())
    assert first != facts()._replace(private_returns=frozenset({0x30}))
    # the builder computes private_callers, a field like the others
    assert first.private_callers == {0x6, 0x8} and first[-1] is first.private_callers
    assert confirmed_facts().private_callers == frozenset()
    # the record takes every field as given: none has a default
    assert ConfirmedFacts._field_defaults == {}
    with pytest.raises(TypeError):
        ConfirmedFacts(frozenset(), frozenset(), frozenset(), frozenset())


def test_def_site_never_equals_an_entry_slot_of_the_same_ints():
    # Def site pc is pc and entry slot i is -2 - i, so def sites, UNDERFLOW
    # and entry slots fill the disjoint ranges [0, ...), {-1} and (..., -2].
    indices = range(STACK_LIMIT + 2)
    slots = {entry_slot(i) for i in indices}
    assert len(slots) == len(indices)
    assert max(slots) == -2 < UNDERFLOW == -1
    assert slots.isdisjoint(indices) and UNDERFLOW not in slots
    assert all(entry_slot(entry_slot(i)) == i for i in indices)


@pytest.fixture(scope="session")
def slot_values() -> dict[str, set[int]]:
    """The values each corpus's slot sets hold, kept until every corpus has
    run. Session-scoped: the sweep runs this module's checks of a corpus
    among other modules' checks of it."""
    return {}


@pytest.mark.parametrize("sweep", sorted(CORPORA), indirect=True)
def test_slot_sets_hold_only_def_sites_and_underflow(sweep, slot_values):
    # Every exit env a pass built is the transfer of an entry env, and entry
    # envs only grow while transfer_block is monotone, so the transfers of the
    # final entry envs of both passes hold every value a transfer produced,
    # the exit envs of blocks with no successor too.
    seen = slot_values[sweep.corpus] = set()
    for lift in sweep.lifts:
        res = lift.res
        passes = [res.analysis]
        if res.preanalysis is not None and res.preanalysis.result is not res.analysis:
            passes.append(res.preanalysis.result)
        for result in passes:
            for (_ctx, bid), env in result.block_input.items():
                summary = res.summaries[bid]
                if not summary.too_deep:
                    for values in analysis.transfer_block(summary, env):
                        seen.update(values)
    assert all(type(v) is int for v in seen) and min(seen) >= UNDERFLOW
    # Only some corpora underflow, so UNDERFLOW and def sites are looked for
    # across all of them, once the last has run.
    if slot_values.keys() == CORPORA.keys():
        every = set().union(*slot_values.values())
        assert min(every) == UNDERFLOW and max(every) >= 0


def test_records_name_only_def_sites_and_entry_slots():
    # The stack _summarize keeps holds nothing else, so the lifter and
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
    ops = summarize_program(program)[0].ops
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


@functools.cache
def _check(hint) -> typing.Callable[[object, collections.Counter], bool]:
    """A test of whether a value is of type hint, all the way down. It
    counts each record it meets by type, after checking that the record is
    exactly its type and each field holds a value of its annotation."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        members = [_check(arg) for arg in args]
        return lambda value, seen: any(check(value, seen) for check in members)
    if hint is type(None):
        return lambda value, seen: value is None
    if hasattr(hint, "_fields"):
        hints = typing.get_type_hints(hint)
        fields = [_check(hints[name]) for name in hint._fields]

        def record(value, seen):
            seen[hint] += 1
            return type(value) is hint and len(value) == len(fields) and all(
                check(item, seen) for check, item in zip(fields, value)
            )

        return record
    if origin is tuple and args[-1] is not Ellipsis:
        items = [_check(arg) for arg in args]
        return lambda value, seen: (
            type(value) is tuple and len(value) == len(items) and all(check(v, seen) for check, v in zip(items, value))
        )
    if origin is dict:
        key, item = map(_check, args)
        return lambda value, seen: type(value) is dict and all(
            key(k, seen) and item(v, seen) for k, v in value.items()
        )
    if origin in (tuple, set, frozenset):
        item = _check(args[0])
        return lambda value, seen: type(value) is origin and all(item(v, seen) for v in value)
    assert origin is None, hint
    return lambda value, seen: isinstance(value, hint)


# Every record a lift builds with tuple.__new__: once per lift, per block
# or per statement, or per context (merge).
BUILT_WITH_TUPLE_NEW = (
    PipelineResult,
    BytecodeProgram,
    BasicBlock,
    BlockSummary,
    PatternFacts,
    ConfirmedFacts,
    SchemeConfig,
    PreanalysisOutcome,
    AnalysisResult,
    Context,
    TACProgram,
    TACBlock,
    TACStatement,
    MetricsReport,
)


def test_records_built_with_tuple_new_are_exactly_their_type():
    # tuple.__new__ checks neither the arity nor the field types, and a
    # record that equals the record its fields rebuild may still hold two
    # fields swapped: each record must be exactly its type and each field
    # hold a value of its annotated type, down through every record it holds.
    seen: collections.Counter = collections.Counter()
    for corpus in sorted(CORPORA):
        for code in CORPORA[corpus]():
            assert _check(PipelineResult)(run_pipeline(code), seen), (corpus, code.hex())
    assert not [kind.__name__ for kind in BUILT_WITH_TUPLE_NEW if not seen[kind]]


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


def test_no_class_defines_new():
    """Every record takes its fields as built: a NamedTuple's own __new__,
    with defaults only where no two records can share a mutable one."""
    found = []
    for path in sorted(Path(analysis.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                found += [
                    f"{path.name}:{node.lineno} {cls.name}.__new__"
                    for node in cls.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__new__"
                ]
    assert found == []
