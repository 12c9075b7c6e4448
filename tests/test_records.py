"""The package's frozen records are tuples.

A tuple subclass is built without a setattr per field and hashes and
compares in C, which the fixpoint's slot-set unions and the lifter rely on
for speed, and a NamedTuple class is defined without the import and class
decoration cost of a dataclass. ConfirmedFacts is a tuple with an instance
dict, so it can cache private_callers. EntrySlot is deliberately not a
tuple, and UNDERFLOW is a single instance the lifter tests by identity.
"""

import copy
import pickle

import pytest

from evmlift import analysis, lifter
from evmlift.bytecode import BasicBlock, BytecodeProgram, Instruction, extract_blocks
from evmlift.cli import SWEEP_CONFIGS
from evmlift.cloning import CloneInstance, apply_cloning
from evmlift.context import SchemeConfig
from evmlift.facts import ConfirmedFacts, PatternFacts
from evmlift.interpreter import BlockRun, EnvSets, EnvValuation, Trace
from evmlift.lifter import TACBlock, TACProgram, TACStatement
from evmlift.local import BlockSummary, OpRecord, detect_patterns, summarize_program
from evmlift.metrics import MetricsReport
from evmlift.pipeline import PipelineResult, RunConfig, run_pipeline
from evmlift.preanalysis import PreanalysisOutcome
from evmlift.values import UNDERFLOW, DefSite, EntrySlot, Underflow
from test_golden import CORPORA

RECORDS = (
    DefSite,
    Instruction,
    OpRecord,
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


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_record_is_a_tuple_that_hashes_and_compares_as_one(record):
    assert issubclass(record, tuple)
    assert record.__hash__ is tuple.__hash__
    assert record.__eq__ is tuple.__eq__
    assert record.__slots__ == ()  # no per-instance __dict__


def test_records_never_share_a_default_map():
    first, second = BytecodeProgram(b"", {}, frozenset()), BytecodeProgram(b"", {}, frozenset())
    assert first.clone_of == {} and first.clone_of is not second.clone_of
    assert first.clone_pushes == {} and first.clone_pushes is not second.clone_pushes
    assert EnvValuation().storage == {} and EnvValuation().storage is not EnvValuation().storage
    assert EnvValuation().env == {} and EnvValuation().env is not EnvValuation().env


def test_confirmed_facts_compare_by_field_and_compute_private_callers_once():
    def facts():
        return ConfirmedFacts(private_calls=frozenset({(0x6, 0x30), (0x8, 0x30)}))

    first = facts()
    assert first == facts() and hash(first) == hash(facts())
    assert first != facts()._replace(private_returns=frozenset({0x30}))
    callers = first.private_callers
    assert callers == {0x6, 0x8}
    assert first.private_callers is callers


def test_def_site_never_equals_an_entry_slot_of_the_same_ints():
    site, slot = DefSite(1, 2), EntrySlot(1, 2)
    assert site != slot and slot != site
    assert len({site, slot}) == 2
    assert slot not in {site} and site not in {slot}
    assert {site: "def"}.get(slot) is None


def test_entry_slot_is_immutable_and_survives_pickles():
    slot = EntrySlot(1, 2)
    with pytest.raises(AttributeError):
        slot.index = 0
    with pytest.raises(AttributeError):
        del slot.block
    assert not hasattr(slot, "__dict__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(slot, protocol)) == slot
    assert copy.deepcopy(slot) == slot == EntrySlot(1, 2) != EntrySlot(2, 1)


def test_underflow_is_one_instance_through_copies_and_pickles():
    assert Underflow() is UNDERFLOW
    assert copy.copy(UNDERFLOW) is UNDERFLOW
    assert copy.deepcopy({0: frozenset({UNDERFLOW})})[0] == frozenset({UNDERFLOW})
    assert copy.deepcopy(UNDERFLOW) is UNDERFLOW
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(UNDERFLOW, protocol)) is UNDERFLOW
    assert UNDERFLOW != DefSite(0) and UNDERFLOW != ()
    with pytest.raises(AttributeError):
        UNDERFLOW.constant = 0  # slotted: holds no state


def test_slot_sets_hold_only_def_sites_and_underflow(monkeypatch):
    seen: set[type] = set()
    real = analysis.transfer_block

    def spy(summary, input_env):
        out = real(summary, input_env)
        seen.update(type(v) for values in out.values() for v in values)
        return out

    monkeypatch.setattr(analysis, "transfer_block", spy)
    monkeypatch.setattr(lifter, "transfer_block", spy)
    for corpus in sorted(CORPORA):
        for code in CORPORA[corpus]():
            for _name, overrides in SWEEP_CONFIGS:
                run_pipeline(code, RunConfig(**overrides))
    assert seen == {DefSite, Underflow}


def test_records_name_only_def_sites_and_entry_slots():
    # The stack summarize_block keeps holds nothing else, so the lifter and
    # the resolver need no fallback for any other value. A run's summaries
    # depend only on whether it cloned, so the summaries of the cloned
    # program, which keep every original block's, cover all four sweep configs.
    seen: set[type] = set()
    for corpus in sorted(CORPORA):
        for code in CORPORA[corpus]():
            program = extract_blocks(code)
            summaries = summarize_program(program)
            cloned, _clones = apply_cloning(program, detect_patterns(program, summaries))
            for summary in summarize_program(cloned, summaries).values():
                named = [summary.target_expr, summary.cond_expr, *summary.produced]
                named += [v for rec in summary.ops for v in rec.operands]
                seen.update(type(v) for v in named if v is not None)
    assert seen == {DefSite, EntrySlot}
