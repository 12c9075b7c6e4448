"""The records built once per instruction, value or statement are tuples.

A tuple subclass is built without a setattr per field and hashes and
compares in C, which the fixpoint's slot-set unions and the lifter rely on
for speed. EntrySlot is deliberately not a tuple, and UNDERFLOW is a single
instance the lifter tests by identity.
"""

import copy
import pickle

import pytest

from evmlift import analysis, lifter
from evmlift.bytecode import Instruction, extract_blocks
from evmlift.cli import SWEEP_CONFIGS
from evmlift.cloning import apply_cloning
from evmlift.lifter import TACBlock, TACStatement
from evmlift.local import BlockSummary, OpRecord, detect_patterns, summarize_program
from evmlift.pipeline import RunConfig, run_pipeline
from evmlift.values import UNDERFLOW, DefSite, EntrySlot, Underflow
from test_golden import CORPORA

RECORDS = (DefSite, Instruction, OpRecord, BlockSummary, TACStatement, TACBlock)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_record_is_a_tuple_that_hashes_and_compares_as_one(record):
    assert issubclass(record, tuple)
    assert record.__hash__ is tuple.__hash__
    assert record.__eq__ is tuple.__eq__
    assert record.__slots__ == ()  # no per-instance __dict__


def test_def_site_never_equals_an_entry_slot_of_the_same_ints():
    site, slot = DefSite(1, 2), EntrySlot(1, 2)
    assert site != slot and slot != site
    assert len({site, slot}) == 2
    assert slot not in {site} and site not in {slot}
    assert {site: "def"}.get(slot) is None


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
