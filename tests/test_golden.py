"""Golden output: the TAC and metrics of a fixed corpus, pinned by digest.

A refactor that must not change what the lifter emits keeps these digests.
Each one is a sha256 over the rendered TAC and metrics JSON of every input,
in order, under each of the four standard sweep configurations. A change
that is meant to alter the output updates the digests in the same commit
and says why.
"""

import hashlib
import random

import pytest

import conftest
from evmlift.cli import SWEEP_CONFIGS
from evmlift.lifter import render_tac
from evmlift.pipeline import RunConfig, run_pipeline


FIXTURES = (
    conftest.dispatch_pair_code,
    conftest.inlined_call_code,
    conftest.chained_call_code,
    conftest.never_jumped_code,
    conftest.non_selector_eq_code,
    conftest.important_edges_code,
    conftest.underflow_drop_code,
    conftest.unresolved_operand_code,
    conftest.balancing_example_code,
    conftest.poly_merge_code,
)

CORPORA = {
    "fixtures": lambda: [build() for build in FIXTURES],
    "sound": lambda: [conftest.gen_sound_program(random.Random(seed)) for seed in range(200)],
    "deep": lambda: [conftest.gen_deep_program(8, 4), conftest.gen_deep_program(30, 4)],
    # Backward jumps (loop latches) and confirmed public calls, which no other corpus has.
    "dispatch": lambda: [conftest.gen_dispatch_program(n) for n in (16, 24, 32)],
}

GOLDEN = {
    "fixtures": "b7da9e242dab7f9e18be8de64830c7f000bc85bf9a305e0c0f96bbe6d67c32b9",
    "sound": "93d3187badeac2b43c352d9ea177e93d93a0d357454891f1c11c1b1522fb3141",
    "deep": "6b9cc61cf6b0c93a53df2b911425a5f74608fe41324b3ab04c8aee2fc04642f8",
    "dispatch": "86a162f068426e32644e112f0d3bab84c8cb5845200717ccd63c111f9adc61e8",
}


def output_digest(programs: list[bytes]) -> str:
    digest = hashlib.sha256()
    for code in programs:
        for _name, overrides in SWEEP_CONFIGS:
            res = run_pipeline(code, RunConfig(**overrides))
            digest.update(render_tac(res.tac).encode())
            digest.update(res.metrics.to_json().encode())
    return digest.hexdigest()


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_output_matches_golden_digest(corpus):
    assert output_digest(CORPORA[corpus]()) == GOLDEN[corpus]
