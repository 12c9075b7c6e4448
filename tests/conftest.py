"""Shared test helpers: a tiny assembler, hand-built programs, generators,
the golden corpora and the sweep fixture that lifts each of them once.

Fixture programs are laid out byte-exactly; the comments on each builder
state the block structure the tests rely on.
"""

from __future__ import annotations

import functools
import importlib.util
import random
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from evmlift.cli import SWEEP_CONFIGS
from evmlift.opcodes import BY_NAME
from evmlift.pipeline import PipelineResult, RunConfig, run_pipeline

# Filled by test_acceptance.py, printed at the end of the run.
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# assembler


def asm(*items: str | int) -> bytes:
    """Assemble mnemonics into bytecode.

    Items are raw byte ints or strings like "ADD" / "PUSH2 0x1c7"; push
    immediates are zero-padded to the opcode's width.
    """
    out = bytearray()
    for item in items:
        if isinstance(item, int):
            out.append(item)
            continue
        name, _, arg = item.partition(" ")
        info = BY_NAME[name]
        out.append(info.byte)
        if info.push_width:
            out += int(arg, 0).to_bytes(info.push_width, "big")
        elif arg:
            raise ValueError(f"operand given for {name}: {item!r}")
    return bytes(out)


def layout(segments: dict[int, bytes], fill: int = 0xFE) -> bytes:
    """Place byte chunks at fixed offsets, padding gaps with INVALID."""
    end = max(off + len(chunk) for off, chunk in segments.items())
    out = bytearray([fill]) * end
    seen: set[int] = set()
    for off, chunk in sorted(segments.items()):
        span = range(off, off + len(chunk))
        if seen.intersection(span):
            raise ValueError(f"segment at 0x{off:x} overlaps another")
        seen.update(span)
        out[off : off + len(chunk)] = chunk
    return bytes(out)


class Assembler:
    """Two-pass assembler with labels; label pushes are always PUSH2."""

    def __init__(self) -> None:
        self._items: list[tuple[str, str | int]] = []

    def label(self, name: str) -> None:
        self._items.append(("label", name))

    def emit(self, *ops: str | int) -> None:
        for op in ops:
            self._items.append(("raw", op) if isinstance(op, int) else ("op", op))

    def assemble(self) -> bytes:
        addr: dict[str, int] = {}
        pc = 0
        for kind, item in self._items:
            if kind == "label":
                addr[str(item)] = pc
            elif kind == "raw":
                pc += 1
            else:
                name, _, _arg = str(item).partition(" ")
                pc += BY_NAME[name].size
        out = bytearray()
        for kind, item in self._items:
            if kind == "label":
                continue
            if kind == "raw":
                out.append(int(item))
                continue
            name, _, arg = str(item).partition(" ")
            info = BY_NAME[name]
            out.append(info.byte)
            if info.push_width:
                value = addr[arg[1:]] if arg.startswith("@") else int(arg, 0)
                out += value.to_bytes(info.push_width, "big")
            elif arg:
                raise ValueError(f"operand given for {name}: {item!r}")
        return bytes(out)


# ---------------------------------------------------------------------------
# selector dispatcher shared by the dispatch fixtures
#
# Block 0x0 covers 0x00..0x28: a push/pop prelude sized so the selector load
# lands at 0x1a, then SHR(0xe0, CALLDATALOAD(0)), DUP1, EQ against the first
# selector, JUMPI.  Block 0x29 (fallthrough, no JUMPDEST) checks the second
# selector and falls into the revert block at 0x34.

SELECTOR_ONE = 0x12E49406
SELECTOR_TWO = 0x87D7A5F4


def _dispatcher(first_target: int, second_target: int) -> bytes:
    pad: list[str] = []
    for _ in range(8):
        pad += ["PUSH1 0x00", "POP"]
    return asm(
        "PUSH1 0x00",
        *pad,
        "CALLDATALOAD",  # 0x1a
        "PUSH1 0xe0",
        "SHR",  # 0x1d
        "DUP1",
        f"PUSH4 0x{SELECTOR_ONE:08x}",  # 0x1f
        "EQ",  # 0x24
        f"PUSH2 0x{first_target:04x}",
        "JUMPI",  # 0x28
        "DUP1",  # 0x29
        f"PUSH4 0x{SELECTOR_TWO:08x}",
        "EQ",  # 0x2f
        f"PUSH2 0x{second_target:04x}",
        "JUMPI",  # 0x33
        "PUSH0",  # 0x34 fallback
        "DUP1",
        "REVERT",
    )


def dispatch_pair_code() -> bytes:
    """Two-function dispatcher with trivial bodies at 0x38 and 0x54."""
    return layout(
        {
            0x00: _dispatcher(0x38, 0x54),
            0x38: asm("JUMPDEST", "STOP"),
            0x54: asm("JUMPDEST", "STOP"),
        }
    )


def inlined_call_code() -> bytes:
    """One private call: 0x129 pushes continuation 0x132 and jumps to the
    masking helper at 0x109, which swaps the result under the continuation
    and jumps back."""
    return layout(
        {
            0x000: asm("PUSH1 0xaa", "PUSH1 0xbb", "PUSH2 0x129", "JUMP"),
            0x109: asm("JUMPDEST", f"PUSH20 0x{'ff' * 20}", "AND", "SWAP1", "JUMP"),
            0x129: asm("JUMPDEST", "PUSH2 0x132", "DUP3", "PUSH2 0x109", "JUMP"),
            0x132: asm("JUMPDEST", "STOP"),
        }
    )


def chained_call_code() -> bytes:
    """Chained-call program: two public functions each make three helper
    calls threaded through the shared continuation block 0x72.

    Layout (all offsets load-bearing for the tests):
      0x00/0x29  dispatcher blocks (selectors above)
      0x38, 0x44 public entries jumping to the call blocks
      0x58       first call block: pushes 0x77, 0x72, 0x72 continuations
                 plus calldata/storage arguments, calls helper 0x1c7
      0x72       shared continuation: calls 0x1c7 again
      0x77       final continuation: stores the result, stops
      0x90       second call block, mirror of 0x58, first calls 0x1d0
      0x1c7      add helper, 0x1d0 mul helper (return blocks)
    """
    call_one = asm(
        "JUMPDEST",
        "POP",  # 0x59 drops the selector
        "PUSH2 0x77",  # 0x5a final continuation
        "PUSH1 0x84",
        "CALLDATALOAD",  # 0x5f
        "PUSH2 0x72",  # 0x60 continuation for the third call
        "PUSH1 0x64",
        "CALLDATALOAD",  # 0x65
        "PUSH2 0x72",  # 0x66 continuation for the second call
        "PUSH0",
        "SLOAD",  # 0x6a
        "PUSH1 0x44",
        "CALLDATALOAD",  # 0x6d
        "PUSH2 0x1c7",
        "JUMP",  # 0x71
    )
    call_two = asm(
        "JUMPDEST",
        "POP",
        "PUSH2 0x77",  # 0x92
        "PUSH1 0xc4",
        "CALLDATALOAD",  # 0x97
        "PUSH2 0x72",  # 0x98
        "PUSH1 0xa4",
        "CALLDATALOAD",  # 0x9d
        "PUSH2 0x72",  # 0x9e
        "PUSH0",
        "SLOAD",
        "PUSH1 0x24",
        "CALLDATALOAD",
        "PUSH2 0x1d0",
        "JUMP",  # 0xa9
    )
    return layout(
        {
            0x000: _dispatcher(0x38, 0x44),
            0x038: asm("JUMPDEST", "PUSH2 0x58", "JUMP"),
            0x044: asm("JUMPDEST", "PUSH2 0x90", "JUMP"),
            0x058: call_one,
            0x072: asm("JUMPDEST", "PUSH2 0x1c7", "JUMP"),
            0x077: asm("JUMPDEST", "PUSH0", "SSTORE", "STOP"),
            0x090: call_two,
            0x1C7: asm("JUMPDEST", "ADD", "SWAP1", "JUMP"),
            0x1D0: asm("JUMPDEST", "MUL", "SWAP1", "JUMP"),
        }
    )


def never_jumped_code() -> bytes:
    """Looks like a call (continuation 0x10 left on the stack across the
    jump to 0x08) but the callee pops the continuation, so no return jump
    ever targets it."""
    return layout(
        {
            0x00: asm("PUSH1 0x10", "PUSH1 0x08", "JUMP"),
            0x08: asm("JUMPDEST", "POP", "STOP"),
            0x10: asm("JUMPDEST", "STOP"),
        }
    )


def non_selector_eq_code() -> bytes:
    """EQ-guarded JUMPI whose compared value is raw calldata, not a
    selector extraction."""
    return layout(
        {
            0x00: asm(
                "PUSH1 0x00",
                "CALLDATALOAD",
                "PUSH1 0x05",
                "EQ",
                "PUSH1 0x10",
                "JUMPI",
                "STOP",
            ),
            0x10: asm("JUMPDEST", "STOP"),
        }
    )


def important_edges_code() -> bytes:
    """Two-predecessor constant merge: blocks 0x06 and 0x10 push different
    constants and both jump to 0x18, making the merged slot imprecise at
    exactly those two edges."""
    return layout(
        {
            0x00: asm("PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x10", "JUMPI"),
            0x06: asm("PUSH1 0x02", "PUSH1 0x18", "JUMP"),
            0x10: asm("JUMPDEST", "PUSH1 0x01", "PUSH1 0x18", "JUMP"),
            0x18: asm("JUMPDEST", "POP", "STOP"),
        }
    )


def code_address_merge_code() -> bytes:
    """The merge of important_edges_code with jumpdest addresses for data:
    blocks 0x06 and 0x10 build 0x20 and 0x28 with folded ADDs (so no call
    pattern fires) and both jump to 0x1c, whose entry slot then holds two
    code addresses."""
    return layout(
        {
            0x00: asm("PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x10", "JUMPI"),
            0x06: asm("PUSH1 0x1f", "PUSH1 0x01", "ADD", "PUSH1 0x1c", "JUMP"),
            0x10: asm("JUMPDEST", "PUSH1 0x27", "PUSH1 0x01", "ADD", "PUSH1 0x1c", "JUMP"),
            0x1C: asm("JUMPDEST", "POP", "STOP"),
            0x20: asm("JUMPDEST", "STOP"),
            0x28: asm("JUMPDEST", "STOP"),
        }
    )


def one_address_merge_code() -> bytes:
    """code_address_merge_code with both branches building 0x20: the merged
    slot holds two values, from two ADDs, that carry one jump target."""
    return layout(
        {
            0x00: asm("PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x10", "JUMPI"),
            0x06: asm("PUSH1 0x1f", "PUSH1 0x01", "ADD", "PUSH1 0x1c", "JUMP"),
            0x10: asm("JUMPDEST", "PUSH1 0x1e", "PUSH1 0x02", "ADD", "PUSH1 0x1c", "JUMP"),
            0x1C: asm("JUMPDEST", "POP", "STOP"),
            0x20: asm("JUMPDEST", "STOP"),
        }
    )


def underflow_drop_code() -> bytes:
    """Block 0x10 swaps on an empty stack and still jumps to the constant
    0x18, so 0x18 reads a slot merging a real constant from 0x06 with stack
    underflow and gets dropped from the IR."""
    return layout(
        {
            0x00: asm("PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x10", "JUMPI"),
            0x06: asm("PUSH1 0x2a", "PUSH2 0x18", "JUMP"),
            0x10: asm("JUMPDEST", "SWAP1", "PUSH2 0x18", "JUMP"),
            0x18: asm("JUMPDEST", "ISZERO", "POP", "STOP"),
        }
    )


def unresolved_operand_code() -> bytes:
    """Block 0x08 reads a slot that no predecessor provides."""
    return layout(
        {
            0x00: asm("PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x08", "JUMPI", "STOP"),
            0x08: asm("JUMPDEST", "ISZERO", "POP", "STOP"),
        }
    )


def balancing_example_code() -> bytes:
    """Stack-balancing block shape: only swaps and pops before the jump."""
    return asm("JUMPDEST", "SWAP1", "POP", "SWAP2", "SWAP1", "POP", "JUMP")


def poly_merge_code() -> bytes:
    """Two branches feed different computed return addresses into one join
    block that jumps through them. The addresses are built with folded ADDs
    rather than direct pushes, so no call pattern fires and the join keeps a
    two-valued jump target unless context splitting separates the paths."""
    return layout(
        {
            0x00: asm("PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x18", "JUMPI"),
            0x06: asm(
                "PUSH1 0x2f", "PUSH1 0x01", "ADD", "PUSH1 0x27", "PUSH1 0x01", "ADD", "JUMP"
            ),
            0x18: asm(
                "JUMPDEST",
                "PUSH1 0x37", "PUSH1 0x01", "ADD", "PUSH1 0x27", "PUSH1 0x01", "ADD", "JUMP",
            ),
            0x28: asm("JUMPDEST", "JUMP"),
            0x30: asm("JUMPDEST", "STOP"),
            0x38: asm("JUMPDEST", "STOP"),
        }
    )


def lost_edge_code() -> bytes:
    """A shared return block reached once through a folded copy of its address.

    Block 0x0 pushes the continuation 0x20 and jumps to 0x30 + 0 (a folded
    ADD); 0x20 pushes 0x28 and jumps to 0x30 directly. 0x30 is pushed at
    0x2 and 0x23, but as the block both calls jump to, not as a
    continuation, so cloning leaves it shared. Concrete edges: 0x0->0x30,
    0x30->0x20, 0x20->0x30, 0x30->0x28.
    """
    return layout(
        {
            0x00: asm("PUSH1 0x20", "PUSH1 0x30", "PUSH1 0x00", "ADD", "JUMP"),
            0x20: asm("JUMPDEST", "PUSH1 0x28", "PUSH1 0x30", "JUMP"),
            0x28: asm("JUMPDEST", "STOP"),
            0x30: asm("JUMPDEST", "JUMP"),
        }
    )


def push_as_data_code() -> bytes:
    """A return-block address pushed once as data and twice as a target.

    The return block 0x20 is pushed at 0x0 as the CALLDATALOAD offset that
    picks the branch, and at 0xa and 0x15 as the block the two branches
    jump to, each leaving 0x18 as its return address. 0x18 halts, so
    cloning copies nothing, though two call pushes name it.
    """
    return layout(
        {
            0x00: asm("PUSH1 0x20", "CALLDATALOAD", "PUSH1 0x10", "JUMPI"),
            0x06: asm("PUSH1 0x18", "PUSH1 0x07", "PUSH1 0x20", "JUMP"),
            0x10: asm("JUMPDEST", "PUSH1 0x18", "PUSH1 0x05", "PUSH1 0x20", "JUMP"),
            0x18: asm("JUMPDEST", "STOP"),
            0x20: asm("JUMPDEST", "POP", "JUMP"),
        }
    )


def shared_continuation_code(after: bytes = asm("JUMPDEST", "STOP")) -> bytes:
    """Two private calls that share one continuation.

    Block 0x0 calls f (0x30) with the continuation k (0x20) pushed at 0x2
    and 0x10 under it; block 0x10 calls f with k pushed at 0x13 and 0x18
    under it. f returns to k, and k returns to the address under it. Two
    call pushes name k, so cloning copies it for each: 0x40 for the push
    at 0x2, 0x50 for the one at 0x13. after is the block at 0x18, at most
    8 bytes. Concrete edges: 0x0->0x30, 0x30->0x20, 0x20->0x10,
    0x10->0x30, 0x20->0x18.
    """
    return layout(
        {
            0x00: asm("PUSH1 0x10", "PUSH1 0x20", "PUSH1 0x30", "JUMP"),
            0x10: asm("JUMPDEST", "PUSH1 0x18", "PUSH1 0x20", "PUSH1 0x30", "JUMP"),
            0x18: after,
            0x20: asm("JUMPDEST", "JUMP"),
            0x30: asm("JUMPDEST", "JUMP"),
        }
    )


def folded_continuation_code() -> bytes:
    """shared_continuation_code, but the first call returns through a folded
    copy of its continuation.

    Block 0x0 leaves the push of k (0x20) at 0x2 and, on top of it, its copy
    plus 0 (the ADD at 0x7), and calls g (0x38). g drops the push and jumps
    on the copy, which lands on the original k: only the second call, at
    0x10, returns through its push, to the clone 0x50. Concrete edges:
    0x0->0x38, 0x38->0x20, 0x20->0x10, 0x10->0x30, 0x30->0x20, 0x20->0x18.
    """
    return layout(
        {
            0x00: asm("PUSH1 0x10", "PUSH1 0x20", "DUP1", "PUSH1 0x00", "ADD", "PUSH1 0x38", "JUMP"),
            0x10: asm("JUMPDEST", "PUSH1 0x18", "PUSH1 0x20", "PUSH1 0x30", "JUMP"),
            0x18: asm("JUMPDEST", "STOP"),
            0x20: asm("JUMPDEST", "JUMP"),
            0x30: asm("JUMPDEST", "JUMP"),
            0x38: asm("JUMPDEST", "SWAP1", "POP", "JUMP"),
        }
    )


def shared_tail_code() -> bytes:
    """Two calls with different continuations into one shared tail.

    The branches at 0x6 and 0x10 each push their own return address (0x18,
    0x1c) and an argument, and jump to the tail 0x20, which pops the
    argument and returns: solc's shared swap/pop/jump function exit. No
    continuation is named twice, so nothing is cloned, and the tail's
    return address merges in a PHI.
    """
    return layout(
        {
            0x00: asm("PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x10", "JUMPI"),
            0x06: asm("PUSH1 0x18", "PUSH1 0x07", "PUSH1 0x20", "JUMP"),
            0x10: asm("JUMPDEST", "PUSH1 0x1c", "PUSH1 0x05", "PUSH1 0x20", "JUMP"),
            0x18: asm("JUMPDEST", "STOP"),
            0x1C: asm("JUMPDEST", "STOP"),
            0x20: asm("JUMPDEST", "POP", "JUMP"),
        }
    )


def recursive_call_code() -> bytes:
    """Private recursion: main calls f(calldata[0] & 7) with continuation
    `ret`. f(0) returns 0; f(n) calls f(n - 1) with continuation `after`,
    which adds 1 to the result and returns. Both return blocks (f's base
    case and `after`) jump to `ret` or `after`."""
    a = Assembler()
    a.emit("PUSH2 @ret", "PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x07", "AND", "PUSH2 @f", "JUMP")
    a.label("ret")
    a.emit("JUMPDEST", "PUSH0", "SSTORE", "STOP")
    a.label("f")  # stack: n, return address
    a.emit("JUMPDEST", "DUP1", "PUSH2 @recurse", "JUMPI")
    a.emit("POP", "PUSH0", "SWAP1", "JUMP")
    a.label("recurse")
    a.emit("JUMPDEST", "PUSH2 @after", "SWAP1", "PUSH1 0x01", "SWAP1", "SUB", "PUSH2 @f", "JUMP")
    a.label("after")  # stack: f(n - 1), return address
    a.emit("JUMPDEST", "PUSH1 0x01", "ADD", "SWAP1", "JUMP")
    return a.assemble()


def recursion_calldatas() -> list[bytes]:
    """One calldata per recursion depth f can take, 0 through 7."""
    return [n.to_bytes(32, "big") for n in range(8)]


# Two- and three-function cycles, with and without a fib-shaped member;
# recursive_call_code is direct recursion. Direct fib-shaped recursion
# (seed 4) alone would cost about as much as these four together.
RECURSIVE_SEEDS = (6, 7, 9, 10)


def gen_recursive_program(rng: random.Random) -> bytes:
    """Random private recursion: main calls f0(calldata[0] & 7) with
    continuation `ret`. One to three functions form one cycle, f_i calling
    f_{i+1} (wrapping, so a lone function recurses directly) once or twice
    (twice: fib-shaped) on n - 1. Every call pushes its own return address.
    f(0) returns 0, so every concrete run halts; the calldatas of
    recursion_calldatas reach each depth from 0 to 7."""
    count = rng.randint(1, 3)
    a = Assembler()
    a.emit("PUSH2 @ret", "PUSH1 0x00", "CALLDATALOAD", "PUSH1 0x07", "AND", "PUSH2 @f0", "JUMP")
    a.label("ret")
    a.emit("JUMPDEST", "PUSH0", "SSTORE", "STOP")
    for i in range(count):
        calls = rng.randint(1, 2)
        a.label(f"f{i}")  # stack: n, return address
        a.emit("JUMPDEST", "DUP1", f"PUSH2 @rec{i}", "JUMPI")
        a.emit("POP", "PUSH0", "SWAP1", "JUMP")
        a.label(f"rec{i}")
        a.emit("JUMPDEST")
        if rng.randrange(2):
            _emit_line(a, rng)
        for k in range(calls):
            if k:  # stack: result of the first call, n, return address
                a.label(f"after{i}_0")
                a.emit("JUMPDEST", "SWAP1")
            elif calls == 2:
                a.emit("DUP1")  # keep n for the second call
            # stack: n, ... -> n - 1, continuation, ...
            a.emit(f"PUSH2 @after{i}_{k}", "SWAP1", "PUSH1 0x01", "SWAP1", "SUB", f"PUSH2 @f{(i + 1) % count}", "JUMP")
        a.label(f"after{i}_{calls - 1}")  # stack: result(s), return address
        a.emit("JUMPDEST", *["ADD"] * (calls - 1), "PUSH1 0x01", "ADD", "SWAP1", "JUMP")
    return a.assemble()


# ---------------------------------------------------------------------------
# corpus generators

@functools.cache
def _perfbench_corpus():
    """The benchmark's corpus module, loaded by path (perfbench is not a package)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def gen_dispatch_program(functions: int) -> bytes:
    """The benchmark's frozen `gen_dispatch_program`, seeded `golden-dispatch-N`."""
    code, _selectors = _perfbench_corpus().gen_dispatch_program(
        functions, random.Random(f"golden-dispatch-{functions}")
    )
    return code


def dispatch_calldatas(functions: int) -> list[bytes]:
    """The benchmark's oracle calldatas for gen_dispatch_program(functions): one
    call per selector, empty calldata and an unknown selector."""
    corpus = _perfbench_corpus()
    _code, selectors = corpus.gen_dispatch_program(
        functions, random.Random(f"golden-dispatch-{functions}")
    )
    return list(corpus.dispatch_calldatas(selectors, random.Random(f"golden-calldata-{functions}")))


def toggled_words(words: int) -> list[bytes]:
    """Calldatas holding 0 or 1 in each of the first `words` words, every combination."""
    return list(_perfbench_corpus().toggled_words(words))


# The test suite lifts the benchmark's own generators, so each has one copy.
_emit_line = _perfbench_corpus()._emit_line
gen_sound_program = _perfbench_corpus().gen_sound_program
gen_deep_program = _perfbench_corpus().gen_deep_program
# Calldatas toggling the two branch words gen_sound_program reads.
oracle_calldatas = functools.partial(toggled_words, 2)


def _push_address(a: Assembler, label: str, rng: random.Random) -> None:
    """Leave label's address on the stack: pushed directly, or pushed and
    folded through ADD, ADD then SUB, or AND so the value is the address
    but not the push's own value."""
    how = rng.randrange(4)
    if how == 0:
        a.emit(f"PUSH2 @{label}")
    elif how == 1:
        a.emit("PUSH1 0x00", f"PUSH2 @{label}", "ADD")
    elif how == 2:
        k = rng.randrange(1, 256)
        a.emit(f"PUSH1 {k}", f"PUSH2 @{label}", "ADD", f"PUSH1 {k}", "SWAP1", "SUB")
    else:
        a.emit("PUSH2 0xffff", f"PUSH2 @{label}", "AND")


def gen_folded_program(rng: random.Random) -> bytes:
    """Random terminating program whose shared-block addresses are also data.

    The shared continuation, the stack-balancing block and the helper are
    each pushed as jump targets, directly or through folded ADD/SUB/AND
    (so a push cloning chooses may reach its jump only as a folded value),
    and as plain data: a CALLDATALOAD offset, a stored value, an ADD
    operand. All jumps go forward, so every concrete run halts; branch
    conditions read calldata words 0 and 32.
    """
    a = Assembler()
    for i in range(rng.randint(3, 7)):
        kind = rng.choices(
            ["line", "data", "branch", "balance", "chained"], weights=[15, 25, 15, 20, 25]
        )[0]
        if kind == "line":
            _emit_line(a, rng)
        elif kind == "data":
            label = rng.choice(["shared", "balancer", "helper"])
            use = rng.randrange(3)
            if use == 0:
                a.emit(f"PUSH2 @{label}", "CALLDATALOAD", "POP")
            elif use == 1:
                a.emit(f"PUSH2 @{label}", f"PUSH1 {rng.randrange(8)}", "SSTORE")
            else:
                a.emit(f"PUSH2 @{label}", f"PUSH1 {rng.randrange(256)}", "ADD", "POP")
        elif kind == "branch":
            a.emit(f"PUSH1 {rng.choice([0, 32])}", "CALLDATALOAD", f"PUSH2 @taken{i}", "JUMPI")
            _emit_line(a, rng)
            a.label(f"taken{i}")
            a.emit("JUMPDEST")
        elif kind == "balance":
            a.emit(f"PUSH2 @next{i}", f"PUSH1 {rng.randrange(256)}")
            _push_address(a, "balancer", rng)
            a.emit("JUMP")
            a.label(f"next{i}")
            a.emit("JUMPDEST")
        else:  # chained: helper, then shared twice, then next
            a.emit(f"PUSH2 @next{i}", f"PUSH1 {rng.randrange(256)}")
            _push_address(a, "shared", rng)
            a.emit(f"PUSH1 {rng.randrange(256)}")
            _push_address(a, "shared", rng)
            a.emit(f"PUSH1 {rng.randrange(256)}", f"PUSH1 {rng.randrange(256)}")
            _push_address(a, "helper", rng)
            a.emit("JUMP")
            a.label(f"next{i}")
            a.emit("JUMPDEST", "POP")
    a.emit("STOP")
    a.label("helper")
    a.emit("JUMPDEST", "ADD", "SWAP1", "JUMP")
    a.label("shared")
    a.emit("JUMPDEST", "PUSH2 @helper", "JUMP")
    a.label("balancer")
    a.emit("JUMPDEST", "POP", "JUMP")
    return a.assemble()


def lifted_edges(res) -> set[tuple[int, int]]:
    """A pipeline result's block edges with each clone mapped back to its
    original, comparable with the oracle's edges over the input bytecode."""
    original = res.program.clone_of
    return {(original.get(a, a), original.get(b, b)) for a, b in res.analysis.edge_pairs()}


def analysis_outputs(result) -> tuple:
    """What an analysis run computed; two runs that replay each other agree."""
    return (
        result.block_input,
        result.block_jump_target,
        result.global_block_edge,
        result.fact_count,
        result.transfers,
        result.stop_condition,
    )


def gen_chained_program(rng: random.Random) -> bytes:
    """Sequence of helper calls threaded through one shared continuation,
    the shape block cloning is designed to take apart."""
    k = rng.randint(2, 4)
    a = Assembler()
    a.emit("PUSH2 @final")
    for _ in range(k - 1):
        a.emit(f"PUSH1 {rng.randrange(256)}", "PUSH2 @shared")
    a.emit(
        f"PUSH1 {rng.randrange(256)}",
        f"PUSH1 {rng.randrange(256)}",
        "PUSH2 @helper",
        "JUMP",
    )
    a.label("shared")
    a.emit("JUMPDEST", "PUSH2 @helper", "JUMP")
    a.label("final")
    a.emit("JUMPDEST", "POP", "STOP")
    a.label("helper")
    a.emit("JUMPDEST", rng.choice(["ADD", "MUL", "XOR"]), "SWAP1", "JUMP")
    return a.assemble()


# Jump-heavy byte soup: jumpdests, jumps, stack shuffles and pushes of the
# jumpdests' own offsets, so random inputs reach the global analysis and not
# just decoding. Other bytes are drawn from the non-push opcodes, so every
# byte the generator places is decoded as the instruction it placed.
_JUMPY = (0x5B, 0x56, 0x57, 0x80, 0x81, 0x90, 0x91, 0x50, 0x5F)
_NON_PUSH = tuple(b for b in range(256) if not 0x60 <= b <= 0x7F)


def random_code(rng: random.Random, jump_biased: bool) -> bytes:
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


# ---------------------------------------------------------------------------
# golden corpora, and one sweep over them per test session

GOLDEN_FIXTURES = (
    dispatch_pair_code,
    inlined_call_code,
    chained_call_code,
    never_jumped_code,
    non_selector_eq_code,
    important_edges_code,
    underflow_drop_code,
    unresolved_operand_code,
    balancing_example_code,
    poly_merge_code,
    lost_edge_code,
    push_as_data_code,
)


def _random_corpus() -> list[bytes]:
    rng = random.Random("golden-random")
    return [random_code(rng, True) for _ in range(200)]


# The inputs test_golden pins by digest, built on each call.
CORPORA = {
    "fixtures": lambda: [build() for build in GOLDEN_FIXTURES],
    "sound": lambda: [gen_sound_program(random.Random(seed)) for seed in range(200)],
    "deep": lambda: [gen_deep_program(8, 4), gen_deep_program(30, 4)],
    # Backward jumps (loop latches) and confirmed public calls, which no other corpus has.
    "dispatch": lambda: [gen_dispatch_program(n) for n in (16, 24, 32)],
    # Private recursion, whose call sites no context depth can keep apart.
    "recursion": lambda: [recursive_call_code()]
    + [gen_recursive_program(random.Random(seed)) for seed in RECURSIVE_SEEDS],
    # Jump-heavy byte soup: dropped blocks, "?" operands and calls no
    # generator shapes, which the other corpora rarely reach.
    "random": _random_corpus,
}

# Every sweep config, default first.
SWEEP_RUNS = tuple((name, RunConfig(**overrides)) for name, overrides in SWEEP_CONFIGS)


class Lift(NamedTuple):
    """One golden input lifted under one sweep config."""

    code: bytes
    name: str
    config: RunConfig
    res: PipelineResult


class Sweep(NamedTuple):
    """A golden corpus lifted under every sweep config: each input under
    SWEEP_RUNS in order, inputs in corpus order."""

    corpus: str
    lifts: list[Lift]


@pytest.fixture(scope="session")
def sweep(request) -> Sweep:
    """The golden corpus request.param lifted once per session, for the
    checks that only read what a lift returns. A check takes it with
    @pytest.mark.parametrize("sweep", sorted(CORPORA), indirect=True).
    Being session-scoped, it makes pytest run the checks of one corpus
    together and hold one corpus's lifts at a time. A check that patches a
    function lifts on its own."""
    lifts = [
        Lift(code, name, config, run_pipeline(code, config))
        for code in CORPORA[request.param]()
        for name, config in SWEEP_RUNS
    ]
    return Sweep(request.param, lifts)
