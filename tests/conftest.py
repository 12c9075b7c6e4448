"""Shared test helpers: a tiny assembler, hand-built programs, generators.

Fixture programs are laid out byte-exactly; the comments on each builder
state the block structure the tests rely on.
"""

from __future__ import annotations

import functools
import importlib.util
import random
import sys
from pathlib import Path

from evmlift.opcodes import BY_NAME

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


# ---------------------------------------------------------------------------
# corpus generators

_ALU2 = ["ADD", "MUL", "SUB", "AND", "OR", "XOR", "LT", "GT", "EQ"]


def _emit_line(a: Assembler, rng: random.Random) -> None:
    choice = rng.randrange(5)
    if choice == 0:
        a.emit(
            f"PUSH1 {rng.randrange(256)}",
            f"PUSH1 {rng.randrange(256)}",
            rng.choice(_ALU2),
            "POP",
        )
    elif choice == 1:
        a.emit(f"PUSH1 {rng.randrange(256)}", "ISZERO", "POP")
    elif choice == 2:
        a.emit(
            f"PUSH1 {rng.choice([0, 32, 64])}",
            "CALLDATALOAD",
            f"PUSH1 {rng.randrange(256)}",
            "AND",
            "POP",
        )
    elif choice == 3:
        a.emit(f"PUSH1 {rng.randrange(8)}", "SLOAD", "POP")
    else:
        a.emit(f"PUSH1 {rng.randrange(256)}", f"PUSH1 {rng.randrange(8)}", "SSTORE")


def gen_sound_program(rng: random.Random) -> bytes:
    """Random terminating program built from call / chained-call /
    stack-balancing / branch templates plus straight-line fillers.

    All jumps go forward (calls return to forward continuations), so every
    concrete run halts; branch conditions read calldata words 0 and 32.
    """
    a = Assembler()
    steps = rng.randint(3, 7)
    helper = rng.choice(["hadd", "hmul"])
    for i in range(steps):
        kind = rng.choices(
            ["line", "branch", "jump", "call", "chained", "balance"],
            weights=[30, 20, 10, 15, 15, 10],
        )[0]
        if kind == "line":
            _emit_line(a, rng)
        elif kind == "branch":
            off = rng.choice([0, 32])
            a.emit(f"PUSH1 {off}", "CALLDATALOAD", f"PUSH2 @taken{i}", "JUMPI")
            _emit_line(a, rng)
            a.emit(f"PUSH2 @next{i}", "JUMP")
            a.label(f"taken{i}")
            a.emit("JUMPDEST")
            _emit_line(a, rng)
            a.label(f"next{i}")
            a.emit("JUMPDEST")
        elif kind == "jump":
            a.emit(f"PUSH2 @next{i}", "JUMP")
            a.label(f"next{i}")
            a.emit("JUMPDEST")
        elif kind == "call":
            a.emit(
                f"PUSH2 @next{i}",
                f"PUSH1 {rng.randrange(256)}",
                f"PUSH1 {rng.randrange(256)}",
                f"PUSH2 @{helper}",
                "JUMP",
            )
            a.label(f"next{i}")
            a.emit("JUMPDEST", "POP")
        elif kind == "chained":
            a.emit(
                f"PUSH2 @next{i}",
                f"PUSH1 {rng.randrange(256)}",
                "PUSH2 @shared",
                f"PUSH1 {rng.randrange(256)}",
                "PUSH2 @shared",
                f"PUSH1 {rng.randrange(256)}",
                f"PUSH1 {rng.randrange(256)}",
                f"PUSH2 @{helper}",
                "JUMP",
            )
            a.label(f"next{i}")
            a.emit("JUMPDEST", "POP")
        else:  # balance
            a.emit(
                f"PUSH2 @next{i}",
                f"PUSH1 {rng.randrange(256)}",
                "PUSH2 @balancer",
                "JUMP",
            )
            a.label(f"next{i}")
            a.emit("JUMPDEST")
    a.emit(*rng.choice([("STOP",), ("PUSH0", "PUSH0", "RETURN"), ("PUSH0", "PUSH0", "REVERT")]))
    # helpers: pop two arguments, leave one result, jump to the continuation
    a.label("hadd")
    a.emit("JUMPDEST", "ADD", "SWAP1", "JUMP")
    a.label("hmul")
    a.emit("JUMPDEST", "MUL", "SWAP1", "JUMP")
    a.label("shared")
    a.emit("JUMPDEST", f"PUSH2 @{helper}", "JUMP")
    a.label("balancer")
    a.emit("JUMPDEST", "POP", "JUMP")
    return a.assemble()


def oracle_calldatas() -> list[bytes]:
    """Calldata set toggling the two branch words used by the generators."""
    zero = bytes(64)
    w0 = bytes(31) + b"\x01" + bytes(32)
    w1 = bytes(63) + b"\x01"
    both = bytes(31) + b"\x01" + bytes(31) + b"\x01"
    return [zero, w0, w1, both]


def gen_deep_program(stages: int, flavors: int = 2, rng: random.Random | None = None) -> bytes:
    """Deep call chain through a shared return dispatcher.

    The entry picks a terminal-block address (the carrier) and calls into
    stage 1; each stage branches between `flavors` call blocks that all push
    the next stage as continuation and jump to the shared dispatcher `d`,
    which immediately returns.  The final block jumps to the carrier, which
    only the caller block at the very start determined.  An rng adds
    stack-neutral filler lines to the entry and stage headers so corpora of
    distinct programs share one call structure.
    """
    assert flavors in (2, 4)
    a = Assembler()

    def filler() -> None:
        if rng is not None:
            for _ in range(rng.randrange(3)):
                _emit_line(a, rng)

    filler()
    a.emit("PUSH1 0x00", "CALLDATALOAD", "PUSH2 @pa", "JUMPI")
    a.emit("PUSH2 @term_b", "PUSH2 @s1", "JUMP")  # carrier caller pb
    a.label("pa")
    a.emit("JUMPDEST", "PUSH2 @term_a", "PUSH2 @s1", "JUMP")
    for i in range(1, stages + 1):
        cont = f"@s{i + 1}"
        a.label(f"s{i}")
        a.emit("JUMPDEST")
        filler()
        a.emit(f"PUSH1 {(2 * i) % 7 * 32}", "CALLDATALOAD", f"PUSH2 @alt{i}", "JUMPI")
        if flavors == 4:
            a.emit(f"PUSH1 {(2 * i + 1) % 7 * 32}", "CALLDATALOAD", f"PUSH2 @mid{i}", "JUMPI")
            a.emit(f"PUSH2 {cont}", "PUSH2 @d", "JUMP")
            a.label(f"mid{i}")
            a.emit("JUMPDEST", f"PUSH2 {cont}", "PUSH2 @d", "JUMP")
            a.label(f"alt{i}")
            a.emit("JUMPDEST", f"PUSH1 {(2 * i + 1) % 7 * 32}", "CALLDATALOAD", f"PUSH2 @alt2{i}", "JUMPI")
            a.emit(f"PUSH2 {cont}", "PUSH2 @d", "JUMP")
            a.label(f"alt2{i}")
            a.emit("JUMPDEST", f"PUSH2 {cont}", "PUSH2 @d", "JUMP")
        else:
            a.emit(f"PUSH2 {cont}", "PUSH2 @d", "JUMP")
            a.label(f"alt{i}")
            a.emit("JUMPDEST", f"PUSH2 {cont}", "PUSH2 @d", "JUMP")
    a.label(f"s{stages + 1}")
    a.emit("JUMPDEST", "JUMP")  # jumps to the carrier
    a.label("d")
    a.emit("JUMPDEST", "JUMP")  # shared return dispatcher
    a.label("term_a")
    a.emit("JUMPDEST", "STOP")
    a.label("term_b")
    a.emit("JUMPDEST", "PUSH0", "PUSH0", "REVERT")
    return a.assemble()


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
