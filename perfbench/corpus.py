"""Seeded input programs for the benchmark workloads.

The assembler and the `sound` and `deep` generators are frozen copies of the
test-suite generators, so an edit to the tests cannot change what the
benchmark measures; `dispatch` is the benchmark's own solc-shaped generator.
The opcode bytes are spelled out here rather than read from `evmlift`, so the
corpus depends on nothing the lifter defines. `CORPUS_SHA256` pins the corpus
of the default seed; `run.py` checks it before every timed run.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

MAX_CODE_SIZE = 24576
# The deep and dispatch size series stop at half the code-size limit: at the
# limit a run gets only one or two lifts of the largest programs, too few for
# a steady median (see README.md).
SERIES_MAX_SIZE = MAX_CODE_SIZE // 2
DEFAULT_SEED = 0

SOUND_PROGRAMS = 2000
DEEP_MIN_STAGES = 20
DISPATCH_MIN_FUNCTIONS = 16
SERIES_POINTS = 5

CORPUS_SHA256 = {
    "sound": "232f661063364c261e94737477a1c3cc06de3a012cb4eef46d82d6d2d994c3cc",
    "deep": "065d0be78e5ed6b40dc4bd837cb04e15f40490eb8daf3379290842581781b196",
    "dispatch": "7a71e1a39b2146770811968f607a3eccf55c29ebc326f347f5b22ed85145a85b",
}

_OPCODES = {
    "STOP": 0x00, "ADD": 0x01, "MUL": 0x02, "SUB": 0x03, "LT": 0x10, "GT": 0x11,
    "EQ": 0x14, "ISZERO": 0x15, "AND": 0x16, "OR": 0x17, "XOR": 0x18, "SHR": 0x1C,
    "CALLVALUE": 0x34, "CALLDATALOAD": 0x35, "CALLDATASIZE": 0x36, "POP": 0x50,
    "MSTORE": 0x52, "SLOAD": 0x54, "SSTORE": 0x55, "JUMP": 0x56, "JUMPI": 0x57,
    "JUMPDEST": 0x5B, "PUSH0": 0x5F, "PUSH1": 0x60, "PUSH2": 0x61, "PUSH4": 0x63,
    "DUP1": 0x80, "DUP2": 0x81, "DUP3": 0x82, "SWAP1": 0x90, "SWAP2": 0x91,
    "RETURN": 0xF3, "REVERT": 0xFD,
}
_PUSH_WIDTH = {"PUSH1": 1, "PUSH2": 2, "PUSH4": 4}


@dataclass(frozen=True)
class Program:
    """One benchmark input: bytecode plus the calldatas the oracle runs it on."""

    name: str
    code: bytes
    calldatas: tuple[bytes, ...]


class Assembler:
    """Two-pass assembler with labels; label pushes are always PUSH2."""

    def __init__(self) -> None:
        self._items: list[tuple[str, str]] = []

    def label(self, name: str) -> None:
        self._items.append(("label", name))

    def emit(self, *ops: str) -> None:
        self._items.extend(("op", op) for op in ops)

    def assemble(self) -> bytes:
        addr: dict[str, int] = {}
        pc = 0
        for kind, item in self._items:
            if kind == "label":
                addr[item] = pc
            else:
                pc += 1 + _PUSH_WIDTH.get(item.partition(" ")[0], 0)
        out = bytearray()
        for kind, item in self._items:
            if kind == "label":
                continue
            name, _, arg = item.partition(" ")
            out.append(_OPCODES[name])
            width = _PUSH_WIDTH.get(name, 0)
            if width:
                value = addr[arg[1:]] if arg.startswith("@") else int(arg, 0)
                out += value.to_bytes(width, "big")
            elif arg:
                raise ValueError(f"operand given for {name}: {item!r}")
        return bytes(out)


# ---------------------------------------------------------------------------
# sound: tiny call / chained-call / balancing / branch programs

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


def toggled_words(words: int) -> tuple[bytes, ...]:
    """Calldatas holding 0 or 1 in each of words 0..words-1, every combination."""
    out = []
    for mask in range(1 << words):
        data = bytearray(32 * words)
        for word in range(words):
            data[32 * word + 31] = mask >> word & 1
        out.append(bytes(data))
    return tuple(out)


# ---------------------------------------------------------------------------
# deep: one call chain through a shared return dispatcher, heavy cloning


def gen_deep_program(stages: int, flavors: int = 2, rng: random.Random | None = None) -> bytes:
    """Deep call chain through a shared return dispatcher.

    The entry picks a terminal-block address (the carrier) and calls into
    stage 1; each stage branches between `flavors` call blocks that all push
    the next stage as continuation and jump to the shared dispatcher `d`,
    which immediately returns.  The final block jumps to the carrier, which
    only the caller block at the very start determined.  An rng adds
    stack-neutral filler lines to the entry and stage headers so corpora of
    distinct programs share one call structure.

    Kept byte-identical to the test generator, label clash included: label
    `alt2{i}` is also `alt{j}` for j = int("2" + str(i)) (alt21 for i = 1
    and for i = 21). From 21 stages on the later definition wins, so some
    branches skip ahead to a later stage.
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


# ---------------------------------------------------------------------------
# dispatch: solc-shaped contract, selector dispatcher over N functions

_HELPER_OPS = ["ADD", "MUL", "XOR"]


def gen_dispatch_program(functions: int, rng: random.Random) -> tuple[bytes, tuple[int, ...]]:
    """Selector dispatcher over `functions` public functions.

    The prelude rejects calldata shorter than a selector, then compares
    SHR(0xe0, CALLDATALOAD(0)) against each selector in turn; no match jumps
    to the shared revert tail at the end of the code. Every function guards
    CALLVALUE (reverting through the same tail), calls a shared helper on its
    argument, runs a `for` loop whose body calls a second shared helper and
    whose latch is the only constant backward jump, then returns one word.
    Helpers pop two words, push one and return through the continuation
    below them. Returns the code and the selectors in dispatch order.
    """
    helpers = max(2, functions // 8)
    selectors = tuple(rng.sample(range(1, 1 << 32), functions))
    a = Assembler()
    a.emit("PUSH1 0x80", "PUSH1 0x40", "MSTORE")
    a.emit("PUSH1 0x04", "CALLDATASIZE", "LT", "PUSH2 @revert", "JUMPI")
    a.emit("PUSH0", "CALLDATALOAD", "PUSH1 0xe0", "SHR")
    for i, selector in enumerate(selectors):
        a.emit("DUP1", f"PUSH4 0x{selector:08x}", "EQ", f"PUSH2 @f{i}", "JUMPI")
    a.emit("PUSH2 @revert", "JUMP")
    for i in range(functions):
        first, second = rng.randrange(helpers), rng.randrange(helpers)
        a.label(f"f{i}")
        a.emit("JUMPDEST", "CALLVALUE", "DUP1", "ISZERO", f"PUSH2 @body{i}", "JUMPI")
        a.emit("PUSH2 @revert", "JUMP")
        a.label(f"body{i}")
        # x = helper(calldata argument, constant)
        a.emit("JUMPDEST", "POP", f"PUSH2 @ret{i}", "PUSH1 0x04", "CALLDATALOAD")
        a.emit(f"PUSH1 {rng.randrange(256)}", f"PUSH2 @h{first}", "JUMP")
        a.label(f"ret{i}")
        a.emit("JUMPDEST", "PUSH0")
        # for (j = 0; j < k; j++) x = helper(x, j)
        a.label(f"loop{i}")
        a.emit("JUMPDEST", f"PUSH1 {rng.randint(1, 3)}", "DUP2", "LT", "ISZERO", f"PUSH2 @end{i}", "JUMPI")
        a.emit(f"PUSH2 @latch{i}", "DUP3", "DUP3", f"PUSH2 @h{second}", "JUMP")
        a.label(f"latch{i}")
        a.emit("JUMPDEST", "SWAP2", "POP", "PUSH1 0x01", "ADD", f"PUSH2 @loop{i}", "JUMP")
        a.label(f"end{i}")
        a.emit("JUMPDEST", "POP", "PUSH0", "MSTORE", "PUSH1 0x20", "PUSH0", "RETURN")
    for h in range(helpers):
        a.label(f"h{h}")
        a.emit("JUMPDEST", rng.choice(_HELPER_OPS), "SWAP1", "JUMP")
    a.label("revert")
    a.emit("JUMPDEST", "PUSH0", "DUP1", "REVERT")
    return a.assemble(), selectors


def dispatch_calldatas(selectors: tuple[int, ...], rng: random.Random) -> tuple[bytes, ...]:
    """One call per selector with a random argument, plus empty calldata and
    an unknown selector."""
    known = set(selectors)
    unknown = next(s for s in range(1, 1 << 32) if s not in known)
    calls = [s.to_bytes(4, "big") + rng.randrange(1 << 256).to_bytes(32, "big") for s in selectors]
    return (b"", unknown.to_bytes(4, "big") + bytes(32), *calls)


# ---------------------------------------------------------------------------
# workloads


def _largest_under(make, low: int, limit: int) -> int:
    """Largest n >= low whose make(n) is shorter than limit; make grows with n."""
    high = low * 2
    while len(make(high)) < limit:
        low, high = high, high * 2
    while high - low > 1:
        mid = (low + high) // 2
        if len(make(mid)) < limit:
            low = mid
        else:
            high = mid
    return low


def _size_series(low: int, high: int, points: int) -> list[int]:
    """Geometric series from high down to low.

    Largest first, so that every other program is lifted after the largest
    one has grown the heap, on the first pass as on the later ones.
    """
    sizes = {round(low * (high / low) ** (k / (points - 1))) for k in range(points)}
    return sorted(sizes, reverse=True)


def sound_corpus(seed: int) -> list[Program]:
    rng = random.Random(f"sound-{seed}")
    calldatas = toggled_words(2)
    return [
        Program(f"sound-{i}", gen_sound_program(rng), calldatas) for i in range(SOUND_PROGRAMS)
    ]


def deep_corpus(seed: int) -> list[Program]:
    def make(stages: int) -> bytes:
        return gen_deep_program(stages, 4, random.Random(f"deep-{seed}-{stages}"))

    top = _largest_under(make, DEEP_MIN_STAGES, SERIES_MAX_SIZE)
    calldatas = toggled_words(7)
    return [
        Program(f"deep-{n}", make(n), calldatas)
        for n in _size_series(DEEP_MIN_STAGES, top, SERIES_POINTS)
    ]


def dispatch_corpus(seed: int) -> list[Program]:
    def make(functions: int) -> tuple[bytes, tuple[int, ...]]:
        return gen_dispatch_program(functions, random.Random(f"dispatch-{seed}-{functions}"))

    top = _largest_under(lambda n: make(n)[0], DISPATCH_MIN_FUNCTIONS, SERIES_MAX_SIZE)
    out = []
    for n in _size_series(DISPATCH_MIN_FUNCTIONS, top, SERIES_POINTS):
        code, selectors = make(n)
        calldatas = dispatch_calldatas(selectors, random.Random(f"calldata-{seed}-{n}"))
        out.append(Program(f"dispatch-{n}", code, calldatas))
    return out


CORPORA = {"sound": sound_corpus, "deep": deep_corpus, "dispatch": dispatch_corpus}


def corpus_digest(programs: list[Program]) -> str:
    h = hashlib.sha256()
    for p in programs:
        for part in (p.name.encode(), p.code, *p.calldatas):
            h.update(len(part).to_bytes(4, "big"))
            h.update(part)
    return h.hexdigest()
