"""Concrete reference interpreter.

Executes a decoded program directly over a stack of integers. It exists to
cross-check the static machinery: block summaries are validated against
single-block runs, and enumerate_edges, which runs one valuation per
calldata, gives a ground-truth set of control flow edges for small
programs. Memory, hashing and environment reads, which the static analysis
never reasons about, come from a caller supplied valuation and default to
zero; PC and CODESIZE are read from the code.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from .bytecode import BytecodeProgram
from .opcodes import BY_NAME, STACK_LIMIT, TERM_HALT

WORD = 1 << 256


def _signed(x: int) -> int:
    return x - WORD if x >> 255 else x


class _Halt(Exception):
    def __init__(self, reason: str):
        self.reason = reason


# The storage and env of a valuation that sets none: read-only, so every such
# valuation shares it. _Machine copies storage and only reads env.
_NO_VALUES = MappingProxyType({})


class EnvValuation(NamedTuple):
    """One concrete assignment for everything outside the stack."""

    calldata: bytes = b""
    storage: Mapping[int, int] = _NO_VALUES
    env: Mapping[str, int] = _NO_VALUES


class EnvSets(NamedTuple):
    """The calldatas enumerate_edges runs the program under, one valuation each."""

    calldatas: Sequence[bytes] = (b"",)


class Trace(NamedTuple):
    visits: tuple[int, ...]
    halted: str
    steps: int
    stack: tuple[int, ...] = ()  # top first, at halt


class BlockRun(NamedTuple):
    exit_stack: tuple[int, ...]  # top first
    jump_target: int | None = None
    halted: str | None = None


def _calldataload(calldata: bytes, offset: int) -> int:
    if offset >= len(calldata):
        return 0
    chunk = calldata[offset : offset + 32].ljust(32, b"\x00")
    return int.from_bytes(chunk, "big")


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return 0
    sa, sb = _signed(a), _signed(b)
    q = abs(sa) // abs(sb)
    return (-q if (sa < 0) != (sb < 0) else q) % WORD


def _smod(a: int, b: int) -> int:
    if b == 0:
        return 0
    sa, sb = _signed(a), _signed(b)
    r = abs(sa) % abs(sb)
    return (-r if sa < 0 else r) % WORD


def _signextend(a: int, b: int) -> int:
    if a >= 31:
        return b
    bit = a * 8 + 7
    if b & (1 << bit):
        return b | (WORD - (1 << (bit + 1)))
    return b & ((1 << (bit + 1)) - 1)


def _sar(a: int, b: int) -> int:
    if a >= 256:
        return WORD - 1 if b >> 255 else 0
    return (_signed(b) >> a) % WORD


# The EVM's word arithmetic: each mnemonic maps to a function of its
# operands, top of the stack first, that returns the one word it pushes.
ARITHMETIC: dict[str, Callable[..., int]] = {
    "ADD": lambda a, b: (a + b) % WORD,
    "MUL": lambda a, b: (a * b) % WORD,
    "SUB": lambda a, b: (a - b) % WORD,
    "DIV": lambda a, b: a // b if b else 0,
    "SDIV": _sdiv,
    "MOD": lambda a, b: a % b if b else 0,
    "SMOD": _smod,
    "ADDMOD": lambda a, b, n: (a + b) % n if n else 0,
    "MULMOD": lambda a, b, n: (a * b) % n if n else 0,
    "EXP": lambda a, b: pow(a, b, WORD),
    "SIGNEXTEND": _signextend,
    "LT": lambda a, b: int(a < b),
    "GT": lambda a, b: int(a > b),
    "SLT": lambda a, b: int(_signed(a) < _signed(b)),
    "SGT": lambda a, b: int(_signed(a) > _signed(b)),
    "EQ": lambda a, b: int(a == b),
    "ISZERO": lambda a: int(a == 0),
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "NOT": lambda a: a ^ (WORD - 1),
    "BYTE": lambda a, b: (b >> (8 * (31 - a))) & 0xFF if a < 32 else 0,
    "SHL": lambda a, b: (b << a) % WORD if a < 256 else 0,
    "SHR": lambda a, b: b >> a if a < 256 else 0,
    "SAR": _sar,
}


def binop(opcode: str, *operands: int) -> int:
    """Result of an arithmetic opcode on its operands, popped top first.

    Covers every opcode in ARITHMETIC and raises KeyError for any other.
    Constant folding in the local analysis calls this, and the interpreter
    reads the same table, so both share one copy of the EVM's arithmetic.
    """
    return ARITHMETIC[opcode](*operands)


_HALT_REASON = {
    "STOP": "stop",
    "RETURN": "return",
    "REVERT": "revert",
    "INVALID": "invalid",
    "SELFDESTRUCT": "stop",
}


class _Machine:
    def __init__(self, env: EnvValuation, code_size: int):
        self.stack: list[int] = []  # bottom at index 0
        self.env = env
        self.code_size = code_size
        self.storage = dict(env.storage)

    def push(self, v: int) -> None:
        if len(self.stack) >= STACK_LIMIT:
            raise _Halt("invalid")
        self.stack.append(v)

    def pop(self) -> int:
        if not self.stack:
            raise _Halt("invalid")
        return self.stack.pop()

    def step(self, pc: int, op: str, pushed: int | None, info) -> tuple[str, int | None, int | None]:
        """Run op at pc with its pushed value; returns (kind, jump_target, condition)."""
        if info.is_push:
            self.push(pushed)
        elif info.dup_index:
            if len(self.stack) < info.dup_index:
                raise _Halt("invalid")
            self.push(self.stack[-info.dup_index])
        elif info.swap_index:
            n = info.swap_index
            if len(self.stack) < n + 1:
                raise _Halt("invalid")
            self.stack[-1], self.stack[-n - 1] = self.stack[-n - 1], self.stack[-1]
        elif op == "POP":
            self.pop()
        elif op == "JUMPDEST":
            pass
        elif op == "JUMP":
            return ("jump", self.pop(), None)
        elif op == "JUMPI":
            target = self.pop()
            cond = self.pop()
            return ("jumpi", target, cond)
        elif info.terminator is TERM_HALT:
            for _ in range(info.pops):
                self.pop()
            raise _Halt(_HALT_REASON[op])
        elif op in ARITHMETIC:
            # Operands top first; an underflow pops all the stack holds. The
            # result takes a popped operand's slot, so it cannot overflow.
            stack, n = self.stack, info.pops
            if len(stack) < n:
                stack.clear()
                raise _Halt("invalid")
            fn, pop = ARITHMETIC[op], stack.pop
            word = fn(pop(), pop()) if n == 2 else fn(pop()) if n == 1 else fn(pop(), pop(), pop())
            stack.append(word)
        elif op == "CALLDATALOAD":
            self.push(_calldataload(self.env.calldata, self.pop()))
        elif op == "CALLDATASIZE":
            self.push(len(self.env.calldata))
        elif op == "SLOAD":
            self.push(self.storage.get(self.pop(), 0) % WORD)
        elif op == "SSTORE":
            key = self.pop()
            self.storage[key] = self.pop()
        elif op == "PC":
            self.push(pc)
        elif op == "CODESIZE":
            self.push(self.code_size)
        else:
            # Memory, hashing, and environment reads share one fallback: pop
            # the operands and produce the valuation's value for the opcode.
            for _ in range(info.pops):
                self.pop()
            for _ in range(info.pushes):
                self.push(self.env.env.get(op, 0) % WORD)
        return ("next", None, None)


def concrete_execute(
    program: BytecodeProgram,
    env: EnvValuation | None = None,
    max_steps: int = 10_000,
    entry_block: int = 0,
) -> Trace:
    """Run program's bytecode from entry_block. A jump lands on a jumpdest;
    any other target halts the run as invalid. Clones name no value the
    bytecode computes, so a run never enters one."""
    machine = _Machine(env or EnvValuation(), len(program.code))
    jumpdests = program.jumpdests
    visits: list[int] = []
    steps = 0
    bid = entry_block

    def done(reason: str) -> Trace:
        return Trace(tuple(visits), reason, steps, tuple(reversed(machine.stack)))

    while True:
        block = program.blocks.get(bid)
        if block is None:
            # Falling through past the end of the code halts cleanly; an
            # unknown entry block is a caller error.
            return done("stop" if visits else "invalid")
        visits.append(bid)
        try:
            for pc, op, pushed in block.instructions:
                if steps >= max_steps:
                    return done("out-of-steps")
                steps += 1
                kind, target, cond = machine.step(pc, op, pushed, BY_NAME[op])
                if kind == "jump" or (kind == "jumpi" and cond != 0):
                    if target not in jumpdests:
                        return done("invalid")
                    bid = target
                    break
                if kind == "jumpi":
                    bid = block.fallthrough_pc
                    break
            else:
                bid = block.fallthrough_pc
        except _Halt as halt:
            return done(halt.reason)


def run_block(
    program: BytecodeProgram,
    block_id: int,
    entry_stack: Sequence[int] = (),
    env: EnvValuation | None = None,
) -> BlockRun:
    """Execute a single block from a given entry stack (top first)."""
    machine = _Machine(env or EnvValuation(), len(program.code))
    machine.stack = list(reversed(entry_stack))
    jump_target = None
    try:
        for pc, op, pushed in program.blocks[block_id].instructions:
            kind, target, _cond = machine.step(pc, op, pushed, BY_NAME[op])
            if kind in ("jump", "jumpi"):
                jump_target = target
    except _Halt as halt:
        return BlockRun(tuple(reversed(machine.stack)), halted=halt.reason)
    return BlockRun(tuple(reversed(machine.stack)), jump_target)


def enumerate_edges(
    program: BytecodeProgram,
    env_sets: EnvSets | None = None,
    max_steps: int = 10_000,
) -> frozenset[tuple[int, int]]:
    """Union of consecutive-visit block pairs over one run per calldata,
    each with empty storage and every environment read zero."""
    edges: set[tuple[int, int]] = set()
    for calldata in (env_sets or EnvSets()).calldatas:
        trace = concrete_execute(program, EnvValuation(calldata), max_steps)
        edges.update(zip(trace.visits, trace.visits[1:]))
    return frozenset(edges)
