"""Concrete reference interpreter.

Executes a decoded program directly over a stack of integers. It exists to
cross-check the static machinery: block summaries are validated against
single-block runs, and enumerated traces give a ground-truth set of control
flow edges for small programs. Environment reads that the static analysis
never reasons about (memory, hashing, external state) come from a caller
supplied valuation and default to zero.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Sequence

from .bytecode import BytecodeProgram
from .opcodes import BY_NAME, STACK_LIMIT, Terminator

WORD = 1 << 256
MAX_VALUATIONS = 10_000


def _signed(x: int) -> int:
    return x - WORD if x >> 255 else x


def _unsigned(x: int) -> int:
    return x % WORD


class _Halt(Exception):
    def __init__(self, reason: str):
        self.reason = reason


class _ValuationFields(NamedTuple):
    calldata: bytes
    storage: dict[int, int]
    env: dict[str, int]


class EnvValuation(_ValuationFields):
    """One concrete assignment for everything outside the stack."""

    __slots__ = ()

    def __new__(
        cls,
        calldata: bytes = b"",
        storage: dict[int, int] | None = None,
        env: dict[str, int] | None = None,
    ) -> EnvValuation:
        # each valuation gets its own empty maps, never one shared default
        return super().__new__(
            cls, calldata, {} if storage is None else storage, {} if env is None else env
        )


class EnvSets(NamedTuple):
    """Candidate values per environment dimension, crossed by enumerate_edges."""

    calldatas: Sequence[bytes] = (b"",)
    storages: Sequence[dict[int, int]] = ({},)
    envs: Sequence[dict[str, int]] = ({},)

    def valuations(self) -> Iterator[EnvValuation]:
        total = len(self.calldatas) * len(self.storages) * len(self.envs)
        if total > MAX_VALUATIONS:
            raise ValueError(f"{total} valuations exceeds cap of {MAX_VALUATIONS}")
        for cd, st, ev in itertools.product(self.calldatas, self.storages, self.envs):
            yield EnvValuation(calldata=cd, storage=dict(st), env=dict(ev))


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


def binop(opcode: str, a: int, b: int = 0) -> int:
    """Result of an arithmetic opcode; a is the top of the stack.

    Covers the two-operand opcodes plus ISZERO, which reads only a. Constant
    folding in the local analysis calls this too, so both share one copy of
    the EVM's arithmetic.
    """
    if opcode == "ISZERO":
        return int(a == 0)
    if opcode == "ADD":
        return (a + b) % WORD
    if opcode == "MUL":
        return (a * b) % WORD
    if opcode == "SUB":
        return (a - b) % WORD
    if opcode == "DIV":
        return 0 if b == 0 else a // b
    if opcode == "SDIV":
        if b == 0:
            return 0
        sa, sb = _signed(a), _signed(b)
        q = abs(sa) // abs(sb)
        return _unsigned(-q if (sa < 0) != (sb < 0) else q)
    if opcode == "MOD":
        return 0 if b == 0 else a % b
    if opcode == "SMOD":
        if b == 0:
            return 0
        sa, sb = _signed(a), _signed(b)
        r = abs(sa) % abs(sb)
        return _unsigned(-r if sa < 0 else r)
    if opcode == "EXP":
        return pow(a, b, WORD)
    if opcode == "SIGNEXTEND":
        if a >= 31:
            return b
        bit = a * 8 + 7
        if b & (1 << bit):
            return b | (WORD - (1 << (bit + 1)))
        return b & ((1 << (bit + 1)) - 1)
    if opcode == "LT":
        return int(a < b)
    if opcode == "GT":
        return int(a > b)
    if opcode == "SLT":
        return int(_signed(a) < _signed(b))
    if opcode == "SGT":
        return int(_signed(a) > _signed(b))
    if opcode == "EQ":
        return int(a == b)
    if opcode == "AND":
        return a & b
    if opcode == "OR":
        return a | b
    if opcode == "XOR":
        return a ^ b
    if opcode == "BYTE":
        return (b >> (8 * (31 - a))) & 0xFF if a < 32 else 0
    if opcode == "SHL":
        return 0 if a >= 256 else (b << a) % WORD
    if opcode == "SHR":
        return 0 if a >= 256 else b >> a
    if opcode == "SAR":
        if a >= 256:
            return WORD - 1 if b >> 255 else 0
        return _unsigned(_signed(b) >> a)
    raise KeyError(opcode)


_BINARY = {
    "ADD", "MUL", "SUB", "DIV", "SDIV", "MOD", "SMOD", "EXP", "SIGNEXTEND",
    "LT", "GT", "SLT", "SGT", "EQ", "AND", "OR", "XOR", "BYTE", "SHL", "SHR", "SAR",
}

_HALT_REASON = {
    "STOP": "stop",
    "RETURN": "return",
    "REVERT": "revert",
    "INVALID": "invalid",
    "SELFDESTRUCT": "stop",
}


class _Machine:
    def __init__(self, env: EnvValuation):
        self.stack: list[int] = []  # bottom at index 0
        self.env = env
        self.storage = dict(env.storage)

    def push(self, v: int) -> None:
        if len(self.stack) >= STACK_LIMIT:
            raise _Halt("invalid")
        self.stack.append(v)

    def pop(self) -> int:
        if not self.stack:
            raise _Halt("invalid")
        return self.stack.pop()

    def step(self, ins, info) -> tuple[str, int | None, int | None]:
        """Run one instruction; returns (kind, jump_target, condition)."""
        op = ins.opcode
        if info.is_push:
            self.push(ins.pushed_value)
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
        elif info.terminator is Terminator.HALT:
            for _ in range(info.pops):
                self.pop()
            raise _Halt(_HALT_REASON.get(op, "invalid"))
        elif op in _BINARY:
            a = self.pop()
            b = self.pop()
            self.push(binop(op, a, b))
        elif op == "ISZERO":
            self.push(binop(op, self.pop()))
        elif op == "NOT":
            self.push(self.pop() ^ (WORD - 1))
        elif op == "ADDMOD":
            a, b, n = self.pop(), self.pop(), self.pop()
            self.push((a + b) % n if n else 0)
        elif op == "MULMOD":
            a, b, n = self.pop(), self.pop(), self.pop()
            self.push((a * b) % n if n else 0)
        elif op == "CALLDATALOAD":
            self.push(_calldataload(self.env.calldata, self.pop()))
        elif op == "CALLDATASIZE":
            self.push(len(self.env.calldata))
        elif op == "SLOAD":
            self.push(self.storage.get(self.pop(), 0) % WORD)
        elif op == "SSTORE":
            key = self.pop()
            self.storage[key] = self.pop()
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
    machine = _Machine(env or EnvValuation())
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
            for ins in block.instructions:
                if steps >= max_steps:
                    return done("out-of-steps")
                steps += 1
                kind, target, cond = machine.step(ins, BY_NAME[ins.opcode])
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
    machine = _Machine(env or EnvValuation())
    machine.stack = list(reversed(entry_stack))
    jump_target = None
    try:
        for ins in program.blocks[block_id].instructions:
            kind, target, _cond = machine.step(ins, BY_NAME[ins.opcode])
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
    """Union of consecutive-visit block pairs over every valuation."""
    edges: set[tuple[int, int]] = set()
    for env in (env_sets or EnvSets()).valuations():
        trace = concrete_execute(program, env, max_steps)
        edges.update(zip(trace.visits, trace.visits[1:]))
    return frozenset(edges)
