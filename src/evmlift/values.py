"""Abstract values tracked by the local and global analyses, as plain ints.

Within one program every value is an int:

- a def site, the value the statement at pc produces, is pc itself (>= 0);
- UNDERFLOW, a read below every value any predecessor supplied, is -1;
- entry slot i of a block's own summary (0 is the top) is entry_slot(i),
  that is -2 - i.

An entry slot is only ever read against the entry env of the summary that
names it, so the block needs no encoding. An env is a tuple of slot sets,
and analysis.resolve is the one reader of a value against one: entry slot
i reads env[i], or {UNDERFLOW} past the env's bottom, and a def site reads
itself. Analysis envs hold def sites and UNDERFLOW only: transfer_block
resolves every produced value against the entry env. A statically known constant
(pushes and folded arithmetic) is not part of the value: it lives in the
program's pc -> constant table, BytecodeProgram.constants, and the block a
jump on it lands on in BytecodeProgram.targets. Ints hash and compare in
C, and an exact tuple of them is one the cyclic collector stops visiting.

UNDERFLOW sorts before every def site, so every reader that orders a slot
set for output drops it first.
"""

from __future__ import annotations

AbstractValue = int

UNDERFLOW = -1


def entry_slot(index: int) -> int:
    """The value of entry slot index; applied to that value, the index again."""
    return -2 - index
