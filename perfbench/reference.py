"""A fixed pure-Python routine that measures how fast the host runs now.

The host this benchmark was built on runs the same code up to 1.6 times
slower for spells of seconds to minutes, with no CPU time stolen that a
process could see.  The runner times this routine at every window
boundary and scales the window's op times by REFERENCE_MS / (its time),
so figures read as if the host ran at one fixed speed.

The routine shares no code with larmour, so a change to the program
cannot move it.  It does what the program's hot paths do in pure
Python: a schoolbook convolution mod p, a product of packed big
integers, struct unpacking, and small objects with slots.  The garbage
collector is off while it runs, so a large heap left by the program does
not slow it.
"""

from __future__ import annotations

import gc
import struct
import time

# the routine's time, in ms, at the host speed that figures are scaled to:
# its time in the slow spells of the 2-core host the benchmark was built on
REFERENCE_MS = 14.0
_P = 8191
_A = [(i * 7919 + 13) % _P for i in range(48)]
_B = [(i * 104729 + 7) % _P for i in range(48)]


class _Cell:
    __slots__ = ("k", "v", "w")

    def __init__(self, k, v):
        self.k, self.v, self.w = k, v, [v, k]

    def total(self):
        return self.v + self.w[1]


def _routine(rounds: int) -> int:
    acc = 0
    for _ in range(rounds):
        out = [0] * 55
        for i, ai in enumerate(_A):
            for j, bj in enumerate(_B[:8]):
                out[i + j] += ai * bj
        out = [x % _P for x in out]
        n1 = int.from_bytes(b"".join(x.to_bytes(8, "little") for x in _A), "little")
        n2 = int.from_bytes(b"".join(x.to_bytes(8, "little") for x in _B), "little")
        vals = struct.unpack_from("<95Q", (n1 * n2).to_bytes(96 * 8, "little"))
        acc += sum(v % _P for v in vals) + out[3]
        cells = [_Cell(i, out[i]) for i in range(0, 55, 2)]
        acc += sum(c.total() for c in cells) + len({c.k: c for c in cells})
    return acc


def reference_ms() -> float:
    """Milliseconds the routine takes now: the median of three timings."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            _routine(96)
            times.append((time.perf_counter() - start) * 1e3)
        return sorted(times)[1]
    finally:
        if enabled:
            gc.enable()
