"""Timings at reference speed, so a shared host's changing speed cancels out.

On a shared virtual machine the CPU this benchmark runs on goes faster and
slower by 20% and at times by half over seconds to minutes, as other
tenants' load comes and goes; a fixed pure-Python loop measured 4.2 ms in
one process and 6.0 ms in the next. A run's raw timings move with it,
whatever the program does.

So between operations the load-generating thread runs a fixed slice of
interpreter work, `reference_work`, and times it on its own thread CPU clock:
other threads of the program holding the interpreter lock do not lengthen
it, a slower host does. Every timing is then reported at reference speed:

    reported = measured * REFERENCE_MS / (median time of the NEAREST slices)

that is, as it would read on a host where one slice takes REFERENCE_MS. A
change that makes the program do more or wait longer moves the reported
timing as much as the measured one; a host that is 20% slower for a minute
does not. Raw timings are reported beside them.

The correction is close, not exact: code that touches more memory speeds up
and slows down more than the slice does (the query workload's cache misses),
so some spread from the host remains.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_MS = 1.0  # reported timings are those of a host where a slice takes this long
SHARE = 0.03  # share of the load thread's wall time spent on slices while measuring
NEAREST = 48  # slices that give a timing its speed: those during it, then the nearest before and after
CALIBRATE = 20  # slices taken before and after a timed stretch


_KEYS = tuple(f"prop-{i}" for i in range(23))
_TABLE = tuple((i * 0x9E3779B1) & 0xFFFFFFFF for i in range(256))
_DATA = bytes(range(256))


def reference_work(rounds: int = 19) -> int:
    """Fixed interpreter work of the kind the program does, a table-driven
    checksum loop and string-keyed dict updates, that allocates nothing
    lasting, so it runs alike whatever the state of the program's heap."""
    counts = dict.fromkeys(_KEYS, 0)
    crc = 0xFFFFFFFF
    for _ in range(rounds):
        for byte in _DATA:
            crc = (crc >> 8) ^ _TABLE[(crc ^ byte) & 0xFF]
        for key in _KEYS:
            counts[key] += crc & 7
    return crc + sum(counts.values())


class Speed:
    """Slices of reference work taken during a run, and the speed they give."""

    def __init__(self):
        self.at: list[int] = []  # perf_counter_ns when each slice started
        self.slice_ms: list[float] = []  # its thread CPU time
        self._spent = 0  # wall time spent on slices since `start`
        self._t0: int | None = None

    def take(self) -> None:
        wall = time.perf_counter_ns()
        cpu = time.thread_time_ns()
        reference_work()
        cpu = time.thread_time_ns() - cpu
        self.at.append(wall)
        self.slice_ms.append(cpu / 1e6)
        self._spent += time.perf_counter_ns() - wall

    def calibrate(self, n: int = CALIBRATE) -> None:
        for _ in range(n):
            self.take()

    def start(self) -> None:
        self._t0 = time.perf_counter_ns()
        self._spent = 0

    def tick(self) -> None:
        """Between operations: take slices until they have had SHARE of the
        wall time since `start`."""
        if self._t0 is None:
            return
        while self._spent < SHARE * (time.perf_counter_ns() - self._t0):
            self.take()

    def factor(self, start_ns: int, end_ns: int | None = None) -> float:
        """REFERENCE_MS over the median time of the slices taken during an
        interval and, up to NEAREST in all, of those just before and after
        it, half on each side where there are enough; 1.0 without slices."""
        if not self.at:
            return 1.0
        end_ns = start_ns if end_ns is None else end_ns
        lo = bisect.bisect_left(self.at, start_ns)
        hi = bisect.bisect_right(self.at, end_ns)
        need = max(0, NEAREST - (hi - lo))
        after = min(len(self.at) - hi, need - min(lo, need // 2))
        before = min(lo, need - after)
        return REFERENCE_MS / statistics.median(self.slice_ms[lo - before:hi + after])

    def scale(self, ns: int, start_ns: int, end_ns: int | None = None) -> float:
        """A duration measured over an interval, at reference speed (ns)."""
        return ns * self.factor(start_ns, end_ns)

    def summary(self) -> dict:
        if not self.slice_ms:
            return {"slices": 0}
        return {
            "slices": len(self.slice_ms),
            "slice_ms.p50": statistics.median(self.slice_ms),
            "slice_ms.min": min(self.slice_ms),
            "slice_ms.max": max(self.slice_ms),
            "reference_ms": REFERENCE_MS,
            "share_while_measuring": SHARE,
        }
