"""Host-speed calibration: a fixed pure-Python slice, timed between the
program's own steps.

The hosts this benchmark runs on are shared virtual machines whose speed
drifts by a third and more over minutes: the same fixed loop, timed
repeatedly in one process, takes anywhere from 1.0x to 1.6x its fastest
time, and a run of half a minute cannot average over such phases.  The
program's wall time then says more about the host than about the program.

A :class:`Calibrator` takes a *calibration point* — the median time of
:data:`SLICES_PER_POINT` *slices*, each a fixed, deterministic piece of
interpreter work that touches nothing of the program — at most every
:data:`INTERVAL_S` seconds of program time, at places the caller chooses
(before a scheduler tick, before a protocol ``REDY``).  The program time
between two points is a *segment*; it is scaled by :data:`REFERENCE_SLICE_S`,
the slice's time on the reference host, over the mean of the two points.
The sum of the scaled segments is the program's time at reference speed,
and every time metric but the set-up time is reported at that speed.
Slices are never part of the program time.

A change to the program moves the scaled time as it moves the wall time;
the slices only take out what the host's speed of the moment adds.
"""

from __future__ import annotations

import gc
import time

_clock = time.perf_counter

#: Least program time between two calibration points.
INTERVAL_S = 0.05
#: Slices per calibration point; the point reads their median, so one
#: slice that a wake-up or a preemption slowed does not count.
SLICES_PER_POINT = 3
#: Time of one slice on the reference host (2-vCPU shared VM, Python
#: 3.11.7): points taken inside a running ``paper-days`` round read
#: 1.0-1.1 ms there.
REFERENCE_SLICE_S = 0.001

_TABLE_BITS = 12
_TABLE = None


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y

    def weight(self, mask: int) -> int:
        return (self.x ^ mask) & 0xFFFF | (self.y & 0xFF) << 16


def _table() -> dict:
    global _TABLE
    if _TABLE is None:
        _TABLE = {k: (k * 2654435761) & 0xFFFFFFFF
                  for k in range(1 << _TABLE_BITS)}
    return _TABLE


def work_slice(table: dict) -> int:
    """One slice: dict lookups in the 4k-entry :func:`_table` (small, so
    the benchmark adds no memory a run's ``peak_rss_mb`` would show),
    method calls on small objects, int masks, a small sort — the operations
    the simulator's hot paths are made of.  Deterministic; returns a
    checksum."""
    key = 12345
    acc = 0
    items = []
    for _ in range(600):
        key = (key * 1103515245 + 12345) & 0xFFFF
        value = table[key >> 4]
        point = _Point(value & 0xFFFF, value >> 16)
        acc ^= point.weight(key) << (key & 15)
        items.append((point.y, point.x, key))
    items.sort()
    mask = 0
    for y, x, k in items[::4]:
        mask |= 1 << (k & 255)
        acc += (mask >> (x & 127)) & 0xFF
    return acc ^ mask.bit_count()


class Calibrator:
    """Interleaves calibration points with program time and scales the
    program time."""

    def __init__(self) -> None:
        self.points: list[float] = []  # median slice time of each point
        self.program_s = 0.0      # raw program time, slices excluded
        self.scaled_s = 0.0       # program time at reference speed
        self.slice_s = 0.0        # time spent in slices
        self._mark = None

    def start(self) -> None:
        """Begin timing: one point, then program time runs."""
        self._slice()
        self._mark = _clock()

    def poll(self) -> None:
        """Call between program steps; takes a point when one is due.  The
        first call on a calibrator not started (or stopped) starts it."""
        if self._mark is None:
            self.start()
            return
        now = _clock()
        if now - self._mark < INTERVAL_S:
            return
        self._close(now)

    def stop(self) -> None:
        """End timing with one last point."""
        self._close(_clock())
        self._mark = None

    def _close(self, now: float) -> None:
        segment = now - self._mark
        before = self.points[-1]
        after = self._slice()
        self.program_s += segment
        self.scaled_s += segment * REFERENCE_SLICE_S * 2.0 / (before + after)
        self._mark = _clock()

    def _slice(self) -> float:
        """Take one calibration point; returns its (median) slice time.

        The collector is off meanwhile: a slice frees everything it
        allocates, so with no collection inside it the program's own
        collections fall where they would without calibration, and its
        memory peak does not move with the timing of the points."""
        table = _table()
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(SLICES_PER_POINT):
                start = _clock()
                work_slice(table)
                times.append(_clock() - start)
        finally:
            if enabled:
                gc.enable()
        self.slice_s += sum(times)
        took = sorted(times)[len(times) // 2]
        self.points.append(took)
        return took

    @property
    def factor(self) -> float:
        """Reference-speed time per program second (1.0 on the reference
        host; above 1 on a faster one)."""
        return self.scaled_s / self.program_s if self.program_s else 1.0
