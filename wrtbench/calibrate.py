"""Calibrated timing: host seconds rescaled by a fixed pure-Python kernel.

The machine this benchmark runs on is shared, and its speed drifts by tens
of percent between (and within) processes.  A fixed reference kernel, timed
in the same process and interleaved with the measured work, slows down with
it, so ``host_seconds / reference_seconds`` is far steadier than either.

Both are timed in CPU seconds of this process (:data:`clock`), not wall
seconds: when the machine's cores are oversubscribed the process is
descheduled, and a short reference timing mostly falls between two
preemptions while a long chunk of work does not, so wall-clock ratios are
biased by up to a third under load.  The work is single-threaded and does
no I/O, so its CPU time is the host time it would take on an idle core.

One *normalised second* is the host time of :data:`KERNELS_PER_SECOND`
reference timings; on the 2-vCPU container the benchmark was tuned on, that
is close to one host second.  A reference timing is the time of
:func:`reference_kernel` plus :data:`WIDE_WEIGHT` times that of
:func:`wide_kernel`.  Both are shaped like the simulator's hot loops
(slotted objects, method calls, dict counters, deque transit buffers and a
heap agenda); the first stays in a few kilobytes, the second walks 16384
cells.  When a neighbour loads the host, the small kernel slows down more
than the simulator and the wide one less (a 33% slowdown moved their
ratios to the simulator by -4% and +10%), and the weighted sum tracks it
within about 1%.  Neither may change: every recorded figure is in their
units.
"""

from __future__ import annotations

import heapq
import statistics
import time
from collections import deque
from typing import List

__all__ = ["KERNELS_PER_SECOND", "WIDE_WEIGHT", "clock", "reference_kernel",
           "wide_kernel", "Calibrator"]

#: the clock every measured chunk is timed with: CPU seconds of the process
clock = time.process_time

#: one normalised second = the host time of this many reference timings
KERNELS_PER_SECOND = 400
#: weight of the wide kernel in a reference timing
WIDE_WEIGHT = 0.2


class _Cell:
    __slots__ = ("key", "queue", "sent", "succ", "alive")

    def __init__(self, key: int) -> None:
        self.key = key
        self.queue: deque = deque()
        self.sent = 0
        self.succ: "_Cell" = self
        self.alive = True

    def head(self):
        return self.queue[0] if self.queue else None


def _ring(size: int = 256) -> List[_Cell]:
    cells = [_Cell(i) for i in range(size)]
    for i, cell in enumerate(cells):
        cell.succ = cells[(i + 1) % size]
    return cells


#: the kernel's cells live for the whole process: allocating them on every
#: call would make the kernel time the C allocator's state, which drifts
#: with whatever the process freed before
_CELLS: List[_Cell] = []


def reference_kernel(steps: int = 1500) -> int:
    """Fixed work: a toy agenda moving items around a ring of cells."""
    if not _CELLS:
        _CELLS.extend(_ring())
    cells = _CELLS
    agenda: list = []
    counters: dict = {}
    seq = 0
    push, pop = heapq.heappush, heapq.heappop
    for i in range(steps):
        cell = cells[(i * 37) & 255]
        cell.queue.append((i, cell.key))
        seq += 1
        push(agenda, (i + (i & 7), seq, cell))
        if len(agenda) > 48:
            _, _, busy = pop(agenda)
            item = busy.head()
            if item is not None:
                busy.queue.popleft()
                busy.sent += 1
                if busy.succ.alive:
                    busy.succ.queue.append(item)
                key = ("sent", busy.key & 15)
                counters[key] = counters.get(key, 0) + 1
    for cell in cells:
        cell.queue.clear()
    return sum(counters.values())


_WIDE: List[_Cell] = []
_PAYLOADS: List[list] = []


def wide_kernel(steps: int = 1500) -> int:
    """The same agenda over 16384 cells visited in a scattered order, with
    list payloads: a working set of megabytes, like a long run's."""
    if not _WIDE:
        _WIDE.extend(_Cell(i) for i in range(16384))
        for i, cell in enumerate(_WIDE):
            cell.succ = _WIDE[(i * 7919 + 1) % 16384]
        _PAYLOADS.extend([j] * 8 for j in range(16384))
    cells = _WIDE
    agenda: list = []
    counters: dict = {}
    seq = 0
    push, pop = heapq.heappush, heapq.heappop
    for i in range(steps):
        cell = cells[(i * 7919) & 16383]
        cell.queue.append(_PAYLOADS[(i * 104729) & 16383])
        seq += 1
        push(agenda, (i + (i & 7), seq, cell))
        if len(agenda) > 48:
            _, _, busy = pop(agenda)
            item = busy.head()
            if item is not None:
                busy.queue.popleft()
                busy.sent += 1
                if busy.succ.alive:
                    busy.succ.queue.append(item)
                key = ("sent", busy.key & 15)
                counters[key] = counters.get(key, 0) + 1
    for cell in cells:
        if cell.queue:
            cell.queue.clear()
    return sum(counters.values())


class Calibrator:
    """Reference-kernel timings interleaved with one repetition's work.

    Call :meth:`tick` between chunks of work and :meth:`add` for each timed
    chunk.  A chunk is normalised by the mean of the two timings around it,
    so a slowdown that comes and goes within a repetition is corrected
    where it happened.
    """

    def __init__(self) -> None:
        if not _WIDE:
            wide_kernel()       # build its cells outside any timing
        self.samples: List[float] = []
        #: the same timings in wall seconds, for the traced run's spans
        self.wall_samples: List[float] = []
        self._chunks: List[tuple] = []

    def tick(self) -> None:
        """Take one reference timing now (call between chunks of work)."""
        wall, start = time.perf_counter(), clock()
        reference_kernel()
        wall_mid, mid = time.perf_counter(), clock()
        wide_kernel()
        self.samples.append(mid - start + WIDE_WEIGHT * (clock() - mid))
        self.wall_samples.append(wall_mid - wall + WIDE_WEIGHT
                                 * (time.perf_counter() - wall_mid))

    def add(self, phase: str, host_seconds: float) -> None:
        """Record a chunk of ``phase`` timed since the latest :meth:`tick`."""
        if not self.samples:
            raise RuntimeError("tick() before the first chunk")
        self._chunks.append((phase, len(self.samples) - 1, host_seconds))

    @property
    def wall_second(self) -> float:
        """Wall seconds per normalised second, over the whole repetition
        (spans are timed with the cheaper wall clock)."""
        if not self.wall_samples:
            raise RuntimeError("no reference timings taken")
        return KERNELS_PER_SECOND * statistics.fmean(self.wall_samples)

    def host(self, phase: str) -> float:
        return sum(s for ph, _, s in self._chunks if ph == phase)

    def normalised(self, phase: str) -> float:
        """Normalised seconds spent in ``phase`` (needs a closing tick)."""
        total = 0.0
        samples = self.samples
        for ph, i, host_seconds in self._chunks:
            if ph == phase:
                if i + 1 >= len(samples):
                    raise RuntimeError("tick() after the last chunk")
                ref = (samples[i] + samples[i + 1]) / 2
                total += host_seconds / (KERNELS_PER_SECOND * ref)
        return total
