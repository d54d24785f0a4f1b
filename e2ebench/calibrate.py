"""Machine-speed calibration for host-time metrics.

The sandboxes this benchmark runs in share their hosts: the same replay
runs up to twice as slow during phases that last tens of seconds, and
its CPU time slows with its wall time, so timing CPU does not help.  A
fixed pure-Python kernel, run between slices of the replay, slows in
step with the replay.  :class:`Calibrator` times that kernel every
:data:`INTERVAL_S` of replay and rescales each slice of host time by
``REFERENCE_S / kernel time`` measured around it: the result is host
time at a fixed reference machine speed.

The kernel's code is independent of the simulator, allocates almost
nothing that outlives a call and runs with the garbage collector off,
so the simulator's heap does not enter its timing.  Its working set
(100k small objects reached through a dict in random order) is far
larger than the cache, like the simulator's: a kernel running from a
warm cache slows about twice as much as the replay in a slow phase and
over-corrects.  The worker builds the table before it imports the
simulator and freezes it out of the garbage collector
(:func:`gc.freeze`), so the replay's collections never walk it.
README.md (Noise) shows that calibrated and raw throughput move by the
same ratio when the replay itself is made slower, by CPU work or by
allocation, and that a kernel in a process of its own tracked the
replay worse.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

# Kernel seconds at the reference machine speed.  It sets only the scale
# of calibrated figures.
REFERENCE_S = 0.017
# Replay time between two kernel calls.
INTERVAL_S = 0.5
_NODES = 100_000
_STEPS = 6_000


class _Node:
    def __init__(self, key: int) -> None:
        self.key = key
        self.weight = key * 0.5
        self.tag = str(key)


class Calibrator:
    """Times the kernel between replay slices and rescales host time."""

    def __init__(self) -> None:
        rng = random.Random(7)
        keys = list(range(_NODES))
        rng.shuffle(keys)
        self._table = {key: _Node(key) for key in keys}
        # (call start, call end, kernel seconds) per kernel call
        self._marks: list[tuple[float, float, float]] = []
        self._next = 0.0

    def kernel(self) -> float:
        """Seconds of one kernel call: a random walk over the table."""
        table = self._table
        heap: list = []
        acc = 0.0
        r = 12345
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for step in range(_STEPS):
                r = (r * 1103515245 + 12345) & 0x7FFFFFFF
                node = table[r % _NODES]
                heapq.heappush(heap, (node.weight + step, step, node))
                if len(heap) > 64:
                    acc += heapq.heappop(heap)[0]
                    node.weight += 0.25
                acc += len((step, node.tag))
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    # -- bracketing a replay -------------------------------------------------
    def _mark(self) -> None:
        start = time.perf_counter()
        seconds = self.kernel()
        self._marks.append((start, time.perf_counter(), seconds))

    def begin(self) -> None:
        self._marks.clear()
        self._mark()
        self._next = self._marks[-1][1] + INTERVAL_S

    def tick(self) -> None:
        """Call often during the replay; runs the kernel when it is due."""
        if time.perf_counter() >= self._next:
            self._mark()
            self._next = self._marks[-1][1] + INTERVAL_S

    def end(self) -> tuple[float, float]:
        """(replay seconds without the kernel, at reference speed)."""
        self._mark()
        marks = self._marks
        kernels = [seconds for _start, _end, seconds in marks]
        raw = 0.0
        scaled = 0.0
        for index in range(len(marks) - 1):
            # The slice between two kernel calls, rescaled by the median
            # kernel time of the calls around it (robust to one call hit
            # by an interrupt).
            piece = marks[index + 1][0] - marks[index][1]
            near = sorted(kernels[max(index - 2, 0):index + 4])
            raw += piece
            scaled += piece * REFERENCE_S / near[len(near) // 2]
        return raw, scaled
