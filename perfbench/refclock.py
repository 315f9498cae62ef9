"""Seconds at a fixed reference speed, measured inside the benchmark process.

The host this benchmark was built on changes speed by up to 2x within
seconds, and process CPU time follows wall time, so neither measures the
program's work steadily. Instead, an interval timer (SIGALRM) fires every
PERIOD seconds and runs a fixed reference kernel. Each stretch of program
time between two probes is scaled by REF_KERNEL_S / (local kernel time):
a stretch that ran while the host was twice as slow counts half. The
probes' own time is left out. The result, "reference seconds", is the
time the program would have taken on a host that runs the kernel in
REF_KERNEL_S seconds.

Timestamps are taken with `mark()` while the program runs and converted
after `stop()`, so nothing is computed inside the timed region beyond the
probes themselves.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time

PERIOD = 0.2
# kernel time on the reference host in its fast phase (2-vCPU Xeon,
# Python 3.11); only a unit, so it never needs re-measuring
REF_KERNEL_S = 0.0080

_FLOATS = [((i * 2654435761) % 1000003) / 7.0 for i in range(6000)]
_BYTES = bytes(range(256)) * 8192  # 2 MiB


def reference_kernel() -> None:
    """Fixed mix of heap, dict and list work plus a C-level pass over memory."""
    heap: list[int] = []
    table: dict[int, int] = {}
    x = 12345
    for i in range(9000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, x)
        table[x & 8191] = table.get(x & 8191, 0) + i
    while heap:
        heapq.heappop(heap)
    sorted(_FLOATS)
    _BYTES.count(b"\x07")


class RefClock:
    """Probe-scaled clock: start(), mark() around work, stop(), then ref_seconds()."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []
        self._busy = False
        self._cum: list[float] = []
        self._scale: list[float] = []
        self._ends: list[float] = []

    @staticmethod
    def mark() -> float:
        return time.perf_counter()

    def probe(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            reference_kernel()
            self.probes.append((t0, time.perf_counter()))
        finally:
            self._busy = False

    def start(self) -> None:
        self.probe()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()
        self._build()

    def _build(self) -> None:
        kernel = [b - a for a, b in self.probes]
        # median of each probe and its neighbours, so one pre-empted probe
        # does not rescale the stretches around it
        local = [statistics.median(kernel[max(i - 1, 0): i + 2]) for i in range(len(kernel))]
        self._ends = [b for _, b in self.probes]
        self._scale = []
        self._cum = [0.0]
        for i in range(len(self.probes) - 1):
            scale = REF_KERNEL_S / ((local[i] + local[i + 1]) / 2.0)
            self._scale.append(scale)
            gap = self.probes[i + 1][0] - self.probes[i][1]
            self._cum.append(self._cum[-1] + gap * scale)
        self._scale.append(self._scale[-1] if self._scale else REF_KERNEL_S / local[-1])

    def to_ref(self, t: float) -> float:
        """Reference seconds from the first probe's end to raw timestamp t."""
        i = max(bisect.bisect_right(self._ends, t) - 1, 0)
        return self._cum[i] + (t - self._ends[i]) * self._scale[i]

    def ref_seconds(self, t0: float, t1: float) -> float:
        return self.to_ref(t1) - self.to_ref(t0)

    def probe_seconds(self, t0: float, t1: float) -> float:
        """Raw time spent in probes between two marks."""
        return sum(min(b, t1) - max(a, t0) for a, b in self.probes if b > t0 and a < t1)

    def kernel_times(self, t0: float = float("-inf"), t1: float = float("inf")) -> list[float]:
        """Kernel time of each probe that started between two marks."""
        return [b - a for a, b in self.probes if t0 <= a < t1]
