"""Host time in reference-speed seconds.

A shared host (a cloud VM with busy neighbours) switches between fast
and slow periods lasting from a tenth of a second to minutes, so the
same slice can take 30% longer in one run than in the next. A median
over slices cannot remove a slowdown that lasts the whole run. The
:class:`HostClock` removes it instead: while a timed region runs, a
``SIGALRM`` timer runs a fixed pure-Python probe loop every
:data:`PROBE_INTERVAL_S`, and the region's wall time is scaled by
``reference / mean(probe durations)``. A region that ran while the host
was 1.4x slow is reported 1.4x shorter; on an idle host the two agree.
The probe is independent of the program, so a change to the program
moves the scaled time in the same proportion as the wall time. The
probe is CPU-bound and cache-resident: it under-corrects a memory-heavy
region during a long slow period.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

#: probe loop length, its duration on an unloaded reference host
#: (x86-64, Python 3.11, ~300 us) and the sampling period; the probe
#: costs about 1% of a region
PROBE_ITERATIONS = 2_000
PROBE_REFERENCE_NS = 300_000
PROBE_INTERVAL_S = 0.025


def _probe_loop() -> int:
    table = {}
    x = 0
    for i in range(PROBE_ITERATIONS):
        x = (x * 31 + i) & 0xFFFF
        table[x & 255] = i
        if x & 7 == 3:
            x += len(table)
    return x


class HostClock:
    """Times regions in wall seconds and in reference-speed seconds."""

    def __init__(self) -> None:
        self._samples: List[int] = []

    def _probe(self, *_) -> None:
        start = time.perf_counter_ns()
        _probe_loop()
        self._samples.append(time.perf_counter_ns() - start)

    def start(self) -> float:
        self._samples = []
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return time.perf_counter()

    def stop(self, started: float) -> Tuple[float, float]:
        """``(wall seconds, reference-speed seconds)`` since ``started``."""
        wall = time.perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()
        slowdown = (sum(self._samples) / len(self._samples)
                    / PROBE_REFERENCE_NS)
        return wall, wall / slowdown
