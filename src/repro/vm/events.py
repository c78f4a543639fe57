"""Discrete-event queue driving the simulated world outside the VM.

Load generators, timers and the update signal are all events scheduled at
absolute simulated times. The scheduler processes due events between thread
quanta, and fast-forwards the clock to the next event when every thread is
blocked.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple


class EventQueue:
    """A priority queue of (time_ms, callback) events."""

    def __init__(self):
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()

    def schedule(self, time_ms: float, callback: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (time_ms, next(self._counter), callback))

    def next_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def has_due(self, now_ms: float) -> bool:
        """Whether an event is due at or before ``now_ms`` (pops nothing)."""
        heap = self._heap
        return bool(heap) and heap[0][0] <= now_ms

    def pop_due(self, now_ms: float):
        """Yield callbacks due at or before ``now_ms``, in time order."""
        due = []
        while self._heap and self._heap[0][0] <= now_ms:
            _, _, callback = heapq.heappop(self._heap)
            due.append(callback)
        return due

    def __len__(self) -> int:
        return len(self._heap)
