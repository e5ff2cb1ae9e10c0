"""Simulated time.

All latencies in the simulator are expressed in microseconds, the natural
unit for RDMA-era far memory (a 4 KiB fetch is 2-3 us; a page-fault exception
is ~0.5 us). The clock only moves when a component explicitly charges time,
so runs are deterministic and independent of host speed.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Tuple


class Clock:
    """A monotonically advancing microsecond clock with deadline callbacks.

    Components may register ``call_at`` callbacks (e.g. a background cleaner
    waking up); they fire, in timestamp order, whenever the clock passes
    their deadline. Callbacks may re-arm themselves.
    """

    __slots__ = ("now", "_timers", "_seq")

    def __init__(self, start: float = 0.0) -> None:
        #: Current simulated time in microseconds. A plain attribute (the
        #: fault path reads it on every charge); only :meth:`advance` and
        #: :meth:`advance_to` move it.
        self.now = float(start)
        # Min-heap of (deadline, seq, callback); the unique seq breaks
        # deadline ties in registration order, so firing order is exactly
        # the sorted-list order this queue used to keep.
        self._timers: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def advance(self, delta: float) -> None:
        """Move time forward by ``delta`` microseconds."""
        if delta < 0:
            raise ValueError(f"cannot advance clock by negative delta {delta}")
        deadline = self.now + delta
        timers = self._timers
        if timers and timers[0][0] <= deadline:
            self.advance_to(deadline)
        else:
            # Hot path: no timer is due by the deadline (a booted kernel
            # always has its periodic reclaimer armed, so "no timers at
            # all" is rare), which is exactly what advance_to would
            # conclude before it sets the clock to the deadline.
            self.now = deadline

    def advance_to(self, deadline: float) -> None:
        """Move time forward to ``deadline``, firing any due timers."""
        if deadline < self.now:
            # Completions computed in the past are simply "already done".
            return
        timers = self._timers
        while timers and timers[0][0] <= deadline:
            when, _seq, callback = heappop(timers)
            if when > self.now:
                self.now = when
            callback()
        self.now = deadline

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run when the clock reaches ``when``."""
        self._seq += 1
        heappush(self._timers, (max(when, self.now), self._seq, callback))

    def call_after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` microseconds from now."""
        # call_at's body, inlined: periodic timers re-arm through here.
        now = self.now
        self._seq += 1
        heappush(self._timers, (max(now + delay, now), self._seq, callback))
