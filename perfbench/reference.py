"""A fixed pure-Python job that gauges how fast the host runs right now.

The benchmark runs on shared hosts whose speed moves by tens of percent
over seconds and minutes, and CPU time does not see it: a slower shared
core still bills the process one CPU second per second. Between passes
the runner times slices of this job, whose code never changes, and
scales each pass's host times by the speed the slices on either side of
it saw. A faster simulator still reads faster, since only the simulator
changes; a slower host no longer reads as a slower simulator.

The job mixes what the simulator's hot paths do: dict lookups, object
allocation and attribute updates, method calls, a heap and string
formatting.
"""

from __future__ import annotations

import gc
import heapq
from dataclasses import dataclass
from time import process_time

#: CPU seconds one unit takes on the reference host. Host times are
#: reported as if every pass ran at this speed.
NOMINAL_UNIT_S = 0.004

#: Loop iterations of one unit.
_UNIT_STEPS = 4000


class _Item:
    __slots__ = ("key", "value", "hits")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value
        self.hits = 0

    def touch(self, step: int) -> int:
        self.hits += 1
        return (self.value * 31 + step) & 0xFFFF


def reference_unit() -> int:
    """One unit of the reference job; returns a checksum."""
    table = {}
    heap = []
    acc = 0
    for step in range(_UNIT_STEPS):
        key = (step * 2654435761) & 1023
        item = table.get(key)
        if item is None:
            item = table[key] = _Item(key, step)
        acc += item.touch(step)
        if step & 7 == 0:
            heapq.heappush(heap, (acc & 4095, step))
            if len(heap) > 64:
                heapq.heappop(heap)
        acc ^= len(f"k{key}:{acc & 255}")
    return acc


@dataclass(frozen=True)
class Slice:
    """CPU seconds spent on ``units`` units of the reference job."""

    seconds: float
    units: int


def measure(seconds: float) -> Slice:
    """Run whole units of the reference job for at least ``seconds`` CPU
    seconds (and at least one unit).

    The garbage of the pass before is collected first and the collector
    is off while the slice runs: a full collection of a cluster's object
    graph, started by the job's own allocations, would otherwise land
    in a random slice and read as a slower host.
    """
    gc.collect()
    gc.disable()
    try:
        units = 0
        t0 = process_time()
        while True:
            reference_unit()
            units += 1
            spent = process_time() - t0
            if spent >= seconds:
                return Slice(spent, units)
    finally:
        gc.enable()


def speed(before: Slice, after: Slice) -> float:
    """Host speed relative to the reference over two slices: above 1 on a
    host faster than the reference. A host time times this speed is the
    time the same work would take at the reference speed."""
    unit_s = (before.seconds + after.seconds) / (before.units + after.units)
    return NOMINAL_UNIT_S / unit_s
