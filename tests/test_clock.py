"""Unit tests for the simulated clock."""

import math

import pytest

from repro.common.clock import Clock


def test_starts_at_zero():
    assert Clock().now == 0.0


def test_advance():
    clock = Clock()
    clock.advance(5.0)
    clock.advance(2.5)
    assert clock.now == 7.5


def test_negative_advance_rejected():
    with pytest.raises(ValueError):
        Clock().advance(-1.0)


def test_advance_to_past_is_noop():
    clock = Clock(start=10.0)
    clock.advance_to(5.0)
    assert clock.now == 10.0


def test_timer_fires_in_order():
    clock = Clock()
    fired = []
    clock.call_at(5.0, lambda: fired.append(("a", clock.now)))
    clock.call_at(3.0, lambda: fired.append(("b", clock.now)))
    clock.advance_to(10.0)
    assert fired == [("b", 3.0), ("a", 5.0)]
    assert clock.now == 10.0


def test_timer_not_fired_early():
    clock = Clock()
    fired = []
    clock.call_after(5.0, lambda: fired.append(1))
    clock.advance(4.99)
    assert fired == []
    clock.advance(0.02)
    assert fired == [1]


def test_timer_rearming():
    """A callback may schedule another timer inside the same advance."""
    clock = Clock()
    fired = []

    def tick():
        fired.append(clock.now)
        if len(fired) < 3:
            clock.call_after(1.0, tick)

    clock.call_at(1.0, tick)
    clock.advance_to(10.0)
    assert fired == [1.0, 2.0, 3.0]


def test_same_deadline_fifo():
    clock = Clock()
    fired = []
    clock.call_at(2.0, lambda: fired.append("first"))
    clock.call_at(2.0, lambda: fired.append("second"))
    clock.advance_to(2.0)
    assert fired == ["first", "second"]


def test_advance_fires_timer_due_exactly_at_deadline():
    """``advance`` goes through ``advance_to`` only when a timer is due by
    ``now + delta``; the boundary is inclusive, as in ``advance_to``."""
    start, delta = 0.1, 0.2
    deadline = start + delta  # 0.30000000000000004, not 0.3
    clock = Clock(start=start)
    fired = []
    clock.call_at(deadline, lambda: fired.append("at"))
    clock.call_at(math.nextafter(deadline, math.inf),
                  lambda: fired.append("after"))
    clock.advance(delta)
    assert fired == ["at"]
    reference = Clock(start=start)
    reference.advance_to(start + delta)
    assert clock.now.hex() == reference.now.hex()


def test_advance_without_due_timer_matches_advance_to():
    """With a timer pending but not due (the reclaimer's periodic tick
    on a booted kernel), ``advance`` must leave the clock bit-identical
    to ``advance_to(now + delta)``."""
    deltas = [0.1, 0.2, 1e-9, 3.0000000000000004, 0.7, 0.0, 12.5]
    clock = Clock(start=0.3)
    reference = Clock(start=0.3)
    fired = []
    clock.call_at(1e6, lambda: fired.append(1))
    for delta in deltas:
        clock.advance(delta)
        reference.advance_to(reference.now + delta)
        assert clock.now.hex() == reference.now.hex()
    assert fired == []
