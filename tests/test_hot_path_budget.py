"""Host-independent work-count guard for the simulator's hot path.

Wall time moves with the host; the number of Python function calls a
fixed, seeded stream makes does not. Each case serves one small stream
of a serving preset under :mod:`cProfile` and counts the calls into
functions defined under ``src/repro``. Names starting with ``<``
(comprehensions, generator expressions, lambdas, dataclass-generated
methods) are skipped: Python 3.12 inlines comprehensions, and the count
must read the same on every supported interpreter.

A count above its budget is a real regression of simulator work, even
on a host fast enough to hide it in wall time. The budgets are the
counts measured when the DiLOS fault path was last flattened, plus 3%;
a change that lowers a count should lower its budget with it.
"""

from __future__ import annotations

import cProfile
import os
import pstats

import pytest

import repro
from repro.harness.scenarios import build_serve_scenario
from repro.sim.rack import make_rack

_SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Measured call count of each case, before the 3% allowance (CPython
#: 3.11; the same under any PYTHONHASHSEED). Before the fault path was
#: flattened the cases made 500,241 and 602,056 calls.
MEASURED = {
    "rack": 317_046,
    "flash_crowd": 366_928,
}
ALLOWANCE = 1.03


def _build(case: str):
    if case == "rack":
        cluster = make_rack()
        requests = 1_500
    else:
        cluster = build_serve_scenario("flash_crowd")
        requests = 3_000
    cluster.serve_spec = cluster.serve_spec.with_overrides(
        seed=4242, requests=requests)
    return cluster


def count_repro_calls(cluster) -> int:
    """Calls into ``src/repro`` functions while ``cluster`` serves."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        cluster.serve()
    finally:
        profile.disable()
    total = 0
    for (filename, _line, name), row in pstats.Stats(profile).stats.items():
        if name.startswith("<"):
            continue
        if os.path.abspath(filename).startswith(_SRC):
            total += row[1]  # primitive + recursive calls
    return total


@pytest.mark.parametrize("case", sorted(MEASURED))
def test_hot_path_call_budget(case):
    calls = count_repro_calls(_build(case))
    budget = int(MEASURED[case] * ALLOWANCE)
    assert calls <= budget, (
        f"{case}: {calls} calls into src/repro, budget {budget} "
        f"(measured {MEASURED[case]})")
