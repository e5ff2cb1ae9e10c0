"""Wall-clock performance suite over the simulator's hot kernels.

The simulator's results are *simulated-time* numbers, but how long the
simulation itself takes to run is what bounds every experiment sweep.
This module defines the hot-path benchmark kernels (sequential read/write,
quicksort, a Redis GET mix — across DiLOS, Fastswap, and AIFM), times
them on the host clock, and emits ``BENCH_perf.json`` at the repo root:
the repo's wall-clock performance trajectory.

Two contracts are enforced on every run:

* **Determinism** — each benchmark runs on a fresh system with fixed
  seeds and must produce the same metrics digest
  (:meth:`~repro.obs.snapshot.MetricsSnapshot.digest`) on every
  iteration; a digest flap fails the run before any timing is reported.
* **No regression** — each benchmark's best wall time is compared against
  the reference recorded in ``benchmarks/perf/baseline.json``; exceeding
  ``reference * tolerance`` makes the runner exit non-zero.

``baseline.json`` also carries a frozen ``pre_pr`` section: the wall
times measured on the unoptimized code, against which the emitted
speedups are computed.

Run via ``python -m repro perf`` (or ``scripts/perf_report.py``)::

    python -m repro perf                    # full run, write BENCH_perf.json
    python -m repro perf --smoke            # 1 iteration, harness sanity only
    python -m repro perf --update-baseline  # re-record the reference times
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.common.units import MIB, PAGE_SIZE

#: BENCH_perf.json schema identifier.
SCHEMA = "repro-perf/1"
#: baseline.json schema identifier.
BASELINE_SCHEMA = "repro-perf-baseline/1"
#: Default allowed wall-clock regression vs the recorded reference.
#: Wall time on shared machines is noisy; 1.6x is loose enough to dodge
#: scheduler jitter while still catching a hot path falling off a cliff.
DEFAULT_TOLERANCE = 1.6

_REPO_ROOT = Path(__file__).resolve().parents[3]
#: Where ``python -m repro perf`` writes its report.
DEFAULT_OUT = _REPO_ROOT / "BENCH_perf.json"
#: Reference + pre-PR wall times, checked in with the benchmark suite.
DEFAULT_BASELINE = _REPO_ROOT / "benchmarks" / "perf" / "baseline.json"


@dataclass
class PerfRun:
    """What one execution of a benchmark kernel yields."""

    sim_us: float
    ops: int
    checksum: str


@dataclass
class PerfCase:
    """One hot-path benchmark: a named, self-contained kernel."""

    name: str
    description: str
    fn: Callable[[], PerfRun]
    #: The headline benchmark carries the PR's speedup claim.
    headline: bool = False


@dataclass
class PerfResult:
    """One benchmark's timing plus its determinism checksum."""

    name: str
    wall_us: float
    sim_us: float
    ops: int
    checksum: str

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "wall_us": round(self.wall_us, 1),
                "sim_us": self.sim_us, "ops": self.ops,
                "checksum": self.checksum}


# -- benchmark kernels --------------------------------------------------------
#
# Each kernel boots a fresh system (determinism requires it) and returns
# sim time, a host-meaningful op count, and the metrics digest. Imports
# are local so ``repro.harness`` stays cheap to import.


def _seqread_dilos() -> PerfRun:
    """Headline: resident sequential scan — the pure TLB-hit fast path."""
    from repro.apps.seqrw import SequentialWorkload
    from repro.harness.experiment import local_bytes_for, make_system

    workload = SequentialWorkload(4 * MIB)
    system = make_system("dilos-readahead",
                         local_bytes_for(workload.footprint_bytes, 1.0))
    workload.run(system, "read", verify=True)
    pages = workload.working_set_bytes // PAGE_SIZE
    return PerfRun(system.clock.now, 2 * pages, system.metrics().digest())


def _seqread_dilos_cold() -> PerfRun:
    """Memory-constrained scan: fault handler + prefetch + reclaim."""
    from repro.apps.seqrw import SequentialWorkload
    from repro.harness.experiment import local_bytes_for, make_system

    workload = SequentialWorkload(2 * MIB)
    system = make_system("dilos-readahead",
                         local_bytes_for(workload.footprint_bytes, 0.25))
    workload.run(system, "read", verify=True)
    pages = workload.working_set_bytes // PAGE_SIZE
    return PerfRun(system.clock.now, 2 * pages, system.metrics().digest())


def _seqwrite_dilos() -> PerfRun:
    from repro.apps.seqrw import SequentialWorkload
    from repro.harness.experiment import local_bytes_for, make_system

    workload = SequentialWorkload(2 * MIB)
    system = make_system("dilos-readahead",
                         local_bytes_for(workload.footprint_bytes, 0.5))
    workload.run(system, "write")
    pages = workload.working_set_bytes // PAGE_SIZE
    return PerfRun(system.clock.now, 2 * pages, system.metrics().digest())


def _seqread_fastswap() -> PerfRun:
    from repro.apps.seqrw import SequentialWorkload
    from repro.harness.experiment import local_bytes_for, make_system

    workload = SequentialWorkload(2 * MIB)
    system = make_system("fastswap",
                         local_bytes_for(workload.footprint_bytes, 0.25))
    workload.run(system, "read", verify=True)
    pages = workload.working_set_bytes // PAGE_SIZE
    return PerfRun(system.clock.now, 2 * pages, system.metrics().digest())


def _seqscan_aifm() -> PerfRun:
    """AIFM remoteable-array scan under heap pressure (evacuation active)."""
    from repro.baselines.aifm import RemArray
    from repro.harness.experiment import local_bytes_for, make_system

    count, item = 2048, 128
    system = make_system("aifm-rdma", local_bytes_for(count * item, 0.25))
    array = RemArray(system, count, item)
    for i in range(count):
        array.set(i, (i & 0xFF).to_bytes(1, "little") * item)
    for i, data in enumerate(array.scan()):
        if data[0] != (i & 0xFF):
            raise AssertionError(f"item {i} corrupted")
    return PerfRun(system.clock.now, 2 * count, system.metrics().digest())


def _quicksort_dilos() -> PerfRun:
    from repro.apps.quicksort import QuicksortWorkload
    from repro.harness.experiment import local_bytes_for, make_system

    workload = QuicksortWorkload(count=1 << 13)
    system = make_system("dilos-readahead",
                         local_bytes_for(workload.footprint_bytes, 0.5))
    result = workload.run(system, verify=True)
    return PerfRun(system.clock.now, result.count,
                   system.metrics().digest())


def _redis_get(kind: str) -> PerfRun:
    from repro.alloc import Mimalloc
    from repro.apps.redis import GetWorkload, RedisServer
    from repro.harness.experiment import local_bytes_for, make_system

    workload = GetWorkload(value_size="mixed", n_keys=80, n_queries=250)
    system = make_system(kind,
                         local_bytes_for(workload.footprint_bytes, 0.25),
                         remote_bytes=128 * MIB)
    server = RedisServer(system, Mimalloc(system, arena_bytes=32 * MIB))
    workload.populate(server)
    system.clock.advance(5000)
    workload.drive(server, verify=True)
    return PerfRun(system.clock.now, workload.n_keys + workload.n_queries,
                   system.metrics().digest())


def _kmeans_dilos() -> PerfRun:
    """App-level: chunked Lloyd's k-means over far-memory points."""
    from repro.apps.kmeans import KMeansWorkload
    from repro.harness.experiment import local_bytes_for, make_system

    workload = KMeansWorkload(n_points=1 << 14, dim=8, clusters=10,
                              iterations=4)
    system = make_system("dilos-readahead",
                         local_bytes_for(workload.footprint_bytes, 0.5))
    result = workload.run(system)
    return PerfRun(system.clock.now,
                   workload.n_points * workload.iterations,
                   system.metrics().digest())


def _dataframe_dilos() -> PerfRun:
    """App-level: the taxi analytics query mix over far-memory columns."""
    from repro.apps.dataframe import TaxiAnalyticsWorkload
    from repro.harness.experiment import local_bytes_for, make_system

    workload = TaxiAnalyticsWorkload(rows=1 << 16)
    system = make_system("dilos-readahead",
                         local_bytes_for(workload.footprint_bytes, 0.5))
    workload.run(system)
    return PerfRun(system.clock.now, workload.rows,
                   system.metrics().digest())


def _llm_decode_dilos() -> PerfRun:
    """App-level: LLM decode-heavy inference, KV cache paged at 25%
    local (the random-gather path the P:D sweep stresses)."""
    from repro.apps.llm import LlmConfig, LlmWorkload
    from repro.harness.experiment import local_bytes_for, make_system

    workload = LlmWorkload(n_requests=12, seed=31,
                           config=LlmConfig(heads=8, max_tokens=192),
                           prompt_min=24, prompt_max=80,
                           out_min=8, out_max=16)
    system = make_system("dilos-readahead",
                         local_bytes_for(workload.footprint_bytes, 0.25))
    result = workload.run(system)
    return PerfRun(system.clock.now, result.decoded_tokens,
                   system.metrics().digest())


def _rack_redis_pool() -> PerfRun:
    """Rack-level: open-loop redis serving over the pooled, contended
    fabric (locality placement on an oversubscribed ToR)."""
    from repro.sim.rack import make_rack

    serve = ("poisson:rate=400k,clients=1m,slo=2ms,requests=600,"
             "seed=29,balance=round_robin")
    cluster = make_rack(tenants=8,
                        topology="rack:compute=4,mem=4,link=100,oversub=4",
                        placement="locality", serve=serve, n_keys=32)
    report = cluster.serve()
    return PerfRun(cluster.clock.now, report.completed,
                   cluster.metrics().digest())


def _kv_get_replicated() -> PerfRun:
    """App-level: the replicated KV service under its chaos schedule
    (lossy wire, lease-holder kill, rejoin + resilver at serving load)."""
    from repro.harness.scenarios import PRESETS

    run = PRESETS["kv_failover"].run(requests=400)
    return PerfRun(run.digests.clock, run.report.completed,
                   run.digests.metrics)


CASES: List[PerfCase] = [
    PerfCase("seqread_dilos",
             "DiLOS resident 4 MiB sequential read (TLB-hit fast path)",
             _seqread_dilos, headline=True),
    PerfCase("seqread_dilos_cold",
             "DiLOS 2 MiB sequential read at 25% local (fault path)",
             _seqread_dilos_cold),
    PerfCase("seqwrite_dilos",
             "DiLOS 2 MiB sequential write at 50% local",
             _seqwrite_dilos),
    PerfCase("seqread_fastswap",
             "Fastswap 2 MiB sequential read at 25% local (swap path)",
             _seqread_fastswap),
    PerfCase("seqscan_aifm",
             "AIFM remoteable-array populate + scan at 25% local heap",
             _seqscan_aifm),
    PerfCase("quicksort_dilos",
             "DiLOS quicksort of 8K u64s at 50% local",
             _quicksort_dilos),
    PerfCase("redis_get_dilos",
             "DiLOS Redis GET, Facebook mixed value sizes",
             lambda: _redis_get("dilos-readahead")),
    PerfCase("redis_get_fastswap",
             "Fastswap Redis GET, Facebook mixed value sizes",
             lambda: _redis_get("fastswap")),
    PerfCase("kmeans_dilos",
             "DiLOS k-means over 16K far-memory points at 50% local",
             _kmeans_dilos),
    PerfCase("dataframe_dilos",
             "DiLOS taxi analytics over 64K far-memory rows at 50% local",
             _dataframe_dilos),
    PerfCase("llm_decode_dilos",
             "DiLOS LLM decode: random KV-cache gathers at 25% local",
             _llm_decode_dilos),
    PerfCase("rack_redis_pool",
             "8 redis tenants served over a pooled 4:1-oversubscribed rack",
             _rack_redis_pool),
    PerfCase("kv_get_replicated",
             "replicated KV service surviving a lease-holder kill + resilver",
             _kv_get_replicated),
]


def case_by_name(name: str) -> PerfCase:
    for case in CASES:
        if case.name == name:
            return case
    raise KeyError(f"unknown perf case {name!r}")


# -- running ------------------------------------------------------------------


def run_case(case: PerfCase, iterations: int = 3) -> PerfResult:
    """Best-of-``iterations`` wall time; raises if the digest is unstable."""
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    best_wall = None
    run: Optional[PerfRun] = None
    for _ in range(iterations):
        t0 = time.perf_counter()
        this = case.fn()
        wall_us = (time.perf_counter() - t0) * 1e6
        if run is not None and (this.checksum != run.checksum
                                or this.sim_us != run.sim_us):
            raise AssertionError(
                f"{case.name}: non-deterministic run — metrics digest "
                f"{this.checksum[:12]} != {run.checksum[:12]} "
                f"(sim {this.sim_us} vs {run.sim_us})")
        run = this
        if best_wall is None or wall_us < best_wall:
            best_wall = wall_us
    return PerfResult(case.name, best_wall, run.sim_us, run.ops,
                      run.checksum)


def load_baseline(path: Path) -> Dict[str, Any]:
    if not path.exists():
        return {"schema": BASELINE_SCHEMA, "pre_pr": {}, "reference": {},
                "tolerance": DEFAULT_TOLERANCE}
    with open(path) as fh:
        data = json.load(fh)
    if data.get("schema") != BASELINE_SCHEMA:
        raise ValueError(f"{path}: unexpected baseline schema "
                         f"{data.get('schema')!r}")
    return data


def build_report(results: List[PerfResult], baseline: Dict[str, Any],
                 iterations: int, tolerance: float) -> Dict[str, Any]:
    """Assemble the BENCH_perf.json payload (includes regression verdicts)."""
    pre_pr = baseline.get("pre_pr", {})
    reference = baseline.get("reference", {})
    rows = []
    for result in results:
        row = result.as_dict()
        base = pre_pr.get(result.name)
        if base:
            row["baseline_wall_us"] = base
            row["speedup_vs_baseline"] = round(base / result.wall_us, 2)
        ref = reference.get(result.name)
        if ref:
            row["reference_wall_us"] = ref
            row["regressed"] = result.wall_us > ref * tolerance
        rows.append(row)
    return {
        "schema": SCHEMA,
        "suite": "benchmarks/perf",
        "iterations": iterations,
        "tolerance": tolerance,
        "host": {"python": platform.python_version(),
                 "implementation": platform.python_implementation(),
                 "machine": platform.machine()},
        "benchmarks": rows,
    }


def _run_case_cell(cell) -> PerfResult:
    """Picklable pool worker for ``--jobs``: resolve the case by name in
    the child (the CASES thunks are lambdas, which do not pickle) and
    run it there."""
    name, iterations = cell
    return run_case(case_by_name(name), iterations)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro perf",
        description="Run the wall-clock perf suite; write BENCH_perf.json "
                    "and fail on regression past tolerance.")
    parser.add_argument("--iterations", type=int, default=3,
                        help="runs per benchmark; best wall time is kept")
    parser.add_argument("--smoke", action="store_true",
                        help="single iteration per benchmark (CI smoke)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="report path (default: repo-root "
                             "BENCH_perf.json)")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="baseline/reference wall-time file")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="allowed wall-time factor over the reference "
                             "(default: baseline file's, else "
                             f"{DEFAULT_TOLERANCE})")
    parser.add_argument("--only", nargs="+", metavar="NAME", default=None,
                        help="run only these benchmarks")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="fan cases out across N worker processes "
                             "(checksums/sim times are identical to a "
                             "serial run; wall times may inflate under "
                             "CPU contention, so prefer serial when "
                             "gating)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the reference section from this run")
    parser.add_argument("--record-pre-pr", action="store_true",
                        help="also freeze this run as the pre-PR baseline "
                             "(one-time, on the unoptimized code)")
    args = parser.parse_args(argv)

    iterations = 1 if args.smoke else args.iterations
    cases = CASES if args.only is None else [case_by_name(n)
                                             for n in args.only]
    baseline = load_baseline(args.baseline)
    tolerance = (args.tolerance if args.tolerance is not None
                 else baseline.get("tolerance", DEFAULT_TOLERANCE))

    from repro.harness.parallel import fanout

    results: List[PerfResult] = fanout(
        _run_case_cell, [(case.name, iterations) for case in cases],
        args.jobs)
    for result in results:
        print(f"  {result.name:<22} {result.wall_us / 1000:9.1f} ms wall   "
              f"{result.sim_us / 1000:9.2f} ms sim   "
              f"{result.ops:>6} ops   {result.checksum[:12]}")

    if args.update_baseline or args.record_pre_pr:
        for result in results:
            baseline["reference"][result.name] = round(result.wall_us, 1)
            if args.record_pre_pr:
                baseline["pre_pr"][result.name] = round(result.wall_us, 1)
        baseline["tolerance"] = tolerance
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        with open(args.baseline, "w") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"updated {args.baseline}")

    report = build_report(results, baseline, iterations, tolerance)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    regressed = [row for row in report["benchmarks"]
                 if row.get("regressed")]
    for row in regressed:
        print(f"REGRESSION: {row['name']} took {row['wall_us'] / 1000:.1f} "
              f"ms vs reference {row['reference_wall_us'] / 1000:.1f} ms "
              f"(tolerance {tolerance}x)", file=sys.stderr)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
