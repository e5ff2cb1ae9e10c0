"""The benchmark runner: set up, serve, check, report.

One run serves one workload. With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it prints the per-layer metrics
of a traced run beside an untraced run of the same stream. The last
line of standard output is the JSON result; the line before it carries
the request-trace and metrics digest of every stream served, so two
versions of the simulator can be compared exactly, and the run's median
host speed.

Every pass is one fresh build (timed: ``setup_s``) and one
``cluster.serve()`` call (timed, unless tapped: ``sim_rps``). Host
times are CPU seconds of this single-threaded process. In the untraced
run they are scaled to a reference host speed: a slice of a fixed
reference job (:mod:`perfbench.reference`) runs after every pass, and
each pass is scaled by the speed the slices on either side of it saw.

**Untraced run.** The workload seed picks ``streams`` arrival seeds.
Each stream is served once, timed; these passes set each stream's
reference digests and give the goodput and failure metrics. The first
``tapped`` streams are then served again with the simulated latencies
tapped, for the latency percentiles. Both pool requests over fixed
streams, so the simulated metrics are a pure function of the seed.
Further timed passes take the streams in turn, untapped ones first,
until ``--seconds`` have passed. Every repeat must reproduce its
stream's digests. ``sim_rps`` is the median over the timed passes,
``setup_s`` over all passes.

**Traced run.** The first stream is served untraced, then again with
:class:`~perfbench.layers.LayerProfile` installed, repeating until
``--seconds`` have passed. Both must give the same digests. Counts come
from the traced pass, host times are medians over the traced passes,
and the first traced pass is written as a Chrome trace.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.export import validate_chrome_trace, write_chrome_trace
from repro.obs.registry import LogHistogram

from perfbench import reference
from perfbench.layers import LayerProfile, nearest_rank
from perfbench.workloads import WORKLOADS, Workload

#: Requests of the untimed warm-up pass (imports, first-call caches).
WARMUP_REQUESTS = 200

#: CPU time of the reference slice after each pass, as a share of the
#: pass's own (build + serve).
REFERENCE_SHARE = 0.2

#: LogHistogram buckets are 2**(1/8) wide; its percentile must lie
#: within one bucket of the exact order statistic.
_BUCKET_RATIO = 2.0 ** (1.0 / 8.0)

#: end-to-end metric -> unit (``--trace 0``).
END_TO_END = {
    "sim_rps": "1/s",
    "setup_s": "s",
    "peak_mem_mib": "MiB",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
    "sim_goodput_rps": "1/s",
    "fail_ratio": "ratio",
}

#: per-layer metric -> unit (``--trace 1``).
PER_LAYER = {
    "serve.self_ms": "ms",
    "serve.admit_calls": "count",
    "serve.shed": "count",
    "serve.queue_depth_p99": "count",
    "apps.handle_calls": "count",
    "apps.self_ms": "ms",
    "apps.handle_us_p50": "us",
    "apps.handle_us_p99": "us",
    "apps.handle_samples": "count",
    "kv.unavail_us": "us",
    "kv.failover_us": "us",
    "llm.seqs_evicted": "count",
    "core.fault_calls": "count",
    "core.fault_self_ms": "ms",
    "core.fault_us_p99": "us",
    "core.prefetch_calls": "count",
    "core.prefetch_self_ms": "ms",
    "core.reclaim_calls": "count",
    "core.reclaim_self_ms": "ms",
    "fault.major": "count",
    "prefetch.issued": "count",
    "prefetch.hit_ratio": "ratio",
    "reclaim.pages_evicted": "count",
    "reclaim.pages_cleaned": "count",
    "tlb.hit_ratio": "ratio",
    "mem.page_table_calls": "count",
    "mem.page_table_self_ms": "ms",
    "mem.vm_calls": "count",
    "mem.vm_self_ms": "ms",
    "mem.backend_calls": "count",
    "mem.backend_self_ms": "ms",
    "mem.pool_alloc_calls": "count",
    "mem.pool_self_ms": "ms",
    "pool.spills": "count",
    "pool.stranded_slots": "count",
    "repair.pages_resilvered": "count",
    "net.qp_calls": "count",
    "net.qp_self_ms": "ms",
    "net.reliable_self_ms": "ms",
    "net.topology_calls": "count",
    "net.topology_self_ms": "ms",
    "net.bytes_read": "bytes",
    "net.bytes_written": "bytes",
    "net.retry": "count",
    "topo.queue_us": "us",
    "topo.trunk_crossings": "count",
    "clock.advance_calls": "count",
    "clock.self_ms": "ms",
    "obs.self_ms": "ms",
    "other.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Snapshot counters summed over the cluster and its tenants, reported
#: as what the timed ``serve()`` call added.
_SNAPSHOT_DELTAS = (
    "kv.unavail_us", "kv.failover_us", "llm.seqs_evicted", "fault.major",
    "prefetch.issued", "reclaim.pages_evicted", "reclaim.pages_cleaned",
    "pool.spills", "repair.pages_resilvered", "net.bytes_read",
    "net.bytes_written", "net.retry", "topo.queue_us",
    "topo.trunk_crossings", "tlb.hits", "tlb.misses",
)


# -- one pass: build, serve, check --------------------------------------------

_MISSING = object()


@contextmanager
def capture_latencies(sink: List[float]) -> Iterator[List[float]]:
    """Collect every latency recorded into ``serve.latency_us`` into
    ``sink``, so percentiles are exact order statistics rather than the
    histogram's bucket values (which repeat across seeds).

    The tap wraps ``LogHistogram.record`` and so slows every recording:
    install it only around passes whose host time is not measured.
    """
    saved = LogHistogram.__dict__.get("record", _MISSING)
    record = LogHistogram.record

    def tapped(histogram, value):
        if histogram.name == "serve.latency_us":
            sink.append(value)
        record(histogram, value)

    LogHistogram.record = tapped
    try:
        yield sink
    finally:
        if saved is _MISSING:
            del LogHistogram.record
        else:
            LogHistogram.record = saved


def conservation_errors(report: Any) -> List[str]:
    """Requests neither appear nor vanish inside ``serve()``: the
    report's totals agree with the arrivals it counted one by one, with
    the per-tenant counts and with the ``serve.*`` counters."""
    errors = []
    if report.offered != report.admitted + report.shed:
        errors.append(f"offered {report.offered} != admitted "
                      f"{report.admitted} + shed {report.shed}")
    if sum(report.per_tenant.values()) != report.admitted:
        errors.append(f"tenants served {sum(report.per_tenant.values())} "
                      f"!= admitted {report.admitted}")
    snap = report.snapshot
    for name in ("offered", "admitted", "shed", "completed", "errors"):
        counted = snap.value(f"serve.{name}")
        if counted != getattr(report, name):
            errors.append(f"serve.{name} counter {counted:g} != report "
                          f"{getattr(report, name)}")
    return errors


def latency_errors(report: Any, latencies: List[float]) -> List[str]:
    """The tapped latencies are the ones ``serve.latency_us`` recorded."""
    if len(latencies) != report.completed:
        return [f"the serve.latency_us tap captured {len(latencies)} "
                f"latencies for {report.completed} completed requests; "
                f"does the frontend still record through "
                f"LogHistogram.record?"]
    if not latencies:
        return []
    ordered = sorted(latencies)
    errors = []
    for p in (50, 99):
        exact = nearest_rank(ordered, p, presorted=True)
        bucketed = report.latency.get(f"p{p}", 0.0)
        if not (exact / _BUCKET_RATIO <= bucketed <= exact * _BUCKET_RATIO):
            errors.append(f"serve.latency_us p{p} {bucketed} is not within "
                          f"one bucket of the exact {exact}")
    return errors


@dataclass
class Pass:
    """One build + ``serve()`` of one stream."""

    seed: int
    #: Host CPU seconds of the build and of the ``serve()`` call.
    setup_s: float
    serve_s: float
    report: Any
    #: Simulated latencies, on passes that tapped them (else None).
    latencies: Optional[List[float]]
    errors: List[str]
    #: Traced passes only: the per-layer metrics.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Host speed relative to the reference around this pass (see
    #: :func:`perfbench.reference.speed`); 1 where it was not gauged.
    speed: float = 1.0

    @property
    def digests(self) -> Tuple[str, str]:
        return self.report.trace_digest, self.report.snapshot.digest()

    @property
    def rps(self) -> float:
        """Offered requests per host second, at the reference speed."""
        return self.report.offered / (self.serve_s * self.speed)

    @property
    def reference_setup_s(self) -> float:
        return self.setup_s * self.speed


def _summed(snapshot: Any, name: str) -> float:
    """``name`` summed over the cluster registry and every tenant."""
    suffix = "." + name
    return sum(value for key, value in snapshot.counters.items()
               if key == name or (key.startswith("tenant.")
                                  and key.endswith(suffix)))


def _side_counters(cluster: Any) -> Dict[str, float]:
    """State kept outside the snapshot: prefetch usefulness and the KV
    services' own wire accounting."""
    hits = 0.0
    read = written = 0.0
    for tenant in cluster.tenants:
        kernel = getattr(tenant.system, "kernel", None)
        tracker = getattr(kernel, "hit_tracker", None)
        if tracker is not None:
            hits += tracker.hits
        net = getattr(tenant.extra.get("service"), "net", None)
        if net is not None:
            read += net.bytes_read
            written += net.bytes_written
    return {"prefetch.useful": hits, "net.bytes_read": read,
            "net.bytes_written": written}


def _totals(snapshot: Any, cluster: Any) -> Dict[str, float]:
    totals = {name: _summed(snapshot, name) for name in _SNAPSHOT_DELTAS}
    for name, value in _side_counters(cluster).items():
        totals[name] = totals.get(name, 0.0) + value
    return totals


def run_pass(workload: Workload, seed: int, requests: int,
             profile: Optional[LayerProfile] = None,
             tap: bool = False) -> Pass:
    """Build and serve one stream. Host times are CPU time of this
    single-threaded process (``process_time``), which leaves out time
    the VM or other processes hold the CPU. ``tap`` collects the
    simulated latencies, at a host cost: the ``serve_s`` of a tapped
    pass is not reported."""
    gc.collect()
    t0 = process_time()
    prepared = workload.build(seed, requests)
    setup_s = process_time() - t0
    before: Dict[str, float] = {}
    if profile is not None:
        before = _totals(prepared.cluster.metrics(), prepared.cluster)
        profile.reset()
    gc.collect()
    latencies: Optional[List[float]] = [] if tap else None
    with capture_latencies(latencies) if tap else nullcontext():
        t0 = process_time()
        wall0 = perf_counter()
        report = prepared.serve()
        wall_s = perf_counter() - wall0
        serve_s = process_time() - t0
    layers: Dict[str, float] = {}
    if profile is not None:
        # Before the checks, whose own calls the profile would count.
        # Spans are wall time, so the residual is taken from wall time.
        layers = layer_metrics(profile, report, prepared.cluster, before,
                               wall_s)
    errors = conservation_errors(report)
    if latencies is not None:
        errors.extend(latency_errors(report, latencies))
    for check in prepared.checks:
        errors.extend(check(report))
    return Pass(seed, setup_s, serve_s, report, latencies, errors, layers)


# -- metrics ------------------------------------------------------------------

def layer_metrics(profile: LayerProfile, report: Any, cluster: Any,
                  before: Dict[str, float],
                  serve_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (trace overhead aside)."""
    snapshot = report.snapshot
    delta = {name: value - before[name]
             for name, value in _totals(snapshot, cluster).items()}
    calls = profile.calls
    depth = snapshot.histograms.get("serve.queue_depth", {})
    tlb = delta["tlb.hits"] + delta["tlb.misses"]
    serve_ms = serve_s * 1e3
    return {
        "serve.self_ms": profile.self_ms("serve", "admit"),
        "serve.admit_calls": calls["admit"],
        "serve.shed": report.shed,
        "serve.queue_depth_p99": depth.get("p99", 0.0),
        "apps.handle_calls": calls["apps"],
        "apps.self_ms": profile.self_ms("apps"),
        "apps.handle_us_p50": profile.sample_pct_us("apps", 50),
        "apps.handle_us_p99": profile.sample_pct_us("apps", 99),
        "apps.handle_samples": len(profile.samples_ns["apps"]),
        "kv.unavail_us": delta["kv.unavail_us"],
        "kv.failover_us": delta["kv.failover_us"],
        "llm.seqs_evicted": delta["llm.seqs_evicted"],
        "core.fault_calls": calls["fault"],
        "core.fault_self_ms": profile.self_ms("fault"),
        "core.fault_us_p99": profile.sample_pct_us("fault", 99),
        "core.prefetch_calls": calls["prefetch"],
        "core.prefetch_self_ms": profile.self_ms("prefetch"),
        "core.reclaim_calls": calls["reclaim"],
        "core.reclaim_self_ms": profile.self_ms("reclaim"),
        "fault.major": delta["fault.major"],
        "prefetch.issued": delta["prefetch.issued"],
        "prefetch.hit_ratio": (delta["prefetch.useful"]
                               / delta["prefetch.issued"]
                               if delta["prefetch.issued"] else 0.0),
        "reclaim.pages_evicted": delta["reclaim.pages_evicted"],
        "reclaim.pages_cleaned": delta["reclaim.pages_cleaned"],
        "tlb.hit_ratio": delta["tlb.hits"] / tlb if tlb else 0.0,
        "mem.page_table_calls": calls["page_table"],
        "mem.page_table_self_ms": profile.self_ms("page_table"),
        "mem.vm_calls": calls["vm"],
        "mem.vm_self_ms": profile.self_ms("vm"),
        "mem.backend_calls": calls["backend"],
        "mem.backend_self_ms": profile.self_ms("backend"),
        "mem.pool_alloc_calls": calls["pool"],
        "mem.pool_self_ms": profile.self_ms("pool"),
        "pool.spills": delta["pool.spills"],
        "pool.stranded_slots": snapshot.value("pool.stranded_slots"),
        "repair.pages_resilvered": delta["repair.pages_resilvered"],
        "net.qp_calls": calls["qp"],
        "net.qp_self_ms": profile.self_ms("qp"),
        "net.reliable_self_ms": profile.self_ms("reliable"),
        "net.topology_calls": calls["topology"],
        "net.topology_self_ms": profile.self_ms("topology"),
        "net.bytes_read": delta["net.bytes_read"],
        "net.bytes_written": delta["net.bytes_written"],
        "net.retry": delta["net.retry"],
        "topo.queue_us": delta["topo.queue_us"],
        "topo.trunk_crossings": delta["topo.trunk_crossings"],
        "clock.advance_calls": calls["clock"],
        "clock.self_ms": profile.self_ms("clock"),
        "obs.self_ms": profile.self_ms("obs"),
        "other.self_ms": serve_ms - profile.total_self_ms(),
    }


def simulated_metrics(passes: List[Pass],
                      tapped: List[Pass]) -> Dict[str, float]:
    """Simulated-time metrics pooled over ``passes``, latency percentiles
    over the ``tapped`` ones (deterministic for fixed streams).

    ``fail_ratio`` is (shed + errors + 1/2) / (offered + 1): the share
    of offered requests that were refused or failed, estimated so that
    a run without failures reads a small positive number, not 0.
    """
    latencies = sorted(x for p in tapped for x in p.latencies)
    offered = sum(p.report.offered for p in passes)
    failed = sum(p.report.shed + p.report.errors for p in passes)
    goodput = sum(p.report.goodput for p in passes)
    elapsed_s = sum(p.report.elapsed_us for p in passes) / 1e6
    return {
        "sim_p50_us": nearest_rank(latencies, 50, presorted=True),
        "sim_p99_us": nearest_rank(latencies, 99, presorted=True),
        "sim_goodput_rps": goodput / elapsed_s,
        "fail_ratio": (failed + 0.5) / (offered + 1),
    }


def peak_mem_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- runs ---------------------------------------------------------------------

def stream_seeds(seed: int, streams: int) -> List[int]:
    """The arrival seeds of a run's streams, derived from its seed."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 31) for _ in range(streams)]


def _warm_up(workload: Workload) -> None:
    run_pass(workload, 0, WARMUP_REQUESTS)


def _check_repeat(first: Dict[int, Tuple[str, str]], done: Pass,
                  what: str) -> List[str]:
    want = first.setdefault(done.seed, done.digests)
    if done.digests == want:
        return []
    return [f"stream {done.seed}: {what} digests {done.digests} differ "
            f"from {want}"]


@dataclass
class Outcome:
    """What a run measured, ready to print."""

    metrics: Dict[str, float]
    units: Dict[str, str]
    attempted: int
    #: Passes with at least one failed check.
    failed: int
    errors: List[str]
    digests: Dict[int, Tuple[str, str]]
    trace_path: Optional[str] = None
    #: Untraced runs: the median host speed relative to the reference.
    host_speed: Optional[float] = None


def run_untraced(workload: Workload, seed: int, seconds: float,
                 requests: int, streams: int, tapped: int) -> Outcome:
    _warm_up(workload)
    seeds = stream_seeds(seed, streams)
    first: Dict[int, Tuple[str, str]] = {}
    timed: List[Pass] = []
    latency_passes: List[Pass] = []
    errors: List[str] = []
    failed = 0
    # The slice before the first pass; each later one serves two passes.
    before = reference.measure(0.05)

    def serve(stream: int, tap: bool = False) -> Pass:
        nonlocal failed, before
        done = run_pass(workload, stream, requests, tap=tap)
        after = reference.measure(
            REFERENCE_SHARE * (done.setup_s + done.serve_s))
        done.speed = reference.speed(before, after)
        before = after
        found = done.errors + _check_repeat(first, done, "repeated")
        failed += bool(found)
        errors.extend(found)
        return done

    start = perf_counter()
    for stream in seeds:
        timed.append(serve(stream))
    for stream in seeds[:tapped]:
        latency_passes.append(serve(stream, tap=True))
    # Repeat the untapped streams first.
    while perf_counter() - start < seconds:
        timed.append(serve(seeds[(len(timed) - streams + tapped) % streams]))
    metrics = {
        "sim_rps": statistics.median(p.rps for p in timed),
        "setup_s": statistics.median(
            p.reference_setup_s for p in timed + latency_passes),
        "peak_mem_mib": peak_mem_mib(),
    }
    metrics.update(simulated_metrics(timed[:streams], latency_passes))
    return Outcome(metrics, END_TO_END, len(timed) + len(latency_passes),
                   failed, errors, first,
                   host_speed=statistics.median(p.speed for p in timed))


def run_traced(workload: Workload, seed: int, seconds: float,
               requests: int, trace_path: str) -> Outcome:
    _warm_up(workload)
    stream = stream_seeds(seed, 1)[0]
    first: Dict[int, Tuple[str, str]] = {}
    untraced: List[Pass] = []
    traced: List[Pass] = []
    errors: List[str] = []
    failed = 0
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain = run_pass(workload, stream, requests)
        found = plain.errors + _check_repeat(first, plain, "repeated")
        failed += bool(found)
        errors.extend(found)
        untraced.append(plain)
        profile = LayerProfile()
        with profile:
            done = run_pass(workload, stream, requests, profile=profile)
        found = done.errors + _check_repeat(first, done, "traced")
        failed += bool(found)
        errors.extend(found)
        if not traced:
            write_chrome_trace(profile.records, trace_path,
                               process_name=f"perfbench {workload.name}")
            with open(trace_path, encoding="utf-8") as fh:
                validate_chrome_trace(fh.read())
        traced.append(done)
    metrics: Dict[str, float] = {}
    for name in traced[0].layers:
        values = [p.layers[name] for p in traced]
        if name.endswith("_ms") or "_us_" in name:
            metrics[name] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                errors.append(f"{name} differs between identical traced "
                              f"passes: {values}")
            metrics[name] = values[0]
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.rps for p in traced)
        / statistics.median(p.rps for p in untraced))
    return Outcome(metrics, PER_LAYER, len(untraced) + len(traced), failed,
                   errors, first, trace_path=trace_path)


# -- command line -------------------------------------------------------------

def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="End-to-end benchmark of the simulator's serving "
                    "workloads; prints one JSON result line last.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep measuring (host seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics of a traced run")
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> Outcome:
    workload = WORKLOADS[args.workload]
    if args.trace:
        out = os.path.join(os.path.dirname(__file__), "out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"{workload.name}-seed{args.seed}.json")
        return run_traced(workload, args.seed, args.seconds,
                          workload.requests, path)
    return run_untraced(workload, args.seed, args.seconds, workload.requests,
                        workload.streams, workload.tapped)


def result_line(outcome: Outcome) -> Dict[str, Any]:
    return {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in outcome.units.items()},
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    outcome = run(args)
    for error in outcome.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "chrome_trace": outcome.trace_path,
        "host_speed": outcome.host_speed,
        "digests": {str(seed): {"trace": trace, "metrics": metrics}
                    for seed, (trace, metrics) in outcome.digests.items()},
    }))
    print(json.dumps(result_line(outcome)))
    return 0 if not outcome.errors else 1
