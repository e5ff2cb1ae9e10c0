"""The four serving workloads, built only from public calls.

Each builder takes the workload seed and a request count and returns a
:class:`Prepared` run: a fresh cluster with its serve spec attached, the
request sampler to serve with, and the workload's own end-of-run checks.
Building is the benchmark's set-up (``setup_s``); serving the prepared
run is the timed part (``sim_rps``).

The seed reaches the simulator only through the arrival spec
(``serve_spec.with_overrides(seed=..., requests=...)``) and, for
``kv_failover``, through the KV services' value and wire-fault seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.common.units import KIB, MIB
from repro.core.spec import SystemSpec
from repro.harness.scenarios import build_serve_scenario
from repro.serve import ServeSpec
from repro.sim.rack import make_rack
from repro.sim.tenancy import ComputeCluster

#: A check: report -> list of failure messages (empty = passed).
Check = Callable[[Any], List[str]]


@dataclass
class Prepared:
    """One built workload, ready for exactly one ``serve()`` call."""

    cluster: ComputeCluster
    sampler: Optional[Callable[[Any], Any]] = None
    #: Workload-specific checks run after ``serve()`` returns.
    checks: List[Check] = field(default_factory=list)

    def serve(self):
        return self.cluster.serve(sampler=self.sampler)


def _reseed(cluster: ComputeCluster, seed: int, requests: int,
            **changes: Any) -> None:
    cluster.serve_spec = cluster.serve_spec.with_overrides(
        seed=seed, requests=requests, **changes)


#: Mean burst and quiet spells of ``flash_crowd`` in simulated us; see
#: :func:`build_flash_crowd`.
FLASH_PHASES = {"on": 300.0, "off": 500.0}


def build_flash_crowd(seed: int, requests: int) -> Prepared:
    """The ``flash_crowd`` preset: bursty MMPP arrivals, ``depth/64``
    admission, 2 redis tenants with 256 KiB local memory each.

    The preset's spells (3 ms on, 5 ms off) hold about 9k arrivals per
    burst, so a 20k-request stream holds two bursts of random length
    and the admitted share, which sets the host cost per request, moves
    with the seed. :data:`FLASH_PHASES` keeps the rates and their ratio
    and makes the spells ten times shorter: a burst per thousand
    arrivals.
    """
    cluster = build_serve_scenario("flash_crowd")
    spec = cluster.serve_spec
    _reseed(cluster, seed, requests, params={**spec.params, **FLASH_PHASES})
    return Prepared(cluster)


#: Offered load of ``rack``; see :func:`build_rack`.
RACK_RATE_RPS = 2_000_000.0


def build_rack(seed: int, requests: int) -> Prepared:
    """``make_rack()``: 8 redis tenants on a 4x4 pooled rack with
    ``locality`` placement and Poisson arrivals.

    At the preset's 400k/s no request ever queues, so every latency is
    one of a few service times and the percentiles read the same for
    every seed. At :data:`RACK_RATE_RPS` most requests queue behind
    another, and the percentiles measure queueing.
    """
    cluster = make_rack()
    _reseed(cluster, seed, requests, rate_rps=RACK_RATE_RPS)
    return Prepared(cluster)


#: Mean quiet spell of ``llm_burst`` in simulated us; see
#: :func:`build_llm_burst`.
LLM_QUIET_US = 500.0


def build_llm_burst(seed: int, requests: int) -> Prepared:
    """The ``llm_flash_crowd`` tenants under the preset's own naive
    contrast (no admission), so every arrival reaches the KV cache.

    A short stream is one quiet spell and then the front of a burst.
    With the preset's 5 ms mean quiet spell, the spell's random length
    made up most of a stream's simulated time, and so set its goodput.
    :data:`LLM_QUIET_US` shortens it, so that serving the burst does.
    """
    cluster = build_serve_scenario("llm_flash_crowd", naive=True)
    spec = cluster.serve_spec
    _reseed(cluster, seed, requests,
            params={**spec.params, "off": LLM_QUIET_US})
    return Prepared(cluster)


#: ``kv_failover``'s arrival spec; seed and request count are replaced.
#: The preset offers 30k/s, at which no request queues (see
#: :func:`build_rack`); at 900k/s most do.
KV_SERVE = "poisson:rate=900k,clients=50k,slo=4ms,seed=0,balance=least"
#: Arrival-index fractions at which one replica is killed and rejoined.
KV_KILL_AT = 0.4
KV_REJOIN_AT = 0.65


def build_kv_failover(seed: int, requests: int) -> Prepared:
    """Two KV tenants on ``replicated:3`` with 35% writes over a lossy
    wire, through kill -> lease blackout -> failover -> rejoin ->
    resilver.

    The shared clock is a busy clock: it moves only while a handler
    runs, so a ``call_at`` deadline in arrival time would land at a
    different point of the stream for every run length. The kill and
    the rejoin are therefore armed from the request sampler at fixed
    fractions of the arrival stream, each as a ``clock.call_at`` due
    at once, so it fires inside the next request's handler.
    """
    spec = ServeSpec.from_spec(KV_SERVE).with_overrides(
        seed=seed, requests=requests)
    cluster = ComputeCluster(backend="replicated:3",
                             remote_mem_bytes=32 * MIB,
                             repair="resilver_period=100,resilver_batch=32",
                             serve=spec)
    system = SystemSpec(kind="dilos-readahead", local_mem_bytes=256 * KIB)
    services = []
    for name in ("kv1", "kv2"):
        tenant = cluster.add_service(
            name, system, "kv", n_keys=48, value_bytes=160, skew=0.9,
            write_fraction=0.35, seed=seed + 1, lease_us=120.0,
            net_faults=f"drop=0.002,corrupt=0.001,seed={seed + 2}")
        services.append(tenant.extra["service"])
    clock = cluster.clock
    backend = cluster.backend
    victim = backend.member_nodes()[0]
    schedule: Dict[int, Callable[[], Any]] = {
        int(KV_KILL_AT * requests): victim.fail,
        int(KV_REJOIN_AT * requests): lambda: backend.rejoin(victim),
    }
    sample = services[0].sample_request
    arrivals = 0

    def sampler(rng):
        nonlocal arrivals
        event = schedule.get(arrivals)
        if event is not None:
            clock.call_at(clock.now, event)
        arrivals += 1
        return sample(rng)

    def audit(report) -> List[str]:
        errors = []
        for service in services:
            lost = service.verify()
            if lost:
                errors.append(f"verify() found {lost} lost updates")
        snap = cluster.metrics()  # after verify(), which adds to it
        lost = snap.value("kv.lost_updates")
        if lost:
            errors.append(f"kv.lost_updates = {lost:g}, want 0")
        if not snap.value("cluster.rejoins"):
            errors.append("the killed replica never rejoined")
        if not snap.value("kv.unavail_rejects"):
            errors.append("the kill caused no lease blackout")
        return errors

    return Prepared(cluster, sampler=sampler, checks=[audit])


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, int], Prepared]
    #: Offered requests per ``serve()`` call at full size.
    requests: int
    #: ``serve()`` calls (each a fresh build, own arrival seed) per run.
    streams: int
    #: Streams served again with the latencies tapped (p50/p99).
    tapped: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("flash_crowd", build_flash_crowd, 10_000, 20, 8),
        Workload("rack", build_rack, 4_000, 16, 12),
        Workload("kv_failover", build_kv_failover, 20_000, 14, 6),
        Workload("llm_burst", build_llm_burst, 300, 40, 40),
    )
}
