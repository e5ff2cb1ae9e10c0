"""The preset registry: every fixed, repeatable scenario the CLI runs.

A :class:`Preset` builds a fresh cluster, drives it, and returns one
:class:`PresetRun`: the run's report, the cluster it ran on, and its
:class:`Digests` (request-trace digest where the preset has one, merged
metrics digest, final simulated clock). :data:`PRESETS` maps each name
to its preset; every preset names the CLI command that runs it
(``serve``, ``tenants``, ``kv``, ``rack``, ``repair``) and its
acceptance checks, the properties the preset exists to demonstrate.
:func:`run_preset` is the one determinism gate: it runs a preset from
scratch repeatedly and raises :class:`DeterminismError` on any drift.

Tenant workload factories follow the tenancy convention: given the
booted system they return a generator, and every ``next()`` performs
one operation against far memory (populate a chunk, answer a GET, scan
a stripe), advancing the shared clock.

Everything here is deterministic: seeded RNGs, fixed sizes, insertion-
order scheduling. The same preset with the same overrides always
reaches the same digests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from repro.common.units import KIB, MIB, PAGE_SIZE
from repro.core.spec import BackendSpec, SystemSpec, make_backend
from repro.mem.cluster import ParityStripedMemory, ReplicatedMemory
from repro.serve import coerce_serve_spec
from repro.sim.rack import DEFAULT_RACK_SERVE, make_rack, sweep_rack
from repro.sim.tenancy import ComputeCluster, WorkloadFactory


# -- tenant workload factories ----------------------------------------------

def kmeans_tenant(n_points: int = 32768, dims: int = 4, iters: int = 2,
                  k: int = 4, seed: int = 11,
                  chunk_points: int = 512) -> WorkloadFactory:
    """A k-means style tenant: populate a far-memory point set, then run
    Lloyd iterations as chunked scans (one op per chunk)."""

    def factory(system) -> Iterator[str]:
        from repro.apps.views import PagedArray

        def gen() -> Iterator[str]:
            rng = np.random.default_rng(seed)
            points = PagedArray(system, n_points * dims, dtype=np.float64,
                                name="kmeans.points")
            centers = rng.standard_normal((k, dims))
            for start, stop in points.chunks(chunk_points * dims):
                points.store(start, rng.standard_normal(stop - start))
                yield "populate"
            for _ in range(iters):
                sums = np.zeros((k, dims))
                counts = np.zeros(k)
                for start, stop in points.chunks(chunk_points * dims):
                    chunk = points.load(start, stop).reshape(-1, dims)
                    dist2 = ((chunk[:, None, :] - centers[None, :, :]) ** 2
                             ).sum(axis=2)
                    assign = dist2.argmin(axis=1)
                    for centroid in range(k):
                        mask = assign == centroid
                        sums[centroid] += chunk[mask].sum(axis=0)
                        counts[centroid] += int(mask.sum())
                    yield "assign"
                nonzero = counts > 0
                centers[nonzero] = sums[nonzero] / counts[nonzero, None]
                yield "update"
        return gen()
    return factory


def redis_get_tenant(n_keys: int = 600, value_bytes: int = 768,
                     n_queries: int = 1200, seed: int = 21,
                     arena_bytes: int = 4 * MIB) -> WorkloadFactory:
    """A redis tenant: SET a keyspace through the mimalloc arena, then
    issue random verified GETs (one op per request)."""

    def factory(system) -> Iterator[str]:
        from repro.alloc.mimalloc import Mimalloc
        from repro.apps.redis.server import RedisServer

        def gen() -> Iterator[str]:
            server = RedisServer(system, Mimalloc(system, arena_bytes))
            rng = random.Random(seed)
            expected: Dict[bytes, bytes] = {}
            for i in range(n_keys):
                key = b"key:%d" % i
                value = bytes(rng.getrandbits(8) for _ in range(value_bytes))
                server.set(key, value)
                expected[key] = value[:8]
                yield "set"
            qrng = random.Random(seed + 1)
            for _ in range(n_queries):
                key = b"key:%d" % qrng.randrange(n_keys)
                value = server.get(key)
                if value is None or value[:8] != expected[key]:
                    raise AssertionError(
                        f"GET {key!r} returned corrupted value")
                yield "get"
        return gen()
    return factory


def seqread_tenant(nbytes: int = 4 * MIB, passes: int = 2,
                   chunk_bytes: int = 64 * KIB) -> WorkloadFactory:
    """A streaming tenant: fill a buffer, then re-read it sequentially
    (one op per chunk) — steady backend pressure for co-tenants."""

    def factory(system) -> Iterator[str]:
        from repro.apps.views import PagedBytes

        def gen() -> Iterator[str]:
            buf = PagedBytes(system, nbytes, name="seqread.buf")
            for start, stop in buf.chunks(chunk_bytes):
                pattern = bytes((start // chunk_bytes + j) & 0xFF
                                for j in range(min(64, stop - start)))
                buf.write(start, pattern)
                yield "fill"
            for _ in range(passes):
                for start, stop in buf.chunks(chunk_bytes):
                    buf.read(start, stop - start)
                    yield "scan"
        return gen()
    return factory


# -- preset scenarios --------------------------------------------------------

def _spec(kind: str, local_bytes: int) -> SystemSpec:
    return SystemSpec(kind=kind, local_mem_bytes=local_bytes)


def kmeans_redis(backend: BackendSpec = "sharded:2",
                 remote_mem_bytes: int = 64 * MIB,
                 quantum_us: float = 100.0,
                 kind: str = "dilos-readahead") -> ComputeCluster:
    """The paper-style pairing: an analytics scan and a latency-sensitive
    key-value server contending for one sharded pool. Local budgets sit
    well under both working sets, so each tenant faults and evicts into
    the shared backend while the other runs."""
    cluster = ComputeCluster(backend=backend,
                             remote_mem_bytes=remote_mem_bytes,
                             quantum_us=quantum_us)
    cluster.add_tenant("kmeans", _spec(kind, 256 * KIB), kmeans_tenant())
    cluster.add_tenant("redis", _spec(kind, 256 * KIB), redis_get_tenant())
    return cluster


def stream_duo(backend: BackendSpec = "replicated:2",
               remote_mem_bytes: int = 64 * MIB,
               quantum_us: float = 250.0,
               kind: str = "dilos-readahead") -> ComputeCluster:
    """Two identical streamers — the fairness smoke test: Jain's index
    should sit near 1.0."""
    cluster = ComputeCluster(backend=backend,
                             remote_mem_bytes=remote_mem_bytes,
                             quantum_us=quantum_us)
    cluster.add_tenant("stream_a", _spec(kind, 256 * KIB), seqread_tenant())
    cluster.add_tenant("stream_b", _spec(kind, 256 * KIB), seqread_tenant())
    return cluster


def mixed_trio(backend: BackendSpec = "sharded:2",
               remote_mem_bytes: int = 96 * MIB,
               quantum_us: float = 500.0,
               kind: str = "dilos-readahead") -> ComputeCluster:
    """Analytics + key-value + streaming, three kernels of the same kind
    on one pool — the full contention story."""
    cluster = ComputeCluster(backend=backend,
                             remote_mem_bytes=remote_mem_bytes,
                             quantum_us=quantum_us)
    cluster.add_tenant("kmeans", _spec(kind, 512 * KIB), kmeans_tenant())
    cluster.add_tenant("redis", _spec(kind, 512 * KIB), redis_get_tenant())
    cluster.add_tenant("stream", _spec(kind, 256 * KIB), seqread_tenant())
    return cluster


def _run_repair(backend: str = "replicated:2",
                kind: str = "dilos-readahead",
                region_bytes: int = 4 * MIB,
                local_bytes: int = 1 * MIB,
                repair: str = ("resilver_period=200,resilver_batch=32,"
                               "scrub_period=1000,scrub_batch=128"),
                max_advance_us: float = 2_000_000.0) -> "PresetRun":
    """The end-to-end rejoin/repair story behind ``python -m repro repair``.

    One DiLOS computing node on a redundant cluster backend walks the
    full failure lifecycle on the simulated clock:

    1. write pattern A over the region and let the cleaner drain it;
    2. kill one member, overwrite with pattern B — every missed write
       is journaled as stale for the dead member;
    3. ``rejoin`` the member: it comes back *syncing* and the paced
       background resilver replays the journal on its own QP;
    4. corrupt one page at rest and let the periodic scrubber detect
       and repair the divergence;
    5. kill a *different* member and verify every byte of pattern B —
       the read that silently returned stale data before this subsystem
       existed.

    The run's report is a dict of phase facts and the canonical
    ``cluster.*``/``repair.*``/``scrub.*`` counters, and its cluster is
    the redundant backend. Raises ``AssertionError`` if any byte reads
    back wrong.
    """
    cluster = make_backend(backend, 2 * region_bytes)
    if isinstance(cluster, ReplicatedMemory):
        victim = cluster.mirrors[0]
        second = cluster.primary
        rot_member, rot_node = len(cluster.mirrors), cluster.mirrors[-1]
    elif isinstance(cluster, ParityStripedMemory):
        victim = cluster.data_nodes[0]
        second = cluster.data_nodes[1]
        rot_member, rot_node = cluster.k, cluster.parity_node
    else:
        raise ValueError(
            f"repair demo needs a redundant backend, not {backend!r}")

    spec = SystemSpec(kind=kind, local_mem_bytes=local_bytes,
                      remote_mem_bytes=region_bytes, backend=cluster,
                      repair=repair)
    system = spec.boot()
    clock = system.clock
    region = system.mmap(region_bytes, name="repair.ws")
    pages = region.size // PAGE_SIZE

    def fill(tag: int) -> None:
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE,
                                bytes([(i * 7 + tag) % 251]) * 48)

    def verify() -> None:
        for i in range(pages):
            got = system.memory.read(region.base + i * PAGE_SIZE, 48)
            want = bytes([(i * 7 + 1) % 251]) * 48
            assert got == want, \
                f"page {i} corrupted after rejoin: {got[:4]!r} != {want[:4]!r}"

    def advance_until(predicate, step_us: float = 1_000.0) -> float:
        start = clock.now
        while not predicate():
            if clock.now - start > max_advance_us:
                raise AssertionError("repair demo timed out waiting for "
                                     "the resilver/scrubber")
            clock.advance(step_us)
        return clock.now - start

    # 1. pattern A everywhere, cleaned to every member.
    fill(0)
    clock.advance(5_000)
    # 2. degraded writes: pattern B while the victim is down.
    victim.fail()
    fill(1)
    clock.advance(5_000)  # cleaner drains; missed writes hit the journal
    stale_after_degraded = cluster.stale_slots
    assert stale_after_degraded > 0, "no writes were journaled"
    # 3. rejoin: syncing until the paced resilver drains the journal.
    cluster.rejoin(victim)
    resilver_us = advance_until(lambda: not cluster.degraded)
    # 4. at-rest rot: flip one page on a non-authoritative member and let
    # the scrubber find it (it cycles the whole extent once per pass).
    rot_offset = 0
    rotted = bytes(b ^ 0xFF for b in rot_node.read_bytes(rot_offset, 64))
    rot_node.write_bytes(rot_offset, rotted)
    registry = cluster.registry
    scrub_us = advance_until(lambda: registry.value("scrub.repaired") > 0)
    assert cluster.journal.dirty_count(rot_member) == 0
    # 5. a *different* member dies; every byte must still be pattern B.
    second.fail()
    verify()
    snap = system.metrics()
    merged = cluster.metrics()
    interesting = {key: value for key, value in merged.counters.items()
                   if key.startswith(("cluster.", "repair.", "scrub."))}
    report = {
        "backend": backend,
        "kind": kind,
        "pages": pages,
        "stale_after_degraded": stale_after_degraded,
        "resilver_us": resilver_us,
        "scrub_us": scrub_us,
        "counters": interesting,
    }
    return PresetRun(report, cluster, Digests(None, snap.digest(), clock.now))


# -- open-loop serving presets -----------------------------------------------
#
# Each preset enrolls service tenants (request handlers, not workload
# generators) and attaches a ServeSpec; ``cluster.serve()`` then plays
# the whole open-loop story: arrivals -> admission -> balancer -> SLO
# accounting. Each preset's ``contrast`` in :data:`PRESETS` is the
# ServeSpec override producing the naive run the preset argues against
# (no admission, load-blind routing).

def flash_crowd(backend: BackendSpec = "sharded:2",
                kind: str = "dilos-readahead") -> ComputeCluster:
    """Bursty overload (MMPP flash crowds at ~10x the fleet's capacity).

    With ``depth/64`` admission the queue — and therefore the p99 — stays
    bounded well inside the 1 ms SLO while shed requests count on
    ``serve.shed``; the naive no-admission contrast run lets the backlog
    grow for the whole burst and violates the SLO for most requests.
    """
    serve = ("bursty:rate=100k,burst_rate=3m,on=3ms,off=5ms,clients=1m,"
             "slo=1ms,requests=6000,seed=7,admission=depth/64")
    cluster = ComputeCluster(backend=backend, remote_mem_bytes=64 * MIB,
                             serve=serve)
    spec = _spec(kind, 256 * KIB)
    cluster.add_service("web1", spec, "redis", n_keys=400, value_bytes=4096)
    cluster.add_service("web2", spec, "redis", n_keys=400, value_bytes=4096)
    return cluster


def hot_key_skew(backend: BackendSpec = "sharded:2",
                 kind: str = "dilos-readahead") -> ComputeCluster:
    """Zipf-skewed keys under consistent-hash routing.

    Key affinity sends the whole hot head of the distribution to one
    tenant (watch ``tenant.kv1.served`` vs its peers and the p99); the
    ``least`` contrast run spreads load evenly at the cost of affinity.
    """
    serve = ("poisson:rate=600k,clients=1m,slo=1ms,requests=6000,seed=11,"
             "balance=hash")
    cluster = ComputeCluster(backend=backend, remote_mem_bytes=64 * MIB,
                             serve=serve)
    spec = _spec(kind, 256 * KIB)
    for name in ("kv1", "kv2", "kv3"):
        cluster.add_service(name, spec, "redis", n_keys=400,
                            value_bytes=4096, skew=1.2)
    return cluster


def slow_tenant_isolation(backend: BackendSpec = "sharded:2",
                          kind: str = "dilos-readahead") -> ComputeCluster:
    """Two fast replicas and one memory-starved laggard.

    Least-outstanding routing notices the laggard's growing queue and
    routes around it (it ends up serving a small residual share); the
    round-robin contrast run blindly gives it a third of the traffic and
    drags the whole fleet's p99 up by orders of magnitude.
    """
    serve = ("poisson:rate=900k,clients=1m,slo=1ms,requests=6000,seed=13,"
             "balance=least")
    cluster = ComputeCluster(backend=backend, remote_mem_bytes=64 * MIB,
                             serve=serve)
    fast = _spec(kind, 4 * MIB)
    laggard = _spec(kind, 128 * KIB)
    cluster.add_service("fast1", fast, "redis", n_keys=400, value_bytes=4096)
    cluster.add_service("fast2", fast, "redis", n_keys=400, value_bytes=4096)
    cluster.add_service("laggard", laggard, "redis", n_keys=400,
                        value_bytes=4096)
    return cluster


def llm_flash_crowd(backend: BackendSpec = "sharded:2",
                    kind: str = "dilos-readahead") -> ComputeCluster:
    """Bursty inference overload against two llm service tenants.

    Generation is orders of magnitude more expensive per request than a
    KV GET, so a flash crowd saturates the fleet almost immediately and
    the *time-to-first-token* tail (``serve.ttft_us``, queueing included)
    blows through the SLO without admission; the preset's token bucket
    sheds the burst overhang and keeps TTFT p99 bounded. The naive
    contrast run drops admission and lets the backlog compound.
    """
    serve = ("bursty:rate=4k,burst_rate=1m,on=3ms,off=5ms,clients=100k,"
             "slo=1ms,requests=1200,seed=23,admission=bucket/5k/16")
    cluster = ComputeCluster(backend=backend, remote_mem_bytes=64 * MIB,
                             serve=serve)
    spec = _spec(kind, 256 * KIB)
    cluster.add_service("gen1", spec, "llm", seed=47)
    cluster.add_service("gen2", spec, "llm", seed=47)
    return cluster


def _run_kv_failover(backend: BackendSpec = "replicated:3",
                     kind: str = "dilos-readahead",
                     requests: int = 700,
                     lease_us: float = 120.0,
                     kill_at_us: float = 500.0,
                     rejoin_at_us: float = 800.0) -> "PresetRun":
    """The full chaos suite against the replicated KV service.

    Two KV tenants serve an open-loop Poisson stream over one redundant
    backend while the fault schedule runs: lossy replication wire
    (seeded drop + corrupt), the lease holder killed mid-run, then
    rejoined so the paced background resilver replays its journal under
    load. The lease gates requests while the holder's death is fresh
    (``kv.unavail_rejects``), failover elects a clean member once the
    lease lapses, and the end-of-run :meth:`verify` audit folds any lost
    update into the digest — the acceptance criterion is that
    ``kv.lost_updates`` reads 0 and the whole run (trace digest, final
    clock, merged metrics) is byte-identical across repeats.
    """
    serve = (f"poisson:rate=30k,clients=50k,slo=4ms,requests={requests},"
             "seed=37,balance=least")
    cluster = ComputeCluster(backend=backend, remote_mem_bytes=32 * MIB,
                             repair="resilver_period=100,resilver_batch=32",
                             serve=serve)
    spec = _spec(kind, 256 * KIB)
    for name in ("kv1", "kv2"):
        cluster.add_service(name, spec, "kv", n_keys=48, value_bytes=160,
                            skew=0.9, write_fraction=0.35, seed=41,
                            lease_us=lease_us,
                            net_faults="drop=0.002,corrupt=0.001,seed=97")
    victim = cluster.backend.member_nodes()[0]
    # Timers fire as the shared busy clock passes their deadlines while
    # handlers charge work, so the kill lands mid-write-burst and the
    # rejoin leaves the resilver running under serving load.
    cluster.clock.call_at(kill_at_us, victim.fail)
    cluster.clock.call_at(rejoin_at_us,
                          lambda: cluster.backend.rejoin(victim))
    report = cluster.serve()
    for tenant in cluster.tenants:
        service = tenant.extra.get("service")
        if service is not None and hasattr(service, "verify"):
            service.verify()
    return PresetRun(report, cluster,
                     Digests(report.trace_digest, cluster.metrics().digest(),
                             cluster.clock.now))


def _run_tenancy(build: Callable[..., ComputeCluster],
                 max_quanta: Optional[int] = None,
                 **kwargs: Any) -> "PresetRun":
    """Round-robin a tenancy preset's tenants to completion (or for
    ``max_quanta`` time slices); the report is the cluster snapshot."""
    cluster = build(**kwargs)
    snapshot = cluster.run(max_quanta=max_quanta)
    return PresetRun(snapshot, cluster,
                     Digests(None, snapshot.digest(), cluster.clock.now))


def _run_rack(spec: str = DEFAULT_RACK_SERVE, **kwargs: Any) -> "PresetRun":
    """Serve :func:`~repro.sim.rack.make_rack` once; ``spec`` replaces
    the rack's serve spec."""
    cluster = make_rack(serve=spec, **kwargs)
    return _served(cluster, cluster.serve())


# -- the registry ------------------------------------------------------------

#: A named acceptance check: raises ``AssertionError`` when the property
#: it names does not hold for the run.
Check = Callable[["PresetRun"], None]


class Digests(NamedTuple):
    """What a repeated run must reproduce exactly."""

    #: Request-trace digest (serving presets only).
    trace: Optional[str]
    metrics: str
    #: Final simulated clock (us).
    clock: float


@dataclass
class PresetRun:
    """One preset run: its report, the cluster it ran on, its digests."""

    report: Any
    cluster: Any
    digests: Digests
    preset: Optional["Preset"] = None
    #: The overrides this run was built with.
    overrides: Dict[str, Any] = field(default_factory=dict)
    _memo: Dict[Any, Any] = field(default_factory=dict, repr=False)

    def memo(self, key: Any, compute: Callable[[], Any]) -> Any:
        """``compute()`` once per key, so checks share their extra runs."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def rerun(self, **changes: Any) -> "PresetRun":
        """This preset again, ``changes`` on top of this run's overrides
        (memoized: the naive contrast runs once for all checks)."""
        assert self.preset is not None
        preset = self.preset
        return self.memo(tuple(sorted(changes.items())),
                         lambda: preset.run(**{**self.overrides, **changes}))


def _given(**overrides: Any) -> Dict[str, Any]:
    """Drop ``None`` overrides: they mean "the preset's default"."""
    return {key: value for key, value in overrides.items()
            if value is not None}


def _served(cluster: ComputeCluster, report: Any) -> "PresetRun":
    return PresetRun(report, cluster,
                     Digests(report.trace_digest, report.snapshot.digest(),
                             cluster.clock.now))


@dataclass(frozen=True)
class Preset:
    """A fixed, repeatable scenario and the properties it demonstrates."""

    description: str
    #: The CLI command that runs this preset.
    command: str
    #: ``runner(**overrides) -> PresetRun``; ``None`` for serve presets,
    #: which serve :meth:`cluster` once.
    runner: Optional[Callable[..., PresetRun]] = None
    #: Check name -> check.
    checks: Dict[str, Check] = field(default_factory=dict)
    #: The override sets the checks and the determinism gate run on.
    variants: Tuple[Dict[str, Any], ...] = ({},)
    #: Serve presets: the fresh-cluster builder, the ServeSpec overrides
    #: of the naive contrast run, and a label for that run.
    build: Optional[Callable[..., ComputeCluster]] = None
    contrast: Dict[str, Any] = field(default_factory=dict)
    contrast_label: str = ""

    def cluster(self, naive: bool = False, spec: Any = None,
                **kwargs: Any) -> ComputeCluster:
        """A serve preset's fresh cluster. ``spec`` replaces the preset's
        serve spec; ``naive`` then applies the contrast on top of it."""
        assert self.build is not None, "not a serve preset"
        cluster = self.build(**kwargs)
        if spec is not None:
            cluster.serve_spec = coerce_serve_spec(spec)
        if naive:
            cluster.serve_spec = cluster.serve_spec.with_overrides(
                **self.contrast)
        return cluster

    def run(self, **overrides: Any) -> PresetRun:
        """One fresh run; a ``None`` override keeps the preset default."""
        overrides = _given(**overrides)
        if self.runner is not None:
            result = self.runner(**overrides)
        else:
            cluster = self.cluster(**overrides)
            result = _served(cluster, cluster.serve())
        result.preset, result.overrides = self, overrides
        return result


class DeterminismError(AssertionError):
    """A repeated preset run did not reproduce the first run's digests."""


def run_preset(name: str, repeat: int = 2, **overrides: Any) -> PresetRun:
    """Run preset ``name`` ``repeat`` times from scratch and return the
    first run; every repeat must reproduce its digests (request trace,
    metrics, final clock) exactly or :class:`DeterminismError` is raised.
    ``repeat=1`` runs once, ungated."""
    preset = PRESETS[name]
    first = preset.run(**overrides)
    for _ in range(repeat - 1):
        again = preset.run(**overrides).digests
        if again != first.digests:
            raise DeterminismError(
                f"determinism drift in {name}: the repeated run produced a "
                "different request trace, metrics digest or final clock "
                f"({first.digests} != {again})")
    return first


def presets(command: str) -> Dict[str, Preset]:
    """The presets the CLI ``command`` runs, by name."""
    return {name: preset for name, preset in PRESETS.items()
            if preset.command == command}


def lookup(name: str, command: str) -> Preset:
    """The ``command`` preset called ``name``; ``ValueError`` if none."""
    found = presets(command)
    if name not in found:
        noun = "scenario" if command == "tenants" else f"{command} preset"
        raise ValueError(f"unknown {noun} {name!r}; "
                         f"pick from {sorted(found)}")
    return found[name]


def build_serve_scenario(name: str, backend: Optional[BackendSpec] = None,
                         kind: Optional[str] = None,
                         naive: bool = False) -> ComputeCluster:
    """Build a serving preset by name (fresh cluster, ready to serve).

    ``naive=True`` applies the preset's contrast overrides to the
    attached :class:`~repro.serve.ServeSpec` — the configuration the
    preset demonstrates against.
    """
    return lookup(name, "serve").cluster(
        naive=naive, **_given(backend=backend, kind=kind))


# -- acceptance checks -------------------------------------------------------

def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def _p99(report: Any) -> float:
    return report.latency.get("p99", 0.0)


def _zero_slo_violations(run: PresetRun) -> None:
    report = run.report
    _expect(report.slo_violations == 0,
            f"admission run violated the SLO {report.slo_violations} times "
            f"(p99 {_p99(report):.1f} us vs {report.spec.slo_us:g} us)")


def _sheds_under_overload(run: PresetRun) -> None:
    _expect(run.report.shed > 0, "nothing was shed under an overload "
            "burst; admission is not engaging")


def _naive_p99_breaks_slo(run: PresetRun) -> None:
    naive, slo = run.rerun(naive=True).report, run.report.spec.slo_us
    _expect(_p99(naive) > slo, f"naive p99 {_p99(naive):.1f} us sits inside "
            f"the {slo:g} us SLO; the overload demonstration is vacuous")


def _naive_violation_rate_over_half(run: PresetRun) -> None:
    rate = run.rerun(naive=True).report.violation_rate
    _expect(rate > 0.5, f"naive violation rate {rate:.3f} is too low for "
            "an overload story")


def _goodput_beats_naive(run: PresetRun) -> None:
    green, naive = run.report, run.rerun(naive=True).report
    _expect(green.goodput_rps > naive.goodput_rps,
            "shedding early should beat serving late on goodput "
            f"({green.goodput_rps:.0f} <= {naive.goodput_rps:.0f})")


def _routes_around_laggard(run: PresetRun) -> None:
    served = run.report.per_tenant
    _expect(served["laggard"] < min(served["fast1"], served["fast2"]),
            f"least-outstanding did not route around the laggard ({served})")


def _p99_beats_naive(run: PresetRun) -> None:
    green, naive = _p99(run.report), _p99(run.rerun(naive=True).report)
    _expect(green < naive, f"preset p99 {green:.1f} us is not below the "
            f"naive run's {naive:.1f} us")


def _hash_concentrates_hot_head(run: PresetRun) -> None:
    shares = sorted(run.report.per_tenant.values())
    _expect(shares[-1] > 2 * shares[0], "consistent hashing did not "
            f"concentrate the hot head ({run.report.per_tenant})")


def _ttft_p99_within_slo(run: PresetRun) -> None:
    report = run.report
    ttft, slo = report.ttft.get("p99", 0.0), report.spec.slo_us
    _expect(report.slo_violations == 0 and ttft < slo,
            f"token bucket failed to hold TTFT p99 ({ttft:.1f} us vs "
            f"{slo:g} us, {report.slo_violations} violations)")


def _naive_ttft_breaks_slo(run: PresetRun) -> None:
    ttft = run.rerun(naive=True).report.ttft.get("p99", 0.0)
    slo = run.report.spec.slo_us
    _expect(ttft > slo, f"naive TTFT p99 {ttft:.1f} us sits inside the "
            f"{slo:g} us SLO; the overload demonstration is vacuous")


def _llm_single(kind: str, ratio: float, batch_on: Optional[bool] = None):
    """The single-node llm run the token-stream checks compare against."""
    from repro.apps.llm import PD_CONFIG, LlmWorkload
    from repro.harness.experiment import local_bytes_for, make_system
    from repro.mem import batch

    workload = LlmWorkload(n_requests=6, seed=31, config=PD_CONFIG,
                           prompt_min=24, prompt_max=56,
                           out_min=8, out_max=16)
    system = make_system(kind,
                         local_bytes_for(workload.footprint_bytes, ratio))
    if batch_on is None:
        return workload.run(system)
    with batch.force(batch_on):
        return workload.run(system)


def _llm_reference(run: PresetRun) -> Tuple[str, str]:
    ref = run.memo("llm_reference",
                   lambda: _llm_single("dilos-readahead", 1.0))
    return ref.token_digest, ref.kv_digest


def _token_stream_kernel_invariant(run: PresetRun) -> None:
    want = _llm_reference(run)
    for kind, ratio, batch_on in (
            ("dilos-readahead", 0.125, None), ("dilos-readahead", 0.5, None),
            ("fastswap", 0.25, None), ("aifm-rdma", 0.25, None),
            ("dilos-readahead", 0.25, True),
            ("dilos-readahead", 0.25, False)):
        result = _llm_single(kind, ratio, batch_on)
        _expect((result.token_digest, result.kv_digest) == want,
                f"{kind}@{ratio} (batch={batch_on}): token/KV digests "
                "diverged from the all-local DiLOS run")


def _pd_split_matches_single_node(run: PresetRun) -> None:
    from repro.apps.llm import run_pd

    want = _llm_reference(run)
    for split in ("3:1", "2:2", "1:3"):
        pd = run_pd("dilos-readahead", ratio=0.25, split=split,
                    n_requests=6, seed=31)
        _expect((pd.token_digest, pd.kv_digest) == want,
                f"P:D {split}: the token stream diverged from the "
                "single-node run")
        _expect(pd.kv_transfer_bytes > 0, f"P:D {split}: no KV was "
                "transferred between prefill and decode tenants")


def _pd_faulty_wire_keeps_tokens(run: PresetRun) -> None:
    from repro.apps.llm import run_pd

    pd = run_pd("dilos-readahead", ratio=0.25, split="1:2", n_requests=6,
                seed=31, net_faults="drop=0.02,delay=0.02,delay_us=10,seed=7")
    _expect((pd.token_digest, pd.kv_digest) == _llm_reference(run),
            "a dropped/delayed KV transfer changed the decoded stream")


def _pd_sweep_jobs2_equals_serial(run: PresetRun) -> None:
    from repro.apps.llm import PdSweepRunner
    from repro.harness.experiment import sweep_ratios

    def grid(jobs):
        cells = sweep_ratios("llm", PdSweepRunner("dilos-readahead",
                                                  n_requests=6),
                             ["2:2", "1:3"], [0.25, 1.0],
                             backend="sharded:2", jobs=jobs)
        return [(c.system, c.ratio, c.value, c.extra) for c in cells]

    _expect(grid(None) == grid(2), "the --jobs 2 llm sweep is not "
            "byte-identical to the serial one")


def _kv_counter(run: PresetRun, key: str) -> float:
    return run.memo("metrics", run.cluster.metrics).value(key)


def _zero_lost_updates(run: PresetRun) -> None:
    lost = _kv_counter(run, "kv.lost_updates")
    _expect(lost == 0, f"{lost:g} acknowledged writes did not survive the "
            "failover")


def _fails_over(run: PresetRun) -> None:
    _expect(_kv_counter(run, "kv.failovers") >= 1,
            "the lease-holder kill never triggered a failover")


def _blackout_rejects_requests(run: PresetRun) -> None:
    _expect(_kv_counter(run, "kv.unavail_rejects") > 0,
            "no request was rejected during the lease blackout; the "
            "split-brain guard never engaged")


def _failover_within_unavailability(run: PresetRun) -> None:
    failover = _kv_counter(run, "kv.failover_us")
    unavail = _kv_counter(run, "kv.unavail_us")
    _expect(0 < failover <= unavail, "failover latency unaccounted or "
            f"unbounded (failover_us={failover:g}, unavail_us={unavail:g})")


def _kv_resilvers_rejoined_member(run: PresetRun) -> None:
    _expect(_kv_counter(run, "repair.pages_resilvered") > 0,
            "the rejoined member resilvered nothing")


def _kv_promotes_rejoined_member(run: PresetRun) -> None:
    _expect(_kv_counter(run, "repair.nodes_promoted") == 1,
            "the rejoined member was never promoted back to full service")


def _no_stale_slots(run: PresetRun) -> None:
    stale = run.cluster.backend.stale_slots
    _expect(stale == 0, f"{stale} slots still stale at the end of the run")


def _journals_degraded_writes(run: PresetRun) -> None:
    _expect(run.report["stale_after_degraded"] > 0,
            "no writes were journaled while the member was down")


def _resilver_drains_journal(run: PresetRun) -> None:
    resilvered = run.report["counters"]["repair.pages_resilvered"]
    journaled = run.report["stale_after_degraded"]
    _expect(resilvered == journaled, f"resilvered {resilvered} pages but "
            f"{journaled} were journaled")


def _repair_promotes_rejoined_member(run: PresetRun) -> None:
    _expect(run.report["counters"]["repair.nodes_promoted"] == 1,
            "the rejoined member was never promoted back to full service")


def _scrub_repairs_injected_rot(run: PresetRun) -> None:
    counters = run.report["counters"]
    _expect(counters["scrub.mismatches"] == counters["scrub.repaired"] == 1,
            "the scrubber missed the injected rot (mismatches="
            f"{counters['scrub.mismatches']}, "
            f"repaired={counters['scrub.repaired']})")


def _nothing_quarantined(run: PresetRun) -> None:
    quarantined = run.report["counters"]["scrub.quarantined"]
    _expect(quarantined == 0, f"the scrubber quarantined {quarantined} pages")


def _cluster_counters_repeat(run: PresetRun) -> None:
    # The metrics digest covers the node's snapshot, not the backend's
    # own cluster/repair/scrub registry, so compare those counters too.
    _expect(run.rerun().report["counters"] == run.report["counters"],
            "the cluster/repair/scrub counters drifted across two runs")


#: The rack checks' placement x oversubscription grid: 6 tenants stripe
#: unevenly over the 4 compute nodes, on a short arrival stream.
_RACK_GRID = (["locality", "load"], [1.0, 4.0])
_RACK_CELL = dict(tenants=6, n_keys=32,
                  serve=("poisson:rate=400k,clients=1m,slo=2ms,requests=600,"
                         "seed=29,balance=round_robin"))


def _rack_sweep(run: PresetRun, jobs: int = 1) -> list:
    return run.memo(("sweep", jobs),
                    lambda: sweep_rack(*_RACK_GRID, jobs=jobs, **_RACK_CELL))


def _rack_cell(run: PresetRun, placement: str, oversub: float) -> dict:
    return next(row for row in _rack_sweep(run)
                if (row["placement"], row["oversub"]) == (placement, oversub))


def _sweep_is_deterministic(run: PresetRun) -> None:
    again = sweep_rack(*_RACK_GRID, jobs=1, **_RACK_CELL)
    _expect(_rack_sweep(run) == again,
            "the rack sweep drifted across two serial runs")


def _jobs2_sweep_equals_serial(run: PresetRun) -> None:
    _expect(_rack_sweep(run, jobs=2) == _rack_sweep(run),
            "the jobs=2 rack sweep is not byte-identical to the serial one")


def _locality_never_crosses_trunk(run: PresetRun) -> None:
    for oversub in _RACK_GRID[1]:
        crossings = _rack_cell(run, "locality", oversub)["trunk_crossings"]
        _expect(crossings == 0, f"locality placement crossed the trunk "
                f"{crossings:.0f} times at oversub={oversub:g}")


def _load_crosses_trunk(run: PresetRun) -> None:
    for oversub in _RACK_GRID[1]:
        _expect(_rack_cell(run, "load", oversub)["trunk_crossings"] > 0,
                f"load placement never crossed the trunk at "
                f"oversub={oversub:g}; the contrast is vacuous")


def _oversubscribed_trunk_queues(run: PresetRun) -> None:
    _expect(_rack_cell(run, "load", 4.0)["trunk_queue_us"] > 0,
            "the oversubscribed trunk shows no queueing under load placement")


def _trunk_queueing_reaches_p99(run: PresetRun) -> None:
    load = _rack_cell(run, "load", 4.0)["p99_us"]
    locality = _rack_cell(run, "locality", 4.0)["p99_us"]
    _expect(load > locality, f"load placement's trunk queueing did not reach "
            f"p99 under an oversubscribed ToR ({load:.2f} <= {locality:.2f})")


def _stranded(run: PresetRun, placement: str) -> int:
    return run.memo(("stranded", placement), lambda: make_rack(
        placement=placement, **_RACK_CELL).pool.stranded_slots)


def _locality_strands_uneven_striping(run: PresetRun) -> None:
    _expect(_stranded(run, "locality") > 0,
            "uneven striping stranded nothing under locality placement")


def _load_strands_less_than_locality(run: PresetRun) -> None:
    load, locality = _stranded(run, "load"), _stranded(run, "locality")
    _expect(load < locality, f"load placement stranded {load} slots, not "
            f"less than locality's {locality}")


# -- the table ---------------------------------------------------------------

_FLASH_CROWD_CHECKS: Dict[str, Check] = {
    "zero_slo_violations": _zero_slo_violations,
    "sheds_under_overload": _sheds_under_overload,
    "naive_p99_breaks_slo": _naive_p99_breaks_slo,
    "naive_violation_rate_over_half": _naive_violation_rate_over_half,
    "goodput_beats_naive": _goodput_beats_naive,
}

#: Every preset, by name.
PRESETS: Dict[str, Preset] = {
    "flash_crowd": Preset(
        "bursty overload; depth admission holds the SLO, naive violates",
        "serve", build=flash_crowd, contrast={"admission": "none"},
        contrast_label="no admission", checks=_FLASH_CROWD_CHECKS),
    "llm_flash_crowd": Preset(
        "inference burst; token bucket holds TTFT p99, naive violates",
        "serve", build=llm_flash_crowd, contrast={"admission": "none"},
        contrast_label="no admission", checks={
            "ttft_p99_within_slo": _ttft_p99_within_slo,
            "naive_ttft_breaks_slo": _naive_ttft_breaks_slo,
            "token_stream_kernel_invariant": _token_stream_kernel_invariant,
            "pd_split_matches_single_node": _pd_split_matches_single_node,
            "pd_faulty_wire_keeps_tokens": _pd_faulty_wire_keeps_tokens,
            "pd_sweep_jobs2_equals_serial": _pd_sweep_jobs2_equals_serial,
        }),
    "hot_key_skew": Preset(
        "zipf keys; consistent-hash affinity concentrates the hot head",
        "serve", build=hot_key_skew, contrast={"balance": "least"},
        contrast_label="least-outstanding", checks={
            "hash_concentrates_hot_head": _hash_concentrates_hot_head,
        }),
    "slow_tenant_isolation": Preset(
        "least-outstanding routes around a memory-starved laggard",
        "serve", build=slow_tenant_isolation,
        contrast={"balance": "round_robin"}, contrast_label="round-robin",
        checks={
            "routes_around_laggard": _routes_around_laggard,
            "p99_beats_round_robin": _p99_beats_naive,
        }),
    "kmeans+redis": Preset(
        "k-means scan + redis GETs on a shared pool", "tenants",
        partial(_run_tenancy, kmeans_redis)),
    "stream-duo": Preset(
        "two identical streamers (fairness smoke)", "tenants",
        partial(_run_tenancy, stream_duo)),
    "mixed-trio": Preset(
        "k-means + redis + streamer on one pool", "tenants",
        partial(_run_tenancy, mixed_trio)),
    "kv_failover": Preset(
        "replicated KV: lease-holder kill, failover, rejoin + resilver",
        "kv", _run_kv_failover,
        variants=({}, {"backend": "parity:2+1"}), checks={
            "zero_lost_updates": _zero_lost_updates,
            "fails_over": _fails_over,
            "blackout_rejects_requests": _blackout_rejects_requests,
            "failover_within_unavailability":
                _failover_within_unavailability,
            "resilvers_rejoined_member": _kv_resilvers_rejoined_member,
            "promotes_rejoined_member": _kv_promotes_rejoined_member,
            "no_stale_slots": _no_stale_slots,
        }),
    "rack": Preset(
        "redis tenants striped over a pooled rack with link contention",
        "rack", _run_rack, checks={
            "sweep_is_deterministic": _sweep_is_deterministic,
            "jobs2_sweep_equals_serial": _jobs2_sweep_equals_serial,
            "locality_never_crosses_trunk": _locality_never_crosses_trunk,
            "load_crosses_trunk": _load_crosses_trunk,
            "oversubscribed_trunk_queues": _oversubscribed_trunk_queues,
            "trunk_queueing_reaches_p99": _trunk_queueing_reaches_p99,
            "locality_strands_uneven_striping":
                _locality_strands_uneven_striping,
            "load_strands_less_than_locality":
                _load_strands_less_than_locality,
        }),
    "repair": Preset(
        "node rejoin: degraded writes, resilver, scrub, byte-exact verify",
        "repair", _run_repair,
        variants=({}, {"backend": "parity:3+1"}), checks={
            "journals_degraded_writes": _journals_degraded_writes,
            "resilver_drains_journal": _resilver_drains_journal,
            "promotes_rejoined_member": _repair_promotes_rejoined_member,
            "scrub_repairs_injected_rot": _scrub_repairs_injected_rot,
            "nothing_quarantined": _nothing_quarantined,
            "cluster_counters_repeat": _cluster_counters_repeat,
        }),
}


__all__ = [
    "Check",
    "DeterminismError",
    "Digests",
    "PRESETS",
    "Preset",
    "PresetRun",
    "build_serve_scenario",
    "flash_crowd",
    "hot_key_skew",
    "kmeans_redis",
    "kmeans_tenant",
    "llm_flash_crowd",
    "lookup",
    "mixed_trio",
    "presets",
    "redis_get_tenant",
    "run_preset",
    "seqread_tenant",
    "slow_tenant_isolation",
    "stream_duo",
]
