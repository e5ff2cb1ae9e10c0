"""The open-loop serving frontend: arrivals -> admission -> balancer ->
tenant services, with SLO accounting in canonical ``serve.*`` metrics.

The frontend reconciles two timelines:

* The cluster's **shared clock** is a *busy clock*: it advances only
  while some service executes (faults, network round-trips, CPU cycles),
  exactly as in the closed-loop harness, so background machinery
  (cleaners, repair, scrub) stays bit-for-bit deterministic.
* Each tenant additionally keeps a **virtual serving timeline**. An
  arrival at virtual time ``a`` whose service work measures ``d`` µs of
  shared-clock time starts at ``start = max(a, tenant_ready)`` and
  completes at ``start + d``; ``tenant_ready`` advances to the
  completion. Request latency is ``completion - a`` — real queueing
  delay under overload, without ever rewinding the shared clock.

Queue depth at an arrival is the number of requests already routed to
the chosen tenant whose virtual completions are still in the future —
the quantity admission control bounds and the ``least`` balancer
minimizes.

Every run also folds a canonical line per request into a SHA-256
**trace digest** (arrival time, client, tenant, op, admit/shed,
latency). Two runs of the same spec must produce identical digests; the
CLI's determinism gate replays each preset twice and fails on drift.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.apps.api import Request, Service
from repro.obs import MetricsSnapshot
from repro.serve.admission import AdmissionPolicy, make_admission
from repro.serve.balancer import Balancer, make_balancer
from repro.serve.spec import Arrival, ServeSpec, make_arrivals

#: A request sampler: seeded rng -> next request (the workload model).
RequestSampler = Callable[[random.Random], Request]


@dataclass
class ServeReport:
    """Everything one open-loop run produced, ready for assertions."""

    spec: ServeSpec
    offered: int
    admitted: int
    shed: int
    completed: int
    errors: int
    goodput: int
    slo_violations: int
    #: Virtual makespan: last arrival or last completion, whichever is
    #: later. The denominator for the ``*_rps`` rates.
    elapsed_us: float
    #: SHA-256 over the canonical per-request trace lines.
    trace_digest: str
    #: ``count/mean/min/max/p50/p99/p999`` of request latency (µs).
    latency: Dict[str, float]
    #: The merged cluster snapshot taken at the end of the run.
    snapshot: MetricsSnapshot
    #: Requests routed to each tenant (admitted only).
    per_tenant: Dict[str, int] = field(default_factory=dict)
    #: ``count/mean/.../p99`` of time-to-first-token (µs), queueing
    #: delay included — populated only by token services (llm) whose
    #: responses carry ``ttft_us`` in their value dict.
    ttft: Dict[str, float] = field(default_factory=dict)
    #: Same shape for time-per-output-token (µs, decode-side only).
    tpot: Dict[str, float] = field(default_factory=dict)

    @property
    def violation_rate(self) -> float:
        """Fraction of completed requests that missed the SLO."""
        return self.slo_violations / self.completed if self.completed else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def offered_rps(self) -> float:
        return self.offered / (self.elapsed_us / 1e6) if self.elapsed_us else 0.0

    @property
    def goodput_rps(self) -> float:
        return self.goodput / (self.elapsed_us / 1e6) if self.elapsed_us else 0.0

    def summary(self) -> Dict[str, float]:
        """The headline numbers as a flat dict (report tables, tests)."""
        return {
            "offered": float(self.offered),
            "admitted": float(self.admitted),
            "shed": float(self.shed),
            "completed": float(self.completed),
            "errors": float(self.errors),
            "goodput": float(self.goodput),
            "slo_violations": float(self.slo_violations),
            "violation_rate": self.violation_rate,
            "shed_rate": self.shed_rate,
            "offered_rps": self.offered_rps,
            "goodput_rps": self.goodput_rps,
            "p50_us": self.latency.get("p50", 0.0),
            "p99_us": self.latency.get("p99", 0.0),
            "p999_us": self.latency.get("p999", 0.0),
            "ttft_p99_us": self.ttft.get("p99", 0.0),
            "tpot_p99_us": self.tpot.get("p99", 0.0),
        }


class ServeFrontend:
    """Drive one open-loop run against a cluster's service tenants.

    Args:
        cluster: a :class:`~repro.sim.tenancy.ComputeCluster` whose
            service tenants (enrolled via ``add_service``) will receive
            the requests.
        spec: the :class:`~repro.serve.spec.ServeSpec` describing the
            arrival process, admission policy, balancer and SLO.
        sampler: request factory; defaults to the first service tenant's
            ``sample_request`` (all built-in services provide one). All
            tenants should serve the same keyspace when routing by
            ``hash``, or affinity is meaningless.
    """

    def __init__(self, cluster: Any, spec: ServeSpec,
                 sampler: Optional[RequestSampler] = None) -> None:
        self.cluster = cluster
        self.spec = spec
        self._tenants = [t for t in cluster.tenants
                         if isinstance(t.extra.get("service"), Service)]
        if not self._tenants:
            raise RuntimeError(
                "no service tenants enrolled; add them with "
                "ComputeCluster.add_service(...) before serving")
        self._services: List[Service] = [t.extra["service"]
                                         for t in self._tenants]
        if sampler is None:
            head = self._services[0]
            sample = getattr(head, "sample_request", None)
            if not callable(sample):
                raise RuntimeError(
                    f"service {head.name!r} has no sample_request; pass an "
                    "explicit sampler")
            sampler = sample
        self._sampler = sampler
        registry = cluster.registry
        self._offered = registry.counter("serve.offered")
        self._admitted = registry.counter("serve.admitted")
        self._shed = registry.counter("serve.shed")
        self._completed = registry.counter("serve.completed")
        self._errors = registry.counter("serve.errors")
        self._violations = registry.counter("serve.slo_violations")
        self._goodput = registry.counter("serve.goodput")
        self._latency = registry.log_histogram("serve.latency_us")
        self._depth_hist = registry.log_histogram("serve.queue_depth")
        # Token-level SLO metrics; only populated when a service's
        # responses carry ttft_us/tpot_us in their value dict (llm).
        self._ttft = registry.log_histogram("serve.ttft_us")
        self._tpot = registry.log_histogram("serve.tpot_us")
        self._offered_rps = registry.gauge("serve.offered_rps")
        self._goodput_rps = registry.gauge("serve.goodput_rps")
        #: ``tenant.<name>.served`` counters, indexed like ``_tenants``.
        self._served = [registry.counter(f"tenant.{tenant.name}.served")
                        for tenant in self._tenants]

    def _reset_instruments(self) -> None:
        """Zero every instrument this frontend owns.

        The cluster registry shares instruments by name, so a second
        ``cluster.serve()`` on the same cluster would otherwise keep
        accumulating into the first run's ``serve.*`` counters and
        double-count the snapshot. Each run reports itself only.
        """
        for inst in (self._offered, self._admitted, self._shed,
                     self._completed, self._errors, self._violations,
                     self._goodput, self._latency, self._depth_hist,
                     self._ttft, self._tpot, *self._served):
            inst.reset()
        self._offered_rps.set(0.0)
        self._goodput_rps.set(0.0)

    def run(self) -> ServeReport:
        """Play the whole arrival stream; returns the run's report."""
        self._reset_instruments()
        spec = self.spec
        admission: AdmissionPolicy = make_admission(spec.admission)
        admission.reset()
        balancer: Balancer = make_balancer(
            spec.balance, [t.name for t in self._tenants])
        rng = random.Random(spec.seed + 1)
        clock = self.cluster.clock
        served_counters = self._served
        n = len(self._tenants)
        ready = [0.0] * n
        queues: List[Deque[float]] = [deque() for _ in range(n)]
        served = [0] * n
        trace = hashlib.sha256()
        goodput = errors = violations = shed = admitted = 0
        last_arrival = 0.0

        for arrival in make_arrivals(spec):
            last_arrival = arrival.t_us
            request = self._sampler(rng)
            self._offered.add()
            depths = self._depths(queues, arrival.t_us)
            index = balancer.pick(request.routing_key(), depths)
            depth = depths[index]
            self._depth_hist.record(float(depth))
            tenant = self._tenants[index]
            if not admission.admit(arrival.t_us, depth):
                shed += 1
                self._shed.add()
                self._trace_line(trace, arrival, tenant.name, request,
                                 admitted=False, latency_us=0.0)
                continue
            admitted += 1
            self._admitted.add()
            t0 = clock.now
            response = self._services[index].handle(request)
            duration = clock.now - t0
            start = max(arrival.t_us, ready[index])
            completion = start + duration
            ready[index] = completion
            queues[index].append(completion)
            served[index] += 1
            served_counters[index].add()
            latency = completion - arrival.t_us
            self._completed.add()
            self._latency.record(latency)
            if isinstance(response.value, dict) \
                    and "ttft_us" in response.value:
                # TTFT as the client sees it: virtual queueing delay
                # before the tenant starts, plus prefill + first decode.
                self._ttft.record((start - arrival.t_us)
                                  + response.value["ttft_us"])
                self._tpot.record(response.value.get("tpot_us", 0.0))
            if not response.ok:
                errors += 1
                self._errors.add()
            if latency > spec.slo_us:
                violations += 1
                self._violations.add()
            elif response.ok:
                goodput += 1
                self._goodput.add()
            self._trace_line(trace, arrival, tenant.name, request,
                             admitted=True, latency_us=latency)

        elapsed = max([last_arrival] + ready)
        offered = spec.requests
        self._offered_rps.set(
            offered / (elapsed / 1e6) if elapsed else 0.0)
        self._goodput_rps.set(
            goodput / (elapsed / 1e6) if elapsed else 0.0)
        return ServeReport(
            spec=spec,
            offered=offered,
            admitted=admitted,
            shed=shed,
            completed=admitted,
            errors=errors,
            goodput=goodput,
            slo_violations=violations,
            elapsed_us=elapsed,
            trace_digest=trace.hexdigest(),
            latency=dict(self._latency.summary()),
            snapshot=self.cluster.metrics(),
            per_tenant={t.name: served[i]
                        for i, t in enumerate(self._tenants)},
            ttft=dict(self._ttft.summary()),
            tpot=dict(self._tpot.summary()),
        )

    @staticmethod
    def _depths(queues: List[Deque[float]], now_us: float) -> List[int]:
        """Outstanding request count per tenant at virtual time ``now``."""
        depths = []
        for queue in queues:
            while queue and queue[0] <= now_us:
                queue.popleft()
            depths.append(len(queue))
        return depths

    @staticmethod
    def _trace_line(trace: "hashlib._Hash", arrival: Arrival, tenant: str,
                    request: Request, admitted: bool,
                    latency_us: float) -> None:
        # repr() of a float is its shortest round-trip form — stable
        # across runs and platforms, which the determinism gate relies on.
        line = (f"{arrival.t_us!r}|{arrival.client_id}|{tenant}|"
                f"{request.op}|{request.routing_key().hex()}|"
                f"{'A' if admitted else 'S'}|{latency_us!r}\n")
        trace.update(line.encode())


def serve(cluster: Any, spec: ServeSpec,
          sampler: Optional[RequestSampler] = None) -> ServeReport:
    """One-shot convenience: build a frontend and run the whole spec."""
    return ServeFrontend(cluster, spec, sampler=sampler).run()


__all__ = ["RequestSampler", "ServeFrontend", "ServeReport", "serve"]
