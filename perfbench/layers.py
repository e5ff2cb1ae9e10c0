"""Host-time attribution by layer, from outside the program.

:class:`LayerProfile` wraps the public entry points of each layer on
their classes (``install``) and puts every original back afterwards
(``uninstall``). Each wrapped call is one span: its host duration, its
self time (duration minus the spans it encloses), and the span that
caused it. Spans are kept in memory; the first :data:`SPAN_REQUESTS`
arrivals are also kept as :class:`~repro.obs.tracer.TraceRecord` s for
a Chrome trace, with the arrival index in ``args.req``.

Install before building the workload: ``DilosKernel`` hands its bound
``handle_fault`` to the VM at boot, so a kernel booted before
``install`` keeps calling the unwrapped handler.

A call counts once per entry into its layer: a call made from a span of
the same layer (a replicated backend reading from its member nodes) adds
to that layer's time but not to its call count.
"""

from __future__ import annotations

import functools
import math
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Tuple

from repro.apps.kvstore import KvStoreService
from repro.apps.llm import LlmService
from repro.apps.redis.service import RedisService
from repro.common.clock import Clock
from repro.core.dilos import DilosKernel
from repro.core.page_manager import PageManager
from repro.mem.cluster import (
    ParityStripedMemory,
    ReplicatedMemory,
    ShardedMemory,
)
from repro.mem.page_table import PageTable
from repro.mem.pool import PoolClient, PooledMemory
from repro.mem.remote import MemoryNode
from repro.mem.vm import VirtualMemory
from repro.net.qp import QueuePair
from repro.net.reliable import ReliableQP
from repro.net.topology import FabricPort
from repro.obs.registry import (
    Counter,
    Histogram,
    LogHistogram,
    MetricsRegistry,
)
from repro.obs.tracer import TraceRecord
from repro.serve.admission import (
    NoAdmission,
    QueueDepthAdmission,
    TokenBucketAdmission,
)
from repro.serve.frontend import ServeFrontend
from repro.sim.rack import RackCluster
from repro.sim.tenancy import ComputeCluster

_BACKEND_IO = ("read_bytes", "write_bytes")
_VERBS = ("post_read", "post_write", "post_read_sg", "post_write_sg", "wait")

#: span category -> the (class, method names) whose calls it covers.
LAYERS: Dict[str, List[Tuple[type, Tuple[str, ...]]]] = {
    "serve": [(ServeFrontend, ("run",))],
    "admit": [(cls, ("admit",)) for cls in (
        NoAdmission, QueueDepthAdmission, TokenBucketAdmission)],
    "apps": [(cls, ("handle",)) for cls in (
        RedisService, KvStoreService, LlmService)],
    "fault": [(DilosKernel, ("handle_fault",))],
    "prefetch": [(DilosKernel, ("prefetch_vpn",))],
    "reclaim": [(PageManager, ("cleaner_pass", "reclaimer_pass",
                               "_direct_reclaim"))],
    "page_table": [(PageTable, ("get", "set", "update"))],
    "vm": [(VirtualMemory, (
        "read", "write", "read_into", "write_from", "read_batch",
        "write_batch", "apply_trace", "touch", "read_u64", "write_u64",
        "read_u32", "write_u32"))],
    "backend": [(cls, _BACKEND_IO) for cls in (
        MemoryNode, ShardedMemory, ReplicatedMemory, ParityStripedMemory,
        PooledMemory, PoolClient)],
    "pool": [(PooledMemory, ("alloc_for",))],
    "qp": [(QueuePair, _VERBS)],
    "reliable": [(ReliableQP, _VERBS)],
    "topology": [(FabricPort, ("charge",))],
    "clock": [(Clock, ("advance_to",))],
    "obs": [
        (MetricsRegistry, ("add", "value", "snapshot", "counter", "gauge",
                           "log_histogram")),
        (Counter, ("add",)),
        (Histogram, ("record",)),
        (LogHistogram, ("record",)),
        (ComputeCluster, ("metrics",)),
        (RackCluster, ("metrics",)),
    ],
}

#: Categories whose per-call inclusive host time is kept as samples.
SAMPLED = ("apps", "fault")
#: Arrivals whose spans are kept for the Chrome trace.
SPAN_REQUESTS = 32
#: Most spans kept for the Chrome trace.
MAX_RECORDS = 200_000

_MISSING = object()


class LayerProfile:
    """Self time, call counts and spans per layer for one traced run."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.samples_ns: Dict[str, List[int]] = {}
        self.records: List[TraceRecord] = []
        self._stack: List[list] = []
        self._saved: List[Tuple[type, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (the build's calls), so the
        profile covers only what follows. Call between spans only."""
        if self._stack:
            raise RuntimeError("cannot reset inside a wrapped call")
        for category in LAYERS:
            self.calls[category] = 0
            self.self_ns[category] = 0
        for category in SAMPLED:
            self.samples_ns.setdefault(category, []).clear()
        self.records.clear()
        #: Index of the arrival being served (admission sees each once).
        self.req = -1
        self._next_id = 0
        self._origin = perf_counter_ns()

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer profile already installed")
        for category, targets in LAYERS.items():
            for cls, names in targets:
                for name in names:
                    self._saved.append(
                        (cls, name, cls.__dict__.get(name, _MISSING)))
                    setattr(cls, name,
                            self._wrap(getattr(cls, name), category,
                                       f"{cls.__name__}.{name}"))

    def uninstall(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            if original is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, original)

    def __enter__(self) -> "LayerProfile":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, func: Callable, category: str, label: str) -> Callable:
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        samples = self.samples_ns.get(category)
        counts_arrivals = category == "admit"
        # The root span is kept whatever the arrival index.
        is_root = category == "serve"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if counts_arrivals:
                self.req += 1
            parent = stack[-1] if stack else None
            req = self.req
            span_id = -1
            if ((req < SPAN_REQUESTS or is_root)
                    and len(self.records) < MAX_RECORDS):
                span_id = self._next_id
                self._next_id += 1
            # [child ns, category, span id]
            frame = [0, category, span_id]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self_ns[category] += duration - frame[0]
                if parent is None:
                    calls[category] += 1
                else:
                    parent[0] += duration
                    if parent[1] != category:
                        calls[category] += 1
                if samples is not None:
                    samples.append(duration)
                if span_id >= 0:
                    span_args: Dict[str, Any] = {"id": span_id}
                    if req >= 0 and not is_root:
                        span_args["req"] = req
                    if parent is not None and parent[2] >= 0:
                        span_args["parent"] = parent[2]
                    self.records.append(TraceRecord(
                        label, category, "X",
                        (start - self._origin) / 1000.0,
                        duration / 1000.0, span_args))
        return wrapper

    # -- results --------------------------------------------------------------

    def self_ms(self, *categories: str) -> float:
        return sum(self.self_ns[c] for c in categories) / 1e6

    def total_self_ms(self) -> float:
        return sum(self.self_ns.values()) / 1e6

    def sample_pct_us(self, category: str, p: float) -> float:
        return nearest_rank([ns / 1000.0 for ns in self.samples_ns[category]],
                            p)


def nearest_rank(values: List[float], p: float,
                 presorted: bool = False) -> float:
    """The nearest-rank ``p``-th percentile (0 for no values): the
    smallest value with at least ``p`` percent of values at or below
    it, the rank rule of ``serve.latency_us``."""
    if not values:
        return 0.0
    ordered = values if presorted else sorted(values)
    rank = math.ceil((p / 100.0) * len(ordered))
    return ordered[max(0, rank - 1)]


__all__ = ["LAYERS", "LayerProfile", "nearest_rank"]
