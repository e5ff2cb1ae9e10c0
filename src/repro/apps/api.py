"""The unified Workload/Service API every app serves through.

Historically each app exposed its own closed-loop driver (``GetWorkload``
runs its own GET loop, the taxi workload runs its own query batch), so
nothing generic — a load balancer, an admission controller, a latency
recorder — could drive "any app". This module defines the one
request/response surface the serving layer (:mod:`repro.serve`) speaks:

* :class:`Request` / :class:`Response` — typed, frozen request envelopes.
  ``op`` selects the handler (``"get"``, ``"mean_fare"``); ``key`` is
  the routing key consistent-hash balancers use.
* :class:`Service` — the protocol: ``handle(request) -> Response``.
  Services that want to be driven by generic scenario presets also
  provide ``sample_request(rng) -> Request`` — a deterministic draw from
  the app's own key/op popularity distribution.
* :class:`ServiceRegistry` — name -> factory, the same registry shape as
  the kernel/backend registries in :mod:`repro.core.spec`. Factories
  receive the booted system plus keyword parameters and return a ready
  (pre-populated) service. The built-in services self-register when
  their module imports; :data:`SERVICES` lazily imports them by name so
  ``SERVICES.build("redis", system)`` works without side-effect imports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

try:  # Protocol is 3.8+; runtime_checkable keeps isinstance() working.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - not reachable on supported pythons
    from typing_extensions import Protocol, runtime_checkable  # type: ignore


@dataclass(frozen=True)
class Request:
    """One request as the serving layer sees it.

    ``op`` names the service operation; ``key`` is the object addressed
    (and the consistent-hash routing key); ``value`` carries write
    payloads; ``args`` carries per-op extras (an LRANGE count, a query
    bound); ``client_id`` identifies the simulated client that issued it.
    """

    op: str
    key: bytes = b""
    value: bytes = b""
    args: Tuple[Any, ...] = ()
    client_id: int = 0

    def routing_key(self) -> bytes:
        """What key-affinity balancers hash: the key, or the op when the
        request addresses no object (analytics queries)."""
        return self.key if self.key else self.op.encode()


@dataclass(frozen=True)
class Response:
    """The service's answer: ``ok`` plus a value or an error string."""

    ok: bool = True
    value: Any = None
    error: str = ""

    @classmethod
    def fail(cls, error: str) -> "Response":
        return cls(ok=False, value=None, error=error)


@runtime_checkable
class Service(Protocol):
    """Anything the load balancer can drive: a named request handler."""

    name: str

    def handle(self, request: Request) -> Response:
        """Serve one request, charging simulated time as it goes."""
        ...  # pragma: no cover - protocol body


#: A service factory: (booted system, **params) -> ready Service.
ServiceFactory = Callable[..., Service]

#: Modules that self-register built-in services on import.
_BUILTIN_MODULES: Dict[str, str] = {
    "kv": "repro.apps.kvstore",
    "llm": "repro.apps.llm",
    "redis": "repro.apps.redis.service",
    "taxi": "repro.apps.dataframe",
}


class ServiceRegistry:
    """name -> :data:`ServiceFactory`, mirroring the kernel registry."""

    def __init__(self) -> None:
        self._factories: Dict[str, ServiceFactory] = {}

    def register(self, name: str,
                 factory: ServiceFactory = None) -> Callable:
        """Register ``factory`` under ``name`` (usable as a decorator)."""
        if factory is None:
            def deco(fn: ServiceFactory) -> ServiceFactory:
                self.register(name, fn)
                return fn
            return deco
        if name in self._factories:
            raise ValueError(f"service kind {name!r} already registered")
        self._factories[name] = factory
        return factory

    def unregister(self, name: str) -> None:
        """Remove a registered service kind (tests/extensions only)."""
        self._factories.pop(name, None)

    def factory(self, name: str) -> ServiceFactory:
        """The factory for ``name``, lazily importing built-in modules."""
        if name not in self._factories and name in _BUILTIN_MODULES:
            __import__(_BUILTIN_MODULES[name])
        try:
            return self._factories[name]
        except KeyError:
            raise ValueError(
                f"unknown service kind {name!r}; pick from "
                f"{sorted(set(self._factories) | set(_BUILTIN_MODULES))}"
            ) from None

    def build(self, name: str, system: Any, **params: Any) -> Service:
        """Build a ready service of kind ``name`` on ``system``."""
        return self.factory(name)(system, **params)

    def kinds(self) -> Tuple[str, ...]:
        """Registered kinds plus the lazily importable built-ins."""
        return tuple(sorted(set(self._factories) | set(_BUILTIN_MODULES)))


#: The process-wide service registry, like ``repro.core.spec``'s kernels.
SERVICES = ServiceRegistry()


@dataclass
class ClosedLoopStats:
    """Summary of a generic closed-loop run (testing/back-compat aid)."""

    requests: int
    errors: int
    elapsed_us: float
    metrics: Dict[str, Any] = field(default_factory=dict)


def run_closed_loop(service: Service, system: Any, requests: int,
                    seed: int = 17) -> ClosedLoopStats:
    """Drive ``service`` with its own ``sample_request`` stream, serially.

    The minimal bridge from the Service protocol back to the historical
    closed-loop shape: one request at a time, no think time, no queueing.
    Useful for conformance tests; real serving goes through
    :class:`repro.serve.frontend.ServeFrontend`.
    """
    sampler = getattr(service, "sample_request", None)
    if sampler is None:
        raise TypeError(f"service {service.name!r} has no sample_request; "
                        "drive it with explicit Requests instead")
    rng = random.Random(seed)
    # Sample the whole request batch up front: samplers touch only their
    # own rng, so the draw sequence (and thus every request) is identical
    # to sampling inline, and the serve loop below stays branch-free.
    pending = [sampler(rng) for _ in range(requests)]
    errors = 0
    begin = system.clock.now
    for request in pending:
        response = service.handle(request)
        if not response.ok:
            errors += 1
    return ClosedLoopStats(requests=requests, errors=errors,
                           elapsed_us=system.clock.now - begin,
                           metrics=system.metrics())


__all__ = [
    "ClosedLoopStats",
    "Request",
    "Response",
    "SERVICES",
    "Service",
    "ServiceFactory",
    "ServiceRegistry",
    "run_closed_loop",
]
