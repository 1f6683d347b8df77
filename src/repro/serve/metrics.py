"""The ``serve/`` metrics namespace: thread-safe service-wide telemetry.

The engine-side :class:`~repro.obs.metrics.MetricsRegistry` is
deliberately lock-free — one engine run, one thread.  A service is the
opposite: many workers complete requests concurrently and every
completion touches shared counters.  :class:`ServiceMetrics` wraps one
registry with a lock and owns the ``serve/`` namespace:

========================  =====================================================
counter                   meaning
========================  =====================================================
``serve/submitted``       submissions offered to the service
``serve/accepted``        submissions admitted to the queue
``serve/rejected``        shed at the door (queue full / dead-on-arrival)
``serve/circuit_open``    rejected by an open circuit breaker
``serve/shed``            shed at dequeue (deadline expired while queued)
``serve/ok``              complete results
``serve/degraded``        degraded results (partial + checkpoint)
``serve/failed``          permanent failures
``serve/cancelled``       cooperative cancellations
``serve/retries``         transient-fault retries across all requests
``serve/queue_depth``     gauge: current admission-queue depth
``serve/breakers_open``   gauge: breakers currently not closed
========================  =====================================================

plus the latency distributions ``serve/latency_s`` (submit → terminal)
and ``serve/queue_s`` (time spent queued), from which :meth:`stats`
derives p50/p99.  The sharded front door's ``shard/latency_s`` is its
own submit → deliver time, and ``shard/worker_latency_s`` is the
worker's figure for the same requests (``worker_latency_ms_p50``/
``_p99`` in :meth:`stats`).  Per-request engine registries are merged in on
completion, so engine counters (γ firings, saturation facts, phase
times) aggregate fleet-wide under their usual names.
"""

from __future__ import annotations

import threading
from typing import Any, Dict

from repro.obs.metrics import MetricsRegistry

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """A lock-guarded :class:`MetricsRegistry` owning one namespace.

    The default namespace is ``serve`` (the in-process
    :class:`~repro.serve.service.QueryService`); the sharded front door
    instantiates a second one under ``shard`` so process-topology
    counters (spawns, crashes, restarts, failovers, recoveries) never
    mix with per-request serving counters.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        namespace: str = "serve",
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.namespace = namespace
        self._prefix = f"{namespace}/"
        self._lock = threading.Lock()

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.registry.inc(f"{self._prefix}{name}", amount)

    def gauge(self, name: str, value: Any) -> None:
        with self._lock:
            self.registry.set_counter(f"{self._prefix}{name}", value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self.registry.observe(f"{self._prefix}{name}", value)

    def merge_request(self, request_registry: MetricsRegistry) -> None:
        """Fold a finished request's private registry into the service's."""
        with self._lock:
            self.registry.merge(request_registry)

    def counter(self, name: str) -> Any:
        with self._lock:
            return self.registry.counter(f"{self._prefix}{name}")

    def stats(self) -> Dict[str, Any]:
        """A JSON-ready view: every namespaced counter (prefix stripped)
        plus latency percentiles in milliseconds."""
        with self._lock:
            counters = {
                name[len(self._prefix):]: value
                for name, value in self.registry.counters.items()
                if name.startswith(self._prefix)
            }
            latency: Dict[str, Any] = {}
            for series, label in (
                (f"{self._prefix}latency_s", "latency_ms"),
                (f"{self._prefix}queue_s", "queue_ms"),
                (f"{self._prefix}worker_latency_s", "worker_latency_ms"),
            ):
                for q, suffix in ((0.50, "p50"), (0.99, "p99")):
                    value = self.registry.quantile(series, q)
                    if value is not None:
                        latency[f"{label}_{suffix}"] = round(value * 1000.0, 3)
            return {"counters": counters, **latency}

    def snapshot(self) -> Dict[str, Any]:
        """The full underlying registry snapshot (service + merged
        per-request engine metrics)."""
        with self._lock:
            return self.registry.snapshot()
