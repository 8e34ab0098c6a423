"""Service observability: per-tenant queue/latency counters.

Metrics are strictly *observational* — nothing in the serving path reads
them back, so wall-clock jitter in the latency sums can never leak into
a tenant's trace (the determinism contract stays with the sessions).
"""

from __future__ import annotations

from collections import Counter

__all__ = ["ServiceMetrics", "TenantMetrics"]


class TenantMetrics:
    """Counters for one tenant's command stream."""

    __slots__ = (
        "enqueued",
        "served",
        "rejected",
        "failed",
        "queue_depth",
        "max_queue_depth",
        "wait_seconds",
        "serve_seconds",
        "commands",
        "deltas_applied",
    )

    def __init__(self):
        self.enqueued = 0
        self.served = 0
        self.rejected = 0
        self.failed = 0
        self.queue_depth = 0
        self.max_queue_depth = 0
        self.wait_seconds = 0.0
        self.serve_seconds = 0.0
        self.commands: Counter = Counter()
        self.deltas_applied = 0

    def to_dict(self) -> dict:
        served = self.served
        return {
            "enqueued": self.enqueued,
            "served": served,
            "rejected": self.rejected,
            "failed": self.failed,
            "queue_depth": self.queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "wait_seconds": self.wait_seconds,
            "serve_seconds": self.serve_seconds,
            "mean_wait_seconds": self.wait_seconds / served if served else 0.0,
            "mean_serve_seconds": (
                self.serve_seconds / served if served else 0.0
            ),
            "commands": dict(self.commands),
            "deltas_applied": self.deltas_applied,
        }


class ServiceMetrics:
    """The service-wide ledger; one :class:`TenantMetrics` per tenant."""

    def __init__(self):
        self._tenants: dict[str, TenantMetrics] = {}

    def tenant(self, name: str) -> TenantMetrics:
        metrics = self._tenants.get(name)
        if metrics is None:
            metrics = self._tenants[name] = TenantMetrics()
        return metrics

    def record_enqueue(self, name: str, depth: int) -> None:
        metrics = self.tenant(name)
        metrics.enqueued += 1
        metrics.queue_depth = depth
        metrics.max_queue_depth = max(metrics.max_queue_depth, depth)

    def record_rejected(self, name: str) -> None:
        self.tenant(name).rejected += 1

    def record_start(self, name: str, waited: float, depth: int) -> None:
        metrics = self.tenant(name)
        metrics.wait_seconds += waited
        metrics.queue_depth = depth

    def record_done(
        self, name: str, op: str, elapsed: float, *, failed: bool = False
    ) -> None:
        metrics = self.tenant(name)
        metrics.serve_seconds += elapsed
        metrics.commands[op] += 1
        if failed:
            metrics.failed += 1
        else:
            metrics.served += 1
        if op in ("apply_delta", "rescore") and not failed:
            metrics.deltas_applied += 1

    def snapshot(self) -> dict:
        """Plain-data view of every tenant's counters (for reports)."""
        return {
            name: metrics.to_dict()
            for name, metrics in sorted(self._tenants.items())
        }
