"""Multi-tenant reconciliation service: shared artefacts, fair scheduling.

The online half of the pay-as-you-go story: instead of one offline
session per run, :class:`ReconciliationService` interleaves many named
tenant sessions — each with its own RNG streams, feedback and optional
durability directory — over shared resources:

* :mod:`repro.service.registry` — named tenant admission and removal;
* :mod:`repro.service.scheduler` — bounded queues, fair (round-robin or
  deficit-weighted) dispatch, backpressure and admission control;
* :mod:`repro.service.catalog` — cross-tenant cache of pure-function
  artefacts (compiled sub-networks, enumerated fills, delta results);
* :mod:`repro.service.metrics` — per-tenant queue/latency counters;
* :mod:`repro.service.service` — the assembled front-end.

The headline invariant is determinism under interleaving: any schedule
of N tenants is bit-identical, per tenant, to running that tenant's
commands alone (``tests/test_service_equivalence.py``).
"""

from .catalog import ShardCatalog
from .metrics import ServiceMetrics, TenantMetrics
from .registry import SessionRegistry, Tenant
from .scheduler import AdmissionError, RequestScheduler, SchedulerClosedError
from .service import ReconciliationService

__all__ = [
    "AdmissionError",
    "ReconciliationService",
    "RequestScheduler",
    "SchedulerClosedError",
    "ServiceMetrics",
    "SessionRegistry",
    "ShardCatalog",
    "Tenant",
    "TenantMetrics",
]
