"""The batch front-end: many tenant sessions over shared resources.

:class:`ReconciliationService` assembles the package: a
:class:`~repro.service.registry.SessionRegistry` of named tenants, a
:class:`~repro.service.scheduler.RequestScheduler` dispatching their
commands fairly, one at a time on the event loop, a
:class:`~repro.service.catalog.ShardCatalog` of reusable compiles and
fills, and :class:`~repro.service.metrics.ServiceMetrics` over it all.

**The determinism contract is the headline invariant**: any
interleaving of N tenants' command streams produces, per tenant,
bit-identical traces (selections, verdicts, uncertainties, probability
vectors) to running that tenant's commands alone and in order.  It
holds by construction — tenants share *no mutable sampling state*:

* sessions own their RNG streams, feedback and stores outright;
* the scheduler runs each tenant's queue in FIFO order, so a tenant's
  commands run in submission order;
* the catalog caches only pure functions of the network (compiled
  sub-networks, unconditioned enumerated fills, delta results), so a
  hit returns exactly what the tenant would have computed.

``tests/test_service_equivalence.py`` pins the contract differentially
(N concurrent tenants vs. the same programs run sequentially).

Per-tenant ``checkpoint_dir`` mirrors the ``run_durable`` protocol —
journal creation plus initial/per-transaction checkpoints — so a
service-run tenant's directory feeds :func:`repro.durability.recover`
unchanged, and a recovered session can be re-admitted under its old
name (the chaos harness does exactly this).
"""

from __future__ import annotations

import asyncio
import numbers

from ..core.delta import NetworkDelta
from ..durability.checkpoint import save_checkpoint
from ..durability.journal import FeedbackJournal
from ..durability.recovery import CHECKPOINT_FILE, JOURNAL_FILE
from .catalog import ShardCatalog
from .metrics import ServiceMetrics
from .registry import SessionRegistry, Tenant
from .scheduler import RequestScheduler

__all__ = ["ReconciliationService"]

#: Command ops that move session state (and hence hit the checkpoint
#: cadence); ``query`` is read-only.
MUTATING_OPS = ("step", "round", "apply_delta", "rescore")


class ReconciliationService:
    """Async multi-tenant front-end over shared shard infrastructure.

    ``policy``, ``max_pending`` and ``admission`` parameterise the
    scheduler; ``max_networks`` bounds the catalog's generation LRU.
    """

    def __init__(
        self,
        *,
        policy: str = "round-robin",
        max_pending: int = 16,
        admission: str = "wait",
        max_networks: int = 4,
    ):
        self.catalog = ShardCatalog(max_networks=max_networks)
        # Always None; kept because perfbench/workloads.py passes it on.
        self.pool = None
        self.registry = SessionRegistry()
        self.metrics = ServiceMetrics()
        self.scheduler = RequestScheduler(
            self._execute,
            policy=policy,
            max_pending=max_pending,
            admission=admission,
            metrics=self.metrics,
        )
        self._closed = False

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------
    def add_tenant(
        self,
        name: str,
        session,
        *,
        weight: int = 1,
        checkpoint_dir=None,
        checkpoint_every: int = 1,
    ) -> Tenant:
        """Admit a session; with ``checkpoint_dir`` it becomes durable.

        Durable admission performs the ``run_durable`` opening protocol:
        create the write-ahead journal if the session has none (a
        recovered session arrives with its journal already armed) and
        write the initial checkpoint.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        tenant = self.registry.register(
            name,
            session,
            weight=weight,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
        )
        try:
            if tenant.checkpoint_dir is not None:
                tenant.checkpoint_dir.mkdir(parents=True, exist_ok=True)
                if session.journal is None:
                    session.journal = FeedbackJournal.create(
                        tenant.checkpoint_dir / JOURNAL_FILE, tenant.kind
                    )
                save_checkpoint(
                    session, tenant.checkpoint_dir / CHECKPOINT_FILE
                )
            self.scheduler.add_tenant(name, weight=weight)
        except BaseException:
            self.registry.remove(name)
            raise
        return tenant

    def remove_tenant(self, name: str, *, checkpoint: bool = True) -> Tenant:
        """Evict a tenant (idle queues required), final checkpoint included.

        ``checkpoint=False`` skips the closing checkpoint — the right
        call after a crash, when the in-memory session is suspect and
        the durable directory's journal is the authority.
        """
        self.scheduler.remove_tenant(name)
        tenant = self.registry.remove(name)
        if checkpoint and tenant.checkpoint_dir is not None:
            save_checkpoint(
                tenant.session, tenant.checkpoint_dir / CHECKPOINT_FILE
            )
        return tenant

    # ------------------------------------------------------------------
    # Command execution (called by the scheduler on the event loop)
    # ------------------------------------------------------------------
    def _execute(self, name: str, command: dict):
        tenant = self.registry.get(name)
        session = tenant.session
        op = command.get("op")
        if op == "step":
            if tenant.kind != "expert":
                raise ValueError(f"tenant {name!r} is a crowd session; "
                                 "use the 'round' command")
            out = session.step()
        elif op == "round":
            if tenant.kind != "crowd":
                raise ValueError(f"tenant {name!r} is an expert session; "
                                 "use the 'step' command")
            out = session.round(max_questions=command.get("max_questions"))
        elif op == "apply_delta":
            out = self._apply_delta(session, command["delta"])
        elif op == "rescore":
            delta = NetworkDelta(
                rescore=self._resolve_rescore(session, command["updates"])
            )
            out = self._apply_delta(session, delta)
        elif op == "query":
            out = self._query(tenant)
        else:
            raise ValueError(f"unknown command op {op!r}")
        if op in MUTATING_OPS and tenant.checkpoint_dir is not None:
            tenant.transactions += 1
            if (
                tenant.checkpoint_every
                and tenant.transactions % tenant.checkpoint_every == 0
            ):
                save_checkpoint(
                    session, tenant.checkpoint_dir / CHECKPOINT_FILE
                )
        return out

    def _apply_delta(self, session, delta: NetworkDelta) -> dict:
        """Apply ``delta``, sharing one recompile across the fleet.

        The catalog keys results by (live network, delta): the first
        tenant pays ``apply_delta``'s incremental compile, every other
        tenant on the same generation adopts the same
        :class:`~repro.core.delta.DeltaResult` — same successor network
        object, zero extra engine work.
        """
        network = session.pnet.network
        result = self.catalog.delta_result(
            network, delta, lambda: network.apply_delta(delta)
        )
        session.apply_delta(delta, result=result)
        return {
            "structural": result.structural,
            "rescored": len(result.rescored_indices),
            "removed": len(result.removed_correspondences),
            "candidates": len(result.network.correspondences),
        }

    @staticmethod
    def _resolve_rescore(session, updates):
        """Normalise rescore updates; integer keys are engine indices."""
        items = updates.items() if hasattr(updates, "items") else updates
        correspondences = session.pnet.network.correspondences
        resolved = []
        for key, score in items:
            if isinstance(key, numbers.Integral):
                key = correspondences[key]
            resolved.append((key, float(score)))
        return tuple(resolved)

    @staticmethod
    def _query(tenant: Tenant) -> dict:
        session = tenant.session
        if tenant.kind == "crowd":
            trace = session.trace
            return {
                "kind": "crowd",
                "rounds": len(trace.rounds),
                "questions": trace.questions_asked,
                "uncertainty": trace.final_uncertainty,
                "deltas_applied": session.deltas_applied,
            }
        trace = session.trace
        return {
            "kind": "expert",
            "steps": len(trace.steps),
            "uncertainty": session.uncertainty(),
            "effort": session.effort(),
            "deltas_applied": session.deltas_applied,
        }

    # ------------------------------------------------------------------
    # Async surface
    # ------------------------------------------------------------------
    async def submit(self, name: str, command: dict):
        """Enqueue one command for ``name``; resolves to its result."""
        return await self.scheduler.submit(name, command)

    async def drain(self) -> None:
        await self.scheduler.drain()

    async def aclose(self, *, drain: bool = True) -> None:
        await self.scheduler.aclose(drain=drain)
        self.close()

    # ------------------------------------------------------------------
    # Sync conveniences
    # ------------------------------------------------------------------
    def run_programs(self, programs: dict) -> dict:
        """Run per-tenant command lists concurrently; results per tenant.

        One client task per tenant submits its commands *in order*
        (each awaiting the previous result — the service interleaves
        across tenants, never within one).  A command that raises ends
        that tenant's program; the exception object takes the result's
        place so other tenants run to completion regardless (the chaos
        harness relies on this).
        """
        results: dict[str, list] = {}

        async def client(name, commands):
            out = results[name] = []
            for command in commands:
                try:
                    out.append(await self.submit(name, command))
                except Exception as error:  # noqa: BLE001 - per-tenant fault wall
                    out.append(error)
                    break

        async def main():
            await asyncio.gather(
                *(client(name, list(cmds)) for name, cmds in programs.items())
            )
            await self.scheduler.drain()
            return results

        return asyncio.run(main())

    def stats(self) -> dict:
        """Service-wide observability: tenants and catalog."""
        return {
            "tenants": self.metrics.snapshot(),
            "catalog": self.catalog.stats(),
        }

    def close(self) -> None:
        """Write final checkpoints for durable tenants (idempotent, sync)."""
        if self._closed:
            return
        self._closed = True
        for tenant in self.registry.tenants():
            if tenant.checkpoint_dir is not None:
                save_checkpoint(
                    tenant.session, tenant.checkpoint_dir / CHECKPOINT_FILE
                )

    def __enter__(self) -> "ReconciliationService":
        if self._closed:
            raise RuntimeError("cannot re-enter a closed service")
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReconciliationService({len(self.registry)} tenants, "
            f"policy={self.scheduler.policy!r})"
        )
