"""Fair asyncio dispatch of tenant commands over bounded queues.

Every tenant gets a bounded FIFO of pending commands, and a dispatcher
task picks the next (tenant, command) pair under a fairness policy and
runs it inline on the event loop, one command at a time.  Commands are
pure-Python sampling work, so worker threads would only contend for the
interpreter; running them on the loop keeps the whole service single-
threaded.

Three properties matter more than raw throughput:

* **per-tenant order** — a tenant's commands execute in submission
  order whatever the interleaving with other tenants (the determinism
  contract needs nothing stronger: tenants share only pure-function
  caches);
* **backpressure** — a full queue either rejects
  (:class:`AdmissionError`) or suspends the submitter until space
  frees, per the admission policy; a queue can never grow unboundedly;
* **fairness** — ``round-robin`` serves ready tenants cyclically;
  ``deficit`` is credit-based weighted round-robin (a tenant with
  weight *w* gets *w* grants per refill cycle), so a heavy tenant
  cannot starve light ones and a weighted tenant provably gets its
  share.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Callable, Optional

__all__ = ["AdmissionError", "RequestScheduler", "SchedulerClosedError"]

POLICIES = ("round-robin", "deficit")
ADMISSIONS = ("wait", "reject")


class AdmissionError(RuntimeError):
    """A tenant's queue is full and the admission policy rejects."""


class SchedulerClosedError(RuntimeError):
    """The scheduler has been closed; no further submissions."""


class RequestScheduler:
    """Bounded, fair, one-command-at-a-time dispatch.

    ``execute`` is a synchronous callable ``(tenant, command) -> result``
    called on the event loop; the dispatcher yields to the loop after
    every command so submitters see results and refill their queues.
    The scheduler is loop-agnostic: all asyncio state is (re)built
    lazily inside the running loop, so successive ``asyncio.run``
    entries (each draining fully) reuse one scheduler instance.
    """

    def __init__(
        self,
        execute: Callable,
        *,
        policy: str = "round-robin",
        max_pending: int = 16,
        admission: str = "wait",
        metrics=None,
    ):
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; one of {POLICIES}")
        if admission not in ADMISSIONS:
            raise ValueError(
                f"unknown admission {admission!r}; one of {ADMISSIONS}"
            )
        self._execute = execute
        self.policy = policy
        self.max_pending = max_pending
        self.admission = admission
        self.metrics = metrics
        self._queues: dict[str, deque] = {}
        self._weights: dict[str, int] = {}
        self._credits: dict[str, int] = {}
        self._ring: list[str] = []
        self._rr_next = 0
        self._closed = False
        # Loop-bound state, rebuilt whenever the running loop changes.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wakeup: Optional[asyncio.Event] = None
        self._space: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Tenant membership
    # ------------------------------------------------------------------
    def add_tenant(self, name: str, weight: int = 1) -> None:
        if name in self._queues:
            raise ValueError(f"tenant {name!r} already scheduled")
        self._queues[name] = deque()
        self._weights[name] = weight
        self._credits[name] = weight
        self._ring.append(name)

    def remove_tenant(self, name: str) -> None:
        """Drop a tenant; its queue must be empty."""
        queue = self._queues.get(name)
        if queue is None:
            raise KeyError(f"no tenant named {name!r}")
        if queue:
            raise RuntimeError(f"tenant {name!r} still has pending commands")
        del self._queues[name]
        del self._weights[name]
        del self._credits[name]
        index = self._ring.index(name)
        self._ring.remove(name)
        if index < self._rr_next:
            self._rr_next -= 1
        if self._ring:
            self._rr_next %= len(self._ring)
        else:
            self._rr_next = 0

    def queue_depth(self, name: str) -> int:
        return len(self._queues[name])

    @property
    def pending(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    # ------------------------------------------------------------------
    # Loop plumbing
    # ------------------------------------------------------------------
    def _bind_loop(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is loop:
            return
        if self.pending:
            raise RuntimeError(
                "scheduler re-entered from a new event loop with work "
                "still pending — drain before leaving the previous loop"
            )
        self._loop = loop
        self._wakeup = asyncio.Event()
        self._space = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._dispatcher = loop.create_task(self._dispatch())

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, name: str, command: dict):
        """Enqueue one command; resolves to its result (or raises).

        Suspends (``admission="wait"``) or raises :class:`AdmissionError`
        (``"reject"``) while the tenant's queue is at ``max_pending``.
        """
        if self._closed:
            raise SchedulerClosedError("scheduler is closed")
        self._bind_loop()
        queue = self._queues.get(name)
        if queue is None:
            raise KeyError(f"no tenant named {name!r}")
        while len(queue) >= self.max_pending:
            if self.admission == "reject":
                if self.metrics is not None:
                    self.metrics.record_rejected(name)
                raise AdmissionError(
                    f"tenant {name!r} has {len(queue)} pending commands "
                    f"(max_pending={self.max_pending})"
                )
            self._space.clear()
            await self._space.wait()
            if self._closed:
                raise SchedulerClosedError("scheduler closed while waiting")
        future = self._loop.create_future()
        queue.append((command, future, time.perf_counter()))
        self._idle.clear()
        if self.metrics is not None:
            self.metrics.record_enqueue(name, len(queue))
        self._wakeup.set()
        return await future

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _next_tenant(self) -> Optional[str]:
        ready = [name for name in self._ring if self._queues[name]]
        if not ready:
            return None
        if self.policy == "round-robin":
            ready_set = set(ready)
            for offset in range(len(self._ring)):
                index = (self._rr_next + offset) % len(self._ring)
                name = self._ring[index]
                if name in ready_set:
                    self._rr_next = (index + 1) % len(self._ring)
                    return name
            return None  # pragma: no cover - ready is non-empty
        # Deficit round-robin: spend credits; refill every ready tenant
        # when all of them are spent.  Weight w ⇒ w grants per cycle.
        candidates = [name for name in ready if self._credits[name] > 0]
        if not candidates:
            for name in ready:
                self._credits[name] = self._weights[name]
            candidates = ready
        order = {name: index for index, name in enumerate(self._ring)}
        choice = max(
            candidates, key=lambda name: (self._credits[name], -order[name])
        )
        self._credits[choice] -= 1
        return choice

    async def _dispatch(self) -> None:
        while True:
            name = self._next_tenant()
            if name is None:
                if self._closed:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            command, future, enqueued_at = self._queues[name].popleft()
            self._space.set()
            self._run(name, command, future, enqueued_at)
            # Let the submitter resume (and refill its queue) before the
            # next pick, so closed-loop tenants stay in the rotation.
            await asyncio.sleep(0)

    def _run(self, name, command, future, enqueued_at) -> None:
        started = time.perf_counter()
        if self.metrics is not None:
            self.metrics.record_start(
                name, started - enqueued_at, len(self._queues[name])
            )
        failed = False
        try:
            result = self._execute(name, command)
        except Exception as error:  # noqa: BLE001 - forwarded to caller
            failed = True
            if not future.cancelled():
                future.set_exception(error)
        else:
            if not future.cancelled():
                future.set_result(result)
        finally:
            if self.metrics is not None:
                self.metrics.record_done(
                    name,
                    command.get("op", "?"),
                    time.perf_counter() - started,
                    failed=failed,
                )
            if not self.pending:
                self._idle.set()

    # ------------------------------------------------------------------
    # Drain / shutdown
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Wait until every queued command has finished."""
        if self._loop is None:
            return
        self._bind_loop()
        await self._idle.wait()

    async def aclose(self, *, drain: bool = True) -> None:
        """Stop accepting work; by default finish what was admitted.

        ``drain=False`` cancels *queued* commands (their submitters see
        ``CancelledError``); a command already running finishes first,
        since commands run to completion on the loop.
        """
        if self._loop is None:
            self._closed = True
            return
        self._bind_loop()
        if drain:
            await self.drain()
        self._closed = True
        if not drain:
            for queue in self._queues.values():
                while queue:
                    _, future, _ = queue.popleft()
                    future.cancel()
            self._space.set()
            self._idle.set()
        self._wakeup.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
