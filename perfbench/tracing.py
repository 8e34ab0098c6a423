"""Per-layer tracing: spans the benchmark wraps around each layer's calls.

The program carries no instrumentation of its own yet, so :func:`install`
wraps the public entry points of every layer (matchers, linter, engine
compile, sampler, probability views, selection, reconciliation step,
deliverable, shards, deltas, crowd rounds, journal, checkpoints, service
dispatch) for the duration of one traced run and restores them afterwards.

Time is attributed by processor sharing.  At every span boundary the
wall-clock time since the previous boundary is split evenly between the
innermost open span of each thread, or booked to ``unattributed`` when no
thread has a span open.  Self times therefore add up to the traced wall
clock exactly, also while the service runs commands on two executor
threads at once (one of them often blocked in ``fsync``, so the split is an
approximation of who used the processor, not a measurement of it).

A call into a layer whose span is already open on the calling thread
opens no second span: its time stays with the outer one and the layer's
call count is not inflated.  Nor does a call made in excluded time (input
generation, output checks, deliverable probes along a session).  Some layers also defer to a caller: a shard
compiles its own sub-network, and that compile is shard build time, not
``core.compile``.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

UNATTRIBUTED = "unattributed"
EXCLUDED = "excluded"


class Tracer:
    """Self time, span counts and event counters, per layer name."""

    def __init__(self):
        self._lock = threading.Lock()
        self._stacks: dict[int, list[str]] = {}
        self._last = 0.0
        self.active = False
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.spans: Counter = Counter()
        self.counts: Counter = Counter()

    def start(self) -> None:
        self._last = time.perf_counter()
        self.active = True

    def stop(self) -> float:
        """Stop recording; returns the traced total (excluded time removed)."""
        with self._lock:
            self._advance(time.perf_counter())
            self.active = False
        return self.total()

    def total(self) -> float:
        return sum(
            seconds for name, seconds in self.seconds.items() if name != EXCLUDED
        )

    def _advance(self, now: float) -> None:
        elapsed = now - self._last
        self._last = now
        running = [stack[-1] for stack in self._stacks.values() if stack]
        if not running:
            self.seconds[UNATTRIBUTED] += elapsed
            return
        share = elapsed / len(running)
        for name in running:
            self.seconds[name] += share

    def _stack(self) -> list[str]:
        # Only called under the lock: _advance iterates the dict.
        return self._stacks.setdefault(threading.get_ident(), [])

    def _open(self) -> list[str]:
        return self._stacks.get(threading.get_ident(), [])

    def inside(self, *prefixes: str) -> bool:
        """Whether the calling thread has a span open under any prefix."""
        return any(name.startswith(prefixes) for name in self._open())

    def innermost(self) -> str | None:
        stack = self._open()
        return stack[-1] if stack else None

    def enter(self, name: str) -> bool:
        """Open ``name`` on this thread; False if it is already open, or
        if excluded time is (calls made there belong to no layer)."""
        with self._lock:
            stack = self._stack()
            if name in stack or EXCLUDED in stack:
                return False
            self._advance(time.perf_counter())
            stack.append(name)
            self.spans[name] += 1
            return True

    def exit(self) -> None:
        with self._lock:
            self._advance(time.perf_counter())
            self._stack().pop()

    @contextmanager
    def excluded(self):
        """Time spent here is neither a layer's nor the run's (input work)."""
        opened = self.active and self.enter(EXCLUDED)
        try:
            yield
        finally:
            if opened:
                self.exit()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount


def _wrap(tracer: Tracer, function, name, hook):
    """``function`` inside a span; ``name`` may be a chooser returning None."""

    @functools.wraps(function)
    def traced(*args, **kwargs):
        if not tracer.active:
            return function(*args, **kwargs)
        span = name() if callable(name) else name
        opened = span is not None and tracer.enter(span)
        try:
            result = function(*args, **kwargs)
        finally:
            if opened:
                tracer.exit()
        if hook is not None:
            hook(opened, args, result)
        return result

    return traced


def _patch(patches: list, owner, attribute: str, tracer: Tracer, name, hook=None):
    raw = owner.__dict__[attribute]
    if isinstance(raw, classmethod):
        replacement = classmethod(_wrap(tracer, raw.__func__, name, hook))
    else:
        replacement = _wrap(tracer, raw, name, hook)
    patches.append((owner, attribute, raw))
    setattr(owner, attribute, replacement)


def install(tracer: Tracer):
    """Wrap every layer's entry points; returns a callable that undoes it."""
    from repro.analysis.linter import NetworkLinter
    from repro.core import selection
    from repro.core.constraints import ConstraintEngine
    from repro.core.network import MatchingNetwork
    from repro.core.probability import ProbabilisticNetwork, SampledEstimator
    from repro.core.reconciliation import ReconciliationSession
    from repro.core.sampling import InstanceSampler, SampleStore
    from repro.crowd.session import CrowdSession
    from repro.durability import checkpoint, recovery
    from repro.durability.journal import FeedbackJournal
    from repro.matchers.pipeline import MatcherPipeline
    from repro.service import service
    from repro.shard.store import EnumeratingSampleStore, ShardedSampleStore

    patches: list = []

    def patch(owner, attribute, name, hook=None):
        _patch(patches, owner, attribute, tracer, name, hook)

    def counter(name, amount_of=lambda args, result: 1, only_opened=True):
        def hook(opened, args, result):
            if opened or not only_opened:
                tracer.count(name, amount_of(args, result))

        return hook

    def unless_inside(span, *prefixes):
        return lambda: None if tracer.inside(*prefixes) else span

    def in_refill():
        return tracer.innermost() == "core.sampling.refill"

    patch(MatcherPipeline, "match_network", "matchers.match",
          counter("matchers.candidates", lambda args, result: len(result)))
    patch(NetworkLinter, "run", "analysis.lint",
          counter("analysis.findings", lambda args, result: len(result)))
    patch(ConstraintEngine, "__init__",
          unless_inside("core.compile", "shard.", "core.delta.", "analysis."),
          counter("core.violations",
                  lambda args, result: len(args[0].violations)))
    patch(SampledEstimator, "__init__",
          unless_inside("core.sampling.fill", "shard."))
    patch(SampleStore, "_top_up",
          unless_inside("core.sampling.refill", "core.sampling.fill", "shard."),
          counter("core.sampling.refills"))

    def emitted(opened, args, result):
        if in_refill():
            tracer.count("core.sampling.emitted", args[1])

    def merged(opened, args, result):
        if in_refill():
            tracer.count("core.sampling.new", result)

    patch(InstanceSampler, "sample_masks", None, emitted)
    patch(SampleStore, "_merge", None, merged)
    for view in ("probability_vector", "uncertainty", "uncertain_indices",
                 "unasserted_indices"):
        patch(ProbabilisticNetwork, view, "core.probability.views")
    for strategy in (selection.RandomSelection,
                     selection.InformationGainSelection,
                     selection.EntropySelection,
                     selection.LikelihoodSelection,
                     selection.ConfidenceSelection):
        patch(strategy, "select", "core.selection.select")
    patch(ProbabilisticNetwork, "record_assertion", "core.probability.integrate")
    patch(ProbabilisticNetwork, "retract_approval", "core.probability.integrate")
    patch(ReconciliationSession, "step", "core.reconciliation.step")
    for session in (ReconciliationSession, CrowdSession):
        patch(session, "current_matching", "core.instantiation.deliverable")
        patch(session, "apply_delta", "core.delta.apply",
              counter("core.delta.applied"))
    patch(ShardedSampleStore, "__init__", "shard.build")
    patch(ShardedSampleStore, "_build_shard", "shard.build",
          counter("shard.shards", only_opened=False))
    patch(ShardedSampleStore, "refill",
          unless_inside("shard.refill", "shard.build"),
          counter("shard.refills"))
    patch(EnumeratingSampleStore, "_top_up",
          unless_inside("shard.refill", "shard.build"),
          counter("shard.refills"))
    patch(MatchingNetwork, "apply_delta", "core.delta.recompile")
    patch(CrowdSession, "round", "crowd.round",
          counter("crowd.answers",
                  lambda args, result: sum(map(len, result.votes))
                  if result else 0))
    patch(CrowdSession, "select_questions", "crowd.select")
    journal_records = counter("durability.journal_records")
    patch(FeedbackJournal, "append", "durability.journal", journal_records)
    patch(FeedbackJournal, "create", "durability.journal", journal_records)

    def checkpoint_written(opened, args, result):
        if opened:
            tracer.count("durability.checkpoints")
            tracer.count("durability.checkpoint_bytes", os.path.getsize(result))

    # Two modules call save_checkpoint through their own imported name.
    for module in (checkpoint, recovery, service):
        patch(module, "save_checkpoint", "durability.checkpoint",
              checkpoint_written)
    patch(service.ReconciliationService, "_execute", "service.execute")

    def uninstall():
        for owner, attribute, raw in reversed(patches):
            setattr(owner, attribute, raw)

    return uninstall
