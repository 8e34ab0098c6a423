"""Checkpoint benchmarks: durable save + restore of live sessions.

Checkpoints serialise the full live state of a session — sample-store
masks, feedback, RNG streams, ledger, worker stats, trace — so their cost
is what bounds how aggressively ``run_durable`` can autocheckpoint.  The
acceptance bar is a 250 ms median for one save+restore round-trip of a
mid-run crowd session on the reference synthetic network (1500
candidates, 250 samples); medians land in ``BENCH_kernels.json`` via
``scripts/export_bench.py``.  A sharded likelihood expert on the same
network (124 shards, every one enumerated: fleet-durable's tenant shape)
times the checkpoint of a session whose shard streams never drew.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.durability import restore_session, save_checkpoint
from repro.experiments.crowd_budget import crowd_spec
from repro.experiments.scenarios import (
    ScenarioSpec,
    build_crowd_session,
    build_session,
)
from test_bench_reconciliation import (
    REFERENCE_SAMPLES,
    reference_fixture,
    small_fixture,
)

#: The acceptance bar for one save+restore round-trip (reference network).
CHECKPOINT_BUDGET_SECONDS = 0.25

_SESSIONS: dict[str, object] = {}


def _mid_run_session(which: str):
    """A crowd session three rounds in — live state worth checkpointing."""
    if which not in _SESSIONS:
        fixture = small_fixture() if which == "small" else reference_fixture()
        session = build_crowd_session(
            fixture, crowd_spec(1e9, "mixed", 3, seed=3, target_samples=250)
        )
        for _ in range(3):
            session.round()
        _SESSIONS[which] = session
    return _SESSIONS[which]


def _sharded_expert_session():
    """A sharded likelihood expert twenty steps into the reference network."""
    if "sharded" not in _SESSIONS:
        session = build_session(
            reference_fixture(),
            ScenarioSpec(
                strategy="likelihood",
                target_samples=REFERENCE_SAMPLES,
                seed=1,
                sharded=True,
            ),
        )
        for _ in range(20):
            session.step()
        _SESSIONS["sharded"] = session
    return _SESSIONS["sharded"]


def _round_trip(session, path):
    save_checkpoint(session, path)
    return restore_session(path)


def test_bench_checkpoint_small(benchmark, tmp_path):
    """Fast-profile presence: save+restore of a small-network session."""
    session = _mid_run_session("small")
    restored = benchmark.pedantic(
        _round_trip,
        args=(session, tmp_path / "ck.json"),
        iterations=1,
        rounds=5,
    )
    assert len(restored.trace.rounds) == 3
    assert restored.ledger.spent == session.ledger.spent


@pytest.mark.slow
def test_bench_checkpoint_reference(benchmark, tmp_path):
    """Median save+restore on the reference network, tracked in the report."""
    session = _mid_run_session("reference")
    restored = benchmark.pedantic(
        _round_trip,
        args=(session, tmp_path / "ck.json"),
        iterations=1,
        rounds=5,
    )
    assert len(restored.trace.rounds) == 3
    assert restored.uncertainty() == pytest.approx(session.uncertainty())


@pytest.mark.slow
def test_bench_checkpoint_sharded_reference(benchmark, tmp_path):
    """Median save+restore of a 124-shard expert session, in the report."""
    session = _sharded_expert_session()
    assert session.pnet.estimator.n_shards == 124
    restored = benchmark.pedantic(
        _round_trip,
        args=(session, tmp_path / "ck.json"),
        iterations=1,
        rounds=5,
    )
    assert restored.trace == session.trace


@pytest.mark.slow
def test_checkpoint_budget_gate(tmp_path):
    """The acceptance bar: reference save+restore median under 250 ms."""
    session = _mid_run_session("reference")
    path = tmp_path / "ck.json"
    timings = []
    for _ in range(9):
        started = time.perf_counter()
        _round_trip(session, path)
        timings.append(time.perf_counter() - started)
    assert statistics.median(timings) < CHECKPOINT_BUDGET_SECONDS
