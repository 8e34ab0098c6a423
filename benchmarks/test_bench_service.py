"""Service front-end benchmarks: fleet throughput and sustained-stream memory.

Two acceptance bars from the service tentpole:

* **Throughput ≥2×** — a fleet of tenants multiplexed through one
  :class:`~repro.service.ReconciliationService` sustains at least twice
  the aggregate steps/second of running the same tenants naively (fresh
  build, run alone, in turn) on the sharded 10× network.  On the
  single-core boxes this repo targets the win is structural, not
  parallel: the :class:`~repro.service.ShardCatalog` shares compiled
  sub-networks, enumerated fills and delta recompiles fleet-wide, so
  only the first tenant pays the setup bill.  Per-tenant traces are
  bit-identical between the two columns (``tests/test_service_equivalence.py``).
* **Sustained-stream memory ≤1.5×** — a tenant absorbing a structural
  churn delta every 5 steps for 50 steps peaks within 1.5× of the same
  tenant running 50 steady steps.  Each delta retires a network
  generation; the catalog's generation LRU must let old engines, fills
  and shards go rather than pile up ten generations deep.
"""

from __future__ import annotations

import random
import time
import tracemalloc

import pytest

from repro.experiments import ScenarioSpec, synthetic_fixture
from repro.experiments.churn import make_churn_delta
from repro.experiments.scenarios import (
    build_session,
    run_service_scenario,
)
from repro.experiments.serve import run_sequential_fleet
from repro.service import ReconciliationService
from test_bench_reconciliation import REFERENCE_SAMPLES
from test_bench_shard import TENX_KWARGS, tenx_fixture

_CACHE: dict[str, object] = {}

#: The small fleet network of the fast (tracked-median) benches.
FLEET_KWARGS = dict(
    n_correspondences=300,
    n_schemas=16,
    attributes_per_schema=40,
    conflict_bias=0.35,
    seed=7,
)


def fleet_fixture():
    if "fleet" not in _CACHE:
        _CACHE["fleet"] = synthetic_fixture(**FLEET_KWARGS)
    return _CACHE["fleet"]


def _fleet_spec(**overrides) -> ScenarioSpec:
    settings = dict(
        strategy="likelihood",
        seed=7,
        sharded=True,
        target_samples=120,
        budget=4,
        churn_at=2,
        service=True,
        tenants=6,
    )
    settings.update(overrides)
    return ScenarioSpec(**settings)


def test_bench_service_fleet(benchmark):
    """Tracked median: a 6-tenant churning fleet through one service."""
    fixture = fleet_fixture()
    spec = _fleet_spec()
    result = benchmark.pedantic(
        lambda: run_service_scenario(fixture, spec), iterations=1, rounds=3
    )
    assert len(result.outcomes) == spec.tenants
    assert all(outcome.steps == spec.budget for outcome in result.outcomes)
    catalog = result.stats["catalog"]
    assert catalog["delta_hits"] == spec.tenants - 1


def test_bench_service_sequential_fleet(benchmark):
    """Tracked median: the naive baseline the speedup is measured against."""
    fixture = fleet_fixture()
    spec = _fleet_spec()
    benchmark.pedantic(
        lambda: run_sequential_fleet(fixture, spec), iterations=1, rounds=3
    )


@pytest.mark.slow
def test_service_throughput_gate(capsys):
    """The acceptance bar: ≥2× aggregate steps/sec on the 10× network.

    Four tenants, four steps each, over the 15000-candidate network.
    Sequential pays four full sharded-store builds (compile every
    component sub-network, enumerate every small shard); the service
    pays one and shares it.  Same programs, same per-tenant traces.
    """
    fixture = tenx_fixture()
    spec = ScenarioSpec(
        strategy="likelihood",
        seed=7,
        sharded=True,
        target_samples=REFERENCE_SAMPLES,
        budget=4,
        service=True,
        tenants=4,
    )
    sequential = run_sequential_fleet(fixture, spec)
    started = time.perf_counter()
    result = run_service_scenario(fixture, spec)
    service = time.perf_counter() - started
    assert all(outcome.steps == spec.budget for outcome in result.outcomes)
    steps = sum(outcome.steps for outcome in result.outcomes)
    ratio = sequential / service
    with capsys.disabled():
        print(
            f"\nservice fleet ({spec.tenants} tenants × {spec.budget} steps, "
            f"{TENX_KWARGS['n_correspondences']} candidates): sequential "
            f"{sequential:.2f}s ({steps / sequential:.2f} steps/s) → service "
            f"{service:.2f}s ({steps / service:.2f} steps/s, {ratio:.2f}×)"
        )
    assert ratio >= 2.0


@pytest.mark.slow
def test_service_sustained_delta_stream_memory(capsys):
    """The acceptance bar: churn every 5 steps for 50 steps, peak ≤1.5×.

    Both runs go through a service (same scheduler/bookkeeping overhead);
    only the delta stream differs.  Ten structural deltas retire ten
    network generations — the catalog LRU and the stores' rebuild path
    must release them, or the churning peak grows with the stream length
    instead of staying a small constant over steady state.
    """
    fixture = fleet_fixture()
    spec = ScenarioSpec(
        strategy="likelihood", seed=7, sharded=True, target_samples=120
    )

    def run_tenant(churn_every):
        failures = []
        with ReconciliationService() as service:
            session = build_session(fixture, spec, catalog=service.catalog)
            service.add_tenant("t0", session)
            done = 0
            while done < 50:
                block = min(churn_every or 50, 50 - done)
                results = service.run_programs(
                    {"t0": [{"op": "step"}] * block}
                )
                failures += [
                    r for r in results["t0"] if isinstance(r, Exception)
                ]
                done += block
                if churn_every and done < 50:
                    # Deltas chain: each is built against the network the
                    # previous one produced.
                    delta = make_churn_delta(
                        session.pnet.network,
                        0.02,
                        random.Random(spec.seed + 3 + done),
                    )
                    results = service.run_programs(
                        {"t0": [{"op": "apply_delta", "delta": delta}]}
                    )
                    failures += [
                        r for r in results["t0"] if isinstance(r, Exception)
                    ]
        return failures

    def peak_of(churn_every):
        tracemalloc.start()
        try:
            failures = run_tenant(churn_every)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return failures, peak

    steady_failures, steady_peak = peak_of(churn_every=0)
    churn_failures, churn_peak = peak_of(churn_every=5)
    assert not steady_failures and not churn_failures
    ratio = churn_peak / steady_peak
    with capsys.disabled():
        print(
            f"\nsustained delta stream (churn every 5 of 50 steps): steady "
            f"peak {steady_peak / 1e6:.1f}MB → churning peak "
            f"{churn_peak / 1e6:.1f}MB ({ratio:.2f}×)"
        )
    assert ratio <= 1.5
