"""Serve experiment — multi-tenant throughput over shared shard artefacts.

An online reconciliation service answers many concurrent sessions over
the *same* matching network: different analysts, seeds and selection
strategies, but one set of schemas and candidates.  Run naively, every
session pays the full setup bill — compile each shard's sub-network,
enumerate each small shard's instance space, recompile the engine for
every mid-run delta — even though none of those artefacts depend on the
session at all.

This experiment quantifies what the service front-end
(:mod:`repro.service`) recovers by sharing them.  For each fleet size it
runs the same tenant programs twice: *sequential* builds each tenant
fresh and runs it alone (the naive baseline); *service* multiplexes all
of them through one :class:`~repro.service.ReconciliationService`, whose
:class:`~repro.service.ShardCatalog` shares compiled sub-networks,
enumerated fills and delta recompiles fleet-wide.  Both paths produce
bit-identical per-tenant traces (the determinism contract, pinned by
``tests/test_service_equivalence.py``); only the wall clock differs.
``benchmarks/test_bench_service.py`` gates the paper-scale speedup at
≥ 2× on the sharded 10× network.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from .harness import synthetic_fixture
from .reporting import ExperimentResult
from .scenarios import (
    ScenarioSpec,
    build_session,
    run_service_scenario,
    tenant_program,
    tenant_specs,
)


def run_sequential_fleet(fixture, spec: ScenarioSpec) -> float:
    """The naive baseline: each tenant built fresh, run alone, in turn.

    Returns the wall-clock seconds for the whole fleet.  Session
    construction is *included* on both sides — the shared-compile setup
    cost is exactly what the service amortises.
    """
    program = tenant_program(fixture, spec)
    started = time.perf_counter()
    for tenant_spec in tenant_specs(spec):
        session = build_session(fixture, tenant_spec)
        for command in program:
            if command["op"] == "step":
                session.step()
            elif command["op"] == "apply_delta":
                session.apply_delta(command["delta"])
    return time.perf_counter() - started


def run(
    fleet_sizes: Sequence[int] = (4, 8, 16),
    n_correspondences: int = 600,
    n_schemas: int = 24,
    attributes_per_schema: int = 60,
    conflict_bias: float = 0.35,
    target_samples: int = 200,
    budget: int = 6,
    churn_at: Optional[int] = 3,
    policy: str = "round-robin",
    seed: int = 7,
) -> ExperimentResult:
    """Service vs. naive-sequential fleets across fleet sizes."""
    fixture = synthetic_fixture(
        n_correspondences,
        n_schemas=n_schemas,
        attributes_per_schema=attributes_per_schema,
        conflict_bias=conflict_bias,
        seed=seed,
    )
    result = ExperimentResult(
        experiment="serve",
        title="Multi-tenant service vs. naive sequential sessions",
        columns=(
            "tenants",
            "commands",
            "sequential (s)",
            "service (s)",
            "speedup",
            "steps/s",
            "subnet hit rate",
            "fill hits",
            "delta hits",
            "max queue",
        ),
        notes=(
            f"synthetic network, |C|={n_correspondences}, "
            f"|S|={n_schemas}, target_samples={target_samples}, "
            f"{budget} steps/tenant"
            + (f" with a churn delta at step {churn_at}" if churn_at else "")
            + f"; policy={policy}; per-tenant "
            "traces are bit-identical between the two columns — only the "
            "shared-artefact reuse differs"
        ),
    )
    for tenants in fleet_sizes:
        spec = ScenarioSpec(
            strategy="likelihood",
            seed=seed,
            sharded=True,
            target_samples=target_samples,
            budget=budget,
            churn_at=churn_at,
            service=True,
            tenants=tenants,
            service_policy=policy,
        )
        sequential = run_sequential_fleet(fixture, spec)
        started = time.perf_counter()
        service_result = run_service_scenario(fixture, spec)
        service = time.perf_counter() - started
        catalog = service_result.stats["catalog"]
        subnet_total = catalog["subnet_hits"] + catalog["subnet_misses"]
        commands = sum(
            metrics["served"]
            for metrics in service_result.stats["tenants"].values()
        )
        steps = sum(outcome.steps for outcome in service_result.outcomes)
        result.add_row(
            tenants,
            commands,
            sequential,
            service,
            sequential / service if service else float("inf"),
            steps / service if service else float("inf"),
            catalog["subnet_hits"] / subnet_total if subnet_total else 0.0,
            catalog["fill_hits"],
            catalog["delta_hits"],
            max(
                metrics["max_queue_depth"]
                for metrics in service_result.stats["tenants"].values()
            ),
        )
    return result
