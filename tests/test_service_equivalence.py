"""The service determinism contract, pinned differentially.

Headline invariant of :mod:`repro.service`: any interleaving of N tenant
command streams produces, per tenant, *bit-identical* results to running
that tenant's commands alone and in order — selections, verdicts,
uncertainties and probability vectors all match exactly, whatever the
scheduling policy or catalog sharing in play.

Style follows ``tests/test_shard_equivalence.py``: compute a full
fingerprint of every tenant under the naive sequential path once, then
assert the service reproduces each fingerprint under every configuration
tried.  The fleet mixes all three selection strategies and a hundred
distinct seeds, and every tenant applies a structural churn delta
mid-program — the hardest case, since deltas rebuild engines and shards
through the shared catalog.
"""

from __future__ import annotations

import random

import pytest

from repro.experiments.churn import make_churn_delta
from repro.experiments.harness import synthetic_fixture
from repro.experiments.scenarios import (
    ScenarioSpec,
    build_crowd_session,
    build_session,
)
from repro.service import ReconciliationService

SEED = 7
TARGET_SAMPLES = 40
STRATEGIES = ("random", "information-gain", "likelihood")


@pytest.fixture(scope="module")
def fixture():
    return synthetic_fixture(
        60, n_schemas=8, attributes_per_schema=10, conflict_bias=0.5, seed=11
    )


@pytest.fixture(scope="module")
def churn_program(fixture):
    """Four steps with a structural churn delta spliced in the middle.

    One delta object fleet-wide — exactly how :func:`tenant_program`
    builds service programs, and what lets the catalog share a single
    recompile across every tenant.
    """
    delta = make_churn_delta(fixture.network, 0.15, random.Random(SEED + 3))
    return [
        {"op": "step"},
        {"op": "step"},
        {"op": "apply_delta", "delta": delta},
        {"op": "step"},
        {"op": "step"},
    ]


def _tenant_spec(index: int) -> ScenarioSpec:
    """Tenant *i*: cycled strategy, stride-100 seed, sharded estimator."""
    return ScenarioSpec(
        strategy=STRATEGIES[index % len(STRATEGIES)],
        seed=SEED + 100 * index,
        sharded=True,
        target_samples=TARGET_SAMPLES,
    )


def _fingerprint(session) -> dict:
    """Everything the contract promises, exact to the last bit."""
    pnet = session.pnet
    return {
        "steps": [
            (
                step.index,
                step.correspondence,
                step.approved,
                step.uncertainty,
                step.effort,
            )
            for step in session.trace.steps
        ],
        "uncertainty": session.uncertainty(),
        "effort": session.effort(),
        "deltas": session.deltas_applied,
        "vector": pnet.estimator.probability_vector(
            pnet.network.correspondences
        ).tolist(),
    }


def _run_solo(fixture, spec: ScenarioSpec, program) -> dict:
    """The naive sequential reference: no service, no shared artefacts."""
    session = build_session(fixture, spec)
    for command in program:
        if command["op"] == "step":
            session.step()
        elif command["op"] == "apply_delta":
            session.apply_delta(command["delta"])
        else:  # pragma: no cover - defensive
            raise AssertionError(command)
    return _fingerprint(session)


def _run_fleet(fixture, specs, program, **service_settings) -> dict:
    """All tenants multiplexed through one service; fingerprints per name."""
    with ReconciliationService(**service_settings) as service:
        sessions = {}
        for index, spec in enumerate(specs):
            name = f"t{index}"
            sessions[name] = build_session(
                fixture, spec, catalog=service.catalog
            )
            service.add_tenant(name, sessions[name], weight=1 + index % 3)
        results = service.run_programs(
            {name: list(program) for name in sessions}
        )
        for outputs in results.values():
            for output in outputs:
                assert not isinstance(output, Exception), output
        fingerprints = {
            name: _fingerprint(session) for name, session in sessions.items()
        }
        stats = service.stats()
    fingerprints["__stats__"] = stats
    return fingerprints


class TestServiceDeterminismContract:
    N = 100

    @pytest.fixture(scope="class")
    def solo_fingerprints(self, fixture, churn_program):
        return [
            _run_solo(fixture, _tenant_spec(index), churn_program)
            for index in range(self.N)
        ]

    @pytest.mark.parametrize(
        "service_settings",
        [
            {"policy": "round-robin"},
            {"policy": "deficit", "max_pending": 8},
        ],
        ids=["round-robin", "deficit"],
    )
    def test_hundred_tenant_fleet_matches_solo_runs(
        self, fixture, churn_program, solo_fingerprints, service_settings
    ):
        specs = [_tenant_spec(index) for index in range(self.N)]
        fleet = _run_fleet(fixture, specs, churn_program, **service_settings)
        for index, solo in enumerate(solo_fingerprints):
            assert fleet[f"t{index}"] == solo, (
                f"tenant {index} ({specs[index].strategy}, "
                f"seed {specs[index].seed}) diverged under "
                f"{service_settings}"
            )

    def test_sharing_actually_happened(self, fixture, churn_program):
        """The contract is interesting *because* artefacts were shared."""
        specs = [_tenant_spec(index) for index in range(self.N)]
        fleet = _run_fleet(fixture, specs, churn_program, policy="round-robin")
        catalog = fleet["__stats__"]["catalog"]
        # One tenant paid each compile; ninety-nine adopted it.
        assert catalog["delta_misses"] == 1
        assert catalog["delta_hits"] == self.N - 1
        assert catalog["subnet_hits"] > catalog["subnet_misses"]
        assert catalog["fill_hits"] > 0


class TestCrowdServiceDeterminism:
    def test_crowd_fleet_matches_solo_runs(self, fixture):
        specs = [
            ScenarioSpec(
                strategy="likelihood",
                oracle="crowd",
                seed=SEED + 100 * index,
                sharded=True,
                target_samples=TARGET_SAMPLES,
                crowd_rounds=2,
            )
            for index in range(4)
        ]

        def crowd_fingerprint(session):
            trace = session.trace
            pnet = session.pnet
            return {
                "rounds": len(trace.rounds),
                "questions": trace.questions_asked,
                "uncertainty": trace.final_uncertainty,
                "answers": session.ledger.answers_charged,
                "spend": session.ledger.spent,
                "vector": pnet.estimator.probability_vector(
                    pnet.network.correspondences
                ).tolist(),
            }

        solo = []
        for spec in specs:
            session = build_crowd_session(fixture, spec)
            for _ in range(2):
                session.round()
            solo.append(crowd_fingerprint(session))

        with ReconciliationService() as service:
            sessions = {}
            for index, spec in enumerate(specs):
                name = f"t{index}"
                sessions[name] = build_crowd_session(
                    fixture, spec, catalog=service.catalog
                )
                service.add_tenant(name, sessions[name])
            results = service.run_programs(
                {name: [{"op": "round"}] * 2 for name in sessions}
            )
            for outputs in results.values():
                for output in outputs:
                    assert not isinstance(output, Exception), output
            for index in range(len(specs)):
                assert crowd_fingerprint(sessions[f"t{index}"]) == solo[index]
