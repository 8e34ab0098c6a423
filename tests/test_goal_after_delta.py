"""Goal checks read the live uncertainty, also right after a network delta.

A delta moves H(C, P) without adding a trace entry.  An
``uncertainty_goal`` the delta already met must therefore stop
``CrowdSession.run`` and ``run_durable`` (for both session kinds) before
they ask anything, exactly as ``ReconciliationSession.run`` does, and the
service's crowd ``query`` must report the live value rather than the last
recorded one.
"""

from __future__ import annotations

import random

from repro.durability import run_durable
from repro.experiments import synthetic_fixture
from repro.experiments.churn import make_churn_delta
from repro.experiments.scenarios import (
    ScenarioSpec,
    build_crowd_session,
    build_session,
)
from repro.service import ReconciliationService

_CACHE: dict[str, object] = {}


def churn_fixture():
    if "churn" not in _CACHE:
        _CACHE["churn"] = synthetic_fixture(
            300, n_schemas=8, attributes_per_schema=12, seed=3
        )
    return _CACHE["churn"]


#: Met by the delta below, not by any recorded trace entry.
GOAL = 200.0


def _crowd_after_delta():
    spec = ScenarioSpec(
        strategy="likelihood",
        oracle="crowd",
        on_conflict="disapprove",
        seed=1,
    )
    session = build_crowd_session(churn_fixture(), spec)
    for _ in range(3):
        session.round()
    session.apply_delta(
        make_churn_delta(session.pnet.network, 0.25, random.Random(5))
    )
    assert session.trace.final_uncertainty > GOAL >= session.uncertainty()
    return session


def _expert_after_delta():
    session = build_session(churn_fixture(), ScenarioSpec(
        strategy="likelihood", seed=1
    ))
    for _ in range(12):
        session.step()
    session.apply_delta(
        make_churn_delta(session.pnet.network, 0.25, random.Random(5))
    )
    assert session.trace.uncertainties[-1] > GOAL >= session.uncertainty()
    return session


class TestGoalAfterDelta:
    def test_crowd_run_asks_nothing(self):
        session = _crowd_after_delta()
        rounds = len(session.trace.rounds)
        session.run(uncertainty_goal=GOAL)
        assert len(session.trace.rounds) == rounds

    def test_expert_run_asks_nothing(self):
        session = _expert_after_delta()
        steps = len(session.trace.steps)
        session.run(uncertainty_goal=GOAL)
        assert len(session.trace.steps) == steps

    def test_durable_crowd_asks_nothing(self, tmp_path):
        session = _crowd_after_delta()
        rounds = len(session.trace.rounds)
        run_durable(session, tmp_path, uncertainty_goal=GOAL)
        assert len(session.trace.rounds) == rounds

    def test_durable_expert_asks_nothing(self, tmp_path):
        session = _expert_after_delta()
        steps = len(session.trace.steps)
        run_durable(session, tmp_path, uncertainty_goal=GOAL)
        assert len(session.trace.steps) == steps

    def test_unmet_goal_still_runs(self):
        session = _crowd_after_delta()
        rounds = len(session.trace.rounds)
        session.run(rounds=rounds + 2, uncertainty_goal=0.0)
        assert len(session.trace.rounds) == rounds + 2

    def test_service_crowd_query_reports_live_uncertainty(self):
        fixture = churn_fixture()
        spec = ScenarioSpec(strategy="likelihood", oracle="crowd", seed=1)
        session = build_crowd_session(fixture, spec)
        delta = make_churn_delta(fixture.network, 0.25, random.Random(5))
        with ReconciliationService() as service:
            service.add_tenant("crowd", session)
            results = service.run_programs(
                {
                    "crowd": [
                        {"op": "round"},
                        {"op": "apply_delta", "delta": delta},
                        {"op": "query"},
                    ]
                }
            )
        query = results["crowd"][-1]
        assert query["uncertainty"] == session.uncertainty()
        assert query["uncertainty"] != session.trace.final_uncertainty
