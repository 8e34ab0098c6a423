"""The one core behind the expert and crowd loops.

Two claims are pinned here:

* **Draw compatibility of the scored strategies.**  Information gain,
  entropy, likelihood and confidence selection expose ``scores`` and share
  one argmax.  Test-local copies of the per-strategy ``select`` bodies the
  argmax replaced must make the same pick, and leave the strategy RNG in
  the same state, at every step of seeded sessions: perfect experts on
  the reference synthetic network, and noisy experts under
  ``on_conflict="disapprove"``.
* **One shell.**  Both sessions carry the ``kind`` the journal, the
  checkpoint codec, recovery and the service dispatch on, and one
  ``integrate_verdict`` repairs conflicting approvals for both.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import ProbabilisticNetwork
from repro.core.reconciliation import ReconciliationSession, SessionCore
from repro.core.selection import make_strategy
from repro.core.uncertainty import binary_entropy_cached, information_gain_array
from repro.crowd import CrowdSession
from repro.durability import read_journal, run_durable
from repro.experiments import synthetic_fixture
from repro.experiments.scenarios import (
    ScenarioSpec,
    build_crowd_session,
    build_session,
)

_CACHE: dict[str, object] = {}


def reference_fixture():
    """The reference synthetic network of the golden and smoke suites."""
    if "reference" not in _CACHE:
        _CACHE["reference"] = synthetic_fixture(
            110, n_schemas=8, attributes_per_schema=30, seed=5
        )
    return _CACHE["reference"]


# ---------------------------------------------------------------------------
# The per-strategy select bodies the shared argmax replaced
# ---------------------------------------------------------------------------


def _random_unasserted(pnet, rng):
    indices = pnet.unasserted_indices()
    if len(indices) == 0:
        return None
    return pnet.correspondences[int(indices[rng.randrange(len(indices))])]


def _information_gain_select(pnet, rng):
    columns = pnet.uncertain_indices()
    if len(columns) == 0:
        return _random_unasserted(pnet, rng)
    gains = information_gain_array(pnet.estimator.membership_matrix(), columns)
    best = np.flatnonzero(gains == gains.max())
    choice = best[rng.randrange(len(best))]
    return pnet.correspondences[int(columns[choice])]


def _entropy_select(pnet, rng):
    uncertain = pnet.uncertain_indices()
    if len(uncertain) == 0:
        return _random_unasserted(pnet, rng)
    vector = pnet.probability_vector()
    entropies = [binary_entropy_cached(p) for p in vector[uncertain].tolist()]
    best_entropy = max(entropies)
    best = [i for i, h in enumerate(entropies) if h == best_entropy]
    choice = best[rng.randrange(len(best))]
    return pnet.correspondences[int(uncertain[choice])]


def _likelihood_select(pnet, rng):
    uncertain = pnet.uncertain_indices()
    if len(uncertain) == 0:
        return _random_unasserted(pnet, rng)
    probabilities = pnet.probability_vector()[uncertain]
    best = np.flatnonzero(probabilities == probabilities.max())
    choice = best[rng.randrange(len(best))]
    return pnet.correspondences[int(uncertain[choice])]


def _confidence_select(pnet, rng):
    uncertain = pnet.uncertain_correspondences()
    if not uncertain:
        return _random_unasserted(pnet, rng)
    confidence = pnet.network.candidates.confidence
    lowest = min(confidence(c) for c in uncertain)
    best = [c for c in uncertain if confidence(c) == lowest]
    return best[rng.randrange(len(best))]


OLD_SELECT = {
    "information-gain": _information_gain_select,
    "entropy": _entropy_select,
    "likelihood": _likelihood_select,
    "confidence": _confidence_select,
}

#: (oracle, error rate) per session family.
FAMILIES = {
    "perfect": ("perfect", 0.0),
    "noisy-disapprove": ("noisy", 0.2),
}


def _family_cases():
    for family in FAMILIES:
        for name in OLD_SELECT:
            for seed in (0, 1, 2):
                yield family, name, seed


class TestScoredStrategyDrawCompatibility:
    @pytest.mark.parametrize("family,name,seed", list(_family_cases()))
    def test_same_pick_and_rng_state_every_step(self, family, name, seed):
        oracle, error_rate = FAMILIES[family]
        spec = ScenarioSpec(
            strategy=name,
            oracle=oracle,
            error_rate=error_rate,
            on_conflict="disapprove" if oracle == "noisy" else "raise",
            target_samples=100,
            seed=seed,
        )
        session = build_session(reference_fixture(), spec)
        strategy = session.strategy
        old_select = OLD_SELECT[name]
        shadow = random.Random()
        steps = 0
        while True:
            shadow.setstate(strategy.rng.getstate())
            expected = old_select(session.pnet, shadow)
            record = session.step()
            if record is None:
                assert expected is None
                break
            steps += 1
            assert record.correspondence == expected, f"step {steps}"
            assert strategy.rng.getstate() == shadow.getstate(), f"step {steps}"
        # Run to completion, so the zero-gain fallback was drawn from too.
        assert steps == len(reference_fixture().network.correspondences)
        if oracle == "noisy":
            assert session.conflicts_resolved > 0

    def test_scores_cover_the_uncertain_candidates(self):
        pnet = ProbabilisticNetwork(
            reference_fixture().network,
            target_samples=100,
            rng=random.Random(0),
        )
        uncertain = pnet.uncertain_indices()
        for name in OLD_SELECT:
            columns, scores = make_strategy(name).scores(pnet)
            assert columns.tolist() == uncertain.tolist()
            assert scores.dtype == np.float64 and len(scores) == len(columns)

    def test_random_selection_scores_nothing(self):
        with pytest.raises(NotImplementedError):
            make_strategy("random").scores(None)


# ---------------------------------------------------------------------------
# The shared shell
# ---------------------------------------------------------------------------


class TestSessionShell:
    def test_kinds(self):
        fixture = reference_fixture()
        expert = build_session(fixture, ScenarioSpec(strategy="likelihood"))
        crowd = build_crowd_session(
            fixture, ScenarioSpec(strategy="likelihood", oracle="crowd")
        )
        assert isinstance(expert, SessionCore) and expert.kind == "expert"
        assert isinstance(crowd, SessionCore) and crowd.kind == "crowd"
        assert isinstance(expert, ReconciliationSession)
        assert isinstance(crowd, CrowdSession)

    def test_expert_journals_retractions_under_step(self, tmp_path):
        spec = ScenarioSpec(
            strategy="likelihood",
            oracle="noisy",
            error_rate=0.2,
            on_conflict="disapprove",
            target_samples=120,
            seed=0,
        )
        session = build_session(reference_fixture(), spec)
        run_durable(session, tmp_path, budget=80)
        assert session.approvals_retracted >= 1
        _, records, _ = read_journal(tmp_path / "journal.jsonl")
        retractions = [r for r in records if r["type"] == "retraction"]
        assert len(retractions) == session.approvals_retracted
        assert all("step" in r and "round" not in r for r in retractions)
