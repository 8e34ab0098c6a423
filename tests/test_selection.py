"""Unit tests for correspondence-selection strategies."""

import random

import pytest

from repro.core import (
    ConfidenceSelection,
    EntropySelection,
    ExactEstimator,
    InformationGainSelection,
    MatchingNetwork,
    CandidateSet,
    ProbabilisticNetwork,
    RandomSelection,
)
from repro.core.uncertainty import information_gain_array


@pytest.fixture
def movie_pnet(movie_network):
    return ProbabilisticNetwork(
        movie_network, target_samples=60, rng=random.Random(9)
    )


class TestRandomSelection:
    def test_selects_unasserted(self, movie_pnet):
        strategy = RandomSelection(rng=random.Random(1))
        chosen = strategy.select(movie_pnet)
        assert chosen in movie_pnet.correspondences

    def test_never_selects_asserted(self, movie_pnet, movie_correspondences):
        c = movie_correspondences
        movie_pnet.record_assertion(c["c1"], approved=True)
        strategy = RandomSelection(rng=random.Random(1))
        for _ in range(20):
            assert strategy.select(movie_pnet) != c["c1"]

    def test_exhausts_to_none(self, movie_pnet, movie_correspondences, movie_oracle):
        strategy = RandomSelection(rng=random.Random(1))
        for _ in range(5):
            corr = strategy.select(movie_pnet)
            movie_pnet.record_assertion(
                corr, movie_oracle.assert_correspondence(corr)
            )
        assert strategy.select(movie_pnet) is None

    def test_may_select_certain_unasserted(self, movie_schemas, movie_correspondences):
        # A conflict-free network has all-certain correspondences, yet the
        # unaided expert still reviews them.
        c = movie_correspondences
        network = MatchingNetwork(
            list(movie_schemas), [c["c1"], c["c2"], c["c3"]]
        )
        pnet = ProbabilisticNetwork(network, target_samples=20, rng=random.Random(2))
        assert pnet.uncertain_correspondences() == []
        assert RandomSelection(rng=random.Random(1)).select(pnet) is not None


class TestInformationGainSelection:
    def test_prefers_informative_correspondence(self, movie_pnet, movie_correspondences):
        """Example 1: c1 (present in both 'paper' instances) is never the
        best choice while genuinely splitting correspondences exist."""
        c = movie_correspondences
        strategy = InformationGainSelection(rng=random.Random(1))
        for _ in range(10):
            assert strategy.select(movie_pnet) != c["c1"]

    def test_requires_sampled_estimator(self, movie_network):
        pnet = ProbabilisticNetwork(
            movie_network, estimator=ExactEstimator(movie_network)
        )
        with pytest.raises(TypeError, match="SampledEstimator"):
            InformationGainSelection().select(pnet)

    def test_falls_back_when_certain(self, movie_schemas, movie_correspondences):
        c = movie_correspondences
        network = MatchingNetwork(list(movie_schemas), [c["c1"]])
        pnet = ProbabilisticNetwork(network, target_samples=20, rng=random.Random(2))
        strategy = InformationGainSelection(rng=random.Random(1))
        assert strategy.select(pnet) == c["c1"]  # unasserted though certain
        pnet.record_assertion(c["c1"], approved=True)
        assert strategy.select(pnet) is None

    def test_selects_a_maximal_gain_candidate(self, movie_pnet):
        """Every uncertain candidate is a target: whatever the tie-break
        draw, the pick has the largest gain among all of them."""
        columns = movie_pnet.uncertain_indices()
        gains = information_gain_array(
            movie_pnet.estimator.membership_matrix(), columns
        )
        best = {
            movie_pnet.correspondences[int(i)]
            for i in columns[gains == gains.max()]
        }
        assert len(columns) > len(best)
        for seed in range(10):
            strategy = InformationGainSelection(rng=random.Random(seed))
            assert strategy.select(movie_pnet) in best


class TestEntropySelection:
    def test_selects_most_uncertain(self, movie_schemas, movie_correspondences):
        network = MatchingNetwork(
            list(movie_schemas), list(movie_correspondences.values())
        )
        pnet = ProbabilisticNetwork(network, target_samples=60, rng=random.Random(3))
        chosen = EntropySelection(rng=random.Random(1)).select(pnet)
        probabilities = pnet.probabilities()
        from repro.core import binary_entropy

        best = max(
            (binary_entropy(p) for p in probabilities.values() if 0 < p < 1)
        )
        assert binary_entropy(probabilities[chosen]) == pytest.approx(best)

    def test_fallback_and_exhaustion(self, movie_schemas, movie_correspondences):
        c = movie_correspondences
        network = MatchingNetwork(list(movie_schemas), [c["c1"]])
        pnet = ProbabilisticNetwork(network, target_samples=20, rng=random.Random(2))
        strategy = EntropySelection(rng=random.Random(1))
        assert strategy.select(pnet) == c["c1"]
        pnet.record_assertion(c["c1"], approved=True)
        assert strategy.select(pnet) is None


class TestConfidenceSelection:
    def test_selects_lowest_confidence(self, movie_schemas, movie_correspondences):
        c = movie_correspondences
        confidences = {
            c["c1"]: 0.9,
            c["c2"]: 0.8,
            c["c3"]: 0.2,
            c["c4"]: 0.7,
            c["c5"]: 0.6,
        }
        candidates = CandidateSet(confidences.keys(), confidences)
        network = MatchingNetwork(list(movie_schemas), candidates)
        pnet = ProbabilisticNetwork(network, target_samples=60, rng=random.Random(3))
        chosen = ConfidenceSelection(rng=random.Random(1)).select(pnet)
        assert chosen == c["c3"]

    def test_fallback_when_all_certain(self, movie_schemas, movie_correspondences):
        c = movie_correspondences
        network = MatchingNetwork(list(movie_schemas), [c["c1"]])
        pnet = ProbabilisticNetwork(network, target_samples=20, rng=random.Random(2))
        assert ConfidenceSelection(rng=random.Random(1)).select(pnet) == c["c1"]
