"""Unit tests for entropy and information-gain computation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    binary_entropy,
    conditional_uncertainty,
    enumerate_instances,
    exact_probabilities,
    information_gain,
    information_gains,
    network_uncertainty,
    probabilities_from_samples,
    sample_matrix,
)
from repro.core.uncertainty import information_gain_factors


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_zero_at_extremes(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_symmetry(self):
        assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7))

    def test_known_value(self):
        assert binary_entropy(0.25) == pytest.approx(
            -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        )


class TestNetworkUncertainty:
    def test_paper_example_value(self, movie_network):
        """H = 5 bits for five p=0.5 correspondences (four instances)."""
        probabilities = exact_probabilities(movie_network)
        assert network_uncertainty(probabilities) == pytest.approx(5.0)

    def test_zero_when_all_certain(self, movie_correspondences):
        c = movie_correspondences
        probabilities = {c["c1"]: 1.0, c["c2"]: 0.0}
        assert network_uncertainty(probabilities) == 0.0

    def test_certain_correspondences_do_not_contribute(self, movie_correspondences):
        c = movie_correspondences
        with_certain = {c["c1"]: 0.5, c["c2"]: 1.0, c["c3"]: 0.0}
        without = {c["c1"]: 0.5}
        assert network_uncertainty(with_certain) == network_uncertainty(without)

    def test_empty(self):
        assert network_uncertainty({}) == 0.0


class TestProbabilitiesFromSamples:
    def test_frequencies(self, movie_network, movie_correspondences):
        c = movie_correspondences
        instances = enumerate_instances(movie_network)
        probabilities = probabilities_from_samples(
            instances, movie_network.correspondences
        )
        assert probabilities[c["c1"]] == pytest.approx(0.5)

    def test_empty_samples(self, movie_network):
        probabilities = probabilities_from_samples(
            [], movie_network.correspondences
        )
        assert all(p == 0.0 for p in probabilities.values())

    def test_ignores_unknown_members(self, movie_network, movie_correspondences):
        c = movie_correspondences
        probabilities = probabilities_from_samples(
            [frozenset({c["c1"]})], [c["c1"], c["c2"]]
        )
        assert probabilities == {c["c1"]: 1.0, c["c2"]: 0.0}


class TestSampleMatrix:
    def test_shape_and_content(self, movie_network, movie_correspondences):
        c = movie_correspondences
        samples = [frozenset({c["c1"]}), frozenset({c["c1"], c["c2"]})]
        matrix = sample_matrix(samples, movie_network.correspondences)
        assert matrix.shape == (2, 5)
        assert matrix.sum() == 3


class TestInformationGain:
    def test_example_1_reproduced(self, movie_network, movie_correspondences):
        """The paper's Example 1: feedback on c2 beats feedback on c1.

        With only the two instances of the example, asserting c1 changes
        nothing while asserting c2 resolves everything.  Our enumeration
        finds four instances, but the ordering IG(c2) > IG(c1) still holds.
        """
        c = movie_correspondences
        instances = enumerate_instances(movie_network)
        gains = information_gains(instances, movie_network.correspondences)
        assert gains[c["c2"]] > gains[c["c1"]]

    def test_gain_zero_for_certain(self, movie_network, movie_correspondences):
        c = movie_correspondences
        # Instances that all contain c1 make c1 certain: zero gain.
        instances = [
            i for i in enumerate_instances(movie_network) if c["c1"] in i
        ]
        gains = information_gains(instances, movie_network.correspondences)
        assert gains[c["c1"]] == 0.0

    def test_gains_nonnegative(self, movie_network):
        instances = enumerate_instances(movie_network)
        gains = information_gains(instances, movie_network.correspondences)
        assert all(g >= 0.0 for g in gains.values())

    def test_gain_bounded_by_uncertainty(self, movie_network):
        instances = enumerate_instances(movie_network)
        probabilities = probabilities_from_samples(
            instances, movie_network.correspondences
        )
        uncertainty = network_uncertainty(probabilities)
        gains = information_gains(instances, movie_network.correspondences)
        assert all(g <= uncertainty + 1e-9 for g in gains.values())

    def test_single_gain_matches_batch(self, movie_network, movie_correspondences):
        c = movie_correspondences
        instances = enumerate_instances(movie_network)
        batch = information_gains(instances, movie_network.correspondences)
        single = information_gain(
            c["c2"], instances, movie_network.correspondences
        )
        assert single == pytest.approx(batch[c["c2"]])

    def test_restrict_to(self, movie_network, movie_correspondences):
        c = movie_correspondences
        instances = enumerate_instances(movie_network)
        gains = information_gains(
            instances, movie_network.correspondences, restrict_to=[c["c2"]]
        )
        assert set(gains) == {c["c2"]}

    def test_empty_samples_zero_gain(self, movie_network, movie_correspondences):
        gains = information_gains([], movie_network.correspondences)
        assert all(g == 0.0 for g in gains.values())

    def test_conditional_uncertainty_definition(self, movie_network, movie_correspondences):
        """Equation 4: H(C|c) = p·H(P+) + (1-p)·H(P-)."""
        c = movie_correspondences
        instances = enumerate_instances(movie_network)
        correspondences = movie_network.correspondences
        with_c2 = [i for i in instances if c["c2"] in i]
        without_c2 = [i for i in instances if c["c2"] not in i]
        p = len(with_c2) / len(instances)
        expected = p * network_uncertainty(
            probabilities_from_samples(with_c2, correspondences)
        ) + (1 - p) * network_uncertainty(
            probabilities_from_samples(without_c2, correspondences)
        )
        actual = conditional_uncertainty(c["c2"], instances, correspondences)
        assert actual == pytest.approx(expected)


class TestFactorDtypes:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_factors=st.integers(min_value=1, max_value=4),
        density=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=50, deadline=None)
    def test_bool_and_float_matrices_give_identical_gains(
        self, seed, n_factors, density
    ):
        """The reduction reads a boolean membership matrix as it reads its
        float64 copy: every gain is the same float, byte for byte."""
        rng = np.random.default_rng(seed)
        width = int(rng.integers(n_factors, 40))
        owners = rng.integers(0, n_factors + 1, width)  # n_factors: certain
        factors = []
        for factor in range(n_factors):
            columns = np.flatnonzero(owners == factor)
            rows = int(rng.integers(1, 60))
            factors.append(
                (columns, rng.random((rows, len(columns))) < density)
            )
        targets = rng.permutation(width)[: int(rng.integers(1, width + 1))]
        as_bool = information_gain_factors(factors, width, targets)
        as_float = information_gain_factors(
            [(columns, m.astype(np.float64)) for columns, m in factors],
            width,
            targets,
        )
        assert as_bool.tobytes() == as_float.tobytes()
