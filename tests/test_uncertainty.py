"""Unit tests for entropy and information-gain computation."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    ProbabilisticNetwork,
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
from repro.core.selection import InformationGainSelection
from repro.core.uncertainty import (
    _entropy_table,
    information_gain_array,
    information_gain_factors,
)
from repro.experiments import synthetic_fixture


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


def _reference_information_gain_factors(factors, width, columns):
    """The gain reduction before cached counts, the float32 product and
    the table gather: counts recounted from each matrix, a float64
    co-occurrence product, and one entropy gather per partition size."""
    columns = np.asarray(columns, dtype=np.intp)
    gains = np.zeros(len(columns), dtype=np.float64)
    if not len(columns):
        return gains
    entropy = np.zeros(width, dtype=np.float64)
    is_live = np.zeros(width, dtype=bool)
    owner = np.zeros(width, dtype=np.intp)
    local = np.zeros(width, dtype=np.intp)
    summaries = []
    for index, (factor_columns, matrix) in enumerate(factors):
        matrix = np.asarray(matrix)
        total = int(matrix.shape[0])
        if total == 0:
            return gains
        counts = matrix.sum(axis=0, dtype=np.int64)
        live = np.flatnonzero((counts > 0) & (counts < total))
        entropy[factor_columns[live]] = _entropy_table(total)[counts[live]]
        is_live[factor_columns[live]] = True
        owner[factor_columns] = index
        local[factor_columns] = np.arange(len(factor_columns))
        summaries.append((factor_columns, matrix, total, counts, live))
    current_uncertainty = float(entropy.sum())
    live_columns = np.flatnonzero(is_live)
    baseline = entropy[live_columns]
    targets = np.flatnonzero(is_live[columns])
    target_owner = owner[columns[targets]]
    for index in np.unique(target_owner).tolist():
        factor_columns, matrix, total, counts, live = summaries[index]
        mine = targets[target_owner == index]
        local_targets = local[columns[mine]]
        n_with = counts[local_targets]
        dense = matrix[:, live].astype(np.float64)
        cooccurrence = (
            dense[:, np.searchsorted(live, local_targets)].T @ dense
        ).astype(np.int64)
        slots = np.searchsorted(live_columns, factor_columns[live])
        sides = (
            (cooccurrence, n_with),
            (counts[live][None, :] - cooccurrence, total - n_with),
        )
        entropies = []
        for hits, sizes in sides:
            side = np.empty(len(mine), dtype=np.float64)
            for size in np.unique(sizes).tolist():
                group = np.flatnonzero(sizes == size)
                block = _entropy_table(size)[hits[group]]
                if len(slots) < len(live_columns):
                    whole = np.tile(baseline, (len(group), 1))
                    whole[:, slots] = block
                    block = whole
                side[group] = block.sum(axis=1)
            entropies.append(side)
        p = n_with / total
        conditional = p * entropies[0] + (1.0 - p) * entropies[1]
        gains[mine] = np.maximum(0.0, current_uncertainty - conditional)
    return gains


#: Factor row counts: mostly small, some past the 4097 rows an enumerated
#: shard reaches.
_ROWS = st.one_of(st.integers(1, 80), st.integers(4090, 4300))


class TestInformationGainParity:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rows=st.lists(_ROWS, min_size=1, max_size=4),
        as_float=st.booleans(),
        empty=st.integers(min_value=-4, max_value=3),
        order=st.sampled_from(["random", "ascending", "all"]),
    )
    @settings(max_examples=80, deadline=None)
    @example(seed=1, rows=[4097], as_float=False, empty=-1, order="all")
    @example(seed=2, rows=[4200, 7, 1], as_float=True, empty=-1, order="all")
    @example(seed=3, rows=[30, 12, 4097], as_float=False, empty=1,
             order="random")
    def test_gains_equal_reference_reduction(
        self, seed, rows, as_float, empty, order
    ):
        """Cached counts, the float32 product and the table gather give
        the old reduction's gains byte for byte: one factor and several,
        bool and 0/1 float64 matrices, targets on certain and
        constant columns (in random order, ascending, or every column),
        and a factor emptied by its feedback."""
        rng = np.random.default_rng(seed)
        n_factors = len(rows)
        width = int(rng.integers(n_factors, 48))
        owners = rng.integers(0, n_factors + 1, width)  # n_factors: certain
        factors = []
        for factor, count in enumerate(rows):
            columns = np.flatnonzero(owners == factor)
            if factor == empty:
                count = 0
            # Per-column densities with some constant columns, which are
            # never live.
            density = rng.choice(
                [0.0, 1.0, 0.5, rng.random()], size=len(columns)
            )
            matrix = rng.random((count, len(columns))) < density
            factors.append(
                (columns, matrix.astype(np.float64) if as_float else matrix)
            )
        targets = rng.permutation(width)[: int(rng.integers(1, width + 1))]
        if order == "ascending":
            targets = np.sort(targets)
        elif order == "all":
            targets = np.arange(width)
        expected = _reference_information_gain_factors(factors, width, targets)
        recounted = information_gain_factors(factors, width, targets)
        cached = information_gain_factors(
            [
                (columns, matrix, matrix.sum(axis=0, dtype=np.int64))
                for columns, matrix in factors
            ],
            width,
            targets,
        )
        assert recounted.tobytes() == expected.tobytes()
        assert cached.tobytes() == expected.tobytes()

    def test_compact_factor_matches_full_matrix_over_session(self):
        """On the 1500-candidate reference network (336 conflicted
        columns), the selection's compact factor gives the full-width
        matrix's gains, byte for byte, at every one of 60 IG steps."""
        fixture = synthetic_fixture(
            n_correspondences=1500,
            n_schemas=24,
            attributes_per_schema=150,
            conflict_bias=0.35,
            seed=7,
        )
        network = fixture.network
        pnet = ProbabilisticNetwork(
            network, target_samples=250, rng=random.Random(4)
        )
        store = pnet.estimator.store
        assert len(store.conflicted_columns()) == 336 < network.engine.n
        strategy = InformationGainSelection(rng=random.Random(5))
        truth = fixture.ground_truth
        for _ in range(60):
            columns, gains = strategy.scores(pnet)
            assert len(columns) and gains.max() > 0.0
            expected = information_gain_array(store.matrix(), columns)
            assert gains.tobytes() == expected.tobytes()
            corr = strategy.select(pnet)
            pnet.record_assertion(corr, corr in truth)
