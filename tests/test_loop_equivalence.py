"""The reconciliation-loop equivalence harness.

Three layers pin the incremental, array-native loop to its scalar
semantics:

1. **Session parity** — :class:`ReferenceReconciliationSession` (the
   pinned pre-incremental loop: dict bookkeeping, store-cache teardown per
   assertion, scalar entropy sums) must produce **bit-for-bit identical
   traces** to :class:`ReconciliationSession` under identical seeds:
   same uncertainties, same selections, same verdicts, same efforts, same
   final feedback.  Both share the sampler kernels, so any divergence is a
   loop-layer bug.
2. **Estimator equivalence** (property-based) — on tiny enumerable
   networks whose instance space the sampler fully discovers, the
   view-maintained :class:`SampledEstimator` must agree with
   :class:`ExactEstimator` *exactly* at every step of a randomised
   assertion sequence: probabilities, uncertain sets, feedback.
3. **View parity** (property-based) — the vector APIs
   (``network_uncertainty_vector``, ``information_gain_array``,
   ``probability_vector``) must agree bit-for-bit with the mapping APIs
   they replaced in the hot path.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    ExactEstimator,
    InformationGainSelection,
    LikelihoodSelection,
    MatchingNetwork,
    NoisyOracle,
    Oracle,
    ProbabilisticNetwork,
    RandomSelection,
    ReconciliationSession,
    SampledEstimator,
    Schema,
    correspondence,
    enumerate_instances,
    information_gains,
    network_uncertainty,
    network_uncertainty_vector,
)
from repro.core.reference_loop import ReferenceReconciliationSession
from repro.core.uncertainty import information_gain_array
from repro.experiments.harness import synthetic_fixture

common_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

STRATEGY_CLASSES = {
    "random": RandomSelection,
    "information-gain": InformationGainSelection,
    "likelihood": LikelihoodSelection,
}

_FIXTURE_CACHE: dict[str, object] = {}


def _session_fixture():
    if "net" not in _FIXTURE_CACHE:
        _FIXTURE_CACHE["net"] = synthetic_fixture(
            110, n_schemas=8, attributes_per_schema=30, seed=5
        )
    return _FIXTURE_CACHE["net"]


def _run_pair(network, truth, strategy_name, seed, oracle_factory=None):
    """Drive the incremental and the reference session with identical seeds."""

    def oracle():
        return oracle_factory() if oracle_factory else Oracle(truth)

    incremental = ReconciliationSession(
        ProbabilisticNetwork(network, target_samples=100, rng=random.Random(seed)),
        oracle(),
        STRATEGY_CLASSES[strategy_name](rng=random.Random(seed + 1)),
        on_conflict="disapprove" if oracle_factory else "raise",
    )
    incremental.run()
    reference = ReferenceReconciliationSession(
        ProbabilisticNetwork(network, target_samples=100, rng=random.Random(seed)),
        oracle(),
        strategy_name,
        rng=random.Random(seed + 1),
        on_conflict="disapprove" if oracle_factory else "raise",
    )
    reference.run()
    return incremental, reference


def assert_traces_identical(incremental, reference):
    """Bit-for-bit: the whole recorded history must match."""
    assert incremental.trace.uncertainties == reference.trace.uncertainties
    assert incremental.trace.efforts == reference.trace.efforts
    assert [s.correspondence for s in incremental.trace.steps] == [
        s.correspondence for s in reference.trace.steps
    ]
    assert [s.approved for s in incremental.trace.steps] == [
        s.approved for s in reference.trace.steps
    ]
    assert [s.index for s in incremental.trace.steps] == [
        s.index for s in reference.trace.steps
    ]
    assert (
        incremental.pnet.feedback.approved == reference.pnet.feedback.approved
    )
    assert (
        incremental.pnet.feedback.disapproved
        == reference.pnet.feedback.disapproved
    )
    assert incremental.conflicts_resolved == reference.conflicts_resolved


class TestSessionParity:
    @pytest.mark.parametrize("strategy", sorted(STRATEGY_CLASSES))
    @pytest.mark.parametrize("seed", [1, 9, 23])
    def test_full_session_bit_parity_synthetic(self, strategy, seed):
        fixture = _session_fixture()
        incremental, reference = _run_pair(
            fixture.network, fixture.ground_truth, strategy, seed
        )
        assert_traces_identical(incremental, reference)
        # Both fully reconciled the network.
        assert incremental.uncertainty() == reference.uncertainty()

    @pytest.mark.parametrize("strategy", sorted(STRATEGY_CLASSES))
    def test_full_session_bit_parity_movie(
        self, strategy, movie_network, movie_truth
    ):
        incremental, reference = _run_pair(movie_network, movie_truth, strategy, 3)
        assert_traces_identical(incremental, reference)

    @pytest.mark.parametrize("seed", [2, 11])
    def test_noisy_disapprove_parity(self, seed):
        """The conflict-resolution path must also match step for step."""
        fixture = _session_fixture()

        def oracle_factory():
            return NoisyOracle(
                fixture.ground_truth, error_rate=0.3, rng=random.Random(77)
            )

        incremental, reference = _run_pair(
            fixture.network,
            fixture.ground_truth,
            "information-gain",
            seed,
            oracle_factory=oracle_factory,
        )
        assert_traces_identical(incremental, reference)

    def test_uncertainty_goal_parity(self):
        fixture = _session_fixture()
        incremental = ReconciliationSession(
            ProbabilisticNetwork(
                fixture.network, target_samples=100, rng=random.Random(4)
            ),
            fixture.oracle(),
            InformationGainSelection(rng=random.Random(5)),
        )
        reference = ReferenceReconciliationSession(
            ProbabilisticNetwork(
                fixture.network, target_samples=100, rng=random.Random(4)
            ),
            fixture.oracle(),
            "information-gain",
            rng=random.Random(5),
        )
        goal = incremental.trace.initial_uncertainty / 2.0
        incremental.run(uncertainty_goal=goal)
        reference.run(uncertainty_goal=goal)
        assert_traces_identical(incremental, reference)
        assert incremental.uncertainty() <= goal


# ---------------------------------------------------------------------------
# Tiny enumerable networks for the estimator equivalence property
# ---------------------------------------------------------------------------


@st.composite
def enumerable_networks(draw):
    """A small network, its instance space, a ground truth, an order."""
    n_schemas = draw(st.integers(min_value=2, max_value=3))
    schemas = []
    for index in range(n_schemas):
        n_attrs = draw(st.integers(min_value=1, max_value=3))
        schemas.append(
            Schema.from_names(f"S{index}", [f"a{j}" for j in range(n_attrs)])
        )
    correspondences = set()
    for left_index in range(n_schemas):
        for right_index in range(left_index + 1, n_schemas):
            for left_attr in schemas[left_index]:
                for right_attr in schemas[right_index]:
                    if draw(st.booleans()):
                        correspondences.add(correspondence(left_attr, right_attr))
    assume(correspondences)
    network = MatchingNetwork(schemas, sorted(correspondences))
    instances = enumerate_instances(network)
    assume(1 <= len(instances) <= 48)
    truth = instances[draw(st.integers(min_value=0, max_value=len(instances) - 1))]
    order = list(network.correspondences)
    indices = draw(st.permutations(range(len(order))))
    return network, instances, truth, [order[i] for i in indices]


class TestEstimatorEquivalence:
    @given(case=enumerable_networks(), seed=st.integers(min_value=0, max_value=2**16))
    @common_settings
    def test_sampled_matches_exact_along_assertions(self, case, seed):
        network, instances, truth, order = case
        sampled = SampledEstimator(
            network, target_samples=96, walk_steps=4, rng=random.Random(seed)
        )
        # Only fully discovered instance spaces admit exact agreement; the
        # walk finds every instance of these tiny networks essentially
        # always, so this is a guard, not a filter.
        assume(set(sampled.samples) == set(instances))
        exact = ExactEstimator(network)
        pnet_sampled = ProbabilisticNetwork(network, estimator=sampled)
        pnet_exact = ProbabilisticNetwork(network, estimator=exact)

        def check():
            feedback = sampled.feedback
            assert feedback.approved == exact.feedback.approved
            assert feedback.disapproved == exact.feedback.disapproved
            # Validity: every maintained sample is a matching instance of
            # the *current* feedback state.
            current_instances = set(enumerate_instances(network, feedback))
            for sample in sampled.samples:
                assert sample in current_instances
            # The view-maintenance top-ups keep these tiny spaces fully
            # covered, where sample frequencies are the exact Equation 1.
            assert set(sampled.samples) == current_instances
            probs_sampled = pnet_sampled.probabilities()
            probs_exact = pnet_exact.probabilities()
            for corr in network.correspondences:
                assert probs_sampled[corr] == pytest.approx(
                    probs_exact[corr], abs=1e-12
                )
            assert set(pnet_sampled.uncertain_correspondences()) == set(
                pnet_exact.uncertain_correspondences()
            )
            # The folded vector view agrees with the mapping view exactly.
            assert pnet_sampled.uncertainty() == network_uncertainty(
                probs_sampled
            )

        check()
        for corr in order:
            verdict = corr in truth
            pnet_sampled.record_assertion(corr, verdict)
            pnet_exact.record_assertion(corr, verdict)
            check()

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "an exhausted walk store conditions on a disapproval without "
            "adding the instances J minus c that become maximal, and does "
            "not refill because it is marked exhausted"
        ),
    )
    def test_exhausted_store_covers_omega_after_disapproval(self):
        """A pinned draw of the property above on which coverage breaks.

        The store holds all 28 instances and is exhausted (saturated below
        ``min_samples``).  Disapproving S1.a2–S2.a1 leaves |Ω(F)| = 24, but
        the conditioned store keeps 23 and stays exhausted, so it never
        walks again to find the missing one.
        """
        schemas = [
            Schema.from_names("S0", ["a0", "a1"]),
            Schema.from_names("S1", ["a0", "a1", "a2"]),
            Schema.from_names("S2", ["a0", "a1"]),
        ]
        attribute = {
            (schema.name, attr.name): attr
            for schema in schemas
            for attr in schema
        }
        pairs = [
            ("S0", "a0", "S1", "a0"), ("S0", "a0", "S1", "a1"),
            ("S0", "a0", "S1", "a2"), ("S0", "a0", "S2", "a0"),
            ("S0", "a0", "S2", "a1"), ("S0", "a1", "S1", "a0"),
            ("S0", "a1", "S1", "a1"), ("S0", "a1", "S1", "a2"),
            ("S0", "a1", "S2", "a0"), ("S0", "a1", "S2", "a1"),
            ("S1", "a1", "S2", "a0"), ("S1", "a1", "S2", "a1"),
            ("S1", "a2", "S2", "a0"), ("S1", "a2", "S2", "a1"),
        ]
        network = MatchingNetwork(
            schemas,
            sorted(
                correspondence(attribute[a, x], attribute[b, y])
                for a, x, b, y in pairs
            ),
        )
        assert network.violation_count() == 49
        sampled = SampledEstimator(
            network, target_samples=96, walk_steps=4, rng=random.Random(14196)
        )
        assert set(sampled.samples) == set(enumerate_instances(network))
        assert len(set(sampled.samples)) == 28 and sampled.store.exhausted
        sampled.record_assertion(
            correspondence(attribute["S1", "a2"], attribute["S2", "a1"]), False
        )
        current = set(enumerate_instances(network, sampled.feedback))
        assert len(current) == 24
        assert set(sampled.samples) == current


# ---------------------------------------------------------------------------
# Vector-vs-mapping view parity
# ---------------------------------------------------------------------------


class TestViewParity:
    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=1.0),
                st.sampled_from([0.0, 1.0, 0.5]),
            ),
            min_size=0,
            max_size=64,
        )
    )
    @common_settings
    def test_network_uncertainty_vector_bitwise(self, values):
        mapping = {index: p for index, p in enumerate(values)}
        vector = np.asarray(values, dtype=np.float64)
        assert network_uncertainty_vector(vector) == network_uncertainty(mapping)

    def test_sampled_probability_vector_respects_alignment(self):
        """The estimator must honour the alignment of the sequence it is
        given, not assume the engine order (base-class contract)."""
        fixture = _session_fixture()
        estimator = SampledEstimator(
            fixture.network, target_samples=60, rng=random.Random(1)
        )
        forward = estimator.probability_vector(fixture.network.correspondences)
        reversed_order = tuple(reversed(fixture.network.correspondences))
        backward = estimator.probability_vector(reversed_order)
        assert backward.tolist() == forward.tolist()[::-1]
        subset = fixture.network.correspondences[:5]
        assert estimator.probability_vector(subset).tolist() == forward.tolist()[:5]

    @given(
        rows=st.integers(min_value=0, max_value=24),
        cols=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @common_settings
    def test_information_gain_array_matches_mapping_api(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.random((rows, cols)) < 0.5
        labels = tuple(f"c{i}" for i in range(cols))
        gains = information_gains((), labels, matrix=matrix.astype(np.float64))
        array = information_gain_array(
            matrix.astype(np.float64), np.arange(cols, dtype=np.intp)
        )
        assert [gains[label] for label in labels] == array.tolist()
