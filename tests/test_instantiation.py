"""Unit tests for instantiation (Algorithm 2), the per-component
deliverable of sharded sessions, and the exact reference."""

import math
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    Feedback,
    InconsistentFeedbackError,
    MatchingNetwork,
    ProbabilisticNetwork,
    correspondence,
    exact_instantiate,
    enumerate_instances,
    exact_probabilities,
    instantiate,
    is_matching_instance,
    log_likelihood,
    repair_distance,
)
from repro.experiments.churn import make_churn_delta
from repro.experiments.harness import synthetic_fixture, synthetic_network
from repro.experiments.scenarios import ScenarioSpec, build_session
from repro.shard import ShardedEstimator


@pytest.fixture
def movie_pnet(movie_network):
    return ProbabilisticNetwork(
        movie_network, target_samples=60, rng=random.Random(41)
    )


class TestMeasures:
    def test_repair_distance_subset(self, movie_network, movie_correspondences):
        c = movie_correspondences
        instance = {c["c1"], c["c2"], c["c3"]}
        assert repair_distance(instance, movie_network.correspondences) == 2

    def test_repair_distance_empty(self, movie_network):
        assert repair_distance([], movie_network.correspondences) == 5

    def test_log_likelihood(self, movie_correspondences):
        c = movie_correspondences
        probabilities = {c["c1"]: 0.5, c["c2"]: 0.25}
        value = log_likelihood([c["c1"], c["c2"]], probabilities)
        assert value == pytest.approx(math.log(0.5) + math.log(0.25))

    def test_log_likelihood_floors_zero(self, movie_correspondences):
        c = movie_correspondences
        value = log_likelihood([c["c1"]], {c["c1"]: 0.0})
        assert math.isfinite(value)


class TestInstantiate:
    def test_output_is_matching_instance(self, movie_pnet, movie_network):
        matching = instantiate(movie_pnet, iterations=50, rng=random.Random(1))
        assert is_matching_instance(matching, movie_network, movie_pnet.feedback)

    def test_minimal_repair_distance(self, movie_pnet, movie_network):
        matching = instantiate(movie_pnet, iterations=50, rng=random.Random(1))
        best = min(
            repair_distance(i, movie_network.correspondences)
            for i in enumerate_instances(movie_network)
        )
        assert repair_distance(matching, movie_network.correspondences) == best

    def test_respects_feedback(self, movie_pnet, movie_correspondences, movie_network):
        c = movie_correspondences
        movie_pnet.record_assertion(c["c5"], approved=False)
        movie_pnet.record_assertion(c["c1"], approved=True)
        matching = instantiate(movie_pnet, iterations=50, rng=random.Random(1))
        assert c["c5"] not in matching
        assert c["c1"] in matching
        assert movie_network.engine.is_consistent(matching)

    def test_recovers_truth_after_full_feedback(
        self, movie_pnet, movie_truth, movie_oracle
    ):
        for corr in list(movie_pnet.correspondences):
            movie_pnet.record_assertion(
                corr, movie_oracle.assert_correspondence(corr)
            )
        matching = instantiate(movie_pnet, iterations=50, rng=random.Random(1))
        assert matching == movie_truth

    def test_zero_iterations_still_returns_instance(self, movie_pnet, movie_network):
        matching = instantiate(movie_pnet, iterations=0, rng=random.Random(1))
        assert is_matching_instance(matching, movie_network)

    def test_negative_iterations_rejected(self, movie_pnet):
        with pytest.raises(ValueError, match="iterations"):
            instantiate(movie_pnet, iterations=-1)

    def test_without_likelihood_still_valid(self, movie_pnet, movie_network):
        matching = instantiate(
            movie_pnet, iterations=50, use_likelihood=False, rng=random.Random(1)
        )
        assert is_matching_instance(matching, movie_network)

    def test_works_without_samples(self, movie_network):
        """Falls back to greedy maximalisation when the estimator is exact."""
        from repro.core import ExactEstimator

        pnet = ProbabilisticNetwork(
            movie_network, estimator=ExactEstimator(movie_network)
        )
        matching = instantiate(pnet, iterations=30, rng=random.Random(2))
        assert is_matching_instance(matching, movie_network)

    def test_heuristic_matches_exact_on_small_corpus(self, small_fixture):
        """Algorithm 2 finds an instance with the exact optimum's distance."""
        from repro.experiments.harness import conflicted_subnetwork

        subnetwork = conflicted_subnetwork(small_fixture.network, 14, seed=1)
        probabilities = exact_probabilities(subnetwork)
        exact = exact_instantiate(subnetwork, probabilities)
        pnet = ProbabilisticNetwork(
            subnetwork, target_samples=200, rng=random.Random(6)
        )
        heuristic = instantiate(pnet, iterations=100, rng=random.Random(7))
        assert repair_distance(
            heuristic, subnetwork.correspondences
        ) <= repair_distance(exact, subnetwork.correspondences) + 1


class TestExactInstantiate:
    def test_picks_minimal_repair_distance(self, movie_network):
        probabilities = exact_probabilities(movie_network)
        best = exact_instantiate(movie_network, probabilities)
        distances = [
            repair_distance(i, movie_network.correspondences)
            for i in enumerate_instances(movie_network)
        ]
        assert repair_distance(best, movie_network.correspondences) == min(distances)

    def test_likelihood_tie_break(self, movie_network, movie_correspondences):
        c = movie_correspondences
        # Bias probabilities towards the {c1, c4, c5} instance.
        probabilities = {
            c["c1"]: 0.9,
            c["c2"]: 0.1,
            c["c3"]: 0.1,
            c["c4"]: 0.9,
            c["c5"]: 0.9,
        }
        best = exact_instantiate(movie_network, probabilities)
        assert best == frozenset({c["c1"], c["c4"], c["c5"]})

    def test_without_likelihood_ignores_probabilities(self, movie_network, movie_correspondences):
        probabilities = {corr: 0.5 for corr in movie_network.correspondences}
        best = exact_instantiate(
            movie_network, probabilities, use_likelihood=False
        )
        # Both three-element instances tie; the result must still be one of
        # the minimal-distance instances.
        assert len(best) == 3

    def test_respects_feedback(self, movie_network, movie_correspondences):
        c = movie_correspondences
        feedback = Feedback(approved=[c["c5"]])
        probabilities = exact_probabilities(movie_network, feedback)
        best = exact_instantiate(movie_network, probabilities, feedback)
        assert c["c5"] in best

    def test_raises_without_instances(self, movie_schemas, movie_correspondences):
        c = movie_correspondences
        network = MatchingNetwork(list(movie_schemas), [c["c1"]])
        feedback = Feedback(disapproved=[c["c1"]])
        probabilities = {c["c1"]: 0.0}
        # The only instance is the empty set — still an instance, so no
        # error; check the degenerate result instead.
        best = exact_instantiate(network, probabilities, feedback)
        assert best == frozenset()


# ----------------------------------------------------------------------
# The per-component deliverable of sharded sessions
# ----------------------------------------------------------------------

#: The reference network of the session benches and the fleet workload:
#: 1500 candidates, 124 violation components, every one enumerable.
REFERENCE_KWARGS = dict(
    n_correspondences=1500,
    n_schemas=24,
    attributes_per_schema=150,
    conflict_bias=0.35,
    seed=7,
)


class _Unfactorised:
    """An estimator that hides ``components()``: ``instantiate`` then runs
    Algorithm 2 over the whole network on the same P and feedback."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        if name == "components":
            raise AttributeError(name)
        return getattr(self._inner, name)


def _algorithm_2(pnet, rng):
    whole = ProbabilisticNetwork(
        pnet.network, estimator=_Unfactorised(pnet.estimator)
    )
    return instantiate(whole, rng=rng)


def _objective(matching, pnet):
    """Problem 2's objective as a key: (Δ, −log u), smaller is better."""
    return (
        repair_distance(matching, pnet.correspondences),
        -log_likelihood(matching, pnet.probabilities()),
    )


def _no_worse(challenger, incumbent):
    if challenger[0] != incumbent[0]:
        return challenger[0] < incumbent[0]
    return challenger[1] <= incumbent[1] + 1e-9 * abs(incumbent[1])


def _sharded_pnet(network, rng, **kwargs):
    kwargs.setdefault("target_samples", 512)
    return ProbabilisticNetwork(
        network, estimator=ShardedEstimator(network, rng=rng, **kwargs)
    )


def _draw_network(draw):
    return synthetic_network(
        draw(st.integers(min_value=6, max_value=16)),
        n_schemas=draw(st.integers(min_value=3, max_value=4)),
        attributes_per_schema=draw(st.integers(min_value=6, max_value=9)),
        conflict_bias=draw(st.sampled_from([0.2, 0.35, 0.5, 0.65, 0.8])),
        seed=draw(st.integers(min_value=0, max_value=500)),
    )


def _draw_feedback(draw, pnet):
    """Assert a few random unasserted candidates with random verdicts."""
    remaining = list(pnet.correspondences)
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        if not remaining:
            break
        corr = remaining.pop(
            draw(st.integers(min_value=0, max_value=len(remaining) - 1))
        )
        try:
            pnet.record_assertion(corr, draw(st.booleans()))
        except InconsistentFeedbackError:
            pass


@pytest.fixture(scope="module")
def reference_fixture():
    return synthetic_fixture(**REFERENCE_KWARGS)


def _likelihood_session(fixture, seed=3):
    return build_session(
        fixture,
        ScenarioSpec(
            strategy="likelihood", target_samples=250, seed=seed, sharded=True
        ),
    )


def _advance(session, steps):
    while len(session.trace.steps) < steps and session.step() is not None:
        pass


class TestShardedDeliverable:
    @given(data=st.data())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_objective_equals_exact_optimum(self, data):
        network = _draw_network(data.draw)
        assume(len(enumerate_instances(network, limit=129)) <= 128)
        pnet = _sharded_pnet(
            network, random.Random(data.draw(st.integers(0, 3)))
        )
        _draw_feedback(data.draw, pnet)
        # Every shard holds its whole Ω_s, so the answer must be exact.
        assert all(
            store.exhausted for _, store in pnet.estimator.components()
        )
        probabilities = pnet.probabilities()
        candidates = network.correspondences
        for use_likelihood in (True, False):
            matching = instantiate(
                pnet, use_likelihood=use_likelihood, rng=random.Random(0)
            )
            assert is_matching_instance(matching, network, pnet.feedback)
            exact = exact_instantiate(
                network, probabilities, pnet.feedback, use_likelihood
            )
            assert repair_distance(matching, candidates) == repair_distance(
                exact, candidates
            )
            if use_likelihood:
                assert math.isclose(
                    log_likelihood(matching, probabilities),
                    log_likelihood(exact, probabilities),
                    rel_tol=1e-9,
                    abs_tol=1e-12,
                )

    def test_walk_sampled_shards_run_algorithm_2(self):
        fixture = synthetic_fixture(
            24, n_schemas=5, attributes_per_schema=8, seed=1
        )
        network = fixture.network
        pnet = _sharded_pnet(
            network, random.Random(5), target_samples=8, enumerate_limit=1
        )
        sampled = [
            store
            for _, store in pnet.estimator.components()
            if not store.exhausted
        ]
        assert sampled
        conflicted = [
            corr
            for corr in network.correspondences
            if network.engine.violations_involving(corr)
        ]
        for corr in conflicted[:4]:
            pnet.record_assertion(corr, corr in fixture.ground_truth)
        rng = random.Random(2)
        before = rng.getstate()
        matching = instantiate(pnet, iterations=30, rng=rng)
        assert is_matching_instance(matching, network, pnet.feedback)
        # Only the local search draws: the shards it ran on were sampled.
        assert rng.getstate() != before

    @pytest.mark.parametrize("steps", [0, 40, 120])
    def test_never_worse_than_algorithm_2_on_reference(
        self, reference_fixture, steps
    ):
        session = _likelihood_session(reference_fixture)
        _advance(session, steps)
        pnet = session.pnet
        deliverable = _objective(
            session.current_matching(rng=random.Random(0)), pnet
        )
        for seed in range(3):
            heuristic = _objective(
                _algorithm_2(pnet, random.Random(seed)), pnet
            )
            assert _no_worse(deliverable, heuristic)

    def test_never_worse_than_algorithm_2_after_delta(self, reference_fixture):
        """A fleet expert tenant's state: steps, the churn delta, steps."""
        session = _likelihood_session(reference_fixture, seed=13)
        _advance(session, 40)
        network = session.pnet.network
        session.apply_delta(make_churn_delta(network, 0.1, random.Random(4)))
        assert session.pnet.network is not network
        _advance(session, 80)
        pnet = session.pnet
        matching = session.current_matching(rng=random.Random(0))
        assert is_matching_instance(matching, pnet.network, pnet.feedback)
        deliverable = _objective(matching, pnet)
        for seed in range(3):
            heuristic = _objective(
                _algorithm_2(pnet, random.Random(seed)), pnet
            )
            assert _no_worse(deliverable, heuristic)

    def test_enumerated_shards_ignore_rng_and_iterations(
        self, reference_fixture
    ):
        session = _likelihood_session(reference_fixture)
        _advance(session, 40)
        pnet = session.pnet
        assert all(
            store.exhausted for _, store in pnet.estimator.components()
        )
        rng = random.Random(1)
        before = rng.getstate()
        first = session.current_matching(rng=rng)
        assert rng.getstate() == before
        assert session.current_matching(rng=random.Random(2)) == first
        assert session.current_matching(iterations=0) == first

    def test_restores_approved_outside_the_universe(self):
        network = synthetic_network(
            12, n_schemas=3, attributes_per_schema=6, seed=3
        )
        candidates = set(network.correspondences)
        left, right = network.schemas[0], network.schemas[1]
        outside = next(
            corr
            for corr in (
                correspondence(a, b) for a in left for b in right
            )
            if corr not in candidates
        )
        pnet = _sharded_pnet(network, random.Random(0))
        pnet.estimator.record_assertion(outside, True)
        assert outside in instantiate(pnet, rng=random.Random(0))
