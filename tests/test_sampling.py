"""Unit tests for the non-uniform sampler and the view-maintained store."""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_wave_maximalize import random_networks

from repro.core import (
    Feedback,
    InstanceSampler,
    MatchingNetwork,
    SampleStore,
    enumerate_instances,
    is_matching_instance,
    symmetric_difference_size,
)
from repro.core import NetworkDelta, ProbabilisticNetwork
from repro.core import sampling as sampling_module
from repro.core.constraints import mask_indices
from repro.experiments.churn import make_churn_delta
from repro.experiments.harness import synthetic_network
from repro.shard import ShardedSampleStore


class TestSymmetricDifference:
    def test_disjoint(self, movie_correspondences):
        c = movie_correspondences
        assert symmetric_difference_size([c["c1"]], [c["c2"]]) == 2

    def test_identical(self, movie_correspondences):
        c = movie_correspondences
        assert symmetric_difference_size([c["c1"]], [c["c1"]]) == 0

    def test_partial_overlap(self, movie_correspondences):
        c = movie_correspondences
        assert (
            symmetric_difference_size([c["c1"], c["c2"]], [c["c2"], c["c3"]]) == 2
        )

    def test_empty_sets(self):
        assert symmetric_difference_size([], []) == 0


class TestInstanceSampler:
    def test_samples_are_matching_instances(self, movie_network, rng):
        sampler = InstanceSampler(movie_network, rng=rng)
        for sample in sampler.sample(30):
            assert is_matching_instance(sample, movie_network)

    def test_samples_distinct(self, movie_network, rng):
        sampler = InstanceSampler(movie_network, rng=rng)
        samples = sampler.sample(50)
        assert len(samples) == len(set(samples))

    def test_covers_instance_space(self, movie_network, rng):
        sampler = InstanceSampler(movie_network, walk_steps=8, rng=rng)
        samples = set(sampler.sample(100))
        assert samples == set(enumerate_instances(movie_network))

    def test_respects_feedback(self, movie_network, movie_correspondences, rng):
        c = movie_correspondences
        feedback = Feedback(approved=[c["c1"]], disapproved=[c["c3"]])
        sampler = InstanceSampler(movie_network, rng=rng)
        for sample in sampler.sample(25, feedback):
            assert c["c1"] in sample
            assert c["c3"] not in sample

    def test_rejects_bad_walk_steps(self, movie_network):
        with pytest.raises(ValueError, match="walk_steps"):
            InstanceSampler(movie_network, walk_steps=0)

    def test_rejects_bad_restart_probability(self, movie_network):
        with pytest.raises(ValueError, match="restart_probability"):
            InstanceSampler(movie_network, restart_probability=1.5)

    def test_restarts_preserve_instance_validity(self, movie_network):
        sampler = InstanceSampler(
            movie_network, restart_probability=0.5, rng=random.Random(6)
        )
        for sample in sampler.sample(25):
            assert is_matching_instance(sample, movie_network)

    def test_restarts_respect_feedback(self, movie_network, movie_correspondences):
        c = movie_correspondences
        feedback = Feedback(approved=[c["c1"]])
        sampler = InstanceSampler(
            movie_network, restart_probability=0.5, rng=random.Random(6)
        )
        for sample in sampler.sample(25, feedback):
            assert c["c1"] in sample

    def test_deterministic_with_seed(self, movie_network):
        left = InstanceSampler(movie_network, rng=random.Random(3)).sample(20)
        right = InstanceSampler(movie_network, rng=random.Random(3)).sample(20)
        assert left == right

    def test_sampling_on_conflict_free_network(self, movie_schemas, movie_correspondences):
        c = movie_correspondences
        network = MatchingNetwork(
            list(movie_schemas), [c["c1"], c["c2"], c["c3"]]
        )
        sampler = InstanceSampler(network, rng=random.Random(0))
        samples = sampler.sample(10)
        assert set(samples) == {frozenset({c["c1"], c["c2"], c["c3"]})}


class TestSeededSampler:
    """``InstanceSampler(seed=s)`` spawns its streams on first use: exactly
    the streams ``rng=random.Random(s)`` builds up front.  Until then its
    state is the seed alone, and both state forms round-trip."""

    @given(
        network=random_networks(),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(
        max_examples=25,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_lazy_streams_equal_eager_streams(self, network, seed):
        lazy = InstanceSampler(network, seed=seed)
        eager = InstanceSampler(network, rng=random.Random(seed))
        assert lazy.get_state() == {"seed": seed}
        restored = InstanceSampler(network, seed=0)
        restored.set_state(lazy.get_state())
        assert restored.get_state() == {"seed": seed}
        for count in (3, 8, 5):
            expected = eager.sample_masks(count)
            assert lazy.sample_masks(count) == expected
            assert restored.sample_masks(count) == expected
        assert lazy.get_state() == eager.get_state()
        # The full form round-trips onto an unspawned sampler too.
        resumed = InstanceSampler(network, seed=seed + 1)
        resumed.set_state(lazy.get_state())
        assert resumed.get_state() == eager.get_state()
        assert resumed.sample_masks(6) == eager.sample_masks(6)

    def test_seed_form_resets_a_spawned_sampler(self, movie_network):
        sampler = InstanceSampler(movie_network, rng=random.Random(1))
        sampler.sample_masks(4)
        sampler.set_state({"seed": 5})
        assert sampler.get_state() == {"seed": 5}
        fresh = InstanceSampler(movie_network, rng=random.Random(5))
        assert sampler.sample_masks(7) == fresh.sample_masks(7)

    def test_rng_and_seed_are_exclusive(self, movie_network):
        with pytest.raises(ValueError, match="rng or seed"):
            InstanceSampler(movie_network, rng=random.Random(1), seed=1)


class TestWalkEdgeCases:
    def test_restart_probability_one(self, movie_network):
        """Every round restarts to the feedback core before stepping."""
        sampler = InstanceSampler(
            movie_network, rng=random.Random(3), restart_probability=1.0
        )
        states, _ = sampler.walk_states(30)
        assert len(states) == 30
        for sample in sampler.sample(20):
            assert is_matching_instance(sample, movie_network)

    def test_empty_availability_breaks_walk(self, movie_network):
        """All candidates disapproved: avail is empty from the first step."""
        feedback = Feedback(disapproved=list(movie_network.correspondences))
        sampler = InstanceSampler(movie_network, rng=random.Random(1))
        states, allowed = sampler.walk_states(10, feedback)
        assert allowed == 0
        assert states == [0] * 10
        assert sampler.sample(10, feedback) == [frozenset()]

    def test_availability_exhausted_mid_walk(self, movie_network):
        """One allowed candidate: once taken, later steps hit the break."""
        corrs = movie_network.correspondences
        feedback = Feedback(disapproved=list(corrs[1:]))
        sampler = InstanceSampler(
            movie_network, rng=random.Random(1), walk_steps=6
        )
        states, allowed = sampler.walk_states(12, feedback)
        assert allowed.bit_count() == 1
        assert set(states) <= {0, allowed}
        assert allowed in states  # the walk does reach the lone candidate
        samples = sampler.sample(12, feedback)
        assert samples == [frozenset([corrs[0]])]

    def test_kth_set_bit_fallback_fires(self, movie_network, monkeypatch):
        """A sparse availability mask forces the exact k-th-bit fallback.

        With one allowed bit out of five, four rejection tries all miss
        with probability (4/5)^4 ≈ 0.41 per step, so a seeded 20-round
        walk deterministically exercises the fallback.
        """
        corrs = movie_network.correspondences
        feedback = Feedback(disapproved=list(corrs[1:]))
        calls = {"count": 0}
        real = sampling_module.kth_set_bit

        def counting(mask, k):
            calls["count"] += 1
            return real(mask, k)

        monkeypatch.setattr(sampling_module, "kth_set_bit", counting)
        sampler = InstanceSampler(
            movie_network, rng=random.Random(0), restart_probability=1.0
        )
        states, _ = sampler.walk_states(20, feedback)
        assert calls["count"] > 0
        assert set(states) <= {0, sampler.network.engine.mask_of([corrs[0]])}


class TestSampleStore:
    def test_fills_on_construction(self, movie_network, rng):
        store = SampleStore(movie_network, target_samples=50, rng=rng)
        # Only 4 instances exist; the store discovers all of them and then
        # detects exhaustion.
        assert set(store.samples) == set(enumerate_instances(movie_network))
        assert store.exhausted

    def test_rejects_bad_target(self, movie_network):
        with pytest.raises(ValueError, match="target_samples"):
            SampleStore(movie_network, target_samples=0)

    def test_frequencies_sum_matches_instances(self, movie_network, rng):
        store = SampleStore(movie_network, target_samples=50, rng=rng)
        frequencies = store.frequencies()
        # With all four instances discovered, every correspondence has the
        # exact probability 0.5 except c1 (0.5 too — in 2 of 4 instances).
        for value in frequencies.values():
            assert value == pytest.approx(0.5)

    def test_approval_filters_samples(self, movie_network, movie_correspondences, rng):
        c = movie_correspondences
        store = SampleStore(movie_network, target_samples=50, rng=rng)
        store.record_assertion(c["c2"], approved=True)
        assert all(c["c2"] in s for s in store.samples)

    def test_disapproval_filters_samples(self, movie_network, movie_correspondences, rng):
        c = movie_correspondences
        store = SampleStore(movie_network, target_samples=50, rng=rng)
        store.record_assertion(c["c2"], approved=False)
        assert all(c["c2"] not in s for s in store.samples)

    def test_asserted_frequencies_binary(self, movie_network, movie_correspondences, rng):
        c = movie_correspondences
        store = SampleStore(movie_network, target_samples=50, rng=rng)
        store.record_assertion(c["c2"], approved=True)
        frequencies = store.frequencies()
        assert frequencies[c["c2"]] == 1.0
        assert frequencies[c["c4"]] == 0.0  # one-to-one conflict with c2

    def test_exhausted_store_stays_consistent_under_feedback(
        self, movie_network, movie_correspondences, rng
    ):
        c = movie_correspondences
        store = SampleStore(movie_network, target_samples=50, rng=rng)
        assert store.exhausted
        store.record_assertion(c["c1"], approved=True)
        expected = {
            i
            for i in enumerate_instances(movie_network)
            if c["c1"] in i
        }
        assert set(store.samples) == expected

    def test_larger_network_tops_up(self, small_fixture):
        store = SampleStore(
            small_fixture.network,
            target_samples=40,
            rng=random.Random(5),
        )
        initial = len(store)
        assert initial > 0
        # Assert the most frequent correspondence; store must stay usable.
        frequencies = store.frequencies()
        target = max(frequencies, key=frequencies.get)
        store.record_assertion(target, approved=True)
        assert len(store) > 0
        assert all(target in s for s in store.samples)

    def test_len(self, movie_network, rng):
        store = SampleStore(movie_network, target_samples=50, rng=rng)
        assert len(store) == len(store.samples)

    def test_top_up_reaches_target_beyond_min_samples(self, movie_network, rng):
        """Regression: refills must aim for ``target_samples``, not stop as
        soon as ``min_samples`` is met.

        The movie network has exactly 4 instances; with ``min_samples=1`` a
        refill that stops at the minimum would leave a single sample behind
        and silently bias every downstream probability estimate.
        """
        store = SampleStore(
            movie_network, target_samples=4, min_samples=1, rng=rng
        )
        assert len(store) == 4
        assert set(store.samples) == set(enumerate_instances(movie_network))

    def test_top_up_reaches_target_on_larger_network(self, small_fixture):
        store = SampleStore(
            small_fixture.network,
            target_samples=60,
            min_samples=10,
            rng=random.Random(9),
        )
        # The BP instance space is far larger than 60, so a refill must not
        # stop short of the goal (it may slightly overshoot: rounds are
        # merged wholesale).
        assert store.exhausted or len(store) >= store.target_samples

    def test_frequencies_cached_between_mutations(self, movie_network, rng):
        store = SampleStore(movie_network, target_samples=50, rng=rng)
        first = store.frequencies()
        assert store.frequencies() is first  # no per-read copy
        target = next(iter(first))
        with pytest.raises(TypeError):
            first[target] = 0.5  # immutable view
        store.record_assertion(target, approved=first[target] > 0.0)
        assert store.frequencies() is not first  # invalidated by mutation

    def test_sample_masks_align_with_samples(self, movie_network, rng):
        store = SampleStore(movie_network, target_samples=50, rng=rng)
        engine = movie_network.engine
        assert [engine.corrs_of(m) for m in store.sample_masks] == list(
            store.samples
        )

    def test_retract_approval_reconditions_store(
        self, movie_network, movie_correspondences, rng
    ):
        """Conflict repair may re-file an approval as a disapproval; Ω*
        must flip to the other side of the partition and refill."""
        c = movie_correspondences
        store = SampleStore(movie_network, target_samples=50, rng=rng)
        store.record_assertion(c["c2"], approved=True)
        assert all(c["c2"] in s for s in store.samples)
        version = store.version
        store.retract_approval(c["c2"])
        assert store.version > version
        assert c["c2"] in store.feedback.disapproved
        assert c["c2"] not in store.feedback.approved
        assert len(store) > 0
        assert all(c["c2"] not in s for s in store.samples)
        expected = {
            i
            for i in enumerate_instances(
                movie_network, store.feedback
            )
        }
        assert set(store.samples) == expected

    def test_retract_approval_requires_prior_approval(
        self, movie_network, movie_correspondences, rng
    ):
        store = SampleStore(movie_network, target_samples=50, rng=rng)
        with pytest.raises(ValueError, match="not approved"):
            store.retract_approval(movie_correspondences["c1"])

    def test_retraction_resumes_sampling_after_exhaustion(
        self, movie_network, movie_correspondences, rng
    ):
        """A complete store is only complete for its feedback state; a
        retraction voids the proof and sampling must resume.  (On this tiny
        network the refill immediately re-discovers the whole corrected
        space — and may legitimately re-mark it exhausted.)"""
        c = movie_correspondences
        store = SampleStore(movie_network, target_samples=50, rng=rng)
        assert store.exhausted
        store.record_assertion(c["c1"], approved=True)
        before = set(store.samples)
        store.retract_approval(c["c1"])
        # The c1-containing side was dropped and the c1-free side was
        # freshly sampled — none of which an "exhausted" store frozen on
        # the old view could have produced.
        assert set(store.samples) == {
            i
            for i in enumerate_instances(movie_network, store.feedback)
        }
        assert not (before & set(store.samples))


def _assert_compact_store(store):
    """The store's views equal the column sums of its masks' full rows,
    and the cached matrix is those rows on the conflicted columns."""
    engine = store.network.engine
    full = engine.selection_matrix(store.sample_masks)
    sums = full.sum(axis=0, dtype=np.int64)
    columns = store.conflicted_columns()
    assert columns.tolist() == mask_indices(engine.conflicted_mask)
    assert np.array_equal(store.compact_matrix(), full[:, columns])
    assert store.compact_counts().tobytes() == sums[columns].tobytes()
    assert store.counts().tobytes() == sums.tobytes()
    expected = sums / float(len(store)) if len(store) else sums * 0.0
    assert store.probability_vector().tobytes() == expected.tobytes()
    matrix = store.matrix()
    assert matrix.shape == full.shape and np.array_equal(matrix, full)


class TestCompactStore:
    """The store caches Ω* on the conflicted columns only; the free
    columns are constant, so every full-width view is exact."""

    def _pnet(self):
        network = synthetic_network(
            80, n_schemas=8, attributes_per_schema=12, seed=3
        )
        assert 0 < network.engine.conflicted_count < network.engine.n
        return ProbabilisticNetwork(
            network, target_samples=40, rng=random.Random(5)
        )

    def test_views_through_feedback_refills_and_restores(self):
        pnet = self._pnet()
        store = pnet.estimator.store
        engine = pnet.network.engine
        _assert_compact_store(store)
        # Approvals from one instance stay consistent with each other.
        instance = store.sample_masks[0]
        approved = [
            i for i in mask_indices(instance & engine.conflicted_mask)
        ][:3]
        for index in approved:
            pnet.record_assertion(pnet.correspondences[index], True)
            _assert_compact_store(store)
        rejected = mask_indices(engine.conflicted_mask & ~instance)[:2]
        for index in rejected:
            pnet.record_assertion(pnet.correspondences[index], False)
            _assert_compact_store(store)
        # A violation-free candidate is in every sample: disapproving it
        # empties Ω*, and the top-up refills it.
        free = mask_indices(engine.violation_free_mask)[0]
        emptied = set(store.sample_masks)
        pnet.record_assertion(pnet.correspondences[free], False)
        assert not emptied & set(store.sample_masks)
        assert len(store) >= store.min_samples
        assert store.counts()[free] == 0
        _assert_compact_store(store)
        pnet.retract_approval(pnet.correspondences[approved[0]])
        _assert_compact_store(store)
        restored = sampling_module.SampleStore.from_state(
            pnet.network, store.sampler, store.get_state()
        )
        _assert_compact_store(restored)

    def test_views_across_deltas(self):
        pnet = self._pnet()
        store = pnet.estimator.store
        _assert_compact_store(store)
        corr = pnet.correspondences[0]
        rescored = pnet.network.apply_delta(NetworkDelta(rescore=((corr, 0.125),)))
        pnet.apply_delta(rescored)
        assert pnet.estimator.store is store
        _assert_compact_store(store)
        structural = pnet.network.apply_delta(
            make_churn_delta(pnet.network, 0.2, random.Random(7))
        )
        pnet.apply_delta(structural)
        store = pnet.estimator.store
        assert 0 < store.network.engine.conflicted_count < store.network.engine.n
        _assert_compact_store(store)
        free = mask_indices(store.network.engine.violation_free_mask)[0]
        pnet.record_assertion(pnet.correspondences[free], False)
        _assert_compact_store(store)

    def test_shard_stores_keep_the_full_matrix(self):
        """A shard's component engine has every column conflicted: the
        compact matrix is the full one, with no column take."""
        network = synthetic_network(
            80, n_schemas=8, attributes_per_schema=12, seed=3
        )
        sharded = ShardedSampleStore(
            network, rng=random.Random(1), target_samples=64
        )
        for shard in sharded.shards:
            shard_store = shard.store
            assert shard_store.matrix() is shard_store.compact_matrix()
            assert shard_store.counts() is shard_store.compact_counts()
            _assert_compact_store(shard_store)
