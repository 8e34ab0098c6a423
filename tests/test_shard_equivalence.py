"""Differential harness: sharded reconciliation ≡ the unsharded reference.

The shard layer's one load-bearing claim is *exactness*: because every
constraint lives wholly inside one violation-graph component, the
instance space factorises over shards (Ω = ∏ Ω_s × free candidates), so
shard-local estimates merged at the boundary are not an approximation of
the whole-network estimate — they are bit-for-bit the same floats.  This
suite pins that claim from three directions:

* full-session traces (selections, verdicts, uncertainties, probability
  vectors, final F±) of a :class:`ShardedEstimator`-backed session are
  bit-identical to the unsharded :class:`SampledEstimator` session across
  random / information-gain / likelihood strategies × seeds 0–4;
* hypothesis property tests equate shard-merged probability vectors with
  whole-network estimates on randomly generated enumerable networks,
  before and after random feedback;
* structural tests pin the decomposition itself (partition, violation
  closure, deterministic packing) and the process-pool fan-out's
  bit-identity with the sequential fallback.

Both sides must hold *complete* instance sets for bit-identity (an
incomplete walk store is a sampling approximation; the sharded side is
exact by enumeration) — the fixtures therefore use enumerable networks
with ``target_samples`` above |Ω|, and the tests assert completeness of
the unsharded side instead of assuming it.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import enumerate_instances
from repro.core.probability import ProbabilisticNetwork, SampledEstimator
from repro.core.reconciliation import ReconciliationSession
from repro.experiments.harness import synthetic_fixture, synthetic_network
from repro.experiments.scenarios import ScenarioSpec, build_session
from repro.shard import (
    MAX_PRODUCT_ROWS,
    ShardedEstimator,
    ShardedSampleStore,
    shard_plan,
    violation_components,
)

#: Enumerable reference fixture: 24 candidates over 5 schemas, |Ω| = 180,
#: two violation components (16 + 2 candidates) plus 6 free candidates.
FIXTURE_KWARGS = dict(
    n_correspondences=24, n_schemas=5, attributes_per_schema=8, seed=1
)
#: Above |Ω| = 180, so the unsharded store provably holds all of Ω.
TARGET_SAMPLES = 512
STRATEGIES = ("random", "information-gain", "likelihood")
SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def fixture():
    return synthetic_fixture(**FIXTURE_KWARGS)


@pytest.fixture(scope="module")
def omega_masks(fixture):
    engine = fixture.network.engine
    return {
        engine.mask_of(instance)
        for instance in enumerate_instances(fixture.network)
    }


def _run_traced(session, pnet, max_steps=24):
    """Drive a session, recording everything the equivalence claim covers."""
    trace = []
    for _ in range(max_steps):
        step = session.step()
        if step is None:
            break
        trace.append(
            (
                step.correspondence,
                step.approved,
                pnet.uncertainty(),
                pnet.probability_vector().tobytes(),
            )
        )
    return trace


class TestTraceEquivalence:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sharded_trace_bit_identical(
        self, fixture, omega_masks, strategy, seed
    ):
        spec = ScenarioSpec(
            strategy=strategy,
            seed=seed,
            target_samples=TARGET_SAMPLES,
            on_conflict="disapprove",
        )
        plain = build_session(fixture, spec)
        sharded_spec = ScenarioSpec(
            strategy=strategy,
            seed=seed,
            target_samples=TARGET_SAMPLES,
            on_conflict="disapprove",
            sharded=True,
        )
        sharded = build_session(fixture, sharded_spec)

        # Precondition of bit-identity: the unsharded walk store holds all
        # of Ω (not asserted blindly — if a future sampler change breaks
        # completeness at these seeds, this failure names the real cause).
        assert set(plain.pnet.estimator.store.sample_masks) == omega_masks
        assert isinstance(sharded.pnet.estimator, ShardedEstimator)
        assert sharded.pnet.estimator.n_shards >= 2

        plain_trace = _run_traced(plain, plain.pnet)
        sharded_trace = _run_traced(sharded, sharded.pnet)
        assert plain_trace == sharded_trace
        assert plain.pnet.feedback.approved == sharded.pnet.feedback.approved
        assert (
            plain.pnet.feedback.disapproved
            == sharded.pnet.feedback.disapproved
        )

    def test_initial_vectors_and_entropies_identical(self, fixture):
        for seed in SEEDS:
            plain = ProbabilisticNetwork(
                fixture.network,
                estimator=SampledEstimator(
                    fixture.network,
                    target_samples=TARGET_SAMPLES,
                    rng=random.Random(seed),
                ),
            )
            sharded = ProbabilisticNetwork(
                fixture.network,
                estimator=ShardedEstimator(
                    fixture.network,
                    target_samples=TARGET_SAMPLES,
                    rng=random.Random(seed),
                ),
            )
            assert np.array_equal(
                plain.probability_vector(), sharded.probability_vector()
            )
            assert plain.uncertainty() == sharded.uncertainty()
            assert np.array_equal(
                plain.uncertain_indices(), sharded.uncertain_indices()
            )

    def test_membership_matrix_counts_match(self, fixture):
        """The product matrix's column and co-occurrence counts equal the
        whole-network matrix's — everything the IG reduction reads."""
        plain = SampledEstimator(
            fixture.network,
            target_samples=TARGET_SAMPLES,
            rng=random.Random(0),
        )
        sharded = ShardedEstimator(
            fixture.network,
            target_samples=TARGET_SAMPLES,
            rng=random.Random(0),
        )
        a = plain.membership_matrix()
        b = sharded.membership_matrix()
        assert a.shape == b.shape
        assert np.array_equal(a.sum(axis=0), b.sum(axis=0))
        assert np.array_equal(a.T @ a, b.T @ b)


class TestShardPlan:
    def test_partition_covers_universe(self, fixture):
        plan = shard_plan(fixture.network)
        engine = fixture.network.engine
        seen = set(plan.free)
        for indices in plan.shards:
            assert seen.isdisjoint(indices)
            seen.update(indices)
        assert seen == set(range(engine.n))

    def test_shards_closed_under_violations(self, fixture):
        plan = shard_plan(fixture.network)
        engine = fixture.network.engine
        shard_masks = [
            sum(1 << i for i in indices) for indices in plan.shards
        ]
        for vmask in engine.violation_masks:
            assert any(vmask & mask == vmask for mask in shard_masks)

    def test_components_are_disjoint_and_conflicted(self, fixture):
        engine = fixture.network.engine
        components = violation_components(engine)
        union = 0
        for component in components:
            assert union & component == 0
            union |= component
        assert union == engine.conflicted_mask

    def test_max_shards_packs_deterministically(self, fixture):
        capped = shard_plan(fixture.network, max_shards=1)
        assert capped.n_shards == 1
        again = shard_plan(fixture.network, max_shards=1)
        assert capped == again
        with pytest.raises(ValueError):
            shard_plan(fixture.network, max_shards=0)

    def test_max_shards_preserves_exactness(self, fixture):
        free_run = ShardedEstimator(
            fixture.network,
            target_samples=TARGET_SAMPLES,
            rng=random.Random(0),
        )
        capped = ShardedEstimator(
            fixture.network,
            target_samples=TARGET_SAMPLES,
            rng=random.Random(0),
            max_shards=1,
        )
        assert np.array_equal(
            free_run.store.probability_vector(),
            capped.store.probability_vector(),
        )


class TestShardedStoreMechanics:
    def test_enumerating_store_exhausts_small_spaces(self, fixture):
        store = ShardedSampleStore(
            fixture.network, rng=random.Random(0), target_samples=64
        )
        assert store.exhausted
        assert len(store) == 180  # ∏ shard sizes = |Ω|

    def test_enumeration_fallback_to_walk(self, fixture):
        """enumerate_limit below the shard's |Ω| falls back to sampling."""
        store = ShardedSampleStore(
            fixture.network,
            rng=random.Random(0),
            target_samples=TARGET_SAMPLES,
            enumerate_limit=1,
        )
        exact = ShardedSampleStore(
            fixture.network, rng=random.Random(0), target_samples=64
        )
        for walked, enumerated in zip(store.shards, exact.shards):
            assert set(walked.store.sample_masks) == set(
                enumerated.store.sample_masks
            )

    def test_product_matrix_guard(self, fixture, monkeypatch):
        store = ShardedSampleStore(
            fixture.network, rng=random.Random(0), target_samples=64
        )
        import repro.shard.store as shard_store

        monkeypatch.setattr(shard_store, "MAX_PRODUCT_ROWS", 8)
        with pytest.raises(ValueError, match="likelihood"):
            store.matrix_float()
        assert MAX_PRODUCT_ROWS > 8  # the real guard is untouched

    def test_free_candidates_probability(self, fixture):
        store = ShardedSampleStore(
            fixture.network, rng=random.Random(0), target_samples=64
        )
        plan = store.plan
        vector = store.probability_vector()
        assert all(vector[i] == 1.0 for i in plan.free)
        corrs = fixture.network.correspondences
        free_corr = corrs[plan.free[0]]
        store.record_assertion(free_corr, approved=False)
        vector = store.probability_vector()
        assert vector[plan.free[0]] == 0.0
        assert all(vector[i] == 1.0 for i in plan.free[1:])

    def test_conflict_repair_stays_in_shard(self, fixture):
        """disapprove-repair's victim shares a shard with the trigger, so
        deferred refills complete — the full session above exercises it;
        here we pin the structural reason."""
        engine = fixture.network.engine
        plan = shard_plan(fixture.network)
        owner = {}
        for position, indices in enumerate(plan.shards):
            for index in indices:
                owner[index] = position
        for violation in engine.violations:
            positions = {
                owner[engine.index_of[corr]] for corr in violation
            }
            assert len(positions) == 1


def _network_strategy(draw):
    n_corr = draw(st.integers(min_value=6, max_value=16))
    seed = draw(st.integers(min_value=0, max_value=500))
    return synthetic_network(
        n_corr,
        n_schemas=draw(st.integers(min_value=3, max_value=4)),
        attributes_per_schema=draw(st.integers(min_value=6, max_value=9)),
        conflict_bias=draw(
            st.sampled_from([0.2, 0.35, 0.5, 0.65, 0.8])
        ),
        seed=seed,
    )


class TestMergedVectorProperties:
    @given(data=st.data())
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_merged_vector_equals_whole_network(self, data):
        network = _network_strategy(data.draw)
        instances = enumerate_instances(network, limit=257)
        assume(len(instances) <= 256)
        engine = network.engine
        expected = {engine.mask_of(instance) for instance in instances}
        seed = data.draw(st.integers(min_value=0, max_value=3))
        plain = SampledEstimator(
            network, target_samples=512, rng=random.Random(seed)
        )
        # Bit-identity needs the walk store complete; tiny spaces make
        # that near-certain, but guard rather than silently compare.
        assume(set(plain.store.sample_masks) == expected)
        sharded = ShardedEstimator(
            network, target_samples=512, rng=random.Random(seed)
        )
        correspondences = network.correspondences
        assert np.array_equal(
            plain.probability_vector(correspondences),
            sharded.probability_vector(correspondences),
        )

    @given(data=st.data())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_merged_vector_tracks_feedback(self, data):
        network = _network_strategy(data.draw)
        instances = enumerate_instances(network, limit=129)
        assume(len(instances) <= 128)
        engine = network.engine
        expected = {engine.mask_of(instance) for instance in instances}
        plain_pnet = ProbabilisticNetwork(
            network,
            estimator=SampledEstimator(
                network, target_samples=512, rng=random.Random(0)
            ),
        )
        assume(
            set(plain_pnet.estimator.store.sample_masks) == expected
        )
        sharded_pnet = ProbabilisticNetwork(
            network,
            estimator=ShardedEstimator(
                network, target_samples=512, rng=random.Random(0)
            ),
        )
        correspondences = network.correspondences
        n_assertions = data.draw(st.integers(min_value=1, max_value=5))
        for _ in range(n_assertions):
            index = data.draw(
                st.integers(min_value=0, max_value=len(correspondences) - 1)
            )
            corr = correspondences[index]
            approved = data.draw(st.booleans())
            outcomes = []
            for pnet in (plain_pnet, sharded_pnet):
                try:
                    pnet.record_assertion(corr, approved)
                    outcomes.append("ok")
                except Exception as error:  # InconsistentFeedbackError
                    outcomes.append(type(error).__name__)
            assert outcomes[0] == outcomes[1]
            assert np.array_equal(
                plain_pnet.probability_vector(),
                sharded_pnet.probability_vector(),
            )
            assert plain_pnet.uncertainty() == sharded_pnet.uncertainty()


class TestReconciliationSessionDirect:
    def test_session_runs_to_completion_sharded(self, fixture):
        """A sharded session terminates with the network fully decided."""
        spec = ScenarioSpec(
            strategy="likelihood",
            seed=0,
            target_samples=64,
            sharded=True,
        )
        session = build_session(fixture, spec)
        steps = 0
        while session.step() is not None and steps < 50:
            steps += 1
        pnet = session.pnet
        assert len(pnet.uncertain_indices()) == 0
        assert isinstance(session, ReconciliationSession)

    def test_enumerating_store_conditions_exactly(self, fixture):
        """Disapproval on an exhausted enumerating store re-enumerates the
        (possibly newly-maximal) conditional space instead of walking.

        ``min_samples`` above |Ω| forces the post-disapproval top-up (the
        same deficit rule the unsharded store follows); the top-up then
        proves the refilled set is exactly the conditional Ω.
        """
        store = ShardedSampleStore(
            fixture.network,
            rng=random.Random(0),
            target_samples=512,
        )
        shard = max(store.shards, key=lambda s: len(s.indices))
        corr = shard.network.correspondences[0]
        store.record_assertion(corr, approved=False)
        conditional = {
            shard.network.engine.mask_of(instance)
            for instance in enumerate_instances(
                shard.network, shard.store.feedback
            )
        }
        assert set(shard.store.sample_masks) == conditional
        assert shard.store.exhausted
