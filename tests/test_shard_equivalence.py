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
  random / information-gain / likelihood strategies × seeds 0–4, and so
  are crowd round traces (questions, votes, verdicts, uncertainties)
  across information-gain / likelihood / entropy criteria × seeds 0–4;
* hypothesis property tests equate shard-merged probability vectors with
  whole-network estimates on randomly generated enumerable networks,
  before and after random feedback, and factorised information gains
  with the gains of the ∏|Ω_s|-row product membership matrix;
* structural tests pin the decomposition itself (partition, violation
  closure, exactly one shard per connected component) and the
  process-pool fan-out's bit-identity with the sequential fallback.

Both sides must hold *complete* instance sets for bit-identity (an
incomplete walk store is a sampling approximation; the sharded side is
exact by enumeration) — the fixtures therefore use enumerable networks
with ``target_samples`` above |Ω|, and the tests assert completeness of
the unsharded side instead of assuming it.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import enumerate_instances
from repro.core.constraints import mask_indices
from repro.core.probability import ProbabilisticNetwork, SampledEstimator
from repro.core.reconciliation import ReconciliationSession
from repro.core.selection import InformationGainSelection
from repro.core.uncertainty import information_gain_array
from repro.experiments.harness import synthetic_fixture, synthetic_network
from repro.experiments.scenarios import (
    ScenarioSpec,
    build_crowd_session,
    build_session,
)
from repro.shard import (
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


#: The question-selection criteria a crowd accepts.
CRITERIA = ("information-gain", "likelihood", "entropy")


def _crowd_trace(session, rounds=8):
    """Drive a crowd session round by round, recording the claim's scope."""
    trace = []
    for _ in range(rounds):
        record = session.round()
        if record is None:
            break
        trace.append(
            (
                record.questions,
                record.votes,
                record.verdicts,
                record.uncertainty,
                session.pnet.probability_vector().tobytes(),
            )
        )
    return trace


class TestCrowdTraceEquivalence:
    """The crowd column: a crowd ranks the same strategy scores as an
    expert, so sharded and unsharded complete stores give the same rounds.

    Information gain reads the sharded estimator's per-shard factors,
    exactly as expert selection does; ``TestReferenceScaleInformationGain``
    runs both loops where no product membership matrix would fit.
    """

    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sharded_crowd_trace_bit_identical(
        self, fixture, omega_masks, criterion, seed
    ):
        spec = ScenarioSpec(
            strategy=criterion,
            oracle="crowd",
            seed=seed,
            target_samples=TARGET_SAMPLES,
            on_conflict="disapprove",
            crowd_workers=6,
            crowd_k=3,
        )
        plain = build_crowd_session(fixture, spec)
        sharded = build_crowd_session(fixture, replace(spec, sharded=True))
        assert set(plain.pnet.estimator.store.sample_masks) == omega_masks
        assert isinstance(sharded.pnet.estimator, ShardedEstimator)

        plain_trace = _crowd_trace(plain)
        assert len(plain_trace) >= 2
        assert plain_trace == _crowd_trace(sharded)
        assert plain.pnet.feedback.approved == sharded.pnet.feedback.approved
        assert (
            plain.pnet.feedback.disapproved
            == sharded.pnet.feedback.disapproved
        )


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

    def test_one_shard_per_component(self, fixture):
        plan = shard_plan(fixture.network)
        components = violation_components(fixture.network.engine)
        assert plan.shards == tuple(
            tuple(mask_indices(mask)) for mask in components
        )
        assert plan.sizes() == (16, 2)
        assert shard_plan(fixture.network) == plan

    def test_components_cannot_be_split(self, fixture):
        """Each component is one connected group of violations, so no
        finer partition keeps every constraint inside one shard."""
        engine = fixture.network.engine
        for component in violation_components(engine):
            inside = [
                vmask
                for vmask in engine.violation_masks
                if vmask & component
            ]
            assert all(vmask & component == vmask for vmask in inside)
            reached, pending = inside[0], inside[1:]
            grew = True
            while grew:
                grew = False
                for vmask in list(pending):
                    if vmask & reached:
                        reached |= vmask
                        pending.remove(vmask)
                        grew = True
            assert reached == component and not pending


class TestShardedStoreMechanics:
    def test_enumerating_store_exhausts_small_spaces(self, fixture):
        store = ShardedSampleStore(
            fixture.network, rng=random.Random(0), target_samples=64
        )
        assert store.exhausted
        sizes = [samples for _, samples in store.shard_sizes()]
        assert math.prod(sizes) == 180  # ∏ shard sizes = |Ω|

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


def _product_matrix(store):
    """The ∏|Ω_s|-row membership matrix of a sharded store (float64).

    Row set = Ω (every combination of one sample per shard, free
    candidates in all rows unless disapproved), expanded mixed-radix with
    shard 0 outermost.  Its column and co-occurrence counts are the
    whole-network matrix's, so information gain over it is the reference
    the factorised reduction must reproduce.
    """
    rows = math.prod(len(shard.store) for shard in store.shards)
    engine = store.network.engine
    matrix = np.zeros((rows, engine.n), dtype=np.float64)
    free = set(store.plan.free)
    if rows and free:
        matrix[:, sorted(free)] = 1.0
        for corr in store.feedback.disapproved:
            index = engine.index_of.get(corr)
            if index in free:
                matrix[:, index] = 0.0
    outer = 1
    for shard in store.shards:
        count = len(shard.store)
        inner = rows // (outer * count) if count else 0
        block = shard.store.matrix()
        matrix[:, shard.columns] = np.tile(
            np.repeat(block, inner, axis=0), (outer, 1)
        )
        outer *= count
    return matrix


class TestFactorisedInformationGain:
    @given(data=st.data())
    @settings(
        max_examples=25,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_gains_equal_product_matrix_gains(self, data):
        """Scores over the shard factors are the product matrix's gains,
        bit for bit, before and after random feedback."""
        network = _network_strategy(data.draw)
        estimator = ShardedEstimator(
            network,
            target_samples=512,
            rng=random.Random(data.draw(st.integers(0, 3))),
        )
        store = estimator.store
        assume(math.prod(len(shard.store) for shard in store.shards) <= 4096)
        pnet = ProbabilisticNetwork(network, estimator=estimator)
        strategy = InformationGainSelection()
        for _ in range(data.draw(st.integers(1, 5))):
            columns, gains = strategy.scores(pnet)
            if not len(columns):
                break
            expected = information_gain_array(_product_matrix(store), columns)
            assert gains.tobytes() == expected.tobytes()
            # Asserting an uncertain candidate is always consistent.
            uncertain = pnet.uncertain_indices().tolist()
            index = data.draw(st.sampled_from(uncertain))
            pnet.record_assertion(
                network.correspondences[index], data.draw(st.booleans())
            )


#: The reference synthetic network: 1500 candidates in 124 shards whose
#: ∏|Ω_s| ≈ 10⁴⁸ instances no product membership matrix could hold.
REFERENCE_KWARGS = dict(
    n_correspondences=1500,
    n_schemas=24,
    attributes_per_schema=150,
    conflict_bias=0.35,
    seed=7,
)


def _per_shard_gains(store, columns):
    """IG(c) = H_s − E[H_s | c] over c's own shard matrix alone.

    Mathematically the whole-network gain (the other shards' entropies
    cancel), but rounded differently — hence a tolerance, not tobytes.
    """
    gains = np.zeros(len(columns), dtype=np.float64)
    for shard in store.shards:
        local = {index: k for k, index in enumerate(shard.indices)}
        positions = [
            p for p, index in enumerate(columns.tolist()) if index in local
        ]
        if positions:
            targets = np.asarray([local[int(columns[p])] for p in positions])
            gains[positions] = information_gain_array(
                shard.store.matrix(), targets
            )
    return gains


class TestReferenceScaleInformationGain:
    """Expert and crowd information gain run on the sharded reference
    network, and their scores are the per-shard gains."""

    def test_expert_steps_and_crowd_rounds(self):
        fixture = synthetic_fixture(**REFERENCE_KWARGS)
        spec = ScenarioSpec(
            strategy="information-gain",
            seed=0,
            target_samples=250,
            sharded=True,
        )
        expert = build_session(fixture, spec)
        crowd = build_crowd_session(
            fixture,
            replace(spec, oracle="crowd", crowd_workers=6, crowd_k=3),
        )
        assert expert.pnet.estimator.n_shards == 124
        strategy = InformationGainSelection()
        for session, advance, count in (
            (expert, expert.step, 10),
            (crowd, crowd.round, 3),
        ):
            for _ in range(count):
                columns, gains = strategy.scores(session.pnet)
                assert len(columns) and gains.max() > 0.0
                np.testing.assert_allclose(
                    gains,
                    _per_shard_gains(session.pnet.estimator.store, columns),
                    rtol=0.0,
                    atol=1e-9,
                )
                assert advance() is not None


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
