"""Unit and differential tests for network deltas (repro.core.delta).

The incremental claim under test: applying a :class:`NetworkDelta`
produces the same network — same candidates, same violation hypergraph,
same probabilities — as building the post-delta network from scratch,
while carrying surviving violations (and, one layer up, whole shards)
over verbatim instead of re-discovering them.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import (
    ConstraintEngine,
    MatchingNetwork,
    NetworkDelta,
    Schema,
    apply_network_delta,
    correspondence,
)
from repro.core.delta import DeltaResult
from repro.core.probability import ExactEstimator, ProbabilisticNetwork
from repro.experiments.churn import make_churn_delta
from repro.experiments.harness import synthetic_network
from repro.io import FormatError, delta_from_dict, delta_to_dict
from repro.shard import ShardedSampleStore, shard_plan, shard_plan_delta


def fresh_compile(result: DeltaResult) -> MatchingNetwork:
    """The post-delta network built from scratch (full discovery)."""
    return MatchingNetwork(
        list(result.network.schemas),
        result.network.candidates,
        graph=result.network.graph,
        constraints=list(result.network.constraints),
    )


def violation_families(engine: ConstraintEngine) -> dict:
    """Violation key → contributing-constraint set, order-insensitive."""
    return {
        violation.correspondences: frozenset(contributors)
        for violation, contributors in zip(
            engine.violations, engine.violation_sources
        )
    }


@pytest.fixture
def extra_schema():
    return Schema.from_names("SD", ["airDate"], {"airDate": "date"})


class TestNetworkDeltaValidation:
    def test_empty_delta_is_empty(self):
        assert NetworkDelta().is_empty()
        assert not NetworkDelta(remove_schemas=("SA",)).is_empty()

    def test_remove_unknown_schema(self, movie_network):
        with pytest.raises(ValueError, match="unknown schema"):
            apply_network_delta(
                movie_network, NetworkDelta(remove_schemas=("SX",))
            )

    def test_remove_schema_twice(self, movie_network):
        with pytest.raises(ValueError, match="twice"):
            apply_network_delta(
                movie_network, NetworkDelta(remove_schemas=("SA", "SA"))
            )

    def test_added_schema_name_must_be_fresh(self, movie_network):
        clash = Schema.from_names("SA", ["other"])
        with pytest.raises(ValueError, match="duplicate schema name"):
            apply_network_delta(
                movie_network, NetworkDelta(add_schemas=(clash,))
            )

    def test_edge_between_survivors_rejected(self, movie_network):
        with pytest.raises(ValueError, match="touch an added schema"):
            apply_network_delta(
                movie_network, NetworkDelta(add_edges=(("SA", "SB"),))
            )

    def test_edge_to_unknown_schema_rejected(self, movie_network, extra_schema):
        with pytest.raises(ValueError, match="unknown schema"):
            apply_network_delta(
                movie_network,
                NetworkDelta(
                    add_schemas=(extra_schema,), add_edges=(("SD", "SX"),)
                ),
            )

    def test_add_existing_candidate_rejected(
        self, movie_network, movie_correspondences
    ):
        with pytest.raises(ValueError, match="already a candidate"):
            apply_network_delta(
                movie_network,
                NetworkDelta(
                    add_candidates=((movie_correspondences["c1"], 0.5),)
                ),
            )

    def test_add_candidate_off_graph_rejected(
        self, movie_schemas, movie_correspondences, extra_schema
    ):
        sa, _, _ = movie_schemas
        corr = correspondence(
            sa.attribute("productionDate"), extra_schema.attribute("airDate")
        )
        network = MatchingNetwork(
            list(movie_schemas), list(movie_correspondences.values())
        )
        with pytest.raises(ValueError, match="not connected"):
            apply_network_delta(
                network,
                NetworkDelta(
                    add_schemas=(extra_schema,), add_candidates=((corr, 0.5),)
                ),
            )

    def test_add_candidate_unknown_attribute_rejected(
        self, movie_network, movie_schemas
    ):
        sa, _, _ = movie_schemas
        ghost = Schema.from_names("SD", ["airDate", "ghost"])
        corr = correspondence(
            sa.attribute("productionDate"), ghost.attribute("ghost")
        )
        slim = Schema.from_names("SD", ["airDate"])
        with pytest.raises(ValueError, match="unknown attribute"):
            apply_network_delta(
                movie_network,
                NetworkDelta(
                    add_schemas=(slim,),
                    add_edges=(("SD", "SA"),),
                    add_candidates=((corr, 0.5),),
                ),
            )

    def test_remove_non_candidate_rejected(self, movie_network, movie_schemas):
        sa, sb, _ = movie_schemas
        phantom = correspondence(
            sa.attribute("productionDate"), sb.attribute("date")
        )
        network = MatchingNetwork(list(movie_schemas), [])
        with pytest.raises(ValueError, match="not"):
            apply_network_delta(
                network, NetworkDelta(remove_candidates=(phantom,))
            )


class TestDeltaApplication:
    def test_schema_removal_drops_touching_candidates(
        self, movie_network, movie_correspondences
    ):
        result = movie_network.apply_delta(
            NetworkDelta(remove_schemas=("SC",))
        )
        assert result.network.correspondences == (
            movie_correspondences["c1"],
        )
        assert result.removed_correspondences == frozenset(
            movie_correspondences[name] for name in ("c2", "c3", "c4", "c5")
        )
        assert result.index_map == {0: 0}
        assert "SC" not in {s.name for s in result.network.schemas}

    def test_original_network_untouched(self, movie_network):
        before = movie_network.correspondences
        movie_network.apply_delta(NetworkDelta(remove_schemas=("SC",)))
        assert movie_network.correspondences == before
        assert len(movie_network.engine.violations) > 0

    def test_survivors_share_identity(self, movie_network):
        result = movie_network.apply_delta(
            NetworkDelta(remove_candidates=(movie_network.correspondences[4],))
        )
        for old_index, new_index in result.index_map.items():
            assert (
                result.network.correspondences[new_index]
                is movie_network.correspondences[old_index]
            )

    def test_index_map_is_monotone(self, movie_network):
        result = movie_network.apply_delta(
            NetworkDelta(remove_candidates=(movie_network.correspondences[2],))
        )
        pairs = sorted(result.index_map.items())
        news = [new for _, new in pairs]
        assert news == sorted(news)
        assert all(
            index >= len(result.index_map) for index in result.added_indices
        )

    def test_confidences_preserved_and_added(
        self, movie_network, movie_schemas, extra_schema
    ):
        sa, _, _ = movie_schemas
        corr = correspondence(
            sa.attribute("productionDate"), extra_schema.attribute("airDate")
        )
        result = movie_network.apply_delta(
            NetworkDelta(
                add_schemas=(extra_schema,),
                add_edges=(("SD", "SA"),),
                add_candidates=((corr, 0.25),),
            )
        )
        network = result.network
        assert network.confidence(corr) == 0.25
        for old_index, new_index in result.index_map.items():
            old_corr = movie_network.correspondences[old_index]
            assert network.confidence(old_corr) == movie_network.confidence(
                old_corr
            )
        assert result.added_indices == (len(network.correspondences) - 1,)

    def test_removed_and_readded_counts_removed(
        self, movie_network, movie_correspondences
    ):
        c5 = movie_correspondences["c5"]
        result = movie_network.apply_delta(
            NetworkDelta(
                remove_candidates=(c5,), add_candidates=((c5, 0.9),)
            )
        )
        assert c5 in result.removed_correspondences
        assert c5 in result.network.correspondences
        old_index = movie_network.correspondences.index(c5)
        assert old_index not in result.index_map
        assert result.network.confidence(c5) == 0.9

    def test_empty_delta_preserves_universe(self, movie_network):
        result = movie_network.apply_delta(NetworkDelta())
        assert (
            result.network.correspondences == movie_network.correspondences
        )
        assert result.index_map == {
            i: i for i in range(len(movie_network.correspondences))
        }
        assert result.new_violation_masks == ()
        assert violation_families(result.network.engine) == (
            violation_families(movie_network.engine)
        )

    def test_new_violations_intersect_added(self, movie_network):
        wide = Schema.from_names("SD", ["airDate", "premiereDate"])
        sa = movie_network.schema("SA")
        production = sa.attribute("productionDate")
        # Both new candidates claim productionDate — a one-to-one conflict
        # that exists only in the successor network.
        result = movie_network.apply_delta(
            NetworkDelta(
                add_schemas=(wide,),
                add_edges=(("SD", "SA"),),
                add_candidates=(
                    (correspondence(production, wide.attribute("airDate")), 0.5),
                    (
                        correspondence(
                            production, wide.attribute("premiereDate")
                        ),
                        0.5,
                    ),
                ),
            )
        )
        added = result.added_mask
        assert result.new_violation_masks
        for vmask in result.new_violation_masks:
            assert vmask & added

    def test_masks_renumbered_after_removal(self, movie_network):
        result = movie_network.apply_delta(
            NetworkDelta(remove_candidates=(movie_network.correspondences[0],))
        )
        engine = result.network.engine
        assert engine.n == len(result.network.correspondences)
        for vmask in engine.violation_masks:
            assert vmask < (1 << engine.n)


class TestIncrementalEngineEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_churn_delta_matches_fresh_compile(self, seed):
        network = synthetic_network(
            60,
            n_schemas=10,
            attributes_per_schema=12,
            conflict_bias=0.5,
            seed=seed,
        )
        delta = make_churn_delta(network, 0.2, random.Random(seed + 3))
        result = network.apply_delta(delta)
        fresh = fresh_compile(result)
        assert violation_families(result.network.engine) == (
            violation_families(fresh.engine)
        )
        assert set(result.network.engine.violation_masks) == set(
            fresh.engine.violation_masks
        )
        assert (
            result.network.engine.conflicted_mask
            == fresh.engine.conflicted_mask
        )

    def test_carried_violation_objects_are_reused(self):
        network = synthetic_network(
            40, n_schemas=8, attributes_per_schema=10, seed=2
        )
        delta = make_churn_delta(network, 0.15, random.Random(5))
        result = network.apply_delta(delta)
        old = {
            violation.correspondences: violation
            for violation in network.engine.violations
        }
        removed = result.removed_correspondences
        carried = 0
        for violation in result.network.engine.violations:
            key = violation.correspondences
            if key in old and not (key & removed):
                assert violation is old[key]
                carried += 1
        assert carried > 0

    def test_unknown_constraint_type_falls_back(self, movie_schemas):
        from repro.core.constraints import Constraint

        class EveryPairConstraint(Constraint):
            """Pathological: violations among arbitrary survivors."""

            name = "every-pair"

            def minimal_violations(self, correspondences, graph):
                from repro.core.constraints import Violation

                return [
                    Violation(self.name, frozenset((a, b)))
                    for i, a in enumerate(correspondences)
                    for b in correspondences[i + 1 :]
                ]

        sa, sb, sc = movie_schemas
        network = MatchingNetwork(
            [sa, sb, sc],
            [
                correspondence(sa.attribute("productionDate"), sb.attribute("date")),
                correspondence(sb.attribute("date"), sc.attribute("releaseDate")),
                correspondence(sb.attribute("date"), sc.attribute("screenDate")),
            ],
            constraints=[EveryPairConstraint()],
        )
        result = network.apply_delta(
            NetworkDelta(remove_candidates=(network.correspondences[0],))
        )
        fresh = MatchingNetwork(
            [sa, sb, sc],
            result.network.candidates,
            graph=result.network.graph,
            constraints=list(network.constraints),
        )
        assert violation_families(result.network.engine) == (
            violation_families(fresh.engine)
        )


class TestShardPlanDelta:
    def _network_and_delta(self, seed=3, fraction=0.2):
        network = synthetic_network(
            80,
            n_schemas=12,
            attributes_per_schema=14,
            conflict_bias=0.45,
            seed=seed,
        )
        delta = make_churn_delta(network, fraction, random.Random(seed + 3))
        return network, network.apply_delta(delta)

    def test_plan_matches_authoritative_replan(self):
        network, result = self._network_and_delta()
        old_plan = shard_plan(network)
        plan, carried = shard_plan_delta(old_plan, result)
        assert plan == shard_plan(result.network)
        for new_position, old_position in carried.items():
            remapped = tuple(
                result.index_map[i] for i in old_plan.shards[old_position]
            )
            assert plan.shards[new_position] == remapped

    def test_carried_groups_fully_survive(self):
        network, result = self._network_and_delta()
        old_plan = shard_plan(network)
        _, carried = shard_plan_delta(old_plan, result)
        assert carried  # the churn leaves untouched components behind
        for old_position in carried.values():
            for index in old_plan.shards[old_position]:
                assert index in result.index_map

    def test_max_shards_respected(self):
        network, result = self._network_and_delta()
        old_plan = shard_plan(network, max_shards=3)
        plan, _ = shard_plan_delta(old_plan, result, max_shards=3)
        assert plan == shard_plan(result.network, max_shards=3)
        assert plan.n_shards <= 3


class TestShardedStoreDelta:
    def _store(self, network, seed=0, target=128):
        return ShardedSampleStore(
            network, rng=random.Random(seed), target_samples=target
        )

    def test_carried_shards_bit_identical(self):
        network = synthetic_network(
            80,
            n_schemas=12,
            attributes_per_schema=14,
            conflict_bias=0.45,
            seed=3,
        )
        delta = make_churn_delta(network, 0.2, random.Random(6))
        store = self._store(network)
        before = {
            position: (
                shard.store.get_state(),
                shard.store.sampler.get_state(),
            )
            for position, shard in enumerate(store.shards)
        }
        result = network.apply_delta(delta)
        carried = store.apply_delta(result)
        assert carried
        for new_position, old_position in carried.items():
            shard = store.shards[new_position]
            old_state, old_sampler = before[old_position]
            assert shard.store.get_state() == old_state
            assert shard.store.sampler.get_state() == old_sampler

    def test_feedback_filtered_to_survivors(self):
        network = synthetic_network(
            40, n_schemas=8, attributes_per_schema=10, seed=2
        )
        store = self._store(network)
        delta = make_churn_delta(network, 0.25, random.Random(4))
        result = network.apply_delta(delta)
        doomed = next(iter(result.removed_correspondences))
        # One disapproval on a survivor, one on a removed candidate.
        survivor = network.correspondences[min(result.index_map)]
        store.record_assertion(survivor, approved=False)
        store.record_assertion(doomed, approved=False)
        store.apply_delta(result)
        assert survivor in store.feedback.disapproved
        assert doomed not in store.feedback.disapproved
        vector = store.probability_vector()
        new_index = result.index_map[
            network.correspondences.index(survivor)
        ]
        assert vector[new_index] == 0.0

    def test_merged_vector_matches_fresh_replay(self):
        network = synthetic_network(
            40, n_schemas=8, attributes_per_schema=10, seed=2
        )
        store = self._store(network, target=512)
        delta = make_churn_delta(network, 0.25, random.Random(4))
        result = network.apply_delta(delta)
        survivor = network.correspondences[min(result.index_map)]
        store.record_assertion(survivor, approved=False)
        store.apply_delta(result)
        fresh_network = fresh_compile(result)
        fresh = ShardedSampleStore(
            fresh_network, rng=random.Random(99), target_samples=512
        )
        fresh.record_assertion(survivor, approved=False)
        # Exactness precondition: both sides enumerate their shards.
        assert store.exhausted and fresh.exhausted
        assert np.array_equal(
            store.probability_vector(), fresh.probability_vector()
        )


class TestEstimatorDelta:
    def _delta_pair(self):
        network = synthetic_network(
            30, n_schemas=6, attributes_per_schema=10, seed=1
        )
        delta = make_churn_delta(network, 0.2, random.Random(7))
        return network, network.apply_delta(delta)

    def test_sampled_estimator_apply_delta(self):
        from repro.core import enumerate_instances

        network = synthetic_network(
            24, n_schemas=5, attributes_per_schema=8, seed=1
        )
        delta = make_churn_delta(network, 0.2, random.Random(7))
        result = network.apply_delta(delta)
        pnet = ProbabilisticNetwork(
            network, target_samples=2048, rng=random.Random(0)
        )
        survivor = network.correspondences[min(result.index_map)]
        pnet.record_assertion(survivor, approved=False)
        pnet.apply_delta(result)
        assert pnet.network is result.network
        assert survivor in pnet.feedback.disapproved
        assert pnet.feedback.disapproved.isdisjoint(
            result.removed_correspondences
        )
        fresh_network = fresh_compile(result)
        fresh = ProbabilisticNetwork(
            fresh_network, target_samples=2048, rng=random.Random(3)
        )
        fresh.record_assertion(survivor, approved=False)
        # Bit-identity needs both walk stores complete over the conditioned
        # space — assert it rather than assuming it.
        expected = {
            fresh_network.engine.mask_of(instance)
            for instance in enumerate_instances(
                fresh_network, pnet.feedback
            )
        }
        assert set(pnet.estimator.store.sample_masks) == expected
        assert set(fresh.estimator.store.sample_masks) == expected
        assert np.array_equal(
            pnet.probability_vector(), fresh.probability_vector()
        )
        assert pnet.uncertainty() == fresh.uncertainty()

    def test_exact_estimator_apply_delta(self):
        network, result = self._delta_pair()
        pnet = ProbabilisticNetwork(
            network, estimator=ExactEstimator(network)
        )
        survivor = network.correspondences[min(result.index_map)]
        pnet.record_assertion(survivor, approved=False)
        pnet.apply_delta(result)
        fresh_network = fresh_compile(result)
        fresh = ProbabilisticNetwork(
            fresh_network, estimator=ExactEstimator(fresh_network)
        )
        fresh.record_assertion(survivor, approved=False)
        assert pnet.probabilities() == fresh.probabilities()

    def test_estimator_without_delta_support_raises(self):
        network, result = self._delta_pair()
        pnet = ProbabilisticNetwork(
            network, target_samples=64, rng=random.Random(0)
        )

        class NoDelta:
            pass

        pnet.estimator = NoDelta()
        with pytest.raises(TypeError, match="NoDelta"):
            pnet.apply_delta(result)


class TestDeltaCodec:
    def _delta(self, network):
        return make_churn_delta(network, 0.2, random.Random(11))

    def test_round_trip_is_dict_stable(self):
        network = synthetic_network(
            30, n_schemas=6, attributes_per_schema=10, seed=1
        )
        delta = self._delta(network)
        document = delta_to_dict(delta)
        decoded = delta_from_dict(document, network)
        assert delta_to_dict(decoded) == document
        assert decoded.remove_schemas == delta.remove_schemas
        assert decoded.add_candidates == delta.add_candidates

    def test_round_trip_preserves_semantics(self):
        network = synthetic_network(
            30, n_schemas=6, attributes_per_schema=10, seed=1
        )
        delta = self._delta(network)
        decoded = delta_from_dict(delta_to_dict(delta), network)
        original = network.apply_delta(delta)
        replayed = network.apply_delta(decoded)
        assert (
            replayed.network.correspondences
            == original.network.correspondences
        )
        assert replayed.index_map == original.index_map

    def test_unknown_version_rejected(self):
        network = synthetic_network(
            30, n_schemas=6, attributes_per_schema=10, seed=1
        )
        document = delta_to_dict(self._delta(network))
        document["version"] = 99
        with pytest.raises(FormatError, match="version"):
            delta_from_dict(document, network)

    def test_wrong_kind_rejected(self):
        network = synthetic_network(
            30, n_schemas=6, attributes_per_schema=10, seed=1
        )
        with pytest.raises(FormatError, match="network-delta"):
            delta_from_dict({"kind": "feedback", "version": 2}, network)


class TestRescoreDelta:
    """Matcher re-scoring: confidence patches without recompilation."""

    def _network(self):
        return synthetic_network(
            40, n_schemas=6, attributes_per_schema=10, seed=2
        )

    def test_rescore_only_shares_engine_verbatim(self):
        network = self._network()
        first = network.correspondences[0]
        delta = NetworkDelta(rescore=((first, 0.99),))
        assert not delta.is_structural()
        assert not delta.is_empty()
        result = apply_network_delta(network, delta)
        assert not result.structural
        assert result.network.engine is network.engine
        assert result.network.candidates.confidence(first) == 0.99
        assert dict(result.index_map) == {
            i: i for i in range(network.engine.n)
        }
        assert result.removed_indices == ()
        assert result.added_indices == ()
        assert result.rescored_indices == (0,)
        # Untouched candidates keep their confidences bit-for-bit.
        for corr in network.correspondences[1:]:
            assert result.network.candidates.confidence(
                corr
            ) == network.candidates.confidence(corr)

    def test_mapping_input_is_normalised(self):
        network = self._network()
        first = network.correspondences[0]
        delta = NetworkDelta(rescore={first: 0.25})
        assert delta.rescore == ((first, 0.25),)

    def test_duplicate_rescore_rejected(self):
        network = self._network()
        first = network.correspondences[0]
        with pytest.raises(ValueError, match="twice"):
            apply_network_delta(
                network, NetworkDelta(rescore=((first, 0.1), (first, 0.2)))
            )

    def test_rescoring_non_candidate_rejected(self):
        network = self._network()
        anchor = network.correspondences[0]
        left, right = anchor.attributes
        left_schema = next(
            schema for schema in network.schemas if schema.name == left.schema
        )
        stranger = next(
            corr
            for attr in left_schema.attributes
            if (corr := correspondence(attr, right))
            not in network.candidates
        )
        with pytest.raises(ValueError, match="not a candidate"):
            apply_network_delta(
                network, NetworkDelta(rescore=((stranger, 0.5),))
            )

    def test_rescoring_a_removed_candidate_rejected(self):
        network = self._network()
        churn = make_churn_delta(network, 0.2, random.Random(11))
        removed_schemas = set(churn.remove_schemas)
        victim = next(
            corr
            for corr in network.correspondences
            if any(a.schema in removed_schemas for a in corr.attributes)
        )
        with pytest.raises(ValueError, match="also removes"):
            apply_network_delta(
                network,
                NetworkDelta(
                    remove_schemas=churn.remove_schemas,
                    rescore=((victim, 0.5),),
                ),
            )

    def test_structural_delta_patches_survivors(self):
        network = self._network()
        churn = make_churn_delta(network, 0.2, random.Random(11))
        removed_schemas = set(churn.remove_schemas)
        survivor = next(
            corr
            for corr in network.correspondences
            if all(a.schema not in removed_schemas for a in corr.attributes)
        )
        combined = NetworkDelta(
            add_schemas=churn.add_schemas,
            remove_schemas=churn.remove_schemas,
            add_edges=churn.add_edges,
            add_candidates=churn.add_candidates,
            rescore=((survivor, 0.123),),
        )
        result = apply_network_delta(network, combined)
        assert result.structural
        new_index = result.network.engine.index_of[survivor]
        assert result.rescored_indices == (new_index,)
        assert result.network.candidates.confidence(survivor) == 0.123

    def test_exact_estimator_keeps_probabilities(self, movie_network):
        pnet = ProbabilisticNetwork(
            movie_network, estimator=ExactEstimator(movie_network)
        )
        before = pnet.probability_vector().copy()
        first = movie_network.correspondences[0]
        result = movie_network.apply_delta(
            NetworkDelta(rescore=((first, 0.77),))
        )
        pnet.apply_delta(result)
        assert pnet.network is result.network
        assert np.array_equal(pnet.probability_vector(), before)

    def test_sharded_store_fast_path_is_identity(self):
        network = self._network()
        store = ShardedSampleStore(
            network, rng=random.Random(5), target_samples=50
        )
        shards_before = [(shard.network, shard.store) for shard in store.shards]
        vector_before = store.probability_vector().copy()
        first = network.correspondences[0]
        result = network.apply_delta(NetworkDelta(rescore=((first, 0.6),)))
        carried = store.apply_delta(result)
        assert carried == {i: i for i in range(len(store.shards))}
        assert store.network is result.network
        for shard, (net, st) in zip(store.shards, shards_before):
            assert shard.network is net
            assert shard.store is st
        assert np.array_equal(store.probability_vector(), vector_before)

    def test_codec_round_trips_rescore(self):
        network = self._network()
        first = network.correspondences[0]
        delta = NetworkDelta(rescore=((first, 0.5),))
        document = delta_to_dict(delta)
        assert "rescore" in document
        decoded = delta_from_dict(document, network)
        assert decoded == delta
        assert delta_to_dict(decoded) == document

    def test_codec_omits_empty_rescore_for_replay_stability(self):
        network = self._network()
        churn = make_churn_delta(network, 0.2, random.Random(11))
        document = delta_to_dict(churn)
        # Pre-rescore journals must replay byte-for-byte: a structural
        # delta without rescores serialises without the key at all.
        assert "rescore" not in document
        decoded = delta_from_dict(document, network)
        assert decoded.rescore == ()

    def test_v2_documents_still_load(self):
        network = self._network()
        churn = make_churn_delta(network, 0.2, random.Random(11))
        document = delta_to_dict(churn)
        document["version"] = 2
        decoded = delta_from_dict(document, network)
        assert decoded.rescore == ()
        assert decoded.remove_schemas == churn.remove_schemas
