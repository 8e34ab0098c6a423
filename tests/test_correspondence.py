"""Unit tests for repro.core.correspondence."""

import random

import pytest

from repro.core.correspondence import CandidateSet, Correspondence, correspondence
from repro.core.schema import Attribute


@pytest.fixture
def attrs():
    return (
        Attribute("S1", "alpha"),
        Attribute("S2", "beta"),
        Attribute("S2", "gamma"),
        Attribute("S3", "delta"),
    )


class TestCorrespondence:
    def test_undirected_equality(self, attrs):
        a, b = attrs[0], attrs[1]
        assert correspondence(a, b) == correspondence(b, a)

    def test_undirected_hash(self, attrs):
        a, b = attrs[0], attrs[1]
        assert hash(correspondence(a, b)) == hash(correspondence(b, a))

    def test_canonical_order(self, attrs):
        corr = Correspondence(attrs[1], attrs[0])
        assert corr.source == attrs[0]
        assert corr.target == attrs[1]

    def test_rejects_same_schema(self, attrs):
        with pytest.raises(ValueError, match="different schemas"):
            correspondence(attrs[1], attrs[2])

    def test_schema_pair_sorted(self, attrs):
        corr = correspondence(attrs[3], attrs[0])
        assert corr.schema_pair == ("S1", "S3")

    def test_touches(self, attrs):
        corr = correspondence(attrs[0], attrs[1])
        assert corr.touches(attrs[0])
        assert corr.touches(attrs[1])
        assert not corr.touches(attrs[3])

    def test_other(self, attrs):
        corr = correspondence(attrs[0], attrs[1])
        assert corr.other(attrs[0]) == attrs[1]
        assert corr.other(attrs[1]) == attrs[0]

    def test_other_rejects_non_endpoint(self, attrs):
        corr = correspondence(attrs[0], attrs[1])
        with pytest.raises(ValueError, match="not an endpoint"):
            corr.other(attrs[3])

    def test_endpoint_in(self, attrs):
        corr = correspondence(attrs[0], attrs[1])
        assert corr.endpoint_in("S1") == attrs[0]
        assert corr.endpoint_in("S2") == attrs[1]

    def test_endpoint_in_missing_schema_raises(self, attrs):
        corr = correspondence(attrs[0], attrs[1])
        with pytest.raises(ValueError, match="no endpoint"):
            corr.endpoint_in("S9")

    def test_ordering_total(self, attrs):
        c1 = correspondence(attrs[0], attrs[1])
        c2 = correspondence(attrs[0], attrs[2])
        c3 = correspondence(attrs[0], attrs[3])
        assert sorted([c3, c2, c1]) == [c1, c2, c3]

    def test_not_equal_to_other_types(self, attrs):
        assert correspondence(attrs[0], attrs[1]) != "x"

    def test_str_contains_both_endpoints(self, attrs):
        text = str(correspondence(attrs[0], attrs[1]))
        assert "S1.alpha" in text and "S2.beta" in text

    def test_attributes_property(self, attrs):
        corr = correspondence(attrs[0], attrs[1])
        assert corr.attributes == (attrs[0], attrs[1])


class TestCandidateSet:
    def test_add_and_confidence(self, attrs):
        corr = correspondence(attrs[0], attrs[1])
        candidates = CandidateSet()
        candidates.add(corr, 0.8)
        assert candidates.confidence(corr) == 0.8

    def test_default_confidence_is_one(self, attrs):
        corr = correspondence(attrs[0], attrs[1])
        candidates = CandidateSet([corr])
        assert candidates.confidence(corr) == 1.0

    def test_add_rejects_out_of_range(self, attrs):
        corr = correspondence(attrs[0], attrs[1])
        with pytest.raises(ValueError, match="confidence"):
            CandidateSet().add(corr, 1.5)

    def test_replaces_confidence(self, attrs):
        corr = correspondence(attrs[0], attrs[1])
        candidates = CandidateSet([corr])
        candidates.add(corr, 0.2)
        assert candidates.confidence(corr) == 0.2
        assert len(candidates) == 1

    def test_membership_and_iteration_order(self, attrs):
        c1 = correspondence(attrs[0], attrs[1])
        c2 = correspondence(attrs[0], attrs[2])
        candidates = CandidateSet([c1, c2])
        assert c1 in candidates
        assert list(candidates) == [c1, c2]

    def test_by_schema_pair(self, attrs):
        c1 = correspondence(attrs[0], attrs[1])
        c2 = correspondence(attrs[0], attrs[3])
        groups = CandidateSet([c1, c2]).by_schema_pair()
        assert groups[("S1", "S2")] == [c1]
        assert groups[("S1", "S3")] == [c2]

    def test_restricted_to(self, attrs):
        c1 = correspondence(attrs[0], attrs[1])
        c2 = correspondence(attrs[0], attrs[2])
        candidates = CandidateSet([c1, c2], {c1: 0.4, c2: 0.6})
        subset = candidates.restricted_to([c2])
        assert list(subset) == [c2]
        assert subset.confidence(c2) == 0.6

    def test_restricted_to_matches_the_full_scan(self):
        """Indexed restriction equals the original whole-set filter on
        shuffled subsets with duplicates and non-members, keeping the
        set's order, confidences and own correspondence objects."""

        def full_scan(candidates, keep):
            keep_set = set(keep)
            subset = CandidateSet()
            for corr in candidates:
                if corr in keep_set:
                    subset.add(corr, candidates.confidence(corr))
            return subset

        rng = random.Random(17)
        universe = [
            correspondence(
                Attribute(f"S{i}", f"a{k}"), Attribute(f"S{j}", f"b{k}")
            )
            for i in range(4)
            for j in range(i + 1, 5)
            for k in range(6)
        ]
        for trial in range(40):
            members = rng.sample(universe, rng.randint(0, len(universe) - 5))
            candidates = CandidateSet(
                members, {corr: rng.random() for corr in members}
            )
            outside = [corr for corr in universe if corr not in candidates]
            keep = rng.sample(members, rng.randint(0, len(members)))
            keep += rng.sample(keep, len(keep) // 3)
            keep += rng.sample(outside, min(len(outside), 3))
            # Equal but distinct objects must resolve to the set's own.
            keep = [
                Correspondence(corr.target, corr.source) if k % 2 else corr
                for k, corr in enumerate(keep)
            ]
            rng.shuffle(keep)
            subset = candidates.restricted_to(keep)
            expected = full_scan(candidates, keep)
            assert subset.correspondences == expected.correspondences
            assert all(
                subset.confidence(corr) == expected.confidence(corr)
                for corr in subset
            )
            own = {id(corr) for corr in candidates}
            assert all(id(corr) in own for corr in subset)
            if trial % 5 == 0:
                # The cached index follows later additions.
                extra = outside[0] if outside else None
                if extra is not None:
                    candidates.add(extra, 0.5)
                    assert extra in candidates.restricted_to([extra])

    def test_merged_with_other_wins(self, attrs):
        corr = correspondence(attrs[0], attrs[1])
        left = CandidateSet([corr], {corr: 0.3})
        right = CandidateSet([corr], {corr: 0.9})
        merged = left.merged_with(right)
        assert merged.confidence(corr) == 0.9
        assert len(merged) == 1

    def test_correspondences_property(self, attrs):
        c1 = correspondence(attrs[0], attrs[1])
        candidates = CandidateSet([c1])
        assert candidates.correspondences == (c1,)
