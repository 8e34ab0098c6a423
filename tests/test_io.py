"""Unit tests for JSON persistence (repro.io)."""

import json

import pytest

from repro.core import (
    CandidateSet,
    CycleConstraint,
    Feedback,
    MatchingNetwork,
    OneToOneConstraint,
)
from repro import io


class TestSchemaRoundTrip:
    def test_round_trip(self, movie_schemas):
        sa, _, sc = movie_schemas
        for schema in (sa, sc):
            restored = io.schema_from_dict(io.schema_to_dict(schema))
            assert restored == schema

    def test_data_types_preserved(self, movie_schemas):
        sa, _, _ = movie_schemas
        restored = io.schema_from_dict(io.schema_to_dict(sa))
        assert restored.attribute("productionDate").data_type == "date"


class TestNetworkRoundTrip:
    def test_round_trip_preserves_everything(self, movie_network):
        document = io.network_to_dict(movie_network)
        restored = io.network_from_dict(document)
        assert restored.schemas == movie_network.schemas
        assert set(restored.correspondences) == set(movie_network.correspondences)
        assert restored.graph.edges == movie_network.graph.edges
        assert restored.violation_count() == movie_network.violation_count()

    def test_confidences_preserved(self, movie_schemas, movie_correspondences):
        c1 = movie_correspondences["c1"]
        candidates = CandidateSet([c1], {c1: 0.42})
        network = MatchingNetwork(list(movie_schemas), candidates)
        restored = io.network_from_dict(io.network_to_dict(network))
        assert restored.confidence(c1) == 0.42

    def test_json_serialisable(self, movie_network):
        text = json.dumps(io.network_to_dict(movie_network))
        restored = io.network_from_dict(json.loads(text))
        assert len(restored.candidates) == 5

    def test_file_round_trip(self, movie_network, tmp_path):
        path = tmp_path / "network.json"
        io.dump_network(movie_network, str(path))
        restored = io.load_network(str(path))
        assert set(restored.correspondences) == set(movie_network.correspondences)

    def test_wrong_kind_rejected(self):
        with pytest.raises(io.FormatError, match="matching-network"):
            io.network_from_dict({"kind": "nope", "version": 1})

    def test_wrong_version_rejected(self, movie_network):
        document = io.network_to_dict(movie_network)
        document["version"] = 99
        with pytest.raises(io.FormatError, match="version"):
            io.network_from_dict(document)

    def test_unknown_attribute_rejected(self, movie_network):
        document = io.network_to_dict(movie_network)
        document["candidates"][0]["source"]["name"] = "ghost"
        with pytest.raises(io.FormatError, match="unknown attribute"):
            io.network_from_dict(document)

    def test_unknown_schema_rejected(self, movie_network):
        document = io.network_to_dict(movie_network)
        document["candidates"][0]["source"]["schema"] = "SX"
        with pytest.raises(io.FormatError, match="unknown schema"):
            io.network_from_dict(document)


class TestConstraintRegistry:
    def test_round_trip_one_to_one(self):
        restored = io.constraint_from_dict(
            io.constraint_to_dict(OneToOneConstraint())
        )
        assert isinstance(restored, OneToOneConstraint)

    def test_round_trip_cycle_with_length(self):
        restored = io.constraint_from_dict(
            io.constraint_to_dict(CycleConstraint(max_cycle_length=5))
        )
        assert isinstance(restored, CycleConstraint)
        assert restored.max_cycle_length == 5

    def test_unknown_type_rejected(self):
        with pytest.raises(io.FormatError, match="unknown constraint"):
            io.constraint_from_dict({"type": "alien"})

    @pytest.mark.parametrize("length", [3.7, "4", None, True, 2, [3]])
    def test_invalid_cycle_length_rejected(self, length):
        with pytest.raises(io.FormatError, match="max_cycle_length"):
            io.constraint_from_dict({"type": "cycle", "max_cycle_length": length})

    def test_network_file_with_invalid_cycle_length_rejected(
        self, movie_network, tmp_path
    ):
        document = io.network_to_dict(movie_network)
        document["constraints"] = [
            {"type": "one-to-one"},
            {"type": "cycle", "max_cycle_length": 3.7},
        ]
        with pytest.raises(io.FormatError, match="max_cycle_length"):
            io.network_from_dict(document)
        path = tmp_path / "network.json"
        path.write_text(json.dumps(document))
        with pytest.raises(io.FormatError, match="max_cycle_length"):
            io.load_network(str(path))

    def test_unserialisable_constraint_rejected(self, movie_correspondences):
        from repro.core import MutualExclusionConstraint

        c = movie_correspondences
        constraint = MutualExclusionConstraint([[c["c1"], c["c2"]]])
        with pytest.raises(io.FormatError, match="no JSON representation"):
            io.constraint_to_dict(constraint)


class TestFeedbackRoundTrip:
    def test_round_trip(self, movie_network, movie_correspondences):
        c = movie_correspondences
        feedback = Feedback(approved=[c["c1"]], disapproved=[c["c5"]])
        document = io.feedback_to_dict(feedback)
        restored = io.feedback_from_dict(document, movie_network)
        assert restored.approved == feedback.approved
        assert restored.disapproved == feedback.disapproved

    def test_round_trip_after_retraction(
        self, movie_network, movie_correspondences
    ):
        # Conflict repair can move an approval to F⁻ (retract + disapprove).
        # The serialised document must reflect the post-retraction state,
        # not the assertion history.
        c = movie_correspondences
        feedback = Feedback(approved=[c["c1"], c["c3"]], disapproved=[])
        feedback.retract_approval(c["c1"])
        feedback.disapprove(c["c1"])
        restored = io.feedback_from_dict(
            io.feedback_to_dict(feedback), movie_network
        )
        assert restored.approved == frozenset({c["c3"]})
        assert restored.disapproved == frozenset({c["c1"]})
        assert not (restored.approved & restored.disapproved)

    def test_wrong_kind_rejected(self, movie_network):
        with pytest.raises(io.FormatError):
            io.feedback_from_dict({"kind": "x", "version": 1}, movie_network)


class TestMatchingRoundTrip:
    def test_round_trip(self, movie_network, movie_truth):
        document = io.matching_to_dict(movie_truth)
        restored = io.matching_from_dict(document, movie_network)
        assert restored == movie_truth

    def test_sorted_and_stable(self, movie_truth):
        first = io.matching_to_dict(movie_truth)
        second = io.matching_to_dict(set(movie_truth))
        assert first == second
