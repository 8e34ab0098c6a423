"""JSON (de)serialisation of networks, feedback and matchings.

Reconciliation is a long-running, human-in-the-loop process; a production
deployment needs to persist its state between sessions.  This module gives
every core object a stable JSON representation:

* schemas and candidate sets (with confidences),
* matching networks (schemas + graph edges + candidates; constraints are
  reconstructed from a small registry),
* feedback ⟨F⁺, F⁻⟩,
* plain matchings (sets of correspondences).

The format is versioned; loaders reject unknown versions explicitly rather
than failing obscurely later.
"""

from __future__ import annotations

import json
from typing import Iterable

from .core.constraints import (
    Constraint,
    CycleConstraint,
    OneToOneConstraint,
)
from .core.correspondence import CandidateSet, Correspondence, correspondence
from .core.feedback import Feedback
from .core.graphs import InteractionGraph
from .core.network import MatchingNetwork
from .core.schema import Attribute, Schema

#: Current on-disk format version.  Version 2 added network-delta
#: documents, delta journal transactions and the sessions'
#: ``deltas_applied`` counter; version 3 added the delta ``rescore``
#: entries (in-place confidence updates); version 4 lets a sharded
#: checkpoint write a shard sampler that never drew as ``{"seed": s}``,
#: its 64-bit spawn seed, instead of both RNG streams.  Every older
#: document still loads (restore fills the new fields with their
#: defaults), so bumping the version does not orphan existing
#: checkpoints.
FORMAT_VERSION = 4

#: Versions the loaders accept.  Writers always emit ``FORMAT_VERSION``.
SUPPORTED_VERSIONS = (1, 2, 3, 4)


class FormatError(ValueError):
    """Raised when a document does not match the expected format."""


def _check_version(document: dict, kind: str) -> None:
    if not isinstance(document, dict) or document.get("kind") != kind:
        raise FormatError(f"expected a {kind!r} document")
    version = document.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise FormatError(
            f"unsupported {kind} format version {version!r} "
            f"(supported: {SUPPORTED_VERSIONS})"
        )


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------


def schema_to_dict(schema: Schema) -> dict:
    return {
        "name": schema.name,
        "attributes": [
            {"name": attribute.name, "data_type": attribute.data_type}
            for attribute in schema
        ],
    }


def schema_from_dict(document: dict) -> Schema:
    schema = Schema(document["name"])
    for entry in document["attributes"]:
        schema.add(
            Attribute(
                schema=document["name"],
                name=entry["name"],
                data_type=entry.get("data_type"),
            )
        )
    return schema


# ---------------------------------------------------------------------------
# Correspondences
# ---------------------------------------------------------------------------


def correspondence_to_dict(corr: Correspondence) -> dict:
    return {
        "source": {"schema": corr.source.schema, "name": corr.source.name},
        "target": {"schema": corr.target.schema, "name": corr.target.name},
    }


def _resolve_attribute(entry: dict, schemas: dict[str, Schema]) -> Attribute:
    schema = schemas.get(entry["schema"])
    if schema is None:
        raise FormatError(f"correspondence references unknown schema {entry['schema']!r}")
    try:
        return schema.attribute(entry["name"])
    except KeyError:
        raise FormatError(
            f"correspondence references unknown attribute "
            f"{entry['schema']}.{entry['name']}"
        ) from None


def correspondence_from_dict(
    document: dict, schemas: dict[str, Schema]
) -> Correspondence:
    return correspondence(
        _resolve_attribute(document["source"], schemas),
        _resolve_attribute(document["target"], schemas),
    )


# ---------------------------------------------------------------------------
# Constraints registry
# ---------------------------------------------------------------------------


def constraint_to_dict(constraint: Constraint) -> dict:
    if isinstance(constraint, OneToOneConstraint):
        return {"type": "one-to-one"}
    if isinstance(constraint, CycleConstraint):
        return {"type": "cycle", "max_cycle_length": constraint.max_cycle_length}
    raise FormatError(
        f"constraint {type(constraint).__name__} has no JSON representation"
    )


def constraint_from_dict(document: dict) -> Constraint:
    kind = document.get("type")
    if kind == "one-to-one":
        return OneToOneConstraint()
    if kind == "cycle":
        length = document.get("max_cycle_length", 3)
        try:
            return CycleConstraint(length)
        except (TypeError, ValueError):
            raise FormatError(
                f"cycle max_cycle_length must be an integer >= 3, got {length!r}"
            ) from None
    raise FormatError(f"unknown constraint type {kind!r}")


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------


def network_to_dict(network: MatchingNetwork) -> dict:
    return {
        "kind": "matching-network",
        "version": FORMAT_VERSION,
        "schemas": [schema_to_dict(schema) for schema in network.schemas],
        "graph_edges": [list(edge) for edge in network.graph.edges],
        "constraints": [constraint_to_dict(c) for c in network.constraints],
        "candidates": [
            {
                **correspondence_to_dict(corr),
                "confidence": network.candidates.confidence(corr),
            }
            for corr in network.candidates
        ],
    }


def network_from_dict(document: dict) -> MatchingNetwork:
    _check_version(document, "matching-network")
    schemas = [schema_from_dict(entry) for entry in document["schemas"]]
    by_name = {schema.name: schema for schema in schemas}
    graph = InteractionGraph(
        nodes=by_name,
        edges=[tuple(edge) for edge in document["graph_edges"]],
    )
    candidates = CandidateSet()
    for entry in document["candidates"]:
        candidates.add(
            correspondence_from_dict(entry, by_name),
            entry.get("confidence", 1.0),
        )
    constraints = [constraint_from_dict(c) for c in document["constraints"]]
    return MatchingNetwork(
        schemas, candidates, graph=graph, constraints=constraints
    )


def delta_to_dict(delta) -> dict:
    """Serialise a :class:`~repro.core.delta.NetworkDelta`.

    The representation is replay-stable up to its version stamp:
    ``delta_to_dict(delta_from_dict(d, network))`` equals ``d`` except for
    ``"version"``, which is always ``FORMAT_VERSION`` — so only documents
    written under the current format round-trip verbatim.  That is what
    lets crash recovery re-execute a journaled delta under replay
    verification: the journal compares a re-appended delta record with
    the journaled one, setting aside a supported ``version``.  The
    ``rescore`` key is emitted only when non-empty, so documents (and
    journal records) written before rescores existed round-trip
    unchanged.
    """
    document = {
        "kind": "network-delta",
        "version": FORMAT_VERSION,
        "add_schemas": [schema_to_dict(schema) for schema in delta.add_schemas],
        "remove_schemas": list(delta.remove_schemas),
        "add_edges": [list(edge) for edge in delta.add_edges],
        "add_candidates": [
            {**correspondence_to_dict(corr), "confidence": confidence}
            for corr, confidence in delta.add_candidates
        ],
        "remove_candidates": [
            correspondence_to_dict(corr) for corr in delta.remove_candidates
        ],
    }
    if delta.rescore:
        document["rescore"] = [
            {**correspondence_to_dict(corr), "confidence": score}
            for corr, score in delta.rescore
        ]
    return document


def delta_from_dict(document: dict, network: MatchingNetwork):
    """Deserialise a network delta against the network it applies to.

    Added candidates may reference added schemas, so attribute resolution
    runs against the network's schemas overlaid with the delta's own
    additions.
    """
    from .core.delta import NetworkDelta

    _check_version(document, "network-delta")
    add_schemas = tuple(
        schema_from_dict(entry) for entry in document["add_schemas"]
    )
    schemas = {schema.name: schema for schema in network.schemas}
    extended = {**schemas, **{schema.name: schema for schema in add_schemas}}
    return NetworkDelta(
        add_schemas=add_schemas,
        remove_schemas=tuple(document["remove_schemas"]),
        add_edges=tuple(tuple(edge) for edge in document["add_edges"]),
        add_candidates=tuple(
            (
                correspondence_from_dict(entry, extended),
                entry.get("confidence", 1.0),
            )
            for entry in document["add_candidates"]
        ),
        remove_candidates=tuple(
            correspondence_from_dict(entry, schemas)
            for entry in document["remove_candidates"]
        ),
        rescore=tuple(
            (correspondence_from_dict(entry, schemas), entry["confidence"])
            for entry in document.get("rescore", ())
        ),
    )


def dump_network(network: MatchingNetwork, path: str) -> None:
    """Write a network to a JSON file."""
    with open(path, "w") as handle:
        json.dump(network_to_dict(network), handle, indent=2)


def load_network(path: str) -> MatchingNetwork:
    """Read a network from a JSON file."""
    with open(path) as handle:
        return network_from_dict(json.load(handle))


# ---------------------------------------------------------------------------
# Feedback and matchings
# ---------------------------------------------------------------------------


def feedback_to_dict(feedback: Feedback) -> dict:
    return {
        "kind": "feedback",
        "version": FORMAT_VERSION,
        "approved": [
            correspondence_to_dict(corr) for corr in sorted(feedback.approved)
        ],
        "disapproved": [
            correspondence_to_dict(corr) for corr in sorted(feedback.disapproved)
        ],
    }


def feedback_from_dict(document: dict, network: MatchingNetwork) -> Feedback:
    _check_version(document, "feedback")
    schemas = {schema.name: schema for schema in network.schemas}
    return Feedback(
        approved=[
            correspondence_from_dict(entry, schemas)
            for entry in document["approved"]
        ],
        disapproved=[
            correspondence_from_dict(entry, schemas)
            for entry in document["disapproved"]
        ],
    )


def matching_to_dict(matching: Iterable[Correspondence]) -> dict:
    return {
        "kind": "matching",
        "version": FORMAT_VERSION,
        "correspondences": [
            correspondence_to_dict(corr) for corr in sorted(matching)
        ],
    }


def matching_from_dict(
    document: dict, network: MatchingNetwork
) -> frozenset[Correspondence]:
    _check_version(document, "matching")
    schemas = {schema.name: schema for schema in network.schemas}
    return frozenset(
        correspondence_from_dict(entry, schemas)
        for entry in document["correspondences"]
    )
