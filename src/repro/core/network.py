"""The matching network N = ⟨S, G_S, Γ, C⟩ (paper Section II-B).

:class:`MatchingNetwork` bundles the schemas, the interaction graph, the
integrity constraints and the candidate correspondences, and owns the
compiled :class:`~repro.core.constraints.ConstraintEngine` that every other
component (sampling, repair, instantiation) runs against.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .constraints import Constraint, ConstraintEngine, default_constraints
from .correspondence import CandidateSet, Correspondence
from .graphs import InteractionGraph, complete_graph
from .schema import Attribute, Schema, validate_disjoint


class MatchingNetwork:
    """A network of schemas with candidate correspondences and constraints.

    Parameters
    ----------
    schemas:
        The schema set S; names must be unique.
    candidates:
        Matcher output C, either a :class:`CandidateSet` or a plain iterable
        of correspondences.
    graph:
        The interaction graph G_S; defaults to the complete graph over the
        schemas (the paper's quality-experiment setting).
    constraints:
        Γ; defaults to the paper's one-to-one + cycle constraints.
    validate:
        When True (default), constraint compilation warns about duplicate
        registrations and declarations referencing unknown candidates
        (:class:`~repro.core.constraints.ConstraintCompilationWarning`).
        Internal re-compilations over narrowed universes pass False.
    """

    def __init__(
        self,
        schemas: Sequence[Schema],
        candidates: CandidateSet | Iterable[Correspondence],
        graph: Optional[InteractionGraph] = None,
        constraints: Optional[Sequence[Constraint]] = None,
        validate: bool = True,
    ):
        validate_disjoint(schemas)
        self.schemas: tuple[Schema, ...] = tuple(schemas)
        self._schema_by_name: dict[str, Schema] = {s.name: s for s in self.schemas}
        if not isinstance(candidates, CandidateSet):
            candidates = CandidateSet(candidates)
        self.candidates: CandidateSet = candidates
        self.graph: InteractionGraph = graph or complete_graph(
            [s.name for s in self.schemas]
        )
        self.constraints: tuple[Constraint, ...] = tuple(
            constraints if constraints is not None else default_constraints()
        )
        self._validate_candidates()
        self.engine = ConstraintEngine(
            self.constraints,
            self.candidates.correspondences,
            self.graph,
            validate=validate,
        )

    def _validate_candidates(self) -> None:
        """Every candidate must connect known attributes along a graph edge."""
        for corr in self.candidates:
            for endpoint in corr.attributes:
                schema = self._schema_by_name.get(endpoint.schema)
                if schema is None:
                    raise ValueError(
                        f"correspondence {corr} references unknown schema "
                        f"{endpoint.schema!r}"
                    )
                if endpoint not in schema:
                    raise ValueError(
                        f"correspondence {corr} references unknown attribute "
                        f"{endpoint.qualified_name!r}"
                    )
            left, right = corr.schema_pair
            if not self.graph.has_edge(left, right):
                raise ValueError(
                    f"correspondence {corr} spans schemas {left!r}/{right!r} "
                    "that are not connected in the interaction graph"
                )

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def correspondences(self) -> tuple[Correspondence, ...]:
        """The candidate correspondences C in insertion order."""
        return self.candidates.correspondences

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """A_S: all attributes of all schemas."""
        return tuple(a for schema in self.schemas for a in schema)

    def schema(self, name: str) -> Schema:
        try:
            return self._schema_by_name[name]
        except KeyError:
            raise KeyError(f"network has no schema named {name!r}") from None

    def confidence(self, corr: Correspondence) -> float:
        """Matcher confidence of a candidate correspondence."""
        return self.candidates.confidence(corr)

    def violation_count(self) -> int:
        """Number of minimal constraint violations among all candidates.

        This is the statistic reported in the paper's Table III.
        """
        return len(self.engine.violations)

    @cached_property
    def json_text(self) -> str:
        """The network's ``matching-network`` document as JSON text.

        Encoded once per network object: networks are values (a delta
        builds a successor, and nothing mutates a compiled network), so a
        durable session checkpointing many times over one network — or
        many tenants sharing it — pays the encode once.  Delta successors
        are fresh objects and never see their predecessor's text.
        """
        from ..io import network_to_dict

        return json.dumps(network_to_dict(self), sort_keys=True)

    def apply_delta(self, delta) -> "DeltaResult":
        """Evolve the network by a :class:`~repro.core.delta.NetworkDelta`.

        Returns a :class:`~repro.core.delta.DeltaResult` whose ``network``
        is the successor (this network is untouched) and whose index maps
        let downstream layers — shard plans, sample stores, sessions —
        carry state over instead of rebuilding.  See
        :func:`repro.core.delta.apply_network_delta`.
        """
        from .delta import apply_network_delta

        return apply_network_delta(self, delta)

    def restricted_to(self, keep: Iterable[Correspondence]) -> "MatchingNetwork":
        """A new network over the same schemas with a reduced candidate set.

        Narrowing the universe is sanctioned (sub-network studies, dead-
        candidate pruning), so the re-compilation skips reference
        validation: declarations naming dropped candidates are expected
        here, not a mis-registration.
        """
        return MatchingNetwork(
            schemas=self.schemas,
            candidates=self.candidates.restricted_to(keep),
            graph=self.graph,
            constraints=self.constraints,
            validate=False,
        )

    def stats(self) -> Mapping[str, int]:
        """Descriptive statistics, in the spirit of the paper's Table II."""
        attribute_counts = [len(schema) for schema in self.schemas]
        return {
            "schemas": len(self.schemas),
            "attributes_min": min(attribute_counts) if attribute_counts else 0,
            "attributes_max": max(attribute_counts) if attribute_counts else 0,
            "attributes_total": sum(attribute_counts),
            "edges": len(self.graph.edges),
            "correspondences": len(self.candidates),
            "violations": self.violation_count(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatchingNetwork({len(self.schemas)} schemas, "
            f"{len(self.candidates)} candidates, "
            f"{self.violation_count()} violations)"
        )
