"""Attribute correspondences and candidate correspondence sets.

A correspondence is an unordered pair of attributes from two *different*
schemas (Section II-B).  We canonicalise the endpoint order (by schema name)
so that ``(a, b)`` and ``(b, a)`` denote the same correspondence and hash
identically.  Matcher confidence values live in :class:`CandidateSet`, not on
the correspondence itself: the paper treats confidences as auxiliary matcher
output, while correspondence identity is purely structural.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional

from .schema import Attribute


class Correspondence:
    """An undirected attribute correspondence between two schemas.

    Endpoints are canonicalised (smaller ``(schema, name)`` first) so that
    ``(a, b)`` and ``(b, a)`` denote the same value; equality, ordering and
    the (precomputed) hash follow that canonical form.  Correspondences are
    the keys of every hot set and dictionary in the sampler, so they are
    slotted immutable objects.
    """

    __slots__ = ("source", "target", "_hash")

    def __init__(self, source: Attribute, target: Attribute):
        if source.schema == target.schema:
            raise ValueError(
                "correspondence endpoints must come from different schemas: "
                f"{source} / {target}"
            )
        if (source.schema, source.name) > (target.schema, target.name):
            source, target = target, source
        self.source = source
        self.target = target
        self._hash = hash((source._hash, target._hash))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Correspondence):
            return NotImplemented
        return self.source == other.source and self.target == other.target

    def __hash__(self) -> int:
        return self._hash

    def _key(self) -> tuple[str, str, str, str]:
        return (
            self.source.schema,
            self.source.name,
            self.target.schema,
            self.target.name,
        )

    def __lt__(self, other: "Correspondence") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Correspondence") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "Correspondence") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "Correspondence") -> bool:
        return self._key() >= other._key()

    def __repr__(self) -> str:
        return f"Correspondence({self.source!r}, {self.target!r})"

    @property
    def schema_pair(self) -> tuple[str, str]:
        """The (sorted) pair of schema names the correspondence spans."""
        return (self.source.schema, self.target.schema)

    @property
    def attributes(self) -> tuple[Attribute, Attribute]:
        return (self.source, self.target)

    def touches(self, attribute: Attribute) -> bool:
        """Whether ``attribute`` is one of the endpoints."""
        return attribute == self.source or attribute == self.target

    def other(self, attribute: Attribute) -> Attribute:
        """Return the endpoint opposite to ``attribute``."""
        if attribute == self.source:
            return self.target
        if attribute == self.target:
            return self.source
        raise ValueError(f"{attribute} is not an endpoint of {self}")

    def endpoint_in(self, schema_name: str) -> Attribute:
        """Return the endpoint belonging to ``schema_name``."""
        if self.source.schema == schema_name:
            return self.source
        if self.target.schema == schema_name:
            return self.target
        raise ValueError(f"{self} has no endpoint in schema {schema_name!r}")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.source.qualified_name}~{self.target.qualified_name}"


def _fix_order(source: Attribute, target: Attribute) -> tuple[Attribute, Attribute]:
    """Canonical endpoint ordering used by :class:`Correspondence`."""
    if (source.schema, source.name) > (target.schema, target.name):
        return target, source
    return source, target


def correspondence(source: Attribute, target: Attribute) -> Correspondence:
    """Convenience constructor with explicit canonicalisation."""
    first, second = _fix_order(source, target)
    return Correspondence(first, second)


class CandidateSet:
    """The matcher output ``C``: correspondences plus confidence values.

    Confidences default to 1.0 when a matcher does not provide them.  The set
    preserves insertion order for deterministic iteration and offers O(1)
    membership tests.
    """

    def __init__(
        self,
        correspondences: Iterable[Correspondence] = (),
        confidences: Optional[Mapping[Correspondence, float]] = None,
    ):
        self._confidences: dict[Correspondence, float] = {}
        self._ordered: Optional[tuple[Correspondence, ...]] = None
        self._positions: Optional[dict[Correspondence, int]] = None
        confidences = confidences or {}
        for corr in correspondences:
            self.add(corr, confidences.get(corr, 1.0))

    def add(self, corr: Correspondence, confidence: float = 1.0) -> None:
        """Add a correspondence (replaces the confidence if present)."""
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence {confidence} outside [0, 1]")
        self._confidences[corr] = confidence
        self._ordered = None
        self._positions = None

    def confidence(self, corr: Correspondence) -> float:
        """Matcher confidence of ``corr`` (KeyError if absent)."""
        return self._confidences[corr]

    @property
    def correspondences(self) -> tuple[Correspondence, ...]:
        if self._ordered is None:
            self._ordered = tuple(self._confidences)
        return self._ordered

    def by_schema_pair(self) -> dict[tuple[str, str], list[Correspondence]]:
        """Group correspondences by the pair of schemas they span."""
        groups: dict[tuple[str, str], list[Correspondence]] = {}
        for corr in self._confidences:
            groups.setdefault(corr.schema_pair, []).append(corr)
        return groups

    def restricted_to(self, keep: Iterable[Correspondence]) -> "CandidateSet":
        """A new candidate set containing only ``keep`` (order preserved).

        Members of ``keep`` outside the set are ignored.  The cost is in
        the size of ``keep``: insertion positions are indexed once per set
        and reused, so restricting one network to each of its shards does
        not rescan every candidate per shard.
        """
        positions = self._positions
        if positions is None:
            positions = self._positions = {
                corr: position
                for position, corr in enumerate(self._confidences)
            }
        ordered = self.correspondences
        confidences = self._confidences
        subset = CandidateSet()
        for position in sorted(
            {positions[corr] for corr in keep if corr in positions}
        ):
            corr = ordered[position]
            subset._confidences[corr] = confidences[corr]
        return subset

    def merged_with(self, other: "CandidateSet") -> "CandidateSet":
        """Union of two candidate sets; ``other`` wins on confidence ties."""
        merged = CandidateSet()
        for corr, conf in self._confidences.items():
            merged.add(corr, conf)
        for corr, conf in other._confidences.items():
            merged.add(corr, conf)
        return merged

    def __contains__(self, corr: object) -> bool:
        return corr in self._confidences

    def __iter__(self) -> Iterator[Correspondence]:
        return iter(self._confidences)

    def __len__(self) -> int:
        return len(self._confidences)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CandidateSet({len(self)} correspondences)"
