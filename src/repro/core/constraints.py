"""Network-level integrity constraints and the compiled violation engine.

The paper leaves the constraint language open but evaluates with two concrete
constraints (Sections II-A, VI-A):

* **one-to-one** — within a matched schema pair, every attribute participates
  in at most one correspondence;
* **cycle** — when schemas are matched along a cycle, composing the
  correspondences around the cycle must return to the starting attribute.

Both are *anti-monotone*: every violating set stays violating when grown.
That lets us compile, for a fixed candidate set, the family of **minimal
violating subsets** (pairs for one-to-one, cycle-length-sized sets for the
cycle constraint).  A selection then satisfies Γ iff it contains no compiled
violation — a representation that makes consistency checks, maximality
checks, `repair()` and the sampler all incremental and cheap.

Bitmask index space
-------------------
On top of the compiled violation family, :class:`ConstraintEngine` assigns
every candidate correspondence a fixed integer index and represents
selections, F⁺/F⁻ and the violations themselves as Python-int bitmasks over
that index space.  All hot kernels (the sampler's walk, ``repair``,
``greedy_maximalize``, instance enumeration) run purely on these masks:

* a selection is one arbitrary-precision int; membership, union, difference
  and symmetric-difference size are single C-level int operations;
* a violation is active in ``mask`` iff ``vmask & mask == vmask``;
* per-index structures split violations into *pair partners* (size-2
  violations collapse into one partner mask, so "does adding i activate a
  pair?" is ``mask & pair_partners[i]``) and larger violations, whose
  masks are scanned directly;
* a numpy row table of (member, others…) pairs supports a vectorised
  "blocked" pre-filter that lets ``greedy_maximalize`` discard almost all
  unaddable candidates in a handful of array operations.

The frozenset-based API below is preserved unchanged at module boundaries —
every public method accepts and returns :class:`Correspondence` objects —
and delegates to the mask primitives internally.
"""

from __future__ import annotations

import abc
import warnings
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Collection,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
)

import numpy as np

from .correspondence import Correspondence
from .graphs import InteractionGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import MatchingNetwork


class ConstraintCompilationWarning(UserWarning):
    """A compile-time validation finding of :class:`ConstraintEngine`.

    Raised as a warning (never an exception) so legacy call sites keep
    working; the static analyser (:mod:`repro.analysis`) surfaces the same
    conditions as structured diagnostics for callers that want to fail fast.
    """


@dataclass(frozen=True)
class Violation:
    """A minimal set of correspondences that jointly violate a constraint."""

    constraint: str
    correspondences: frozenset[Correspondence]

    def __len__(self) -> int:
        return len(self.correspondences)

    def __iter__(self) -> Iterator[Correspondence]:
        return iter(self.correspondences)

    def is_within(self, selection: frozenset[Correspondence] | set[Correspondence]) -> bool:
        """Whether every member of the violation is selected."""
        return self.correspondences <= selection


class Constraint(abc.ABC):
    """A network-level integrity constraint γ ∈ Γ.

    Concrete constraints enumerate their minimal violating subsets for a
    candidate correspondence set; everything else (consistency checks,
    repair, sampling) is derived from that enumeration by the
    :class:`ConstraintEngine`.
    """

    name: str = "constraint"

    @abc.abstractmethod
    def minimal_violations(
        self,
        correspondences: Sequence[Correspondence],
        graph: InteractionGraph,
    ) -> Iterator[Violation]:
        """Yield every minimal violating subset among ``correspondences``."""

    def violations_through(
        self,
        correspondences: Sequence[Correspondence],
        graph: InteractionGraph,
        through: Optional[Collection[tuple[str, str]]] = None,
    ) -> Iterator[Violation]:
        """Yield the minimal violations with a member on a schema-pair edge
        of ``through`` (every minimal violation when ``None``).

        This is the question :func:`discover_violations` asks: a compile
        anchors on every edge, a delta on the edges its added candidates
        span.  The default ignores ``through`` and yields every minimal
        violation — a superset, which the delta filters; the structural
        constraints override it to do only the anchored work.
        """
        return self.minimal_violations(correspondences, graph)

    def is_satisfied_by(
        self,
        selection: Iterable[Correspondence],
        graph: InteractionGraph,
    ) -> bool:
        """Direct (non-compiled) satisfaction check, used in tests."""
        selected = frozenset(selection)
        for violation in self.minimal_violations(tuple(selected), graph):
            if violation.is_within(selected):
                return False
        return True

    def referenced_correspondences(self) -> Optional[frozenset[Correspondence]]:
        """Candidates this constraint names explicitly, or ``None``.

        Structural constraints (one-to-one, cycle) derive their violations
        from whatever universe they are compiled against and return ``None``
        — there is nothing to cross-check.  Declaration-style constraints
        (mutual exclusion, dependencies) name concrete correspondences;
        returning them lets the engine warn when a declaration references a
        candidate outside the compiled universe, which previously made the
        affected exclusions silently unenforceable.
        """
        return None


class OneToOneConstraint(Constraint):
    """Each attribute matches at most one attribute of any other schema.

    Minimal violations are exactly the pairs of correspondences between the
    same schema pair that share one endpoint.
    """

    name = "one-to-one"

    def minimal_violations(
        self,
        correspondences: Sequence[Correspondence],
        graph: InteractionGraph,
    ) -> Iterator[Violation]:
        # Group by (schema pair, shared endpoint); any two correspondences in
        # the same group conflict.
        groups: dict[tuple, list[Correspondence]] = {}
        for corr in correspondences:
            pair = corr.schema_pair
            groups.setdefault((pair, corr.source), []).append(corr)
            groups.setdefault((pair, corr.target), []).append(corr)
        for members in groups.values():
            for i, left in enumerate(members):
                for right in members[i + 1 :]:
                    yield Violation(self.name, frozenset((left, right)))

    def violations_through(
        self,
        correspondences: Sequence[Correspondence],
        graph: InteractionGraph,
        through: Optional[Collection[tuple[str, str]]] = None,
    ) -> Iterator[Violation]:
        # Both members of a violation span the same schema pair.
        if through is not None:
            correspondences = [
                corr for corr in correspondences if corr.schema_pair in through
            ]
        return self.minimal_violations(correspondences, graph)


class CycleConstraint(Constraint):
    """Matched attributes along a schema cycle must close the cycle.

    For a cycle of schemas (s₁, …, s_k), a chain of correspondences
    a₁~a₂, a₂~a₃, …, a_{k-1}~a_k composes a₁ into a_k; a direct
    correspondence on the closing edge that agrees with the chain at exactly
    one end and disagrees at the other contradicts the composition.  Those
    chain-plus-closing-edge sets are the minimal violations.

    Only cycles of the interaction graph whose every edge carries a
    candidate can hold a violation, so the cycles come from
    :meth:`InteractionGraph.cycles` over those edges.  A violating set has
    exactly one *disagreeing* corner, and a rotation of the cycle only finds
    it when that corner is an endpoint of the rotation's closing edge.
    Rotation r (the cycle started at its r-th node) closes over the edge
    between corners r−1 and r, so rotations 0…k−2 reach every corner and
    rotation k−1 never finds a new violation.  Within one cycle the
    violations come rotation by rotation, chains in candidate order, then
    closing correspondences in candidate order; the first sighting wins.

    ``max_cycle_length`` (an ``int`` ≥ 3) bounds which cycles of the
    interaction graph are checked; 3 (triangles) is the default and matches
    the structures the paper's complete interaction graphs are dominated by.
    """

    def __init__(self, max_cycle_length: int = 3):
        if isinstance(max_cycle_length, bool) or not isinstance(
            max_cycle_length, int
        ):
            raise TypeError(
                f"max_cycle_length must be an int, not {max_cycle_length!r}"
            )
        if max_cycle_length < 3:
            raise ValueError("cycles have length >= 3")
        self.max_cycle_length = max_cycle_length

    name = "cycle"

    def minimal_violations(
        self,
        correspondences: Sequence[Correspondence],
        graph: InteractionGraph,
    ) -> Iterator[Violation]:
        return self.violations_through(correspondences, graph)

    def violations_through(
        self,
        correspondences: Sequence[Correspondence],
        graph: InteractionGraph,
        through: Optional[Collection[tuple[str, str]]] = None,
    ) -> Iterator[Violation]:
        by_edge: dict[tuple[str, str], list[Correspondence]] = {}
        for corr in correspondences:
            by_edge.setdefault(corr.schema_pair, []).append(corr)
        bearing = InteractionGraph(
            edges=[edge for edge in by_edge if graph.has_edge(*edge)]
        )
        # Endpoint index, built per (edge, schema) only when a cycle needs
        # it: the attribute in ``schema`` → (position on the edge,
        # correspondence, its other endpoint), in candidate order.
        index: dict[tuple[tuple[str, str], str], dict] = {}

        def endpoints(edge: tuple[str, str], schema: str) -> dict:
            table = index.get((edge, schema))
            if table is None:
                table = index[(edge, schema)] = {}
                for position, corr in enumerate(by_edge[edge]):
                    if corr.source.schema == schema:
                        here, there = corr.source, corr.target
                    else:
                        here, there = corr.target, corr.source
                    table.setdefault(here, []).append((position, corr, there))
            return table

        seen: set[frozenset[Correspondence]] = set()
        for cycle in bearing.cycles(self.max_cycle_length, through=through):
            # edges[i] joins cycle[i] and cycle[i + 1] (cyclically).
            edges = [
                tuple(sorted(pair)) for pair in zip(cycle, cycle[1:] + cycle[:1])
            ]
            for rotation in range(len(cycle) - 1):
                for members in self._rotation_violations(
                    cycle[rotation:] + cycle[:rotation],
                    edges[rotation:] + edges[:rotation],
                    by_edge,
                    endpoints,
                ):
                    if members not in seen:
                        seen.add(members)
                        yield Violation(self.name, members)

    @staticmethod
    def _rotation_violations(
        cycle: tuple[str, ...],
        edges: list[tuple[str, str]],
        by_edge: dict[tuple[str, str], list[Correspondence]],
        endpoints,
    ) -> Iterator[frozenset[Correspondence]]:
        """Violations whose disagreeing corner flanks the closing edge
        (cycle[0]–cycle[k-1]) of this cycle rotation."""
        k = len(cycle)
        first, last = cycle[0], cycle[k - 1]
        # Chains along edges 0..k-2 — correspondences that compose through
        # the interior schemas — as (members, start attribute, tail
        # attribute), joined through the endpoint index.
        chains = []
        for corr in by_edge[edges[0]]:
            if corr.source.schema == first:
                chains.append(([corr], corr.source, corr.target))
            else:
                chains.append(([corr], corr.target, corr.source))
        for step in range(1, k - 1):
            table = endpoints(edges[step], cycle[step])
            chains = [
                (members + [corr], start, there)
                for members, start, tail in chains
                for _, corr, there in table.get(tail, ())
            ]
            if not chains:
                return
        at_first = endpoints(edges[k - 1], first)
        at_last = endpoints(edges[k - 1], last)
        for members, start, end in chains:
            # A closing correspondence agreeing at exactly one end
            # contradicts the composition; agreeing at both closes the
            # cycle and agreeing at neither is unrelated.
            contradicting = [
                hit for hit in at_first.get(start, ()) if hit[2] != end
            ]
            contradicting += [
                hit for hit in at_last.get(end, ()) if hit[2] != start
            ]
            contradicting.sort(key=lambda hit: hit[0])
            for _, corr, _ in contradicting:
                yield frozenset(members + [corr])


class MutualExclusionConstraint(Constraint):
    """User-declared incompatibilities: listed correspondence sets must not
    co-occur.

    The paper's model is open to further constraints beyond one-to-one and
    cycle; this one lets integration engineers encode domain knowledge (e.g.
    "an attribute cannot map to both ``price`` and ``tax``") directly as
    minimal violating sets.
    """

    name = "mutual-exclusion"

    def __init__(self, exclusions: Sequence[Iterable[Correspondence]]):
        compiled = []
        for exclusion in exclusions:
            members = frozenset(exclusion)
            if len(members) < 2:
                raise ValueError(
                    "each exclusion needs at least two correspondences"
                )
            compiled.append(members)
        self.exclusions: tuple[frozenset[Correspondence], ...] = tuple(compiled)

    def minimal_violations(
        self,
        correspondences: Sequence[Correspondence],
        graph: InteractionGraph,
    ) -> Iterator[Violation]:
        available = set(correspondences)
        for members in self.exclusions:
            if members <= available:
                yield Violation(self.name, members)

    def referenced_correspondences(self) -> frozenset[Correspondence]:
        return frozenset().union(*self.exclusions)


_WORD = 0xFFFFFFFFFFFFFFFF


def discover_violations(
    constraints: Sequence[Constraint],
    correspondences: Sequence[Correspondence],
    graph: InteractionGraph,
    through: Optional[Collection[tuple[str, str]]] = None,
) -> tuple[list[Violation], list[list[int]]]:
    """The deduplicated minimal violations of ``constraints`` with a member
    on a schema-pair edge of ``through``, and each one's contributors.

    The one discovery loop of the engine: a compile asks for every edge
    (``through=None``), a delta (:mod:`repro.core.delta`) for the edges its
    added candidates span.  Violations come constraint by constraint, each
    in its own order; ``sources[i]`` lists the positions (into
    ``constraints``) of every constraint that yielded ``violations[i]``.
    """
    seen: dict[frozenset[Correspondence], int] = {}
    violations: list[Violation] = []
    sources: list[list[int]] = []
    for position, constraint in enumerate(constraints):
        for violation in constraint.violations_through(
            correspondences, graph, through
        ):
            slot = seen.get(violation.correspondences)
            if slot is None:
                seen[violation.correspondences] = len(violations)
                violations.append(violation)
                sources.append([position])
            else:
                # Duplicate registration: the same minimal violation
                # contributed a second time (by another constraint, or by
                # one declaring the same exclusion twice).  The engine
                # dedupes (so masks stay correct) but remembers every
                # contribution.
                sources[slot].append(position)
    return violations, sources


def kth_set_bit(mask: int, k: int) -> int:
    """Index of the ``k``-th (0-based, ascending) set bit of ``mask``.

    Walks the mask 64 bits at a time; the sampler uses it to draw a uniform
    member of an availability mask without materialising an index list.
    """
    offset = 0
    while True:
        word = mask & _WORD
        count = word.bit_count()
        if k < count:
            while k:
                word &= word - 1
                k -= 1
            return offset + (word & -word).bit_length() - 1
        k -= count
        mask >>= 64
        offset += 64
        if not mask:
            raise ValueError("mask has fewer set bits than k")


def mask_indices(mask: int) -> list[int]:
    """Ascending indices of the set bits of ``mask``."""
    indices: list[int] = []
    while mask:
        bit = mask & -mask
        indices.append(bit.bit_length() - 1)
        mask ^= bit
    return indices


def shuffled(indices: Iterable[int], rng) -> list[int]:
    """Fisher–Yates shuffle driven by ``rng.random()``.

    Equivalent in distribution to ``random.shuffle`` (up to float
    granularity) but roughly 3x cheaper per element, which matters because
    the sampler shuffles a candidate order for every emitted instance.
    """
    items = list(indices)
    random = rng.random
    for i in range(len(items) - 1, 0, -1):
        j = int(random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


@dataclass(frozen=True)
class WaveTables:
    """CSR-style array views of the violation hypergraph, compacted to the
    conflicted candidates — the representation the batched priority-wave
    maximaliser (:func:`repro.core.repair.wave_maximalize_batch`) consumes.

    All indices below are *compact*: position ``k`` refers to the ``k``-th
    conflicted candidate (``conflicted[k]`` is its engine index), and ``m``
    (= ``len(conflicted)``) is the always-True sentinel column, so padded
    rows are harmless under ``all()`` reductions.

    * ``pair_lo``/``pair_hi`` list every violation-partner pair once,
      ``lo < hi``, so the kernel compares each pair's priorities once per
      call.
    * Blocking rows: row ``r`` holds the co-members of one violation
      through a candidate, padded with the sentinel ``m``, stored
      column-wise (``blk_columns[:, r]``) so the kernel gathers each
      co-member position with one contiguous index array.  Rows are
      grouped by member, and every conflicted candidate is a member of
      some violation, so group ``k`` (from ``blk_starts[k]``) belongs to
      candidate ``k`` and the per-candidate "some row" OR is one
      ``np.bitwise_or.reduceat`` (the kernel packs the emission axis into
      64-bit words, which makes the reduction rows a handful of words).
    * ``blk_pairs[:, r]`` maps each co-member of row ``r`` to the entry of
      the kernel's per-call table of "the co-member precedes the member":
      ``q`` when the member is pair ``q``'s ``lo`` side, ``Q + q`` when it
      is the ``hi`` side (``Q = len(pair_lo)``), and ``2Q`` for the
      sentinel.
    """

    conflicted: np.ndarray  # (m,) engine indices of the conflicted candidates
    pair_lo: np.ndarray  # (Q,) lower compact partner of each partner pair
    pair_hi: np.ndarray  # (Q,) higher compact partner of each partner pair
    blk_columns: np.ndarray  # (W, R) compact co-members, sentinel-padded
    blk_pairs: np.ndarray  # (W, R) precedence-table entry per co-member
    blk_starts: np.ndarray  # (m,) reduceat group starts into the rows


class ConstraintEngine:
    """Compiled violation hypergraph for one network state.

    Exposes fast primitives over the *fixed* candidate set of a network:
    consistency, incremental conflict lookup, and maximality.  Everything is
    computed once up-front from the constraints' minimal violations, then
    compiled a second time into the bitmask index space (see the module
    docstring) that the hot kernels run on.

    Mask conventions: bit ``i`` of a mask is the candidate
    ``self.correspondences[i]``; ``self.full_mask`` has every candidate bit
    set; conversions happen only at module boundaries via :meth:`mask_of`
    and :meth:`corrs_of`.
    """

    def __init__(
        self,
        constraints: Sequence[Constraint],
        correspondences: Sequence[Correspondence],
        graph: InteractionGraph,
        validate: bool = True,
    ):
        self.constraints = tuple(constraints)
        self.correspondences = tuple(correspondences)
        self._adopt(
            *discover_violations(self.constraints, self.correspondences, graph)
        )
        if validate:
            self._validate_compilation()
        self._compile_index_space()

    @classmethod
    def from_violations(
        cls,
        constraints: Sequence[Constraint],
        correspondences: Sequence[Correspondence],
        violations: Sequence[Violation],
        sources: Sequence[Sequence[int]],
    ) -> "ConstraintEngine":
        """Compile an engine from an externally-assembled violation family.

        The delta pipeline (:mod:`repro.core.delta`) carries surviving
        violations over from a predecessor engine and runs
        :func:`discover_violations` anchored on the delta's edges only;
        the caller vouches that ``violations`` is exactly the deduplicated
        minimal-violation family of ``constraints`` over
        ``correspondences``.  Everything
        downstream of discovery (the mask index space and the wave CSR
        layouts) is recompiled, because removals renumber the bits.
        """
        engine = cls.__new__(cls)
        engine.constraints = tuple(constraints)
        engine.correspondences = tuple(correspondences)
        engine._adopt(violations, sources)
        engine._compile_index_space()
        return engine

    def _adopt(
        self, violations: Sequence[Violation], sources: Sequence[Sequence[int]]
    ) -> None:
        self.violations: tuple[Violation, ...] = tuple(violations)
        #: per-violation tuple of indices into ``self.constraints`` that
        #: contributed it (len > 1 marks a duplicate registration)
        self.violation_sources: tuple[tuple[int, ...], ...] = tuple(
            tuple(contributors) for contributors in sources
        )
        # Conflicted candidates only: lookups default to no violations.
        self._involving: dict[Correspondence, list[Violation]] = {}
        for violation in self.violations:
            for corr in violation:
                self._involving.setdefault(corr, []).append(violation)

    def _validate_compilation(self) -> None:
        """Warn about silently mis-compiled constraint registrations.

        Two historical failure modes used to pass without complaint: the
        same violation registered by more than one constraint (the compile
        deduped it, hiding the redundant declaration), and declaration-style
        constraints referencing candidates absent from the universe (their
        exclusions were silently dropped by the availability filter and
        never enforced).
        """
        duplicated = [
            (self.violations[slot], contributors)
            for slot, contributors in enumerate(self.violation_sources)
            if len(contributors) > 1
        ]
        if duplicated:
            violation, contributors = duplicated[0]
            names = ", ".join(
                self.constraints[i].name for i in contributors
            )
            warnings.warn(
                ConstraintCompilationWarning(
                    f"{len(duplicated)} violation(s) registered by more than "
                    f"one constraint (e.g. {set(violation.correspondences)!r} "
                    f"contributed by: {names}); duplicates are compiled once"
                ),
                stacklevel=3,
            )
        universe = frozenset(self.correspondences)
        for constraint in self.constraints:
            referenced = constraint.referenced_correspondences()
            if referenced is None:
                continue
            missing = referenced - universe
            if missing:
                warnings.warn(
                    ConstraintCompilationWarning(
                        f"constraint {constraint.name!r} references "
                        f"{len(missing)} correspondence(s) outside the "
                        f"candidate universe (e.g. {next(iter(missing))!r}); "
                        "the affected exclusions cannot be enforced"
                    ),
                    stacklevel=3,
                )

    # ------------------------------------------------------------------
    # Index-space compilation
    # ------------------------------------------------------------------
    def _compile_index_space(self) -> None:
        n = len(self.correspondences)
        self.n = n
        self.index_of: Mapping[Correspondence, int] = MappingProxyType(
            {corr: i for i, corr in enumerate(self.correspondences)}
        )
        self.bits: tuple[int, ...] = tuple(1 << i for i in range(n))
        self.full_mask: int = (1 << n) - 1

        # Canonical rank per index — repair's deterministic tie-break removes
        # the canonically smallest correspondence, which is not the smallest
        # index (indices follow candidate insertion order).  Sorting on the
        # comparison key builds one tuple per candidate, not two per compare.
        correspondences = self.correspondences
        order = sorted(range(n), key=lambda i: correspondences[i]._key())
        rank = [0] * n
        for position, i in enumerate(order):
            rank[i] = position
        self._rank: tuple[int, ...] = tuple(rank)

        index_of = self.index_of
        vmasks: list[int] = []
        for violation in self.violations:
            vmask = 0
            for corr in violation.correspondences:
                vmask |= 1 << index_of[corr]
            vmasks.append(vmask)
        self.violation_masks: tuple[int, ...] = tuple(vmasks)
        self._vmask_of: dict[Violation, int] = dict(zip(self.violations, vmasks))

        # Per-index split: size-2 violations collapse into one partner mask;
        # larger violations keep their full masks for scanning.
        pair_partners = [0] * n
        large: dict[int, list[int]] = {}
        for vmask in vmasks:
            remaining = vmask
            while remaining:
                bit = remaining & -remaining
                i = bit.bit_length() - 1
                remaining ^= bit
                others = vmask ^ bit
                if others.bit_count() == 1:
                    pair_partners[i] |= others
                else:
                    large.setdefault(i, []).append(vmask)
        self._pair_partners: tuple[int, ...] = tuple(pair_partners)
        self._large_vmasks: tuple[tuple[int, ...], ...] = tuple(
            tuple(large.get(i, ())) for i in range(n)
        )
        # Candidates untouched by any violation can never block (or be
        # blocked by) anything: maximalisation adds them unconditionally and
        # in any order, so kernels treat them wholesale via these masks.
        conflicted = 0
        for vmask in vmasks:
            conflicted |= vmask
        self.conflicted_mask: int = conflicted
        self.conflicted_count: int = conflicted.bit_count()
        self.violation_free_mask: int = self.full_mask & ~conflicted
        # Fused per-index rows for the maximalisation scan: one tuple unpack
        # per tried candidate instead of three separate table hits.
        self._scan_rows: tuple[tuple[int, int, tuple[int, ...]], ...] = tuple(
            (self.bits[i], pair_partners[i], self._large_vmasks[i])
            for i in range(n)
        )
        # Union of every co-member of every violation involving an index:
        # if a selection misses this union entirely, adding the index cannot
        # activate anything — the repair kernel's fast-exit probe.  An index
        # inside a singleton violation (possible for custom constraints)
        # activates regardless of co-members, so its probe is disabled
        # (None) rather than encoded as a mask.
        conflict_union: list[int | None] = list(pair_partners)
        for i in range(n):
            bit = 1 << i
            for vmask in self._large_vmasks[i]:
                if vmask == bit:
                    conflict_union[i] = None
                    break
                conflict_union[i] |= vmask ^ bit
        self._conflict_union: tuple[int | None, ...] = tuple(conflict_union)

        # Row table for the vectorised blocked pre-filter: one row per
        # (violation, member), listing the member index and its co-members
        # padded with the always-true sentinel column n.
        max_others = max((len(v) - 1 for v in self.violations), default=1)
        members: list[int] = []
        others_rows: list[list[int]] = []
        for violation, vmask in zip(self.violations, vmasks):
            member_indices = []
            remaining = vmask
            while remaining:
                bit = remaining & -remaining
                member_indices.append(bit.bit_length() - 1)
                remaining ^= bit
            for i in member_indices:
                row = [j for j in member_indices if j != i]
                row.extend([n] * (max_others - len(row)))
                members.append(i)
                others_rows.append(row)
        self._np_members = np.asarray(members, dtype=np.int32)
        self._np_others = (
            np.asarray(others_rows, dtype=np.int32)
            if others_rows
            else np.empty((0, max_others), dtype=np.int32)
        )
        self._nbytes = max(1, (n + 7) // 8)
        # Lazily built CSR tables for the batched wave maximaliser.
        self._wave_tables: Optional[WaveTables] = None
        # Mask → frozenset memo: the sampler re-discovers the same maximal
        # instances across refills, so the boundary conversion is hit with a
        # small working set of masks.  Bounded to keep giant networks safe.
        self._corrs_cache: dict[int, frozenset[Correspondence]] = {}
        # Byte-sliced decode table, filled lazily: slot b maps a byte value
        # to the tuple of correspondences whose bits it covers, so decoding
        # a mask is ~n/8 dict hits and tuple extends instead of n bit ops.
        self._byte_slots: tuple[dict[int, tuple[Correspondence, ...]], ...] = tuple(
            {} for _ in range(self._nbytes)
        )

    # ------------------------------------------------------------------
    # Mask conversions (module-boundary helpers)
    # ------------------------------------------------------------------
    def mask_of(self, correspondences: Iterable[Correspondence]) -> int:
        """Bitmask of the given correspondences (unknown ones are ignored,
        mirroring how the frozenset API treats non-candidates)."""
        index_of = self.index_of
        mask = 0
        for corr in correspondences:
            i = index_of.get(corr)
            if i is not None:
                mask |= 1 << i
        return mask

    def outside_candidates(
        self, correspondences: Iterable[Correspondence]
    ) -> frozenset[Correspondence]:
        """The members of ``correspondences`` outside the compiled candidate
        set.

        Such correspondences participate in no violation, so the mask space
        cannot (and need not) represent them; every frozenset boundary
        restores them with this helper so the APIs agree on the invariant.
        """
        index_of = self.index_of
        return frozenset(
            corr for corr in correspondences if corr not in index_of
        )

    def corrs_of(self, mask: int) -> frozenset[Correspondence]:
        """The frozenset of correspondences a mask denotes (memoised)."""
        cache = self._corrs_cache
        cached = cache.get(mask)
        if cached is not None:
            return cached
        correspondences = self.correspondences
        byte_slots = self._byte_slots
        out: list[Correspondence] = []
        for slot, byte in enumerate(mask.to_bytes(self._nbytes, "little")):
            if not byte:
                continue
            slot_cache = byte_slots[slot]
            members = slot_cache.get(byte)
            if members is None:
                base = slot << 3
                members = tuple(
                    correspondences[base + position]
                    for position in range(8)
                    if byte & (1 << position)
                )
                slot_cache[byte] = members
            out.extend(members)
        result = frozenset(out)
        if len(cache) >= 1 << 16:
            cache.clear()
        cache[mask] = result
        return result

    def selection_array(self, mask: int) -> np.ndarray:
        """Bool membership vector of length n+1 with a True sentinel at n."""
        raw = np.unpackbits(
            np.frombuffer(mask.to_bytes(self._nbytes, "little"), dtype=np.uint8),
            bitorder="little",
        )
        sel = np.empty(self.n + 1, dtype=bool)
        sel[: self.n] = raw[: self.n]
        sel[self.n] = True
        return sel

    def selection_matrix(self, masks: Sequence[int]) -> np.ndarray:
        """Bool membership rows for a batch of selection masks.

        One ``unpackbits`` over the concatenated little-endian byte images —
        the batched counterpart of :meth:`selection_array`, without its
        sentinel column.
        """
        n = self.n
        count = len(masks)
        if not count:
            return np.zeros((0, n), dtype=bool)
        nbytes = self._nbytes
        buffer = b"".join(m.to_bytes(nbytes, "little") for m in masks)
        bits = np.unpackbits(
            np.frombuffer(buffer, dtype=np.uint8).reshape(count, nbytes),
            axis=1,
            bitorder="little",
        )
        return bits[:, :n].astype(bool)

    def wave_tables(self) -> WaveTables:
        """The (cached) CSR violation tables of the wave maximaliser."""
        if self._wave_tables is None:
            self._wave_tables = self._build_wave_tables()
        return self._wave_tables

    def _build_wave_tables(self) -> WaveTables:
        conflicted = np.asarray(mask_indices(self.conflicted_mask), dtype=np.intp)
        m = len(conflicted)
        compact = {int(full): k for k, full in enumerate(conflicted)}
        # Blocking rows: one (member, padded co-members) row per violation
        # membership, grouped by member.  Width is clamped to ≥1 so that a
        # network whose violations are all singletons still yields rows —
        # all-sentinel ones, vacuously satisfied, i.e. always blocked,
        # exactly the scalar kernel's semantics.
        width = max(max((len(v) - 1 for v in self.violations), default=1), 1)
        by_member: list[list[list[int]]] = [[] for _ in range(m)]
        for vmask in self.violation_masks:
            members = [compact[i] for i in mask_indices(vmask)]
            for a in members:
                row = [b for b in members if b != a]
                row.extend([m] * (width - len(row)))
                by_member[a].append(row)
        blk_rows: list[list[int]] = []
        blk_starts: list[int] = []
        for rows in by_member:
            blk_starts.append(len(blk_rows))
            blk_rows.extend(rows)
        columns = np.asarray(blk_rows, dtype=np.intp).reshape(-1, width)
        owner = np.repeat(
            np.arange(m, dtype=np.intp), [len(rows) for rows in by_member]
        )[:, None]
        # Partner pairs, each once with lo < hi, keyed lo·m + hi; a row's
        # co-member maps to its pair's entry, offset by Q when the member is
        # the pair's hi side, and sentinel co-members to entry 2Q.
        real = columns < m
        keys = np.minimum(owner, columns) * m + np.maximum(owner, columns)
        pairs = np.unique(keys[real])
        q = len(pairs)
        entries = np.where(
            real,
            np.searchsorted(pairs, keys) + np.where(owner < columns, 0, q),
            2 * q,
        )
        return WaveTables(
            conflicted=conflicted,
            pair_lo=pairs // m,
            pair_hi=pairs % m,
            blk_columns=np.ascontiguousarray(columns.T),
            blk_pairs=np.ascontiguousarray(entries.T),
            blk_starts=np.asarray(blk_starts, dtype=np.intp),
        )

    # ------------------------------------------------------------------
    # Mask primitives (hot kernels)
    # ------------------------------------------------------------------
    def mask_is_consistent(self, mask: int) -> bool:
        """Whether the selection denoted by ``mask`` satisfies Γ."""
        for vmask in self.violation_masks:
            if vmask & mask == vmask:
                return False
        return True

    def mask_violations_within(self, mask: int) -> list[int]:
        """Indices (into ``self.violations``) of violations inside ``mask``."""
        return [
            i
            for i, vmask in enumerate(self.violation_masks)
            if vmask & mask == vmask
        ]

    def mask_can_add(self, mask: int, index: int) -> bool:
        """Whether adding candidate ``index`` keeps ``mask`` consistent."""
        if mask & self._pair_partners[index]:
            return False
        large = self._large_vmasks[index]
        if large:
            grown = mask | self.bits[index]
            for vmask in large:
                if vmask & grown == vmask:
                    return False
        return True

    def mask_active_violations(self, mask: int, index: int) -> list[int]:
        """Masks of the violations activated by adding ``index`` to ``mask``.

        ``mask`` is assumed to already contain bit ``index``; callers that
        trust their input to be consistent (the paper's ``repair`` setting)
        get exactly the violations the addition created.
        """
        bit = self.bits[index]
        active: list[int] | None = None
        partners = self._pair_partners[index]
        if partners:
            hits = mask & partners
            if hits:
                active = []
                while hits:
                    b = hits & -hits
                    active.append(bit | b)
                    hits ^= b
        large = self._large_vmasks[index]
        if large:
            found = [vmask for vmask in large if vmask & mask == vmask]
            if found:
                active = found if active is None else active + found
        return active if active is not None else []

    def violation_masks_involving(self, index: int) -> list[int]:
        """Masks of every compiled violation that mentions candidate
        ``index`` (pairs are reconstructed from the partner mask; size-≥3
        and singleton violations come from the per-index large list).

        The static analyser's forced-candidate rule iterates these per
        conflicted candidate; kernels never call it.
        """
        bit = self.bits[index]
        masks: list[int] = []
        partners = self._pair_partners[index]
        while partners:
            b = partners & -partners
            masks.append(bit | b)
            partners ^= b
        masks.extend(self._large_vmasks[index])
        return masks

    def conflict_partner_union(self, index: int) -> int | None:
        """Union mask of every co-member of every violation involving
        ``index``, or ``None`` when a singleton violation refutes the
        candidate outright (no selection is compatible with it).

        The public face of the repair kernel's fast-exit probe: conflict
        repair uses it to count how many of a tentative F⁺'s members
        contest a candidate (``popcount(mask & union)``).
        """
        return self._conflict_union[index]

    def mask_has_live_violation(self, index: int, disapproved: int) -> bool:
        """Whether some violation involving ``index`` could still activate,
        i.e. contains no disapproved member besides possibly ``index``.

        The enumerator's branch pruning uses this: an index whose violations
        are all neutralised by F⁻ belongs to every matching instance.
        """
        bit = self.bits[index]
        if self._pair_partners[index] & ~disapproved:
            return True
        for vmask in self._large_vmasks[index]:
            if not (vmask & ~bit & disapproved):
                return True
        return False

    def mask_is_maximal(self, mask: int, excluded: int = 0) -> bool:
        """Maximality per Definition 1, on masks."""
        avail = self.full_mask & ~mask & ~excluded
        while avail:
            bit = avail & -avail
            if self.mask_can_add(mask, bit.bit_length() - 1):
                return False
            avail ^= bit
        return True

    def blocked_candidates(self, mask: int) -> np.ndarray:
        """Bool vector: candidates whose addition to ``mask`` activates a
        violation (vectorised over every (violation, member) row at once).

        Monotone in ``mask`` — growing the selection only blocks more — so
        ``greedy_maximalize`` can pre-filter against the *initial* selection
        and re-check just the survivors as it adds.
        """
        sel = self.selection_array(mask)
        blocked = np.zeros(self.n, dtype=bool)
        if len(self._np_members):
            hit = sel[self._np_others].all(axis=1)
            blocked[self._np_members[hit]] = True
        return blocked

    # ------------------------------------------------------------------
    # Frozenset API (module boundaries; delegates to the mask primitives)
    # ------------------------------------------------------------------
    def violations_involving(self, corr: Correspondence) -> tuple[Violation, ...]:
        """All compiled violations that mention ``corr``."""
        return tuple(self._involving.get(corr, ()))

    def violations_within(
        self, selection: frozenset[Correspondence] | set[Correspondence]
    ) -> list[Violation]:
        """Violations entirely contained in ``selection``."""
        mask = self.mask_of(selection)
        return [self.violations[i] for i in self.mask_violations_within(mask)]

    def is_consistent(
        self, selection: frozenset[Correspondence] | set[Correspondence]
    ) -> bool:
        """Whether ``selection`` |= Γ."""
        return self.mask_is_consistent(self.mask_of(selection))

    def conflicts_created(
        self,
        selection: frozenset[Correspondence] | set[Correspondence],
        corr: Correspondence,
    ) -> list[Violation]:
        """Violations activated by adding ``corr`` to a consistent selection."""
        index = self.index_of.get(corr)
        if index is None:
            return []
        grown = self.mask_of(selection) | self.bits[index]
        vmask_of = self._vmask_of
        return [
            violation
            for violation in self._involving.get(corr, ())
            if vmask_of[violation] & grown == vmask_of[violation]
        ]

    def can_add(
        self,
        selection: frozenset[Correspondence] | set[Correspondence],
        corr: Correspondence,
    ) -> bool:
        """Whether adding ``corr`` keeps the selection consistent."""
        index = self.index_of.get(corr)
        if index is None:
            return True
        return self.mask_can_add(self.mask_of(selection), index)

    def is_maximal(
        self,
        selection: frozenset[Correspondence] | set[Correspondence],
        excluded: frozenset[Correspondence] | set[Correspondence] = frozenset(),
    ) -> bool:
        """Maximality per Definition 1: no addable candidate outside F⁻."""
        return self.mask_is_maximal(self.mask_of(selection), self.mask_of(excluded))

    def violation_counts(
        self, selection: frozenset[Correspondence] | set[Correspondence]
    ) -> dict[Correspondence, int]:
        """Per-correspondence count of violations inside ``selection``."""
        counts: dict[Correspondence, int] = {}
        for violation in self.violations_within(selection):
            for corr in violation:
                counts[corr] = counts.get(corr, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConstraintEngine({len(self.correspondences)} correspondences, "
            f"{len(self.violations)} minimal violations)"
        )


def default_constraints(max_cycle_length: int = 3) -> tuple[Constraint, ...]:
    """The paper's constraint set Γ: one-to-one plus cycle."""
    return (OneToOneConstraint(), CycleConstraint(max_cycle_length))
