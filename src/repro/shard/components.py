"""Violation-graph connected components and shard planning.

The constraint structure of a matching network factorises over the
connected components of its *violation graph* — the graph whose vertices
are candidate correspondences and whose (hyper)edges are the engine's
minimal violations.  Two candidates in different components never share a
constraint, so the instance space is a product space: a maximal
consistent selection of the whole network is exactly one maximal
consistent selection per component (plus every violation-free candidate,
which belongs to all instances).  That factorisation is what makes
shard-local probability estimates *exact* rather than approximate — the
differential suite in ``tests/test_shard_equivalence.py`` pins it.

This module computes the components in the engine's int-bitmask index
space; each one is a shard of the deterministic :class:`ShardPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.constraints import ConstraintEngine, mask_indices
from ..core.network import MatchingNetwork

__all__ = [
    "ShardPlan",
    "shard_plan",
    "shard_plan_delta",
    "violation_components",
]


def violation_components(engine: ConstraintEngine) -> list[int]:
    """Connected components of the violation graph, as candidate bitmasks.

    Every minimal violation connects all its members, so the components
    are the transitive closure of mask overlap: each returned mask is a
    maximal union of violation masks reachable from one another through
    shared candidates.  Violation-free candidates belong to *no*
    component (they are the plan's ``free`` set).  The result is sorted
    by lowest set bit, i.e. by each component's smallest candidate index,
    so the decomposition is deterministic for a given engine.
    """
    components: list[int] = []
    for vmask in engine.violation_masks:
        merged = vmask
        disjoint: list[int] = []
        for component in components:
            if component & merged:
                merged |= component
            else:
                disjoint.append(component)
        disjoint.append(merged)
        components = disjoint
    components.sort(key=lambda mask: mask & -mask)
    return components


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of the candidate index space.

    ``shards`` holds one tuple of ascending global engine indices per
    violation-graph component, so the product-space factorisation holds
    shard-by-shard.  ``free`` holds the violation-free candidate indices:
    they participate in no constraint, appear in every matching instance,
    and therefore need no shard (their probability is exactly 1 unless
    disapproved).
    """

    shards: tuple[tuple[int, ...], ...]
    free: tuple[int, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def sizes(self) -> tuple[int, ...]:
        """Per-shard candidate counts (diagnostics and balance checks)."""
        return tuple(len(indices) for indices in self.shards)


def shard_plan(network: MatchingNetwork) -> ShardPlan:
    """Plan the shard decomposition of ``network``: one shard per
    violation-graph component, in component order — the finest exact
    decomposition."""
    engine = network.engine
    return ShardPlan(
        shards=tuple(
            tuple(mask_indices(mask)) for mask in violation_components(engine)
        ),
        free=tuple(mask_indices(engine.violation_free_mask)),
    )


def shard_plan_delta(
    old_plan: ShardPlan, result
) -> tuple[ShardPlan, dict[int, int]]:
    """Re-plan after a :class:`~repro.core.delta.DeltaResult` and say
    which shards carried over.

    Returns ``(plan, carried)`` where ``plan`` is exactly
    ``shard_plan(result.network)`` — the authoritative
    decomposition that :meth:`ShardedSampleStore.from_state` will
    recompute on restore, so the delta path must agree with it bit for
    bit — and ``carried`` maps *new* shard position → *old* shard
    position for every shard whose candidate set is an untouched image
    of an old shard.

    A new shard carries over iff its index tuple equals an old shard's
    indices remapped through ``result.index_map``.  That equality alone
    implies the shard is untouched: every *new* violation involves an
    added candidate (the delta locality contract), added indices appear
    in no remapped old shard, and a new violation intersecting the shard
    would have pulled the added index into its component — changing the
    tuple.  Likewise all the old shard's members survived (the remap is
    total on it), so no violation inside it lost a member.  The carried
    shard's violation structure, sample space and conditioning are
    therefore *identical*, and the store layer may keep its live
    engine + store + RNG objects verbatim.
    """
    plan = shard_plan(result.network)
    index_map = result.index_map
    carried_lookup: dict[tuple[int, ...], int] = {}
    for old_position, indices in enumerate(old_plan.shards):
        remapped = tuple(
            index_map[index] for index in indices if index in index_map
        )
        if len(remapped) == len(indices):
            carried_lookup[remapped] = old_position
    carried = {
        new_position: carried_lookup[indices]
        for new_position, indices in enumerate(plan.shards)
        if indices in carried_lookup
    }
    return plan, carried
