"""Second-line matching: ensemble aggregation and candidate selection.

COMA++ and AMC — the tools the paper feeds its networks from — are both
*ensembles*: they run several first-line matchers, aggregate the similarity
matrices, and then select attribute pairs from the combined matrix.  This
module provides those two stages: :class:`EnsembleMatcher` with pluggable
aggregation, and a family of selectors (threshold, top-k per attribute,
max-delta, stable marriage).

Both stages are batch-first.  :meth:`EnsembleMatcher.similarity_matrix`
stacks the members' score blocks and aggregates them with numpy (the three
built-in aggregations ship closed-form array kernels; custom callables can
supply one through :func:`register_aggregator`, and unregistered ones fall
back to per-cell application with a one-time warning), and every selector
reduces the matrix's score array directly — ``argpartition``-style row
sorts and row/column max reductions instead of per-pair Python
dictionaries.  The scalar paths are kept as the reference semantics the
array paths are pinned against.
"""

from __future__ import annotations

import abc
import warnings
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.correspondence import Correspondence, correspondence
from ..core.schema import Attribute, Schema
from .base import Matcher, SimilarityMatrix

Aggregation = Callable[[Sequence[float], Sequence[float]], float]


def weighted_average(scores: Sequence[float], weights: Sequence[float]) -> float:
    """Σ wᵢsᵢ / Σ wᵢ — COMA's default aggregation."""
    total_weight = sum(weights)
    if total_weight == 0.0:
        return 0.0
    return sum(s * w for s, w in zip(scores, weights)) / total_weight


def maximum(scores: Sequence[float], weights: Sequence[float]) -> float:
    """max sᵢ — optimistic aggregation."""
    return max(scores) if scores else 0.0


def harmonic_mean(scores: Sequence[float], weights: Sequence[float]) -> float:
    """Harmonic mean; punishes disagreement between matchers."""
    if not scores or any(s == 0.0 for s in scores):
        return 0.0
    return len(scores) / sum(1.0 / s for s in scores)


def _weighted_average_blocks(blocks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    total_weight = weights.sum()
    if total_weight == 0.0:
        return np.zeros(blocks.shape[1:], dtype=np.float64)
    return np.tensordot(weights, blocks, axes=1) / total_weight


def _maximum_blocks(blocks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return blocks.max(axis=0)


def _harmonic_mean_blocks(blocks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    any_zero = (blocks == 0.0).any(axis=0)
    with np.errstate(divide="ignore"):
        combined = len(blocks) / np.where(
            any_zero, np.inf, (1.0 / np.where(blocks == 0.0, 1.0, blocks)).sum(axis=0)
        )
    return np.where(any_zero, 0.0, combined)


#: The array-kernel signature: (stacked member blocks of shape
#: ``(members, rows, cols)``, weights of shape ``(members,)``) → combined
#: ``(rows, cols)`` block.
BlockAggregation = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Array kernels for the registered aggregations, keyed by the scalar
#: function object; unregistered (custom) aggregations fall back to
#: per-cell application of the scalar callable (and warn once).
_BLOCK_AGGREGATIONS: dict[Aggregation, BlockAggregation] = {
    weighted_average: _weighted_average_blocks,
    maximum: _maximum_blocks,
    harmonic_mean: _harmonic_mean_blocks,
}

#: Custom aggregations already warned about, so the per-cell fallback nags
#: exactly once per callable, not once per schema pair.
_FALLBACK_WARNED: set[Aggregation] = set()


def register_aggregator(
    aggregation: Aggregation, block_kernel: BlockAggregation
) -> BlockAggregation:
    """Register an array kernel for a custom aggregation callable.

    ``EnsembleMatcher.similarity_matrix`` aggregates the members' stacked
    score blocks with the kernel registered for its ``aggregation``; a
    callable without one falls back to applying the scalar aggregation per
    cell — O(rows × cols) Python calls per schema pair, easily the slowest
    part of a network match — and warns once.  ``block_kernel`` receives the
    ``(members, rows, cols)`` score stack plus the weight vector and must
    return the combined ``(rows, cols)`` block; results are clipped to
    [0, 1] by the caller, mirroring the scalar path.  The registration is
    process-wide and keyed on the callable object itself.  Returns
    ``block_kernel`` so it can double as a decorator.
    """
    if not callable(aggregation) or not callable(block_kernel):
        raise TypeError("register_aggregator takes two callables")
    _BLOCK_AGGREGATIONS[aggregation] = block_kernel
    _FALLBACK_WARNED.discard(aggregation)
    return block_kernel


def _warn_slow_aggregation(aggregation: Aggregation) -> None:
    if aggregation in _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED.add(aggregation)
    name = getattr(aggregation, "__name__", repr(aggregation))
    warnings.warn(
        f"ensemble aggregation {name!r} has no registered array kernel; "
        "falling back to per-cell Python aggregation (register one with "
        "repro.matchers.ensemble.register_aggregator)",
        RuntimeWarning,
        stacklevel=3,
    )


class EnsembleMatcher(Matcher):
    """Combine several first-line matchers into one similarity score.

    Scalar results are cached by attribute name and declared type: attribute
    names repeat heavily across the O(n²) schema pairs of a network, so the
    cache collapses most of the repeated metric work.  The batch path needs
    no cache — it stacks the members' vectorised blocks and aggregates them
    as one array operation.
    """

    name = "ensemble"

    def __init__(
        self,
        matchers: Sequence[Matcher],
        weights: Optional[Sequence[float]] = None,
        aggregation: Aggregation = weighted_average,
    ):
        if not matchers:
            raise ValueError("an ensemble needs at least one matcher")
        self.matchers = tuple(matchers)
        if weights is None:
            weights = [1.0] * len(self.matchers)
        if len(weights) != len(self.matchers):
            raise ValueError("one weight per matcher required")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        self.weights = tuple(weights)
        self.aggregation = aggregation
        self._cache: dict[tuple, float] = {}
        member_fields = [m.depends_on for m in self.matchers]
        if any(fields is None for fields in member_fields):
            self.depends_on = None
        else:
            self.depends_on = tuple(
                sorted({field for fields in member_fields for field in fields})
            )

    def similarity(self, left: Attribute, right: Attribute) -> float:
        left_key = (left.name, left.data_type)
        right_key = (right.name, right.data_type)
        # Canonicalise the unordered pair; None types sort as "" (members
        # are symmetric, so either orientation yields the same score).
        if (left_key[0], left_key[1] or "") <= (right_key[0], right_key[1] or ""):
            key = (left_key, right_key)
        else:
            key = (right_key, left_key)
        cached = self._cache.get(key)
        if cached is None:
            scores = [m.similarity(left, right) for m in self.matchers]
            cached = min(1.0, max(0.0, self.aggregation(scores, self.weights)))
            self._cache[key] = cached
        return cached

    def similarity_matrix(
        self,
        left_attrs: Sequence[Attribute],
        right_attrs: Sequence[Attribute],
    ) -> np.ndarray:
        """Aggregate the members' stacked score blocks as array ops.

        Each member block goes straight into one preallocated stack (of the
        dtype ``np.stack`` would give); no list of blocks is held beside it.
        """
        blocks = None
        for k, member in enumerate(self.matchers):
            block = np.asarray(member.similarity_matrix(left_attrs, right_attrs))
            if blocks is None:
                blocks = np.empty((len(self.matchers), *block.shape), block.dtype)
            blocks = blocks.astype(np.result_type(blocks, block), copy=False)
            blocks[k] = block
        weights = np.asarray(self.weights, dtype=np.float64)
        kernel = _BLOCK_AGGREGATIONS.get(self.aggregation)
        if kernel is not None:
            combined = kernel(blocks, weights)
        else:
            _warn_slow_aggregation(self.aggregation)
            combined = np.empty(blocks.shape[1:], dtype=np.float64)
            for i in range(combined.shape[0]):
                for j in range(combined.shape[1]):
                    combined[i, j] = self.aggregation(
                        blocks[:, i, j].tolist(), self.weights
                    )
        return np.clip(combined, 0.0, 1.0)

    def fit(self, schemas: Sequence["Schema"]) -> "EnsembleMatcher":
        """Fit every corpus-dependent member matcher (e.g. TF-IDF)."""
        for member in self.matchers:
            fit = getattr(member, "fit", None)
            if callable(fit):
                fit(schemas)
        self._cache.clear()
        return self


def _attribute_ranks(attrs: Sequence[Attribute]) -> np.ndarray:
    """Rank of each attribute under the ``(schema, name)`` sort order.

    The scalar selectors break score ties by comparing :class:`Attribute`
    objects; the array selectors reproduce that exactly by sorting on these
    precomputed ranks.
    """
    order = sorted(range(len(attrs)), key=lambda i: attrs[i])
    ranks = np.empty(len(attrs), dtype=np.int64)
    for rank, index in enumerate(order):
        ranks[index] = rank
    return ranks


class Selector(abc.ABC):
    """Extracts candidate correspondences from a similarity matrix."""

    name: str = "selector"

    @abc.abstractmethod
    def select(self, matrix: SimilarityMatrix) -> dict[Correspondence, float]:
        """Chosen correspondences with their confidence values."""


class ThresholdSelector(Selector):
    """Every pair at or above a fixed similarity threshold."""

    name = "threshold"

    def __init__(self, threshold: float = 0.5):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        self.threshold = threshold

    def select(self, matrix: SimilarityMatrix) -> dict[Correspondence, float]:
        return matrix.to_correspondences(self.threshold)


class TopKSelector(Selector):
    """The k best partners per attribute (both directions), above a floor.

    Deliberately produces one-to-one violations when k > 1 — exactly the
    noisy output reconciliation has to clean up.  Ties are broken by
    attribute order, matching the scalar reference: partners are ranked by
    ``(-score, partner)``.
    """

    name = "top-k"

    def __init__(self, k: int = 2, threshold: float = 0.3):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self.threshold = threshold

    def _directed(
        self,
        chosen: dict[Correspondence, float],
        scores: np.ndarray,
        eligible: np.ndarray,
        row_attrs: Sequence[Attribute],
        col_attrs: Sequence[Attribute],
    ) -> None:
        """Add each row's top-k eligible partners to ``chosen``."""
        if scores.size == 0:
            return
        col_ranks = _attribute_ranks(col_attrs)
        # Primary key: score descending (ineligible cells sink to the end);
        # secondary key: partner attribute order — np.lexsort's last key is
        # the primary one, and each row is sorted independently.
        sort_scores = np.where(eligible, scores, -np.inf)
        order = np.lexsort(
            (np.broadcast_to(col_ranks, scores.shape), -sort_scores), axis=1
        )
        counts = np.minimum(eligible.sum(axis=1), self.k)
        for i, row_attr in enumerate(row_attrs):
            for j in order[i, : counts[i]].tolist():
                chosen[correspondence(row_attr, col_attrs[j])] = float(
                    scores[i, j]
                )

    def select(self, matrix: SimilarityMatrix) -> dict[Correspondence, float]:
        scores = matrix.scores
        eligible = matrix.set_mask & (scores >= self.threshold)
        chosen: dict[Correspondence, float] = {}
        self._directed(
            chosen, scores, eligible, matrix.left_attrs, matrix.right_attrs
        )
        self._directed(
            chosen, scores.T, eligible.T, matrix.right_attrs, matrix.left_attrs
        )
        return chosen


class MaxDeltaSelector(Selector):
    """Pairs within ``delta`` of each attribute's best score (COMA-style)."""

    name = "max-delta"

    def __init__(self, delta: float = 0.1, threshold: float = 0.3):
        if delta < 0.0:
            raise ValueError("delta must be non-negative")
        self.delta = delta
        self.threshold = threshold

    def select(self, matrix: SimilarityMatrix) -> dict[Correspondence, float]:
        scores = matrix.scores
        mask = matrix.set_mask
        if not mask.any():
            return {}
        masked = np.where(mask, scores, -np.inf)
        best_left = masked.max(axis=1)
        best_right = masked.max(axis=0)
        keep = (
            mask
            & (scores >= self.threshold)
            & (
                (scores >= best_left[:, None] - self.delta)
                | (scores >= best_right[None, :] - self.delta)
            )
        )
        rows, cols = np.nonzero(keep)
        left_attrs, right_attrs = matrix.left_attrs, matrix.right_attrs
        return {
            correspondence(left_attrs[i], right_attrs[j]): float(scores[i, j])
            for i, j in zip(rows.tolist(), cols.tolist())
        }


class StableMarriageSelector(Selector):
    """A greedy one-to-one extraction (highest scores first).

    Produces a violation-free (w.r.t. one-to-one) matching per schema pair;
    useful as the "clean" extreme when studying how much network constraints
    matter.  Candidates are ranked by ``(-score, left, right)`` — the array
    path extracts and sorts them with one ``lexsort``; only the (short)
    greedy pass remains sequential.
    """

    name = "stable-marriage"

    def __init__(self, threshold: float = 0.3):
        self.threshold = threshold

    def select(self, matrix: SimilarityMatrix) -> dict[Correspondence, float]:
        scores = matrix.scores
        eligible = matrix.set_mask & (scores >= self.threshold)
        rows, cols = np.nonzero(eligible)
        if rows.size == 0:
            return {}
        left_ranks = _attribute_ranks(matrix.left_attrs)
        right_ranks = _attribute_ranks(matrix.right_attrs)
        values = scores[rows, cols]
        order = np.lexsort((right_ranks[cols], left_ranks[rows], -values))
        used_left: set[int] = set()
        used_right: set[int] = set()
        chosen: dict[Correspondence, float] = {}
        left_attrs, right_attrs = matrix.left_attrs, matrix.right_attrs
        for index in order.tolist():
            i, j = int(rows[index]), int(cols[index])
            if i in used_left or j in used_right:
                continue
            used_left.add(i)
            used_right.add(j)
            chosen[correspondence(left_attrs[i], right_attrs[j])] = float(
                values[index]
            )
        return chosen


def match_pair(
    left: Schema,
    right: Schema,
    matcher: Matcher,
    selector: Selector,
) -> dict[Correspondence, float]:
    """Run one matcher+selector over a schema pair."""
    return selector.select(matcher.match(left, right))
