"""Matcher interfaces and the similarity-matrix container.

A *first-line matcher* maps a pair of attributes to a similarity in [0, 1];
running one over two schemas yields a :class:`SimilarityMatrix`.  Second-line
components (ensembles, selectors — see :mod:`repro.matchers.ensemble`)
combine and threshold matrices into candidate correspondences.

The matcher layer is *batch-first*: :meth:`Matcher.similarity_matrix`
computes a whole schema-pair block as one ``numpy`` array, and every
built-in matcher overrides it with a vectorised kernel (see
:mod:`repro.matchers.string_metrics`).  The scalar :meth:`Matcher.similarity`
remains the reference semantics — the default ``similarity_matrix`` wraps it,
so third-party matchers that only implement the scalar method keep working —
and property tests pin each matrix kernel to its scalar counterpart.
"""

from __future__ import annotations

import abc
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..core.correspondence import Correspondence, correspondence
from ..core.schema import Attribute, Schema


class SimilarityMatrix:
    """Dense pairwise similarities between two schemas' attributes.

    Array-backed: scores live in a float64 block indexed by the schemas'
    attribute order (readable via :attr:`scores` for vectorised selectors),
    with an explicit set-mask so that sparsely populated matrices (tests,
    fixtures) keep the historical behaviour of reporting only explicitly
    assigned cells from :meth:`items`/:meth:`pairs_above`/:meth:`__len__`.
    """

    def __init__(self, left: Schema, right: Schema):
        self.left = left
        self.right = right
        self.left_attrs: tuple[Attribute, ...] = tuple(left)
        self.right_attrs: tuple[Attribute, ...] = tuple(right)
        self._row = {attr: i for i, attr in enumerate(self.left_attrs)}
        self._col = {attr: j for j, attr in enumerate(self.right_attrs)}
        shape = (len(self.left_attrs), len(self.right_attrs))
        self._scores = np.zeros(shape, dtype=np.float64)
        self._mask = np.zeros(shape, dtype=bool)

    @classmethod
    def from_array(
        cls, left: Schema, right: Schema, scores: np.ndarray
    ) -> "SimilarityMatrix":
        """Wrap a fully populated score block (every cell counts as set)."""
        matrix = cls(left, right)
        block = np.array(scores, dtype=np.float64, copy=True)
        if block.shape != matrix._scores.shape:
            raise ValueError(
                f"score block shape {block.shape} does not match "
                f"{matrix._scores.shape} for schemas "
                f"{left.name!r} × {right.name!r}"
            )
        if block.size and (
            np.isnan(block).any() or block.min() < 0.0 or block.max() > 1.0
        ):
            raise ValueError("similarity outside [0, 1]")
        matrix._scores = block
        matrix._mask = np.ones(block.shape, dtype=bool)
        return matrix

    @property
    def scores(self) -> np.ndarray:
        """The score block as a read-only float64 view (unset cells are 0)."""
        view = self._scores.view()
        view.flags.writeable = False
        return view

    @property
    def set_mask(self) -> np.ndarray:
        """Read-only boolean view of which cells were explicitly set."""
        view = self._mask.view()
        view.flags.writeable = False
        return view

    def set(self, left_attr: Attribute, right_attr: Attribute, score: float) -> None:
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"similarity {score} outside [0, 1]")
        try:
            row, col = self._row[left_attr], self._col[right_attr]
        except KeyError:
            raise KeyError(
                f"({left_attr}, {right_attr}) is not an attribute pair of "
                f"schemas {self.left.name!r} × {self.right.name!r}"
            ) from None
        self._scores[row, col] = score
        self._mask[row, col] = True

    def get(self, left_attr: Attribute, right_attr: Attribute) -> float:
        row = self._row.get(left_attr)
        col = self._col.get(right_attr)
        if row is None or col is None:
            return 0.0
        return float(self._scores[row, col])

    def items(self) -> Iterator[tuple[tuple[Attribute, Attribute], float]]:
        rows, cols = np.nonzero(self._mask)
        for row, col in zip(rows.tolist(), cols.tolist()):
            yield (
                (self.left_attrs[row], self.right_attrs[col]),
                float(self._scores[row, col]),
            )

    def pairs_above(
        self, threshold: float
    ) -> list[tuple[Attribute, Attribute, float]]:
        """All set attribute pairs whose similarity meets ``threshold``."""
        rows, cols = np.nonzero(self._mask & (self._scores >= threshold))
        return [
            (
                self.left_attrs[row],
                self.right_attrs[col],
                float(self._scores[row, col]),
            )
            for row, col in zip(rows.tolist(), cols.tolist())
        ]

    def to_correspondences(
        self, threshold: float
    ) -> dict[Correspondence, float]:
        """Thresholded conversion into correspondence → confidence."""
        return {
            correspondence(left_attr, right_attr): score
            for left_attr, right_attr, score in self.pairs_above(threshold)
        }

    def __len__(self) -> int:
        return int(self._mask.sum())


class Matcher(abc.ABC):
    """A first-line matcher: attribute-pair similarity in [0, 1]."""

    name: str = "matcher"

    #: The :class:`Attribute` fields this matcher's score is a pure function
    #: of (e.g. ``("name",)``), or ``None`` when unknown.  When set,
    #: :meth:`MatcherPipeline.match_network` reuses one computed score block
    #: for every edge whose schemas project to the same field tuples —
    #: schemas repeat attribute vocabularies heavily in scaled corpora.
    #:
    #: **Every built-in matcher declares this** (name-based matchers via
    #: :class:`CachedMatcher`, type matchers as ``("data_type",)``, and
    #: ensembles derive the union of their members' fields), so the stock
    #: pipelines always take the deduplicated network path; a regression
    #: test pins that.  Third-party matchers default to ``None``, which is
    #: the conservative contract: scores might depend on anything (even the
    #: attribute's schema), so ``match_network`` falls back to one block per
    #: edge with no cross-edge reuse.  Declare the fields your score really
    #: reads to opt back into deduplication — an ensemble regains it only
    #: when *all* of its members declare.
    depends_on: tuple[str, ...] | None = None

    @abc.abstractmethod
    def similarity(self, left: Attribute, right: Attribute) -> float:
        """Similarity of two attributes (the scalar reference semantics)."""

    def similarity_matrix(
        self,
        left_attrs: Sequence[Attribute],
        right_attrs: Sequence[Attribute],
    ) -> np.ndarray:
        """The whole ``len(left) × len(right)`` similarity block at once.

        Built-in matchers override this with vectorised kernels; the default
        wraps the scalar :meth:`similarity` so any matcher that only
        implements the scalar method participates in the batch API.
        """
        return self.similarity_matrix_scalar(left_attrs, right_attrs)

    def similarity_matrix_scalar(
        self,
        left_attrs: Sequence[Attribute],
        right_attrs: Sequence[Attribute],
    ) -> np.ndarray:
        """Reference block implementation: one scalar call per cell.

        Kept public so equivalence tests and benchmarks can compare the
        vectorised path against the per-pair baseline.
        """
        block = np.empty((len(left_attrs), len(right_attrs)), dtype=np.float64)
        for i, left_attr in enumerate(left_attrs):
            for j, right_attr in enumerate(right_attrs):
                block[i, j] = self.similarity(left_attr, right_attr)
        return block

    def match(self, left: Schema, right: Schema) -> SimilarityMatrix:
        """Score every attribute pair of two schemas (batch path)."""
        return SimilarityMatrix.from_array(
            left, right, self.similarity_matrix(left.attributes, right.attributes)
        )


class CachedMatcher(Matcher):
    """Mixin-style base for matchers that depend only on attribute *names*.

    Scalar calls go through a name-pair cache (names repeat heavily across
    the O(n²) schema pairs of a network); the batch path instead dedupes the
    name lists per side and delegates to :meth:`_name_similarity_matrix`,
    which vectorised subclasses override with a block kernel over unique
    names.  The prefix, LCS and Monge-Elkan kernels keep a string-pair cache
    across calls; the word-parallel edit-distance and Jaro-Winkler ones none.
    """

    depends_on = ("name",)

    def __init__(self) -> None:
        self._cache: dict[tuple[str, str], float] = {}

    def similarity(self, left: Attribute, right: Attribute) -> float:
        return self._cached_name_similarity(left.name, right.name)

    def _cached_name_similarity(self, left_name: str, right_name: str) -> float:
        key = (
            (left_name, right_name)
            if left_name <= right_name
            else (right_name, left_name)
        )
        cached = self._cache.get(key)
        if cached is None:
            cached = self._name_similarity(key[0], key[1])
            self._cache[key] = cached
        return cached

    def similarity_matrix(
        self,
        left_attrs: Sequence[Attribute],
        right_attrs: Sequence[Attribute],
    ) -> np.ndarray:
        left_names = [attr.name for attr in left_attrs]
        right_names = [attr.name for attr in right_attrs]
        unique_left = list(dict.fromkeys(left_names))
        unique_right = list(dict.fromkeys(right_names))
        block = np.asarray(
            self._name_similarity_matrix(unique_left, unique_right),
            dtype=np.float64,
        )
        if len(unique_left) == len(left_names) and len(unique_right) == len(
            right_names
        ):
            return block
        left_index = {name: i for i, name in enumerate(unique_left)}
        right_index = {name: j for j, name in enumerate(unique_right)}
        rows = [left_index[name] for name in left_names]
        cols = [right_index[name] for name in right_names]
        return block[np.ix_(rows, cols)]

    def _name_similarity_matrix(
        self, left_names: Sequence[str], right_names: Sequence[str]
    ) -> np.ndarray:
        """Name-level block over (per-side deduplicated) name lists.

        Default: the scalar metric through the name-pair cache.  Vectorised
        matchers override this with a batch kernel.
        """
        block = np.empty((len(left_names), len(right_names)), dtype=np.float64)
        for i, left_name in enumerate(left_names):
            for j, right_name in enumerate(right_names):
                block[i, j] = self._cached_name_similarity(left_name, right_name)
        return block

    @abc.abstractmethod
    def _name_similarity(self, left_name: str, right_name: str) -> float:
        """Similarity of two attribute names (order-canonicalised)."""


def matrix_from_scores(
    left: Schema,
    right: Schema,
    scores: Mapping[tuple[Attribute, Attribute], float],
) -> SimilarityMatrix:
    """Build a matrix from an explicit score mapping (tests, fixtures)."""
    matrix = SimilarityMatrix(left, right)
    for (left_attr, right_attr), score in scores.items():
        matrix.set(left_attr, right_attr, score)
    return matrix
