"""Network uncertainty and information gain (paper Section IV).

Network uncertainty is the Shannon entropy of the per-correspondence
inclusion indicators (Equation 3, log base 2 — the base Example 1 implies).
Information gain (Equations 4–5) is the expected entropy drop from asserting
one correspondence; we estimate the conditional entropies from the sample
multiset by partitioning it on membership of the assessed correspondence,
which costs no additional sampling.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .correspondence import Correspondence


def binary_entropy(p: float) -> float:
    """Entropy (bits) of a Bernoulli(p) variable; 0 at the endpoints."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


#: Memo for :func:`binary_entropy_cached`.  Sampled probabilities are ratios
#: ``k / |Ω*|``, so a session sees only a few hundred distinct values; the
#: memo turns the per-step entropy reduction into dict hits while keeping the
#: scalar ``math.log2`` semantics bit-for-bit (``np.log2`` disagrees with
#: ``math.log2`` in the last ulp for ~0.2% of inputs, which would break
#: trace parity with the scalar reference loop).
_ENTROPY_MEMO: dict[float, float] = {}


def binary_entropy_cached(p: float) -> float:
    """Memoised :func:`binary_entropy` — identical values, amortised cost."""
    h = _ENTROPY_MEMO.get(p)
    if h is None:
        if len(_ENTROPY_MEMO) >= 1 << 16:
            _ENTROPY_MEMO.clear()
        h = binary_entropy(p)
        _ENTROPY_MEMO[p] = h
    return h


def network_uncertainty(probabilities: Mapping[Correspondence, float]) -> float:
    """H(C, P) = Σ_c H_b(p_c) (Equation 3)."""
    return sum(binary_entropy(p) for p in probabilities.values())


def network_uncertainty_vector(probabilities: np.ndarray) -> float:
    """H(C, P) over a probability *vector* (the loop's hot representation).

    Bit-for-bit equal to ``network_uncertainty`` over a mapping with the
    same values in the same order: per-element entropies come from the
    scalar (memoised) ``binary_entropy`` and are accumulated left-to-right,
    exactly like the ``sum`` in the mapping path.
    """
    return sum(map(binary_entropy_cached, probabilities.tolist()))


def probabilities_from_samples(
    samples: Sequence[frozenset[Correspondence]],
    correspondences: Iterable[Correspondence],
) -> dict[Correspondence, float]:
    """Per-correspondence sample frequencies over an arbitrary multiset."""
    correspondences = tuple(correspondences)
    if not samples:
        return {corr: 0.0 for corr in correspondences}
    counts = {corr: 0 for corr in correspondences}
    for sample in samples:
        for corr in sample:
            if corr in counts:
                counts[corr] += 1
    total = len(samples)
    return {corr: count / total for corr, count in counts.items()}


def conditional_uncertainty(
    corr: Correspondence,
    samples: Sequence[frozenset[Correspondence]],
    correspondences: Iterable[Correspondence],
    probability: Optional[float] = None,
) -> float:
    """H(C | c, P) (Equation 4), estimated by partitioning the samples.

    The sample multiset is split into the samples containing ``corr``
    (the approval posterior P⁺) and those not containing it (the
    disapproval posterior P⁻); each side's entropy is weighted by p_c.
    """
    correspondences = tuple(correspondences)
    with_corr = [s for s in samples if corr in s]
    without_corr = [s for s in samples if corr not in s]
    if probability is None:
        probability = len(with_corr) / len(samples) if samples else 0.0
    entropy_plus = network_uncertainty(
        probabilities_from_samples(with_corr, correspondences)
    ) if with_corr else 0.0
    entropy_minus = network_uncertainty(
        probabilities_from_samples(without_corr, correspondences)
    ) if without_corr else 0.0
    return probability * entropy_plus + (1.0 - probability) * entropy_minus


def information_gain(
    corr: Correspondence,
    samples: Sequence[frozenset[Correspondence]],
    correspondences: Iterable[Correspondence],
    current_uncertainty: Optional[float] = None,
    probability: Optional[float] = None,
) -> float:
    """IG(c) = H(C, P) − H(C | c, P) (Equation 5), clamped at zero.

    Sampling noise can make the estimate marginally negative; information
    gain is non-negative in expectation, so we clamp.
    """
    correspondences = tuple(correspondences)
    if current_uncertainty is None:
        current_uncertainty = network_uncertainty(
            probabilities_from_samples(samples, correspondences)
        )
    conditional = conditional_uncertainty(
        corr, samples, correspondences, probability=probability
    )
    return max(0.0, current_uncertainty - conditional)


def sample_matrix(
    samples: Sequence[frozenset[Correspondence]],
    correspondences: Sequence[Correspondence],
) -> np.ndarray:
    """Boolean membership matrix: rows = samples, columns = correspondences."""
    index = {corr: i for i, corr in enumerate(correspondences)}
    matrix = np.zeros((len(samples), len(correspondences)), dtype=bool)
    for row, sample in enumerate(samples):
        for corr in sample:
            column = index.get(corr)
            if column is not None:
                matrix[row, column] = True
    return matrix


#: Cache for :func:`_entropy_table`: denominator → H_b(k/d) lookup vector.
_ENTROPY_TABLES: dict[int, np.ndarray] = {}


def _entropy_table(denominator: int) -> np.ndarray:
    """H_b(k/d) for k = 0..d — sample-frequency entropies by *count*.

    Every probability the sample store produces is a ratio of small
    integers, so the transcendental work collapses to one table per
    distinct denominator (cached across calls) and entropy reductions
    become integer gathers.
    """
    table = _ENTROPY_TABLES.get(denominator)
    if table is None:
        if len(_ENTROPY_TABLES) >= 4096:
            _ENTROPY_TABLES.clear()
        p = np.arange(denominator + 1, dtype=np.float64) / denominator
        interior = p[1:-1]
        table = np.zeros(denominator + 1, dtype=np.float64)
        table[1:-1] = -(
            interior * np.log2(interior)
            + (1.0 - interior) * np.log2(1.0 - interior)
        )
        table.setflags(write=False)
        _ENTROPY_TABLES[denominator] = table
    return table


def _entropy_rows_from_counts(
    counts: np.ndarray, denominators: np.ndarray
) -> np.ndarray:
    """Row-wise Σ H_b(count/denominator) via the per-denominator tables.

    ``counts`` is an integer matrix (one row per target partition),
    ``denominators`` the per-row partition size; rows with a zero
    denominator yield 0 (their partition is empty, hence entropy-free).
    """
    out = np.zeros(counts.shape[0], dtype=np.float64)
    for denominator in np.unique(denominators).tolist():
        if denominator <= 0:
            continue
        rows = np.flatnonzero(denominators == denominator)
        table = _entropy_table(int(denominator))
        out[rows] = table[counts[rows]].sum(axis=1)
    return out


def information_gain_array(
    matrix: np.ndarray,
    columns: np.ndarray,
) -> np.ndarray:
    """Batched IG for the target ``columns`` of a sample-membership matrix.

    This is the array core behind :func:`information_gains` and the
    information-gain selection strategy; both funnel through it so the gain
    floats (and hence argmax tie-breaks) are bit-for-bit identical no matter
    which API computed them.  All per-target partition counts come from one
    co-occurrence product ``Mᵀ[targets] @ M``: row *t* holds, for every
    candidate, the number of samples containing both *t* and the candidate —
    exactly the positive-partition count vector (the negative partition is
    its complement against the global counts).
    """
    total = int(matrix.shape[0])
    if total == 0 or len(columns) == 0:
        return np.zeros(len(columns), dtype=np.float64)
    dense = np.asarray(matrix, dtype=np.float64)  # no copy when already f64
    counts = dense.sum(axis=0)
    counts_int = counts.astype(np.int64)
    current_uncertainty = float(_entropy_table(total)[counts_int].sum())

    # Only *live* columns — neither absent from nor present in every sample —
    # can contribute entropy to either partition (a global count of 0 or
    # |Ω*| stays 0 or partition-size on both sides, and H_b is then 0), so
    # the co-occurrence product and the entropy gathers run on them alone.
    live = np.flatnonzero((counts_int > 0) & (counts_int < total))
    n_with = counts_int[columns]
    n_without = total - n_with
    informative = (n_with > 0) & (n_without > 0)
    if not len(live) or not informative.any():
        return np.zeros(len(columns), dtype=np.float64)

    cooccurrence = (dense[:, columns].T @ dense[:, live]).astype(np.int64)
    entropy_plus = _entropy_rows_from_counts(cooccurrence, n_with)
    entropy_minus = _entropy_rows_from_counts(
        counts_int[live][None, :] - cooccurrence, n_without
    )
    p = counts[columns] / total
    conditional = p * entropy_plus + (1.0 - p) * entropy_minus
    return np.where(
        informative, np.maximum(0.0, current_uncertainty - conditional), 0.0
    )


def information_gains(
    samples: Sequence[frozenset[Correspondence]],
    correspondences: Iterable[Correspondence],
    restrict_to: Optional[Iterable[Correspondence]] = None,
    matrix: Optional[np.ndarray] = None,
) -> dict[Correspondence, float]:
    """IG for every (or a restricted set of) correspondence, vectorised.

    Pass ``matrix`` (a boolean sample-membership matrix with columns aligned
    to ``correspondences``, e.g. :meth:`SampleStore.matrix`) to skip
    re-densifying the frozenset samples — the selection loop does this on
    every step; ``samples`` is then ignored and may be empty.  All per-target partition counts come from one co-occurrence
    product ``Mᵀ[targets] @ M``: row *t* holds, for every candidate, the
    number of samples containing both *t* and the candidate, which is
    exactly the positive-partition count vector (and the negative partition
    is its complement against the global counts).  Overall cost is one
    (|targets| × |samples|) · (|samples| × |C|) matrix product plus
    elementwise entropy reductions — no Python-level per-target loop.
    """
    correspondences = tuple(correspondences)
    targets = tuple(restrict_to) if restrict_to is not None else correspondences
    if matrix is None:
        matrix = sample_matrix(samples, correspondences)
    total = int(matrix.shape[0])
    gains: dict[Correspondence, float] = {corr: 0.0 for corr in targets}
    if total == 0 or not targets:
        return gains

    column_of = {corr: i for i, corr in enumerate(correspondences)}
    target_columns = [column_of.get(target) for target in targets]
    valid = [p for p, column in enumerate(target_columns) if column is not None]
    if not valid:
        return gains
    columns = np.asarray([target_columns[p] for p in valid], dtype=np.intp)
    gain_values = information_gain_array(matrix, columns)
    for position, value in zip(valid, gain_values.tolist()):
        gains[targets[position]] = value
    return gains
