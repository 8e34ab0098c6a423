"""Network uncertainty and information gain (paper Section IV).

Network uncertainty is the Shannon entropy of the per-correspondence
inclusion indicators (Equation 3, log base 2 — the base Example 1 implies).
Information gain (Equations 4–5) is the expected entropy drop from asserting
one correspondence; we estimate the conditional entropies from the sample
multiset by partitioning it on membership of the assessed correspondence,
which costs no additional sampling.  On a space that factorises into
independent components, asserting a correspondence partitions only its own
component's samples, so the gains are reduced factor by factor.
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


def information_gain_factors(
    factors: Sequence[tuple],
    width: int,
    columns: np.ndarray,
) -> np.ndarray:
    """Batched IG for the target ``columns`` of a factorised instance space.

    The space is Ω = ∏ Ω_f × {columns in no factor}.  Each factor is a
    tuple ``(columns, matrix[, counts])``: its ascending global columns,
    its sample-membership matrix (rows = the factor's samples, columns
    aligned to those globals; boolean or 0/1 floats, which give the same
    gains bit for bit) and optionally its per-column sample counts (int64,
    e.g. :meth:`~repro.core.sampling.SampleStore.compact_counts`), which
    are otherwise recounted from the matrix.  A column in no factor is
    certain, and ``width`` is the size of the global index.  An unsharded
    store is one factor over its conflicted columns: its free columns are
    constant over Ω*, hence certain.

    Asserting a target conditions its own factor only, so its partition
    counts come from one co-occurrence product ``Mᵀ[targets] @ M`` over
    that factor's live columns: row *t* holds, for each of them, the
    number of samples containing both *t* and the column — the positive
    partition (the negative one is its complement against the factor's
    counts).  The product runs in float32 when the factor has fewer than
    2²⁴ rows: every partial sum is an integer no larger than the row
    count, so it is exact in either precision.  Each side's entropies are
    gathered in one take through a table with one row per distinct
    partition size of the call, ``H_b(k/size)`` for k = 0..|Ω*_f|
    (:func:`_entropy_table` rows, zero-padded) — bounded by the distinct
    sizes, not by (|Ω*_f|+1)².  Every other factor's live columns keep
    their unconditioned entropies.  Each H⁺ and H⁻ row is summed whole
    over all live columns in ascending order, and every frequency is the
    same rational ``k/d`` as in the ∏|Ω_f|-row product matrix, so the
    gains are the floats that matrix would give without ever building it.
    """
    columns = np.asarray(columns, dtype=np.intp)
    gains = np.zeros(len(columns), dtype=np.float64)
    if not len(columns):
        return gains
    # Only *live* columns — neither absent from nor present in every sample
    # of their factor — carry entropy (H_b is 0 at counts 0 and |Ω*_f|, on
    # both sides of any partition), so the row sums run on them alone.
    entropy = np.zeros(width, dtype=np.float64)
    is_live = np.zeros(width, dtype=bool)
    owner = np.zeros(width, dtype=np.intp)
    local = np.zeros(width, dtype=np.intp)
    summaries = []
    for index, (factor_columns, matrix, *cached) in enumerate(factors):
        matrix = np.asarray(matrix)
        total = int(matrix.shape[0])
        if total == 0:
            return gains  # one empty factor empties the whole space
        counts = cached[0] if cached else matrix.sum(axis=0, dtype=np.int64)
        live = np.flatnonzero((counts > 0) & (counts < total))
        entropy[factor_columns[live]] = _entropy_table(total)[counts[live]]
        is_live[factor_columns[live]] = True
        owner[factor_columns] = index
        local[factor_columns] = np.arange(len(factor_columns))
        summaries.append((factor_columns, matrix, total, counts, live))
    current_uncertainty = float(entropy.sum())
    live_columns = np.flatnonzero(is_live)
    baseline = entropy[live_columns]

    # A target is informative (both partitions non-empty) iff it is live.
    targets = np.flatnonzero(is_live[columns])
    target_owner = owner[columns[targets]]
    for index in np.unique(target_owner).tolist():
        factor_columns, matrix, total, counts, live = summaries[index]
        mine = targets[target_owner == index]
        local_targets = local[columns[mine]]
        n_with = counts[local_targets]
        # Targets are live, so the product runs on the live columns alone.
        dense = matrix[:, live].astype(
            np.float32 if total < 1 << 24 else np.float64
        )
        positions = np.searchsorted(live, local_targets)
        plus = (dense[:, positions].T @ dense).astype(np.intp)
        # One zero-padded table row per distinct partition size; each side
        # reads it through flat indices, row offset + count.
        sizes = np.unique(np.concatenate((n_with, total - n_with)))
        table = np.zeros((len(sizes), total + 1), dtype=np.float64)
        for row, size in enumerate(sizes.tolist()):
            table[row, : size + 1] = _entropy_table(size)
        table = table.ravel()
        minus = counts[live] + (
            np.searchsorted(sizes, total - n_with) * (total + 1)
        )[:, None]
        minus -= plus
        plus += (np.searchsorted(sizes, n_with) * (total + 1))[:, None]
        # Where the factor's live columns sit among all live columns; a
        # factor holding every live column (one factor) sums its own
        # conditioned entropies directly, any other fills the rest of each
        # row with the other factors' unconditioned entropies.
        slots = np.searchsorted(live_columns, factor_columns[live])
        entropies = []
        for flat in (plus, minus):
            block = np.take(table, flat)
            if len(slots) < len(live_columns):
                whole = np.tile(baseline, (len(mine), 1))
                whole[:, slots] = block
                block = whole
            entropies.append(block.sum(axis=1))
        p = n_with / total
        conditional = p * entropies[0] + (1.0 - p) * entropies[1]
        gains[mine] = np.maximum(0.0, current_uncertainty - conditional)
    return gains


def information_gain_array(
    matrix: np.ndarray,
    columns: np.ndarray,
) -> np.ndarray:
    """Batched IG for the target ``columns`` of a sample-membership matrix.

    The one-factor case of :func:`information_gain_factors`, and the array
    core behind :func:`information_gains`; the selection strategy reads
    the same reduction, so the gain floats (and hence argmax tie-breaks)
    are bit-for-bit identical no matter which API computed them.
    """
    width = int(matrix.shape[1])
    return information_gain_factors(
        [(np.arange(width), matrix)], width, columns
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
