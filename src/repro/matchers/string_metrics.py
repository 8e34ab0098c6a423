"""String similarity metrics, implemented from scratch.

These are the classic first-line measures schema matchers are built from
(cf. the COMA and AMC matcher libraries the paper uses): edit distance,
Jaro/Jaro-Winkler, q-grams, token-set overlap, longest common substring and
Monge-Elkan.  All similarity functions are symmetric and map into [0, 1]
with 1 meaning identical.

Two implementations coexist on purpose.  The scalar functions in the first
half of the module are the *reference* semantics; the ``*_matrix`` kernels
in the second half compute whole similarity blocks at once — batched over
the deduplicated unique-pair set with numpy (and scipy.sparse incidence
products where available) — and are pinned to the scalar functions by
property tests: to 1e-9, and bit for bit for the bit-parallel Levenshtein
and Jaro-Winkler kernels.  They back :meth:`Matcher.similarity_matrix`.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

try:  # scipy is optional: incidence products fall back to dense numpy.
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - exercised only without scipy
    _scipy_sparse = None


def levenshtein_distance(left: str, right: str) -> int:
    """Classic edit distance (insert/delete/substitute, unit costs)."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    # Keep the shorter string in the inner dimension for cache friendliness.
    if len(right) > len(left):
        left, right = right, left
    previous = list(range(len(right) + 1))
    for i, left_char in enumerate(left, start=1):
        current = [i]
        for j, right_char in enumerate(right, start=1):
            cost = 0 if left_char == right_char else 1
            current.append(
                min(
                    previous[j] + 1,  # deletion
                    current[j - 1] + 1,  # insertion
                    previous[j - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]


def levenshtein_similarity(left: str, right: str) -> float:
    """1 − distance / max length; 1.0 for two empty strings."""
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(left, right) / longest


def jaro_similarity(left: str, right: str) -> float:
    """Jaro similarity: transposition-aware common-character ratio."""
    if left == right:
        return 1.0
    if not left or not right:
        return 0.0
    window = max(len(left), len(right)) // 2 - 1
    window = max(window, 0)
    left_matches = [False] * len(left)
    right_matches = [False] * len(right)
    matches = 0
    for i, char in enumerate(left):
        start = max(0, i - window)
        end = min(i + window + 1, len(right))
        for j in range(start, end):
            if right_matches[j] or right[j] != char:
                continue
            left_matches[i] = True
            right_matches[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, matched in enumerate(left_matches):
        if not matched:
            continue
        while not right_matches[j]:
            j += 1
        if left[i] != right[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len(left)
        + matches / len(right)
        + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(
    left: str, right: str, prefix_weight: float = 0.1, max_prefix: int = 4
) -> float:
    """Jaro-Winkler: Jaro boosted by the length of the common prefix."""
    if not 0.0 <= prefix_weight <= 0.25:
        raise ValueError("prefix_weight must lie in [0, 0.25]")
    jaro = jaro_similarity(left, right)
    prefix = 0
    for left_char, right_char in zip(left, right):
        if left_char != right_char or prefix >= max_prefix:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def qgrams(text: str, q: int = 3, pad: bool = True) -> list[str]:
    """The q-gram multiset of ``text``, optionally padded with ``#``."""
    if q < 1:
        raise ValueError("q must be positive")
    if pad:
        text = "#" * (q - 1) + text + "#" * (q - 1)
    if len(text) < q:
        return [text] if text else []
    return [text[i : i + q] for i in range(len(text) - q + 1)]


def qgram_similarity(left: str, right: str, q: int = 3) -> float:
    """Dice coefficient over padded q-gram multisets."""
    left_grams = qgrams(left, q)
    right_grams = qgrams(right, q)
    if not left_grams and not right_grams:
        return 1.0
    if not left_grams or not right_grams:
        return 0.0
    overlap = 0
    counts: dict[str, int] = {}
    for gram in left_grams:
        counts[gram] = counts.get(gram, 0) + 1
    for gram in right_grams:
        remaining = counts.get(gram, 0)
        if remaining:
            overlap += 1
            counts[gram] = remaining - 1
    return 2.0 * overlap / (len(left_grams) + len(right_grams))


def jaccard_similarity(left: Sequence[str], right: Sequence[str]) -> float:
    """Jaccard index of two token collections (as sets)."""
    left_set, right_set = set(left), set(right)
    if not left_set and not right_set:
        return 1.0
    union = left_set | right_set
    return len(left_set & right_set) / len(union)


def dice_similarity(left: Sequence[str], right: Sequence[str]) -> float:
    """Dice coefficient of two token collections (as sets)."""
    left_set, right_set = set(left), set(right)
    if not left_set and not right_set:
        return 1.0
    if not left_set or not right_set:
        return 0.0
    return 2.0 * len(left_set & right_set) / (len(left_set) + len(right_set))


def longest_common_substring(left: str, right: str) -> int:
    """Length of the longest contiguous common substring."""
    if not left or not right:
        return 0
    previous = [0] * (len(right) + 1)
    best = 0
    for left_char in left:
        current = [0] * (len(right) + 1)
        for j, right_char in enumerate(right, start=1):
            if left_char == right_char:
                current[j] = previous[j - 1] + 1
                best = max(best, current[j])
        previous = current
    return best


def lcs_similarity(left: str, right: str) -> float:
    """Longest common substring normalised by the shorter length."""
    shortest = min(len(left), len(right))
    if shortest == 0:
        return 1.0 if not left and not right else 0.0
    return longest_common_substring(left, right) / shortest


def monge_elkan_similarity(
    left_tokens: Sequence[str],
    right_tokens: Sequence[str],
    inner: Callable[[str, str], float] = jaro_winkler_similarity,
) -> float:
    """Monge-Elkan: average best inner similarity per left token, symmetrised.

    The raw Monge-Elkan measure is asymmetric; we take the mean of both
    directions so the result can back a symmetric matcher.
    """
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0

    def directed(a: Sequence[str], b: Sequence[str]) -> float:
        return sum(max(inner(x, y) for y in b) for x in a) / len(a)

    return (directed(left_tokens, right_tokens) + directed(right_tokens, left_tokens)) / 2.0


def prefix_similarity(left: str, right: str) -> float:
    """Common-prefix length over the shorter string length."""
    shortest = min(len(left), len(right))
    if shortest == 0:
        return 1.0 if not left and not right else 0.0
    prefix = 0
    for left_char, right_char in zip(left, right):
        if left_char != right_char:
            break
        prefix += 1
    return prefix / shortest


def suffix_similarity(left: str, right: str) -> float:
    """Common-suffix length over the shorter string length."""
    return prefix_similarity(left[::-1], right[::-1])


# ---------------------------------------------------------------------------
# Batch kernels: whole similarity blocks at once.
#
# Every kernel below reproduces its scalar counterpart exactly (same
# formulas, same division order).  String pairs are deduplicated before the
# heavy kernels run: attribute names repeat across the O(n²) schema pairs
# of a network, so the unique-pair set is far smaller than the naive pair
# count.
# ---------------------------------------------------------------------------


def _encode_pool(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """One shared codepoint matrix for a *deduplicated* string pool.

    Encoding is the per-string cost of the batch metrics; doing it once per
    unique string (rather than once per pair occurrence) is what keeps the
    unique-pair kernels cheap.  Pad is ``-1`` (codepoints are non-negative)
    on both sides of a comparison; the kernels mask by string length
    wherever pad-equals-pad could matter.
    """
    count = len(strings)
    width = max((len(s) for s in strings), default=0)
    codes = np.full((count, width), -1, dtype=np.int64)
    for i, text in enumerate(strings):
        if text:
            codes[i, : len(text)] = np.frombuffer(
                text.encode("utf-32-le"), dtype=np.uint32
            ).astype(np.int64)
    lengths = np.fromiter((len(s) for s in strings), count=count, dtype=np.int64)
    return codes, lengths


PairCache = dict[tuple[str, str], float]


def _unique_pair_matrix(
    left: Sequence[str],
    right: Sequence[str],
    kernel: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    cache: PairCache | None = None,
) -> np.ndarray:
    """Evaluate a symmetric pairwise kernel over the deduplicated pair set.

    Each side is reduced to its distinct strings' pool ids (numbered left
    side first, in order of appearance) before the unordered ``(low id,
    high id)`` pairs are formed.  ``kernel(codes, lengths, first, second)``
    receives the pooled codepoint matrix plus aligned index arrays (one
    entry per unique pair) and returns one value per pair; the result is
    gathered back to the full ``len(left) × len(right)`` block.  ``cache``
    (string-pair → value, keys lexicographically canonicalised) persists
    values across calls — names repeat across the edges of a network, so
    later edges only pay for pairs they introduce.
    """
    n_left, n_right = len(left), len(right)
    if n_left == 0 or n_right == 0:
        return np.zeros((n_left, n_right), dtype=np.float64)
    pool: dict[str, int] = {}
    left_ids = [pool.setdefault(text, len(pool)) for text in left]
    right_ids = [pool.setdefault(text, len(pool)) for text in right]
    strings = list(pool)
    left_unique, rows = np.unique(left_ids, return_inverse=True)
    right_unique, cols = np.unique(right_ids, return_inverse=True)
    low = np.minimum(left_unique[:, None], right_unique[None, :])
    high = np.maximum(left_unique[:, None], right_unique[None, :])
    keys = (low * len(strings) + high).ravel()
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    first, second = np.divmod(unique_keys, len(strings))
    codes, lengths = _encode_pool(strings)
    if cache is None:
        values = np.asarray(kernel(codes, lengths, first, second), dtype=np.float64)
    else:
        values = np.empty(len(unique_keys), dtype=np.float64)
        missing: list[int] = []
        pair_keys: list[tuple[str, str]] = []
        for idx, (i, j) in enumerate(zip(first.tolist(), second.tolist())):
            a, b = strings[i], strings[j]
            key = (a, b) if a <= b else (b, a)
            pair_keys.append(key)
            cached = cache.get(key)
            if cached is None:
                missing.append(idx)
            else:
                values[idx] = cached
        if missing:
            miss = np.asarray(missing, dtype=np.int64)
            computed = np.asarray(
                kernel(codes, lengths, first[miss], second[miss]),
                dtype=np.float64,
            )
            values[miss] = computed
            for pos, idx in enumerate(missing):
                cache[pair_keys[idx]] = float(computed[pos])
    block = values[inverse].reshape(len(left_unique), len(right_unique))
    return block[np.ix_(rows, cols)]


def _chunked_pairs(
    kernel: Callable[..., np.ndarray],
    codes: np.ndarray,
    lengths: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
) -> np.ndarray:
    """Run a pair kernel in bounded chunks along the pair axis.

    The prefix and LCS kernels hold (pairs × positions) work arrays (DP
    rows, agreement matrices), and the deduplicated pair set grows ~U²/2 in
    the number of unique names, so those arrays are capped at ~4M cells per
    chunk regardless of corpus size.  Chunking also re-trims the kernel's
    width to each chunk's longest string.
    """
    count = len(first)
    chunk = max(1, int(4_000_000 // max(1, codes.shape[1])))
    if count <= chunk:
        return kernel(codes, lengths, first, second)
    out = np.empty(count, dtype=np.float64)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        out[start:stop] = kernel(
            codes, lengths, first[start:stop], second[start:stop]
        )
    return out


#: ``_LOW_BITS[k]`` has the low ``k`` bits of a word set (k = 0..64).
_LOW_BITS = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)


def _match_masks(
    codes: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Dense symbols, and one uint64 match mask per pooled string and symbol.

    ``symbols[k]`` numbers position k's codepoint of every pooled string;
    bit k of ``masks[i * n_symbols + s]`` is set iff position k < 64 of
    string i holds symbol s (Myers' ``Peq`` table; pads set no bit).
    """
    alphabet, inverse = np.unique(codes.ravel(), return_inverse=True)
    symbols = inverse.reshape(codes.shape)
    masks = np.zeros((len(codes), len(alphabet)), dtype=np.uint64)
    for k in range(min(codes.shape[1], 64)):
        live = np.flatnonzero(lengths > k)
        masks[live, symbols[live, k]] |= np.uint64(1 << k)
    return np.ascontiguousarray(symbols.T), masks.ravel(), len(alphabet)


def _decode(codes: np.ndarray, lengths: np.ndarray, index: int) -> str:
    """Pooled string ``index``, decoded back from the codepoint matrix."""
    return "".join(map(chr, codes[index, : lengths[index]].tolist()))


def _levenshtein_pairs(
    codes: np.ndarray,
    lengths: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
) -> np.ndarray:
    """Levenshtein *similarity* for index-aligned pairs of pooled strings.

    Myers' bit-vector edit distance in Hyyrö's form (Myers, JACM 1999;
    Hyyrö, Nordic J. Computing 2003), vectorised over the pairs: the
    shorter string of each pair is the pattern, its column of vertical
    deltas lives in two uint64 words, and one sweep over the longer
    string's positions advances every pair by a handful of word
    operations.  Distances are integers, so the values are bit-identical
    to :func:`levenshtein_similarity`; a pair whose shorter string exceeds
    64 code points takes that scalar reference.
    """
    count = len(first)
    symbols, masks, n_symbols = _match_masks(codes, lengths)
    len_a, len_b = lengths[first], lengths[second]
    swap = len_a > len_b
    rows = np.where(swap, second, first) * n_symbols
    text = np.where(swap, first, second)
    len_p = np.minimum(len_a, len_b)
    len_t = np.maximum(len_a, len_b)
    # The pattern's last row, where the distance is read off (the empty
    # and the over-64 patterns are settled below).
    last = _LOW_BITS[np.clip(len_p, 1, 64)] ^ _LOW_BITS[np.clip(len_p, 1, 64) - 1]
    vp = np.full(count, _LOW_BITS[64])
    vn = np.zeros(count, dtype=np.uint64)
    distances = len_p.copy()
    for j in range(int(len_t.max(initial=0))):
        eq = np.take(masks, rows + np.take(symbols[j], text))
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        live = len_t > j
        distances += ((hp & last) != 0) & live
        distances -= ((hn & last) != 0) & live
        hp = (hp << 1) | 1
        hn <<= 1
        vp = hn | ~(d0 | hp)
        vn = hp & d0
    distances[len_p == 0] = len_t[len_p == 0]
    similarity = 1.0 - distances / np.maximum(len_t, 1)  # two empties: 1.0
    for p in np.flatnonzero(len_p > 64).tolist():
        a, b = _decode(codes, lengths, first[p]), _decode(codes, lengths, second[p])
        similarity[p] = levenshtein_similarity(a, b)
    return similarity


def levenshtein_similarity_matrix(
    left: Sequence[str], right: Sequence[str]
) -> np.ndarray:
    """Batch :func:`levenshtein_similarity` over all left × right pairs."""
    return _unique_pair_matrix(left, right, _levenshtein_pairs)


def _jaro_winkler_pairs(
    codes: np.ndarray,
    lengths: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    prefix_weight: float = 0.1,
    max_prefix: int = 4,
) -> np.ndarray:
    """Jaro-Winkler for index-aligned pairs of pooled strings.

    The greedy match phase runs on match masks, vectorised over the pairs:
    a-position i takes the lowest set bit of ``Peq_b[a_i] & window_i &
    ~matched_b``, which is the scalar scan's first eligible b-position.
    Transpositions then pair the matched positions in order: each matched
    a-position, in turn, pops the lowest remaining matched b-position.
    The common prefix is read off the same masks (``a_i == b_i`` iff bit i
    of ``Peq_b[a_i]`` is set).  Both sides keep a match mask, so a pair
    with either string over 64 code points takes the scalar reference.
    """
    if not 0.0 <= prefix_weight <= 0.25:
        raise ValueError("prefix_weight must lie in [0, 0.25]")
    count = len(first)
    symbols, masks, n_symbols = _match_masks(codes, lengths)
    len_a, len_b = lengths[first], lengths[second]
    rows = second * n_symbols
    window = np.maximum(np.maximum(len_a, len_b) // 2 - 1, 0)
    matched_a, matched_b = np.zeros((2, count), dtype=np.uint64)
    matches, prefix = np.zeros((2, count), dtype=np.int64)
    agreed = np.ones(count, dtype=bool)
    width = min(int(len_a.max(initial=0)), 64)
    for i in range(width):
        eq = np.take(masks, rows + np.take(symbols[i], first))
        if i < max_prefix:
            agreed &= ((eq >> i) & 1).astype(bool)
            prefix += agreed
        end = np.where(len_a > i, np.minimum(i + window + 1, len_b), 0)
        span = _LOW_BITS[np.minimum(end, 64)] & ~_LOW_BITS[np.maximum(i - window, 0)]
        free = eq & span & ~matched_b
        low = free & (~free + 1)
        matched_b |= low
        matched_a |= (low != 0).astype(np.uint64) << i
        matches += low != 0
    transpositions = np.zeros(count, dtype=np.int64)
    for i in range(width):
        hit = ((matched_a >> i) & 1).astype(bool)
        low = np.where(hit, matched_b & (~matched_b + 1), 0)
        eq = np.take(masks, rows + np.take(symbols[i], first))
        transpositions += hit & ((eq & low) == 0)
        matched_b ^= low
    transpositions //= 2

    m = matches.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        jaro = (m / len_a + m / len_b + (m - transpositions) / m) / 3.0
    jaro = np.where(matches == 0, 0.0, jaro)
    jaro[(len_a == 0) & (len_b == 0)] = 1.0
    similarity = jaro + prefix * prefix_weight * (1.0 - jaro)
    for p in np.flatnonzero(np.maximum(len_a, len_b) > 64).tolist():
        a, b = _decode(codes, lengths, first[p]), _decode(codes, lengths, second[p])
        similarity[p] = jaro_winkler_similarity(a, b, prefix_weight, max_prefix)
    return similarity


def jaro_winkler_similarity_matrix(
    left: Sequence[str],
    right: Sequence[str],
    prefix_weight: float = 0.1,
    max_prefix: int = 4,
    cache: PairCache | None = None,
) -> np.ndarray:
    """Batch :func:`jaro_winkler_similarity` over all left × right pairs."""
    kernel = functools.partial(
        _jaro_winkler_pairs, prefix_weight=prefix_weight, max_prefix=max_prefix
    )
    return _unique_pair_matrix(left, right, kernel, cache)


def _incidence_product(
    left_features: Sequence[Iterable],
    right_features: Sequence[Iterable],
    weight: Callable[[object], float] | None = None,
) -> np.ndarray:
    """``Σ_f w(f)·1[f ∈ L]·1[f ∈ R]`` for every (left, right) row pair.

    Built as a sparse feature-incidence matrix product (dense numpy when
    scipy is unavailable).  ``weight`` scales the *left* incidence rows, so
    the product is the weighted intersection; with ``weight=None`` it is the
    plain intersection size.  Feature iterables must be duplicate-free.
    Each row's features are numbered and stored in sorted order, so a
    weighted sum never depends on set iteration order (string hashing, and
    so frozenset order, changes with ``PYTHONHASHSEED``).
    """
    vocabulary: dict = {}

    def compress(rows: Sequence[Iterable], weighted: bool):
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        for features in rows:
            for feature in sorted(features):
                indices.append(vocabulary.setdefault(feature, len(vocabulary)))
                data.append(weight(feature) if weighted else 1.0)
            indptr.append(len(indices))
        return indptr, indices, data

    left_csr = compress(left_features, weight is not None)
    right_csr = compress(right_features, False)
    n_features = max(len(vocabulary), 1)
    if _scipy_sparse is not None:
        left_mat = _scipy_sparse.csr_matrix(
            (left_csr[2], left_csr[1], left_csr[0]),
            shape=(len(left_features), n_features),
        )
        right_mat = _scipy_sparse.csr_matrix(
            (right_csr[2], right_csr[1], right_csr[0]),
            shape=(len(right_features), n_features),
        )
        return np.asarray((left_mat @ right_mat.T).todense(), dtype=np.float64)
    left_dense = np.zeros((len(left_features), n_features))
    right_dense = np.zeros((len(right_features), n_features))
    for row in range(len(left_features)):
        cols = left_csr[1][left_csr[0][row] : left_csr[0][row + 1]]
        left_dense[row, cols] = left_csr[2][left_csr[0][row] : left_csr[0][row + 1]]
    for row in range(len(right_features)):
        cols = right_csr[1][right_csr[0][row] : right_csr[0][row + 1]]
        right_dense[row, cols] = 1.0
    return left_dense @ right_dense.T


def jaccard_matrix(
    left_sets: Sequence[frozenset], right_sets: Sequence[frozenset]
) -> np.ndarray:
    """Batch :func:`jaccard_similarity` over precomputed token sets."""
    intersection = _incidence_product(left_sets, right_sets)
    size_left = np.fromiter(
        (len(s) for s in left_sets), count=len(left_sets), dtype=np.float64
    )
    size_right = np.fromiter(
        (len(s) for s in right_sets), count=len(right_sets), dtype=np.float64
    )
    union = size_left[:, None] + size_right[None, :] - intersection
    with np.errstate(divide="ignore", invalid="ignore"):
        similarity = intersection / union
    similarity[union == 0] = 1.0  # both sides empty
    return similarity


def weighted_jaccard_matrix(
    left_sets: Sequence[frozenset],
    right_sets: Sequence[frozenset],
    weight: Callable[[str], float],
) -> np.ndarray:
    """Batch IDF-weighted Jaccard (the :class:`TfIdfTokenMatcher` measure).

    ``similarity = Σ_{t ∈ A∩B} w(t) / Σ_{t ∈ A∪B} w(t)``, computed as a
    weighted incidence product for the numerator and row-weight sums for the
    denominator.  Clipped to [0, 1] to absorb last-ulp drift of the float
    summation orders.  Every sum runs over tokens in sorted order.
    """
    intersection = _incidence_product(left_sets, right_sets, weight=weight)
    weight_left = np.fromiter(
        (sum(weight(t) for t in sorted(s)) for s in left_sets),
        count=len(left_sets),
        dtype=np.float64,
    )
    weight_right = np.fromiter(
        (sum(weight(t) for t in sorted(s)) for s in right_sets),
        count=len(right_sets),
        dtype=np.float64,
    )
    union = weight_left[:, None] + weight_right[None, :] - intersection
    with np.errstate(divide="ignore", invalid="ignore"):
        similarity = np.where(union > 0.0, intersection / union, 0.0)
    empty_left = np.fromiter(
        (len(s) == 0 for s in left_sets), count=len(left_sets), dtype=bool
    )
    empty_right = np.fromiter(
        (len(s) == 0 for s in right_sets), count=len(right_sets), dtype=bool
    )
    similarity[np.ix_(empty_left, empty_right)] = 1.0
    return np.clip(similarity, 0.0, 1.0)


def dice_multiset_matrix(
    left_counts: Sequence[Mapping[str, int]],
    right_counts: Sequence[Mapping[str, int]],
) -> np.ndarray:
    """Batch Dice over multisets (the q-gram measure), via occurrence keys.

    ``Σ_g min(a_g, b_g)`` is not a plain incidence product, but expanding
    the k-th occurrence of gram ``g`` into the distinct feature ``(g, k)``
    makes it one: a multiset holds ``(g, k)`` iff it has > k copies of ``g``.
    """

    def expand(counts: Mapping[str, int]) -> list[tuple[str, int]]:
        return [(gram, k) for gram, n in counts.items() for k in range(n)]

    overlap = _incidence_product(
        [expand(c) for c in left_counts], [expand(c) for c in right_counts]
    )
    total_left = np.fromiter(
        (sum(c.values()) for c in left_counts),
        count=len(left_counts),
        dtype=np.float64,
    )
    total_right = np.fromiter(
        (sum(c.values()) for c in right_counts),
        count=len(right_counts),
        dtype=np.float64,
    )
    denominator = total_left[:, None] + total_right[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        similarity = 2.0 * overlap / denominator
    similarity[denominator == 0] = 1.0  # both sides gram-free
    return similarity


def _prefix_pairs(
    codes: np.ndarray,
    lengths: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
) -> np.ndarray:
    """Common-prefix similarity for index-aligned pairs of pooled strings."""
    count = len(first)
    values = np.zeros(count, dtype=np.float64)
    if count == 0:
        return values
    len_a, len_b = lengths[first], lengths[second]
    shortest = np.minimum(len_a, len_b)
    width = int(shortest.max())
    if width > 0:
        codes_a = codes[first, :width]
        codes_b = codes[second, :width]
        # Shared pad on both sides: bound by the shorter length so
        # pad-equals-pad never counts as agreement.
        agreement = (codes_a == codes_b) & (
            np.arange(width)[None, :] < shortest[:, None]
        )
        prefix = np.logical_and.accumulate(agreement, axis=1).sum(axis=1)
        nonempty = shortest > 0
        values[nonempty] = prefix[nonempty] / shortest[nonempty]
    values[(len_a == 0) & (len_b == 0)] = 1.0
    return values


def prefix_similarity_matrix(
    left: Sequence[str],
    right: Sequence[str],
    cache: PairCache | None = None,
) -> np.ndarray:
    """Batch :func:`prefix_similarity` over all left × right pairs."""
    return _unique_pair_matrix(
        left,
        right,
        lambda codes, lengths, first, second: _chunked_pairs(
            _prefix_pairs, codes, lengths, first, second
        ),
        cache,
    )


def _lcs_pairs(
    codes: np.ndarray,
    lengths: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
) -> np.ndarray:
    """LCS-substring similarity for index-aligned pairs of pooled strings.

    The classic quadratic DP — ``cur[j] = prev[j-1] + 1`` where characters
    match, else 0 — carries no dependency along the inner dimension, so each
    row is one whole-batch vectorised sweep: equality matrix, shifted
    previous row, running best.  Pad positions are masked explicitly (the
    pool pads both sides with the same sentinel, so pad-equals-pad would
    otherwise count as a common substring).
    """
    count = len(first)
    if count == 0:
        return np.zeros(0, dtype=np.float64)
    len_a, len_b = lengths[first], lengths[second]
    shortest = np.minimum(len_a, len_b).astype(np.float64)
    both_empty = (len_a == 0) & (len_b == 0)
    width_a = int(len_a.max())
    width_b = int(len_b.max())
    if width_a == 0 or width_b == 0:
        return np.where(both_empty, 1.0, 0.0)
    codes_a = codes[first, :width_a]
    codes_b = codes[second, :width_b]
    valid_b = np.arange(width_b)[None, :] < len_b[:, None]
    best = np.zeros(count, dtype=np.int64)
    previous = np.zeros((count, width_b), dtype=np.int64)
    current = np.empty_like(previous)
    for i in range(width_a):
        active = len_a > i
        if not active.any():
            break
        match = (codes_b == codes_a[:, i][:, None]) & valid_b & active[:, None]
        current[:, 0] = match[:, 0]
        np.multiply(previous[:, :-1] + 1, match[:, 1:], out=current[:, 1:])
        np.maximum(best, current.max(axis=1), out=best)
        previous, current = current, previous
    similarity = np.zeros(count, dtype=np.float64)
    nonempty = shortest > 0
    similarity[nonempty] = best[nonempty] / shortest[nonempty]
    similarity[both_empty] = 1.0
    return similarity


def lcs_similarity_matrix(
    left: Sequence[str],
    right: Sequence[str],
    cache: PairCache | None = None,
) -> np.ndarray:
    """Batch :func:`lcs_similarity` over all left × right pairs."""
    return _unique_pair_matrix(
        left,
        right,
        lambda codes, lengths, first, second: _chunked_pairs(
            _lcs_pairs, codes, lengths, first, second
        ),
        cache,
    )


def monge_elkan_matrix(
    left_tokens: Sequence[Sequence[str]],
    right_tokens: Sequence[Sequence[str]],
    inner_cache: PairCache | None = None,
) -> np.ndarray:
    """Batch symmetrised Monge-Elkan with the Jaro-Winkler inner metric.

    The inner metric is evaluated once per unique token pair (tokens repeat
    massively across attribute names); the per-name-pair best-match means
    are then gathered from the token-pair matrix with padded index arrays.
    """
    n_left, n_right = len(left_tokens), len(right_tokens)
    if n_left == 0 or n_right == 0:
        return np.zeros((n_left, n_right), dtype=np.float64)
    out = np.zeros((n_left, n_right), dtype=np.float64)
    len_a = np.fromiter(
        (len(t) for t in left_tokens), count=n_left, dtype=np.float64
    )
    len_b = np.fromiter(
        (len(t) for t in right_tokens), count=n_right, dtype=np.float64
    )

    vocab_left: dict[str, int] = {}
    for tokens in left_tokens:
        for token in tokens:
            vocab_left.setdefault(token, len(vocab_left))
    vocab_right: dict[str, int] = {}
    for tokens in right_tokens:
        for token in tokens:
            vocab_right.setdefault(token, len(vocab_right))

    if vocab_left and vocab_right:
        inner = jaro_winkler_similarity_matrix(
            list(vocab_left), list(vocab_right), cache=inner_cache
        )
        width_a = max(max((len(t) for t in left_tokens), default=0), 1)
        width_b = max(max((len(t) for t in right_tokens), default=0), 1)
        index_a = np.zeros((n_left, width_a), dtype=np.int64)
        mask_a = np.zeros((n_left, width_a), dtype=bool)
        for i, tokens in enumerate(left_tokens):
            index_a[i, : len(tokens)] = [vocab_left[t] for t in tokens]
            mask_a[i, : len(tokens)] = True
        index_b = np.zeros((n_right, width_b), dtype=np.int64)
        mask_b = np.zeros((n_right, width_b), dtype=bool)
        for j, tokens in enumerate(right_tokens):
            index_b[j, : len(tokens)] = [vocab_right[t] for t in tokens]
            mask_b[j, : len(tokens)] = True

        chunk = max(1, int(4_000_000 // max(1, n_right * width_a * width_b)))
        with np.errstate(divide="ignore", invalid="ignore"):
            for start in range(0, n_left, chunk):
                stop = min(start + chunk, n_left)
                gathered = inner[
                    index_a[start:stop][:, None, :, None],
                    index_b[None, :, None, :],
                ]
                gathered = np.where(
                    mask_b[None, :, None, :], gathered, -np.inf
                )
                best_ab = gathered.max(axis=3)
                directed_ab = np.where(
                    mask_a[start:stop][:, None, :], best_ab, 0.0
                ).sum(axis=2) / len_a[start:stop][:, None]
                best_ba = np.where(
                    mask_a[start:stop][:, None, :, None], gathered, -np.inf
                ).max(axis=2)
                directed_ba = np.where(
                    mask_b[None, :, :], best_ba, 0.0
                ).sum(axis=2) / len_b[None, :]
                out[start:stop] = (directed_ab + directed_ba) / 2.0

    empty_left = len_a == 0
    empty_right = len_b == 0
    out[empty_left, :] = 0.0
    out[:, empty_right] = 0.0
    out[np.ix_(empty_left, empty_right)] = 1.0
    return np.clip(out, 0.0, 1.0)
