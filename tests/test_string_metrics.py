"""Unit tests for the from-scratch string similarity metrics."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matchers.string_metrics import (
    dice_similarity,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    jaro_winkler_similarity_matrix,
    lcs_similarity,
    lcs_similarity_matrix,
    levenshtein_distance,
    levenshtein_similarity,
    levenshtein_similarity_matrix,
    longest_common_substring,
    monge_elkan_similarity,
    prefix_similarity,
    qgram_similarity,
    qgrams,
    suffix_similarity,
)


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein_distance("abc", "abc") == 0

    def test_empty(self):
        assert levenshtein_distance("", "abc") == 3
        assert levenshtein_distance("abc", "") == 3

    def test_substitution(self):
        assert levenshtein_distance("kitten", "sitten") == 1

    def test_classic_example(self):
        assert levenshtein_distance("kitten", "sitting") == 3

    def test_symmetry(self):
        assert levenshtein_distance("abcd", "badc") == levenshtein_distance(
            "badc", "abcd"
        )

    def test_similarity_range(self):
        assert levenshtein_similarity("abc", "abc") == 1.0
        assert levenshtein_similarity("abc", "xyz") == 0.0
        assert levenshtein_similarity("", "") == 1.0

    def test_similarity_value(self):
        assert levenshtein_similarity("date", "gate") == pytest.approx(0.75)


class TestJaro:
    def test_identity(self):
        assert jaro_similarity("martha", "martha") == 1.0

    def test_known_value(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_no_match(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    def test_empty(self):
        assert jaro_similarity("", "abc") == 0.0
        assert jaro_similarity("", "") == 1.0

    def test_winkler_boosts_prefix(self):
        base = jaro_similarity("prefixxyz", "prefixabc")
        boosted = jaro_winkler_similarity("prefixxyz", "prefixabc")
        assert boosted > base

    def test_winkler_known_value(self):
        assert jaro_winkler_similarity("martha", "marhta") == pytest.approx(
            0.9611, abs=1e-3
        )

    def test_winkler_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            jaro_winkler_similarity("a", "b", prefix_weight=0.5)


class TestQGrams:
    def test_padded_grams(self):
        grams = qgrams("ab", q=2)
        assert grams == ["#a", "ab", "b#"]

    def test_unpadded(self):
        assert qgrams("abcd", q=3, pad=False) == ["abc", "bcd"]

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            qgrams("abc", q=0)

    def test_similarity_identity(self):
        assert qgram_similarity("hello", "hello") == 1.0

    def test_similarity_disjoint(self):
        assert qgram_similarity("aaa", "zzz") == 0.0

    def test_similarity_empty(self):
        assert qgram_similarity("", "") == 1.0

    def test_multiset_semantics(self):
        # Repeated grams must not inflate overlap.
        assert qgram_similarity("aa", "aaaa") < 1.0


class TestTokenOverlap:
    def test_jaccard(self):
        assert jaccard_similarity(["a", "b"], ["b", "c"]) == pytest.approx(1 / 3)

    def test_jaccard_identity(self):
        assert jaccard_similarity(["a"], ["a"]) == 1.0

    def test_jaccard_empty(self):
        assert jaccard_similarity([], []) == 1.0
        assert jaccard_similarity(["a"], []) == 0.0

    def test_dice(self):
        assert dice_similarity(["a", "b"], ["b", "c"]) == pytest.approx(0.5)

    def test_dice_empty(self):
        assert dice_similarity([], []) == 1.0
        assert dice_similarity(["a"], []) == 0.0


class TestSubstring:
    def test_longest_common_substring(self):
        assert longest_common_substring("release", "lease") == 5

    def test_no_overlap(self):
        assert longest_common_substring("abc", "xyz") == 0

    def test_empty(self):
        assert longest_common_substring("", "abc") == 0

    def test_lcs_similarity(self):
        assert lcs_similarity("lease", "release") == 1.0
        assert lcs_similarity("", "") == 1.0
        assert lcs_similarity("", "a") == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matrix_matches_scalar(self, seed):
        """The batched LCS DP reproduces the scalar kernel at 1e-9 on
        random word material including empty/degenerate/pad-shaped names
        (a shared pad sentinel must never count as common substring)."""
        rng = random.Random(seed)
        alphabet = "abcxyz_"
        pool = [""] + [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            for _ in range(24)
        ]
        left = [rng.choice(pool) for _ in range(rng.randint(1, 15))]
        right = [rng.choice(pool) for _ in range(rng.randint(1, 15))]
        batch = lcs_similarity_matrix(left, right)
        reference = np.asarray(
            [[lcs_similarity(a, b) for b in right] for a in left]
        )
        np.testing.assert_allclose(batch, reference, rtol=0.0, atol=1e-9)

    def test_matrix_pair_cache_reused_across_calls(self):
        cache = {}
        first = lcs_similarity_matrix(["alpha", "beta"], ["beta", "gamma"], cache)
        assert set(cache) == {
            ("alpha", "beta"),
            ("alpha", "gamma"),
            ("beta", "beta"),
            ("beta", "gamma"),
        }
        cache[("alpha", "beta")] = 0.123  # poison: cached values must win
        again = lcs_similarity_matrix(["alpha"], ["beta"], cache)
        assert again[0, 0] == pytest.approx(0.123)
        assert first.shape == (2, 2)


class TestMongeElkan:
    def test_identity(self):
        assert monge_elkan_similarity(["first", "name"], ["first", "name"]) == 1.0

    def test_reordering_tolerated(self):
        score = monge_elkan_similarity(["name", "first"], ["first", "name"])
        assert score == 1.0

    def test_partial(self):
        score = monge_elkan_similarity(["first", "name"], ["last", "name"])
        assert 0.0 < score < 1.0

    def test_empty(self):
        assert monge_elkan_similarity([], []) == 1.0
        assert monge_elkan_similarity(["a"], []) == 0.0

    def test_symmetric(self):
        left = ["billing", "address"]
        right = ["address"]
        assert monge_elkan_similarity(left, right) == pytest.approx(
            monge_elkan_similarity(right, left)
        )


class TestPrefixSuffix:
    def test_prefix(self):
        assert prefix_similarity("orderdate", "orderid") == pytest.approx(5 / 7)

    def test_suffix(self):
        assert suffix_similarity("orderdate", "shipdate") == pytest.approx(4 / 8)

    def test_empty(self):
        assert prefix_similarity("", "") == 1.0
        assert prefix_similarity("", "a") == 0.0


#: Word-kernel material: repeated letters (so matches, transpositions and
#: edits interact), a Latin-1 letter, a BMP letter and an astral symbol.
_WORD_ALPHABET = "abcab_xé語\U0001F600"


def _word_kernel_reference(left, right):
    """Scalar Levenshtein and Jaro-Winkler blocks over ``left × right``.

    The scalar Jaro scan walks its first argument, so each pair is scored
    in the kernel's orientation: pool ids number the distinct strings, left
    side first, in order of appearance, and a pair is (low id, high id).
    """
    ids: dict[str, int] = {}
    for text in [*left, *right]:
        ids.setdefault(text, len(ids))
    lev = [[levenshtein_similarity(a, b) for b in right] for a in left]
    jw = [
        [jaro_winkler_similarity(*sorted((a, b), key=ids.__getitem__)) for b in right]
        for a in left
    ]
    return np.array(lev), np.array(jw)


def _assert_word_kernels_exact(left, right):
    lev, jw = _word_kernel_reference(left, right)
    assert np.array_equal(levenshtein_similarity_matrix(left, right), lev)
    assert np.array_equal(jaro_winkler_similarity_matrix(left, right), jw)


class TestWordKernelParity:
    """The bit-parallel Levenshtein and Jaro-Winkler kernels equal the
    scalar references bit for bit (``np.array_equal``, not a tolerance)."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.text(_WORD_ALPHABET, max_size=14), min_size=1, max_size=10),
        st.lists(st.text(_WORD_ALPHABET, max_size=14), min_size=1, max_size=10),
    )
    def test_random_names(self, left, right):
        _assert_word_kernels_exact(left, right)

    def test_empty_and_identical_names(self):
        names = ["", "a", "ab", "ba", "aa", "abc", "cab", "é", "\U0001F600"]
        _assert_word_kernels_exact(names, names[::-1])
        _assert_word_kernels_exact([""], [""])

    def test_word_boundary_and_scalar_fallback(self):
        """Lengths 63, 64 and 65 on either side: the last lengths one word
        holds, and the first that takes the scalar reference."""
        rng = random.Random(64)
        base = "".join(rng.choice(_WORD_ALPHABET) for _ in range(66))
        names = []
        for length in (63, 64, 65):
            names.append(base[:length])
            edited = list(base[:length])
            edited[3], edited[7] = edited[7], edited[3]
            edited[length // 2] = "z"
            names.append("".join(edited))
        names += ["", "ab", base[:10], base[-20:]]
        _assert_word_kernels_exact(names, names[::-1])

    @pytest.mark.parametrize("seed", range(3))
    def test_batches_of_many_pairs(self, seed):
        """Hundreds of distinct pairs in one call (well past one word)."""
        rng = random.Random(seed)
        pool = [
            "".join(rng.choice(_WORD_ALPHABET) for _ in range(rng.randint(0, 24)))
            for _ in range(40)
        ]
        _assert_word_kernels_exact(pool[:28], pool[12:])
