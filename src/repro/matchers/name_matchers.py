"""First-line matchers over attribute names.

Each matcher wraps one string metric from
:mod:`repro.matchers.string_metrics`, applied to the normalised name or the
token sequence produced by :mod:`repro.matchers.tokenization`.  Derived name
views (token sequences, normal forms, q-gram profiles) come from the shared
unique-name registry (:mod:`repro.matchers.registry`), so they are computed
once per distinct name regardless of how many pairs or edges reuse it.

All matchers here implement both the scalar reference path
(``_name_similarity``) and a vectorised block kernel
(``_name_similarity_matrix``); property tests pin each matrix kernel to
its scalar counterpart (bit for bit for edit distance and Jaro-Winkler,
at 1e-9 for the rest).
"""

from __future__ import annotations

import numpy as np

from . import registry, string_metrics
from .base import CachedMatcher


class EditDistanceMatcher(CachedMatcher):
    """Normalised Levenshtein similarity over normalised names."""

    name = "edit-distance"

    def _name_similarity(self, left_name: str, right_name: str) -> float:
        return string_metrics.levenshtein_similarity(
            registry.profile(left_name).norm, registry.profile(right_name).norm
        )

    def _name_similarity_matrix(self, left_names, right_names) -> np.ndarray:
        return string_metrics.levenshtein_similarity_matrix(
            [registry.profile(name).norm for name in left_names],
            [registry.profile(name).norm for name in right_names],
        )


class JaroWinklerMatcher(CachedMatcher):
    """Jaro-Winkler over normalised names; favours shared prefixes."""

    name = "jaro-winkler"

    def _name_similarity(self, left_name: str, right_name: str) -> float:
        return string_metrics.jaro_winkler_similarity(
            registry.profile(left_name).norm, registry.profile(right_name).norm
        )

    def _name_similarity_matrix(self, left_names, right_names) -> np.ndarray:
        return string_metrics.jaro_winkler_similarity_matrix(
            [registry.profile(name).norm for name in left_names],
            [registry.profile(name).norm for name in right_names],
        )


class TokenMatcher(CachedMatcher):
    """Jaccard overlap of the expanded token sets."""

    name = "token-jaccard"

    def _name_similarity(self, left_name: str, right_name: str) -> float:
        return string_metrics.jaccard_similarity(
            registry.profile(left_name).tokens, registry.profile(right_name).tokens
        )

    def _name_similarity_matrix(self, left_names, right_names) -> np.ndarray:
        return string_metrics.jaccard_matrix(
            [registry.profile(name).token_set for name in left_names],
            [registry.profile(name).token_set for name in right_names],
        )


class MongeElkanMatcher(CachedMatcher):
    """Monge-Elkan over tokens with a Jaro-Winkler inner metric.

    Robust to token reordering and partial abbreviation, the classic hybrid
    measure used by matcher toolkits.  The batch kernel evaluates the inner
    metric once per unique token pair and gathers the best-match means from
    that token-pair matrix.
    """

    name = "monge-elkan"

    def __init__(self) -> None:
        super().__init__()
        # Token-pair inner-metric cache: the token vocabulary is tiny and
        # stable across edges, so later blocks reuse almost every value.
        self._inner_cache: string_metrics.PairCache = {}

    def _name_similarity(self, left_name: str, right_name: str) -> float:
        return string_metrics.monge_elkan_similarity(
            registry.profile(left_name).tokens, registry.profile(right_name).tokens
        )

    def _name_similarity_matrix(self, left_names, right_names) -> np.ndarray:
        return string_metrics.monge_elkan_matrix(
            [registry.profile(name).tokens for name in left_names],
            [registry.profile(name).tokens for name in right_names],
            inner_cache=self._inner_cache,
        )


class NGramMatcher(CachedMatcher):
    """Dice coefficient of padded character trigrams."""

    name = "ngram"

    def __init__(self, q: int = 3):
        super().__init__()
        self.q = q

    def _name_similarity(self, left_name: str, right_name: str) -> float:
        return string_metrics.qgram_similarity(
            registry.profile(left_name).norm,
            registry.profile(right_name).norm,
            q=self.q,
        )

    def _name_similarity_matrix(self, left_names, right_names) -> np.ndarray:
        return string_metrics.dice_multiset_matrix(
            [registry.profile(name).qgram_counts(self.q) for name in left_names],
            [registry.profile(name).qgram_counts(self.q) for name in right_names],
        )


class SubstringMatcher(CachedMatcher):
    """Longest-common-substring similarity over normalised names."""

    name = "substring"

    def __init__(self) -> None:
        super().__init__()
        self._pair_cache: string_metrics.PairCache = {}

    def _name_similarity(self, left_name: str, right_name: str) -> float:
        return string_metrics.lcs_similarity(
            registry.profile(left_name).norm, registry.profile(right_name).norm
        )

    def _name_similarity_matrix(self, left_names, right_names) -> np.ndarray:
        return string_metrics.lcs_similarity_matrix(
            [registry.profile(name).norm for name in left_names],
            [registry.profile(name).norm for name in right_names],
            cache=self._pair_cache,
        )


class PrefixSuffixMatcher(CachedMatcher):
    """Maximum of common-prefix and common-suffix ratios.

    Catches truncation-style naming (``description`` vs ``desc``) and
    suffix-style naming (``orderDate`` vs ``shipDate`` score low here, while
    ``billingDate`` vs ``date`` score high).
    """

    name = "prefix-suffix"

    def __init__(self) -> None:
        super().__init__()
        self._prefix_cache: string_metrics.PairCache = {}
        self._suffix_cache: string_metrics.PairCache = {}

    def _name_similarity(self, left_name: str, right_name: str) -> float:
        normalized_left = registry.profile(left_name).norm_plain
        normalized_right = registry.profile(right_name).norm_plain
        return max(
            string_metrics.prefix_similarity(normalized_left, normalized_right),
            string_metrics.suffix_similarity(normalized_left, normalized_right),
        )

    def _name_similarity_matrix(self, left_names, right_names) -> np.ndarray:
        left_keys = [registry.profile(name).norm_plain for name in left_names]
        right_keys = [registry.profile(name).norm_plain for name in right_names]
        prefix = string_metrics.prefix_similarity_matrix(
            left_keys, right_keys, cache=self._prefix_cache
        )
        suffix = string_metrics.prefix_similarity_matrix(
            [key[::-1] for key in left_keys],
            [key[::-1] for key in right_keys],
            cache=self._suffix_cache,
        )
        return np.maximum(prefix, suffix)
