"""Corpus-weighted token matching.

Attribute names inside one domain share many undiscriminating tokens
(``address``, ``line``, ``date``); a plain token-overlap matcher therefore
confuses ``billingStreet`` with ``billingCity``.  :class:`TfIdfTokenMatcher`
weights tokens by inverse document frequency over the whole corpus of
attribute names, so rare (discriminative) tokens dominate the score — the
corpus-based trick of COMA-family matchers.

The matcher is *fittable*: call :meth:`fit` with the network's schemas
before matching (pipelines do this automatically).  Token sets are derived
once per distinct name (shared registry profiles plus a per-matcher
synonym-folding cache), and the batch path computes whole schema-pair
blocks as a sparse IDF-weighted token-incidence matrix product.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from ..core.schema import Schema
from . import registry, string_metrics
from .base import CachedMatcher
from .semantic import Thesaurus


class TfIdfTokenMatcher(CachedMatcher):
    """IDF-weighted Jaccard over (optionally synonym-folded) token sets.

    similarity(A, B) = Σ_{t ∈ A∩B} idf(t) / Σ_{t ∈ A∪B} idf(t)

    Unknown tokens (never seen during fit) receive the maximum observed IDF,
    treating them as maximally discriminative.
    """

    name = "tfidf-token"

    def __init__(self, thesaurus: Optional[Thesaurus] = None):
        super().__init__()
        self.thesaurus = thesaurus
        self._idf: dict[str, float] = {}
        self._default_idf = 1.0
        self._token_cache: dict[str, frozenset[str]] = {}

    def _tokens(self, name: str) -> frozenset[str]:
        """The (optionally synonym-folded) token set of a name, memoised.

        Depends only on the tokenizer and the thesaurus — both fixed for the
        matcher's lifetime — so the cache survives :meth:`fit`.
        """
        return registry.folded_token_set(name, self.thesaurus, self._token_cache)

    def fit(self, schemas: Iterable[Schema]) -> "TfIdfTokenMatcher":
        """Learn token document frequencies from attribute names."""
        documents: list[frozenset[str]] = [
            self._tokens(attribute.name)
            for schema in schemas
            for attribute in schema
        ]
        total = len(documents)
        if total == 0:
            raise ValueError("fit requires at least one attribute")
        frequency: dict[str, int] = {}
        for document in documents:
            for token in document:
                frequency[token] = frequency.get(token, 0) + 1
        self._idf = {
            token: math.log(1.0 + total / count)
            for token, count in frequency.items()
        }
        self._default_idf = max(self._idf.values(), default=1.0)
        self._cache.clear()
        return self

    @property
    def is_fitted(self) -> bool:
        return bool(self._idf)

    def idf(self, token: str) -> float:
        """IDF of one (already canonicalised) token."""
        return self._idf.get(token, self._default_idf)

    def _name_similarity(self, left_name: str, right_name: str) -> float:
        left_tokens = self._tokens(left_name)
        right_tokens = self._tokens(right_name)
        if not left_tokens and not right_tokens:
            return 1.0
        union = left_tokens | right_tokens
        if not union:
            return 0.0
        # Sorted, so the sums do not depend on string hashing.
        union_weight = sum(self.idf(t) for t in sorted(union))
        if union_weight == 0.0:
            return 0.0
        shared = sorted(left_tokens & right_tokens)
        return sum(self.idf(t) for t in shared) / union_weight

    def _name_similarity_matrix(
        self, left_names: Sequence[str], right_names: Sequence[str]
    ) -> np.ndarray:
        return string_metrics.weighted_jaccard_matrix(
            [self._tokens(name) for name in left_names],
            [self._tokens(name) for name in right_names],
            self.idf,
        )
