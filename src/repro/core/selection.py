"""Correspondence selection strategies — the ``select`` routine of
Algorithm 1.

The paper evaluates two strategies: **Random** (the unaided-expert baseline)
and the **information-gain heuristic** of Section IV-D.  We provide both plus
three further baselines that are natural ablations of the heuristic: picking
the correspondence with maximal marginal entropy (probability closest to ½,
i.e. information gain without the network coupling), picking the most likely
uncertain correspondence (likelihood-ordered review), and picking the
correspondence with the lowest matcher confidence.

Every strategy but the random baseline is a *scored* strategy: its
:meth:`~SelectionStrategy.scores` maps the uncertain candidates to one
float each (higher is better), and one shared
:meth:`~SelectionStrategy.select` takes the argmax, breaking ties with a
single ``rng.randrange`` over the tie set.  The crowd loop
(:class:`~repro.crowd.session.CrowdSession`) ranks its top-k questions
over the very same scores, so a scoring change lands in one place for
both loops.

The strategies consume the network's array views — the folded probability
vector and the sample stores' membership matrices — directly; Correspondence
objects are materialised only for the single returned selection.  Tie-breaks
and rng consumption are unchanged from the mapping-based implementations, so
seeded sessions select identically.
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np

from .correspondence import Correspondence
from .probability import ProbabilisticNetwork
from .sampling import SampleStore
from .uncertainty import binary_entropy_cached, information_gain_factors


def _random_unasserted(
    pnet: ProbabilisticNetwork, rng: random.Random
) -> Optional[Correspondence]:
    """A uniform draw over unasserted candidates, without materialising them.

    Draw-compatible with the historical list materialisation (the same
    single ``randrange`` call over the same insertion order, so golden
    traces are untouched) but O(1) per pick after the index array — which
    matters when a large-network strategy falls back here on every step.
    """
    indices = pnet.unasserted_indices()
    if len(indices) == 0:
        return None
    return pnet.correspondences[int(indices[rng.randrange(len(indices))])]


def _entropies(pnet: ProbabilisticNetwork, columns: np.ndarray) -> np.ndarray:
    """Marginal entropies H(p_c) of the ``columns`` candidates."""
    vector = pnet.probability_vector()
    return np.asarray(
        [binary_entropy_cached(p) for p in vector[columns].tolist()],
        dtype=np.float64,
    )


class SelectionStrategy:
    """Chooses the next correspondence to show to the expert.

    Scored subclasses re-bind the shared ``select`` in their own class body
    (``select = SelectionStrategy.select``): perfbench's tracer wraps the
    ``select`` each strategy class defines itself.
    """

    name: str = "strategy"

    def __init__(self, rng: Optional[random.Random] = None):
        self.rng = rng or random.Random()

    def scores(
        self, pnet: ProbabilisticNetwork
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(columns, scores)``: the uncertain candidates and their scores.

        ``columns`` are engine indices in ascending order, ``scores`` one
        float64 per column, higher is better.  Only uncertain
        correspondences (0 < p < 1) are scored: certain ones have zero
        information gain (Section IV-D).  Both arrays are empty when
        nothing is uncertain.
        """
        raise NotImplementedError(f"{self.name} selection scores nothing")

    def select(self, pnet: ProbabilisticNetwork) -> Optional[Correspondence]:
        """The next correspondence to assert, or None when nothing is left.

        The argmax of :meth:`scores`, ties broken by one
        ``rng.randrange`` over the tie set in column order.  With nothing
        uncertain left it falls back to a uniform draw over the unasserted
        candidates (zero gain), so effort sweeps can continue.
        """
        columns, scores = self.scores(pnet)
        if len(columns) == 0:
            return _random_unasserted(pnet, self.rng)
        best = np.flatnonzero(scores == scores.max())
        choice = best[self.rng.randrange(len(best))]
        return pnet.correspondences[int(columns[choice])]


class RandomSelection(SelectionStrategy):
    """The paper's baseline: an expert working without support tools.

    Selects uniformly among *unasserted* correspondences — including ones
    that the constraint network has already made certain, which is exactly
    the wasted effort the guided strategies avoid.
    """

    name = "random"

    def select(self, pnet: ProbabilisticNetwork) -> Optional[Correspondence]:
        return _random_unasserted(pnet, self.rng)


def _store_factor(
    columns: np.ndarray, store: SampleStore
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One information-gain factor: a store's conflicted columns (mapped
    through ``columns``, the global index of each store column), its
    compact membership matrix and its cached counts."""
    local = store.conflicted_columns()
    if len(local) < len(columns):
        columns = columns[local]
    return columns, store.compact_matrix(), store.compact_counts()


def _sample_factors(
    estimator, width: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The independent factors of a sampling estimator's instance space.

    A sharded estimator's factors are its shards (its violation-free
    candidates are certain); an unsharded store is one factor over its
    conflicted columns, since its violation-free columns are constant
    over Ω*.  Each factor is a store's :func:`_store_factor`.
    """
    components = getattr(estimator, "components", None)
    if components is not None:
        return [
            _store_factor(np.asarray(indices, dtype=np.intp), store)
            for indices, store in components()
        ]
    store = getattr(estimator, "store", None)
    if not isinstance(store, SampleStore):
        raise TypeError(
            "information-gain selection needs a sampling estimator "
            "(SampledEstimator or ShardedEstimator); use "
            "EntropySelection with exact estimators instead"
        )
    return [_store_factor(np.arange(width), store)]


class InformationGainSelection(SelectionStrategy):
    """The paper's heuristic: argmax_c IG(c), ties broken at random.

    Requires a sampling estimator, since the gains are estimated from the
    sample multiset.  Every uncertain correspondence is scored, exactly as
    in the paper.
    """

    name = "information-gain"

    def scores(
        self, pnet: ProbabilisticNetwork
    ) -> tuple[np.ndarray, np.ndarray]:
        columns = pnet.uncertain_indices()
        if len(columns) == 0:
            return columns, np.empty(0)
        width = len(pnet.correspondences)
        factors = _sample_factors(pnet.estimator, width)
        # One batched gain reduction over the stores' cached compact
        # matrices and counts — the same core information_gains funnels
        # through, so the floats (and tie sets) match the mapping API
        # bit-for-bit.
        return columns, information_gain_factors(factors, width, columns)

    select = SelectionStrategy.select


def rank_by_information_gain(
    pnet: ProbabilisticNetwork, k: Optional[int] = None
) -> list[tuple[Correspondence, float]]:
    """The top-k uncertain correspondences by information gain.

    Useful for *batch elicitation* — handing an expert a worklist instead of
    one question at a time.  Note that gains are estimated against the
    current network state: after the expert answers any item, the remaining
    gains shift, so the list is a prioritisation, not a guarantee of
    additive gain.
    """
    columns, gains = InformationGainSelection().scores(pnet)
    correspondences = pnet.correspondences
    ranked = sorted(
        zip([correspondences[i] for i in columns.tolist()], gains.tolist()),
        key=lambda item: (-item[1], item[0]),
    )
    return ranked[:k] if k is not None else ranked


class EntropySelection(SelectionStrategy):
    """Ablation: maximal *marginal* entropy (p closest to ½).

    This is information gain with the cross-correspondence coupling removed;
    comparing it against :class:`InformationGainSelection` isolates the value
    of modelling the constraint network.
    """

    name = "entropy"

    def scores(
        self, pnet: ProbabilisticNetwork
    ) -> tuple[np.ndarray, np.ndarray]:
        columns = pnet.uncertain_indices()
        return columns, _entropies(pnet, columns)

    select = SelectionStrategy.select


class LikelihoodSelection(SelectionStrategy):
    """Likelihood-ordered review: the most probable uncertain candidate first.

    A natural manual policy — confirm the matches the network already
    believes in, locking in approvals early so the constraints propagate.
    Complements :class:`ConfidenceSelection` (which orders by the *matcher's*
    score) by ordering on the sampled posterior instead.
    """

    name = "likelihood"

    def scores(
        self, pnet: ProbabilisticNetwork
    ) -> tuple[np.ndarray, np.ndarray]:
        columns = pnet.uncertain_indices()
        return columns, pnet.probability_vector()[columns]

    select = SelectionStrategy.select


class ConfidenceSelection(SelectionStrategy):
    """Ablation: lowest matcher confidence first.

    A plausible manual-tooling policy — review the matches the matcher was
    least sure about — that ignores the network structure entirely.  The
    score is the negated confidence, so the shared argmax picks the lowest.
    """

    name = "confidence"

    def scores(
        self, pnet: ProbabilisticNetwork
    ) -> tuple[np.ndarray, np.ndarray]:
        columns = pnet.uncertain_indices()
        confidence = pnet.network.candidates.confidence
        correspondences = pnet.correspondences
        return columns, -np.asarray(
            [confidence(correspondences[i]) for i in columns.tolist()],
            dtype=np.float64,
        )

    select = SelectionStrategy.select


#: Selection strategies by name: scenarios build them, checkpoints restore
#: them, and crowd sessions rank questions by their scores.
STRATEGIES: dict[str, type[SelectionStrategy]] = {
    cls.name: cls
    for cls in (
        RandomSelection,
        InformationGainSelection,
        EntropySelection,
        LikelihoodSelection,
        ConfidenceSelection,
    )
}


def make_strategy(
    name: str, rng: Optional[random.Random] = None
) -> SelectionStrategy:
    """Instantiate a registered selection strategy by name."""
    try:
        factory = STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; available: {sorted(STRATEGIES)}"
        ) from None
    return factory(rng=rng)
