"""Instantiation of an approximate selective matching (paper Section V).

Problem 2 asks for a matching instance with (i) minimal repair distance
Δ(I, C) and (ii), among those, maximal likelihood u(I) = Π_{c∈I} p_c.  The
decision version is NP-complete (Theorem 1: reduction from maximum
independent set), so Algorithm 2 runs a two-step meta-heuristic: greedily
pick the best sampled instance, then improve it with a tabu-guarded
randomized local search driven by roulette-wheel selection and `repair()`.

Δ and log u are sums over the violation-graph components, and a
violation-free candidate belongs to every instance, so the problem
decomposes: when the estimator is sharded, ``instantiate`` solves it one
component at a time — exactly wherever the shard holds its whole instance
space, by Algorithm 2 on the shard alone elsewhere.

``exact_instantiate`` solves the problem exactly by enumeration and is used
to validate the heuristic on small networks.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Iterable, Optional, Sequence

from .constraints import mask_indices
from .correspondence import Correspondence
from .feedback import Feedback
from .instances import enumerate_instances
from .network import MatchingNetwork
from .probability import ProbabilisticNetwork, SampledEstimator
from .repair import greedy_maximalize_mask, repair_mask
from .sampling import SampleStore, symmetric_difference_size

#: Probability floor used inside log-likelihoods so that a sampled zero does
#: not collapse the whole product (the instance may still be forced to keep
#: that correspondence for maximality).
_LIKELIHOOD_FLOOR = 1e-9


def repair_distance(
    instance: Iterable[Correspondence], candidates: Iterable[Correspondence]
) -> int:
    """Δ(I, C) — symmetric difference; equals |C| − |I| whenever I ⊆ C."""
    return symmetric_difference_size(instance, candidates)


def log_likelihood(
    instance: Iterable[Correspondence],
    probabilities: dict[Correspondence, float],
) -> float:
    """log u(I) = Σ log p_c, with probabilities floored at a tiny epsilon."""
    return sum(
        math.log(max(probabilities.get(corr, 0.0), _LIKELIHOOD_FLOOR))
        for corr in instance
    )


def _roulette_wheel(
    rng: random.Random,
    weighted: Sequence[tuple],
) -> object:
    """Fitness-proportionate selection; uniform when all weights vanish.

    Items may be correspondences or candidate indices — only the weights
    matter here.
    """
    total = sum(weight for _, weight in weighted)
    if total <= 0.0:
        return weighted[rng.randrange(len(weighted))][0]
    pick = rng.random() * total
    cumulative = 0.0
    for item, weight in weighted:
        cumulative += weight
        if pick <= cumulative:
            return item
    return weighted[-1][0]


def instantiate(
    pnet: ProbabilisticNetwork,
    iterations: int = 100,
    use_likelihood: bool = True,
    tabu_size: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> frozenset[Correspondence]:
    """Algorithm 2: derive one trusted matching from ⟨N, P⟩.

    Parameters
    ----------
    pnet:
        The probabilistic matching network (feedback already folded into P).
    iterations:
        ``k`` — the local-search step bound; also the tabu-queue capacity
        unless ``tabu_size`` overrides it.
    use_likelihood:
        When False the likelihood tie-break is ignored (the "Without
        Likelihood" variant of Fig. 11) and roulette weights are uniform.
    rng:
        Drives the roulette wheel, repair and greedy maximalisation.

    A sharded estimator (one exposing ``components()``) is solved one
    component at a time: violation-free candidates go in unless
    disapproved, an exhausted shard (Ω*_s = Ω_s) takes its exact optimum
    in one scan and draws no randomness, and any other shard runs this
    algorithm on its own engine, feedback and samples, consuming ``rng``
    in shard order.  Once every shard is enumerated, ``rng`` and
    ``iterations`` no longer change the result.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    rng = rng or random.Random()
    components = getattr(pnet.estimator, "components", None)
    if components is not None:
        return _instantiate_components(
            pnet, components(), iterations, use_likelihood, tabu_size, rng
        )
    network = pnet.network
    engine = network.engine
    feedback = pnet.feedback
    probabilities = pnet.probabilities()
    candidates = network.correspondences

    # The whole search runs in the engine's bitmask index space; conversions
    # happen once on entry (samples, feedback) and once on exit.
    n = engine.n
    approved = engine.mask_of(feedback.approved)
    allowed = engine.full_mask & ~engine.mask_of(feedback.disapproved)
    log_prob = [
        math.log(max(probabilities.get(corr, 0.0), _LIKELIHOOD_FLOOR))
        for corr in candidates
    ]
    weight_of = [probabilities.get(corr, 0.0) for corr in candidates]

    def mask_log_likelihood(mask: int) -> float:
        value = 0.0
        while mask:
            bit = mask & -mask
            value += log_prob[bit.bit_length() - 1]
            mask ^= bit
        return value

    def better(challenger: int, incumbent: int) -> bool:
        # Δ(I, C) = |C| − |I| for I ⊆ C, so fewer missing bits wins.
        challenger_distance = n - challenger.bit_count()
        incumbent_distance = n - incumbent.bit_count()
        if challenger_distance != incumbent_distance:
            return challenger_distance < incumbent_distance
        if not use_likelihood:
            return False
        return mask_log_likelihood(challenger) > mask_log_likelihood(incumbent)

    # ------------------------------------------------------------------
    # Step 1: initialisation — greedy pick among the samples.
    # ------------------------------------------------------------------
    sample_masks: Sequence[int] = getattr(pnet.estimator, "sample_masks", None)
    if sample_masks is None:
        try:
            sample_masks = [engine.mask_of(sample) for sample in pnet.samples()]
        except TypeError:
            sample_masks = ()
    best: Optional[int] = None
    for sample_mask in sample_masks:
        if best is None or better(sample_mask, best):
            best = sample_mask
    if best is None:
        best = greedy_maximalize_mask(engine, approved, allowed, rng=rng)

    # ------------------------------------------------------------------
    # Step 2: optimisation — tabu-guarded randomized local search.
    # ------------------------------------------------------------------
    tabu: deque[int] = deque()
    tabu_capacity = tabu_size or max(1, iterations)
    tabu_mask = 0
    current = best
    for _ in range(iterations):
        pool = allowed & ~current & ~tabu_mask
        if not pool:
            break
        weighted: list[tuple[int, float]] = []
        remaining = pool
        while remaining:
            bit = remaining & -remaining
            index = bit.bit_length() - 1
            weighted.append((index, weight_of[index] if use_likelihood else 1.0))
            remaining ^= bit
        chosen = _roulette_wheel(rng, weighted)
        tabu.append(chosen)
        tabu_mask |= engine.bits[chosen]
        if len(tabu) > tabu_capacity:
            expired = tabu.popleft()
            tabu_mask &= ~engine.bits[expired]
        current = repair_mask(engine, current, chosen, approved, rng=rng)
        current = greedy_maximalize_mask(engine, current, allowed, rng=rng)
        if better(current, best):
            best = current
    result = engine.corrs_of(best)
    # Approved correspondences outside the candidate set cannot live in the
    # mask space; restore them at the boundary (F⁺ ⊆ I must hold).
    extra = engine.outside_candidates(feedback.approved)
    return result | extra if extra else result


def _instantiate_components(
    pnet: ProbabilisticNetwork,
    shards: Sequence[tuple[Sequence[int], SampleStore]],
    iterations: int,
    use_likelihood: bool,
    tabu_size: Optional[int],
    rng: random.Random,
) -> frozenset[Correspondence]:
    """Problem 2 per factor of Ω = ∏ Ω_s × {violation-free candidates}.

    ``shards`` is the estimator's ``components()``: per shard, its
    ascending engine indices and its shard-local sample store (local index
    ``k`` is engine index ``indices[k]``).  Shards share no constraint and
    partition the conflicted candidates, so the union of per-shard optima
    and the violation-free candidates is a matching instance and optimal
    for the sums Δ and log u.
    """
    feedback = pnet.feedback
    engine = pnet.network.engine
    correspondences = engine.correspondences
    probability = pnet.probability_vector()
    chosen: list[Correspondence] = []
    for indices, store in shards:
        masks = store.sample_masks
        if store.exhausted and masks:
            log_prob = [
                math.log(max(p, _LIKELIHOOD_FLOOR))
                for p in probability[list(indices)].tolist()
            ]
            best = _best_mask(masks, log_prob, use_likelihood)
            chosen.extend(
                correspondences[indices[k]] for k in mask_indices(best)
            )
        else:
            local = ProbabilisticNetwork(
                store.network, SampledEstimator.from_store(store)
            )
            chosen.extend(
                instantiate(local, iterations, use_likelihood, tabu_size, rng)
            )
    free = engine.corrs_of(engine.violation_free_mask) - feedback.disapproved
    # Approved correspondences outside the candidate set join at the
    # boundary, as in Algorithm 2.
    return free.union(chosen, engine.outside_candidates(feedback.approved))


def _best_mask(
    masks: Sequence[int], log_prob: Sequence[float], use_likelihood: bool
) -> int:
    """The lexicographic minimum of (Δ, −log u) over a complete Ω.

    Δ = |C| − |I| for I ⊆ C, so the fewest missing bits win.  Likelihoods
    are exactly rounded sums, so equal objectives are true ties, which
    the earliest mask in store order wins.
    """
    most = max(mask.bit_count() for mask in masks)
    best, best_likelihood = None, -math.inf
    for mask in masks:
        if mask.bit_count() != most:
            continue
        if not use_likelihood:
            return mask
        likelihood = math.fsum(log_prob[k] for k in mask_indices(mask))
        if likelihood > best_likelihood:
            best, best_likelihood = mask, likelihood
    return best


def exact_instantiate(
    network: MatchingNetwork,
    probabilities: dict[Correspondence, float],
    feedback: Optional[Feedback] = None,
    use_likelihood: bool = True,
) -> frozenset[Correspondence]:
    """Solve Problem 2 exactly by enumerating Ω (exponential; tests only)."""
    feedback = feedback or Feedback()
    instances = enumerate_instances(network, feedback)
    if not instances:
        raise ValueError("no matching instance exists for this feedback")
    candidates = network.correspondences

    def key(instance: frozenset[Correspondence]) -> tuple[float, float]:
        distance = repair_distance(instance, candidates)
        likelihood = (
            log_likelihood(instance, probabilities) if use_likelihood else 0.0
        )
        return (distance, -likelihood)

    return min(instances, key=key)
