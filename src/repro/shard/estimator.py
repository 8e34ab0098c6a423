"""Sharded probability estimator — Equation 2 over shard-local pools.

:class:`ShardedEstimator` is the drop-in counterpart of
:class:`~repro.core.probability.SampledEstimator` backed by a
:class:`~repro.shard.store.ShardedSampleStore`: same estimator surface
(``probabilities``, ``probability_vector``, ``record_assertion``,
``retract_approval``, ``version``, ``feedback``), so
:class:`~repro.core.probability.ProbabilisticNetwork` and every selection
strategy run over it unchanged; information gain and the deliverable read
its :meth:`~ShardedEstimator.components` instead of one whole-network
sample set.  The differential suite (``tests/test_shard_equivalence.py``)
pins the claim that matters: a sharded session's trace is *bit-identical*
to the unsharded one when both hold complete instance sets.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

import numpy as np

from ..core.correspondence import Correspondence
from ..core.feedback import Feedback
from ..core.network import MatchingNetwork
from ..core.probability import ProbabilityEstimator
from ..core.sampling import SampleStore
from .store import ShardedSampleStore

__all__ = ["ShardedEstimator"]


class ShardedEstimator(ProbabilityEstimator):
    """Sample frequencies merged exactly across violation-graph shards."""

    def __init__(
        self,
        network: MatchingNetwork,
        target_samples: int = 500,
        rng: Optional[random.Random] = None,
        enumerate_limit: int = 4096,
        catalog=None,
    ):
        self.network = network
        self.store = ShardedSampleStore(
            network,
            rng=rng,
            target_samples=target_samples,
            enumerate_limit=enumerate_limit,
            catalog=catalog,
        )

    @classmethod
    def from_store(cls, store: ShardedSampleStore) -> "ShardedEstimator":
        """Wrap an existing (e.g. checkpoint-restored) sharded store."""
        estimator = cls.__new__(cls)
        estimator.network = store.network
        estimator.store = store
        return estimator

    @property
    def feedback(self) -> Feedback:
        return self.store.feedback

    @property
    def version(self) -> int:
        return self.store.version

    @property
    def n_shards(self) -> int:
        return len(self.store.shards)

    def components(self) -> list[tuple[tuple[int, ...], SampleStore]]:
        """The factors Ω_s of Ω = ∏ Ω_s × {violation-free candidates}.

        One pair per shard, in shard order: its ascending engine indices
        and its shard-local sample store.  The violation-free candidates
        belong to no shard.  The deliverable solves Problem 2 one factor
        at a time over these (``core.instantiation.instantiate``), and
        information gain conditions only the asserted candidate's factor
        (``InformationGainSelection.scores``).
        """
        return [(shard.indices, shard.store) for shard in self.store.shards]

    def probabilities(self) -> dict[Correspondence, float]:
        return self.store.frequencies()

    def probability_vector(
        self, correspondences: Sequence[Correspondence]
    ) -> np.ndarray:
        whole = self.network.correspondences
        if correspondences is whole or tuple(correspondences) == whole:
            return self.store.probability_vector()
        return super().probability_vector(correspondences)

    def apply_delta(self, result) -> dict[int, int]:
        """Consume a :class:`~repro.core.delta.DeltaResult` incrementally.

        Delegates to :meth:`ShardedSampleStore.apply_delta`: untouched
        shards keep their live engines, stores and RNG streams verbatim;
        touched shards rebuild pre-seeded with the surviving feedback.
        Returns the carried map (new shard position → old position).
        """
        carried = self.store.apply_delta(result)
        self.network = result.network
        return carried

    def record_assertion(self, corr: Correspondence, approved: bool) -> None:
        self.store.record_assertion(corr, approved)

    def retract_approval(self, corr: Correspondence, refill: bool = True) -> None:
        self.store.retract_approval(corr, refill=refill)
