"""Component-sharded reconciliation: exact divide-and-conquer sampling.

The violation graph of a matching network splits into connected
components that share no constraints, so the instance space is a product
space and every probabilistic quantity the reconciliation loop consumes
factorises over the components.  This package exploits that:

* :mod:`repro.shard.components` — component discovery and the
  deterministic one-shard-per-component plan (:func:`shard_plan`);
* :mod:`repro.shard.store` — shard-local sample stores (exact
  enumeration for small shards, walk/wave sampling for large ones) and
  the exact boundary merge (:class:`ShardedSampleStore`);
* :mod:`repro.shard.estimator` — the drop-in
  :class:`~repro.core.probability.ProbabilityEstimator`
  (:class:`ShardedEstimator`).

The differential suite in ``tests/test_shard_equivalence.py`` pins the
whole construction: sharded session traces are bit-identical to the
unsharded reference across strategies and seeds.
"""

from .components import (
    ShardPlan,
    shard_plan,
    shard_plan_delta,
    violation_components,
)
from .estimator import ShardedEstimator
from .store import (
    EnumeratingSampleStore,
    Shard,
    ShardedSampleStore,
)

__all__ = [
    "EnumeratingSampleStore",
    "Shard",
    "ShardPlan",
    "ShardedEstimator",
    "ShardedSampleStore",
    "shard_plan",
    "shard_plan_delta",
    "violation_components",
]
