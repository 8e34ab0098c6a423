"""Churn experiment — evolving networks under schema add/remove deltas.

A deployed reconciliation service does not match a frozen set of schemas:
sources join, sources retire, and the matcher proposes fresh candidates
against the newcomers.  The naive response — rebuild the network, the
constraint engine and every shard's sample store from scratch — throws
away all conditioning work on the parts of the network the churn never
touched.  The delta pipeline (:mod:`repro.core.delta`,
:meth:`~repro.shard.ShardedSampleStore.apply_delta`) instead carries
untouched shards over *verbatim* — same store objects, same Ω* masks,
same RNG positions — and rebuilds only the components the delta actually
intersects.

This experiment quantifies that trade across churn fractions: for each
fraction it generates a schema-level delta (remove ``fraction·|S|``
random schemas, add as many fresh ones with candidate correspondences
against the survivors), then times the incremental ``apply_delta`` path
against a from-scratch rebuild of the post-delta network, reporting the
candidate turnover, the fraction of shards carried verbatim, both wall
times and the speedup.  The churn benchmark
(``benchmarks/test_bench_churn.py``) gates the 10 % row of the paper-scale
version of this table at ≥ 5×.
"""

from __future__ import annotations

import random
import time
from typing import Optional, Sequence

from ..core.correspondence import Correspondence, correspondence
from ..core.delta import NetworkDelta
from ..core.network import MatchingNetwork
from ..core.schema import Schema
from .harness import synthetic_network
from .reporting import ExperimentResult

#: Name prefix for schemas a churn delta invents; chosen not to collide
#: with the synthetic generator's ``S%03d`` or any corpus schema name.
CHURN_SCHEMA_PREFIX = "churn"


def make_churn_delta(
    network: MatchingNetwork,
    fraction: float,
    rng: random.Random,
    *,
    edges_per_schema: int = 2,
    candidates_per_edge: int = 4,
    attributes_per_schema: Optional[int] = None,
) -> NetworkDelta:
    """A schema-level churn delta: drop ``fraction·|S|``, add as many back.

    Removed schemas are drawn uniformly (their candidates disappear with
    them); each added schema gets ``edges_per_schema`` interaction edges to
    surviving schemas and ``candidates_per_edge`` random candidate
    correspondences along each — every added edge touches an added schema,
    as the delta contract requires.  Deterministic given ``rng``; the
    harness convention seeds it with ``Random(seed + 3)`` (network =
    ``seed``, strategy = ``seed + 1``, oracle/pool = ``seed + 2``).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    schemas = sorted(network.schemas, key=lambda schema: schema.name)
    n_churn = max(1, round(fraction * len(schemas)))
    if n_churn >= len(schemas):
        raise ValueError("churn fraction would remove every schema")
    removed = sorted(rng.sample([schema.name for schema in schemas], n_churn))
    removed_set = set(removed)
    survivors = [schema for schema in schemas if schema.name not in removed_set]
    width = (
        attributes_per_schema
        if attributes_per_schema is not None
        else max(len(schema) for schema in survivors)
    )
    # Names must be fresh in the successor: a network already churned once
    # still carries earlier churnNNN schemas (unless this delta removes
    # them, in which case the name may be reused).
    taken = {schema.name for schema in schemas} - removed_set
    add_schemas: list[Schema] = []
    add_edges: list[tuple[str, str]] = []
    add_candidates: list[tuple[Correspondence, float]] = []
    seen: set[Correspondence] = set()
    next_index = 0
    for _ in range(n_churn):
        while f"{CHURN_SCHEMA_PREFIX}{next_index:03d}" in taken:
            next_index += 1
        name = f"{CHURN_SCHEMA_PREFIX}{next_index:03d}"
        next_index += 1
        schema = Schema.from_names(
            name, [f"c{position:03d}" for position in range(width)]
        )
        add_schemas.append(schema)
        partners = rng.sample(
            survivors, min(edges_per_schema, len(survivors))
        )
        for partner in partners:
            add_edges.append((name, partner.name))
            for _ in range(candidates_per_edge):
                corr = correspondence(
                    schema.attributes[rng.randrange(len(schema))],
                    partner.attributes[rng.randrange(len(partner))],
                )
                if corr in seen:
                    continue
                seen.add(corr)
                add_candidates.append((corr, rng.random()))
    return NetworkDelta(
        add_schemas=tuple(add_schemas),
        remove_schemas=tuple(removed),
        add_edges=tuple(add_edges),
        add_candidates=tuple(add_candidates),
    )


def run(
    fractions: Sequence[float] = (0.05, 0.1, 0.2),
    n_correspondences: int = 1500,
    n_schemas: int = 60,
    attributes_per_schema: int = 60,
    conflict_bias: float = 0.35,
    target_samples: int = 200,
    max_shards: Optional[int] = None,
    seed: int = 7,
) -> ExperimentResult:
    """Delta application vs. from-scratch rebuild across churn fractions.

    Both paths end in a fully refilled sharded store over the *same*
    post-delta network; the delta path additionally returns the carried
    map, from which the verbatim-carryover fraction is reported.
    """
    from ..shard import ShardedSampleStore

    network = synthetic_network(
        n_correspondences,
        n_schemas=n_schemas,
        attributes_per_schema=attributes_per_schema,
        conflict_bias=conflict_bias,
        seed=seed,
    )
    result = ExperimentResult(
        experiment="churn",
        title="Incremental network deltas vs. from-scratch rebuilds",
        columns=(
            "churn",
            "removed |C|",
            "added |C|",
            "carried shards",
            "total shards",
            "delta (ms)",
            "rebuild (ms)",
            "speedup",
        ),
        notes=(
            f"synthetic network, |C|={n_correspondences}, "
            f"|S|={n_schemas}, target_samples={target_samples}; churn "
            "removes the named fraction of schemas and adds as many "
            "fresh ones; carried shards keep their stores verbatim "
            "(bit-identical masks and RNG positions)"
        ),
    )
    for fraction in fractions:
        delta = make_churn_delta(network, fraction, random.Random(seed + 3))
        store = ShardedSampleStore(
            network,
            rng=random.Random(seed),
            target_samples=target_samples,
            max_shards=max_shards,
        )
        started = time.perf_counter()
        delta_result = network.apply_delta(delta)
        carried = store.apply_delta(delta_result)
        delta_elapsed = time.perf_counter() - started
        started = time.perf_counter()
        rebuilt_network = MatchingNetwork(
            list(delta_result.network.schemas),
            delta_result.network.candidates,
            graph=delta_result.network.graph,
            constraints=list(delta_result.network.constraints),
        )
        ShardedSampleStore(
            rebuilt_network,
            rng=random.Random(seed),
            target_samples=target_samples,
            max_shards=max_shards,
        )
        rebuild_elapsed = time.perf_counter() - started
        result.add_row(
            fraction,
            len(delta_result.removed_indices),
            len(delta_result.added_indices),
            len(carried),
            len(store.plan.shards),
            delta_elapsed * 1e3,
            rebuild_elapsed * 1e3,
            rebuild_elapsed / delta_elapsed if delta_elapsed else float("inf"),
        )
    return result
