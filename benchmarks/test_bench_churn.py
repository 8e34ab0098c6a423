"""Churn benchmarks: evolving the 10× network by delta vs rebuilding it.

The delta tentpole's acceptance bar: a 10% add/remove schema churn on
the 10×-scale sharded network (240 schemas / 15000 candidates) applies
≥5× faster than rebuilding the post-delta network and store from
scratch — and the speedup is *safe*, because every carried shard keeps
its sample masks and RNG stream positions byte for byte (zero
resampling; the gate asserts ``get_state()`` equality, not just timing).

Semantic equivalence of the delta path (bit-identical probability
vectors, session traces, crash recovery) is enforced in
``tests/test_delta.py`` and ``tests/test_delta_equivalence.py`` — these
benches time the asymmetry and re-assert only the cheap carried-shard
invariant on the configuration actually being measured.
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from repro.core import MatchingNetwork
from repro.experiments.churn import make_churn_delta
from repro.experiments.harness import synthetic_network
from repro.shard import ShardedSampleStore
from test_bench_reconciliation import REFERENCE_SAMPLES
from test_bench_shard import tenx_fixture

#: Fraction of schemas each churn delta removes and re-adds.
CHURN_FRACTION = 0.1
#: Evolution rounds the gate medians over.
ROUNDS = 3


def _rebuild_from_scratch(result, seed: int) -> ShardedSampleStore:
    """The baseline: full constraint rediscovery plus a fresh store."""
    network = MatchingNetwork(
        list(result.network.schemas),
        result.network.candidates,
        graph=result.network.graph,
        constraints=list(result.network.constraints),
    )
    return ShardedSampleStore(
        network, rng=random.Random(seed), target_samples=REFERENCE_SAMPLES
    )


def _evolver(network, store, seed_base: int):
    """A closure that applies one fresh churn delta per call, in place."""
    state = {"network": network}
    counter = iter(range(10_000))

    def evolve():
        index = next(counter)
        delta = make_churn_delta(
            state["network"], CHURN_FRACTION, random.Random(seed_base + index)
        )
        result = state["network"].apply_delta(delta)
        carried = store.apply_delta(result)
        state["network"] = result.network
        return carried

    return evolve


def test_bench_churn_delta_small(benchmark):
    """Fast-profile presence: churn a small sharded network by delta."""
    network = synthetic_network(
        400,
        n_schemas=24,
        attributes_per_schema=40,
        conflict_bias=0.35,
        seed=7,
    )
    store = ShardedSampleStore(
        network, rng=random.Random(7), target_samples=120
    )
    evolve = _evolver(network, store, seed_base=100)
    carried = benchmark.pedantic(evolve, iterations=1, rounds=3)
    assert carried  # untouched shards really were carried, not rebuilt


@pytest.mark.slow
def test_bench_churn_delta_10x(benchmark):
    """The delta side of the gate, tracked in BENCH_kernels.json."""
    fixture = tenx_fixture()
    store = ShardedSampleStore(
        fixture.network, rng=random.Random(7), target_samples=REFERENCE_SAMPLES
    )
    evolve = _evolver(fixture.network, store, seed_base=200)
    carried = benchmark.pedantic(evolve, iterations=1, rounds=ROUNDS)
    assert carried


@pytest.mark.slow
def test_bench_churn_rebuild_10x(benchmark):
    """The baseline side of the gate, tracked in BENCH_kernels.json."""
    fixture = tenx_fixture()
    delta = make_churn_delta(
        fixture.network, CHURN_FRACTION, random.Random(200)
    )
    result = fixture.network.apply_delta(delta)

    def rebuild():
        return len(_rebuild_from_scratch(result, seed=7).shards)

    n_shards = benchmark.pedantic(rebuild, iterations=1, rounds=2)
    assert n_shards


@pytest.mark.slow
def test_churn_delta_speedup_gate(capsys):
    """The acceptance bar: 10% schema churn applies ≥5× faster than a
    rebuild, with every carried shard byte-identical.

    The network evolves in place across ``ROUNDS`` independent deltas;
    each round times the delta path (incremental recompile + in-place
    re-shard) against building the same post-delta network and store
    from scratch, and asserts the carried shards kept their sample
    masks and walker RNG positions verbatim.
    """
    fixture = tenx_fixture()
    network = fixture.network
    store = ShardedSampleStore(
        network, rng=random.Random(7), target_samples=REFERENCE_SAMPLES
    )
    delta_times: list[float] = []
    rebuild_times: list[float] = []
    carried_count = shard_count = 0
    for index in range(ROUNDS):
        delta = make_churn_delta(
            network, CHURN_FRACTION, random.Random(100 + index)
        )
        before = {
            position: (
                shard.store.get_state(),
                shard.store.sampler.get_state(),
            )
            for position, shard in enumerate(store.shards)
        }

        start = time.perf_counter()
        result = network.apply_delta(delta)
        carried = store.apply_delta(result)
        delta_times.append(time.perf_counter() - start)
        network = result.network

        # Zero resampling on untouched shards: masks and RNG stream
        # positions are byte-identical, not merely equivalent.
        assert carried
        for new_position, old_position in carried.items():
            old_state, old_sampler = before[old_position]
            shard = store.shards[new_position]
            assert shard.store.get_state() == old_state
            assert shard.store.sampler.get_state() == old_sampler
        carried_count += len(carried)
        shard_count += len(store.shards)

        start = time.perf_counter()
        _rebuild_from_scratch(result, seed=7)
        rebuild_times.append(time.perf_counter() - start)

    delta_median = statistics.median(delta_times)
    rebuild_median = statistics.median(rebuild_times)
    ratio = rebuild_median / delta_median
    with capsys.disabled():
        print(
            f"\nchurn {CHURN_FRACTION:.0%} on the 10× network: rebuild "
            f"{rebuild_median * 1e3:.0f}ms → delta "
            f"{delta_median * 1e3:.0f}ms ({ratio:.1f}×); carried "
            f"{carried_count}/{shard_count} shards byte-identical"
        )
    assert ratio >= 5.0
