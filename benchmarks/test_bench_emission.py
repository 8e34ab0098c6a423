"""Emission micro-bench: sequential greedy scan vs the priority-wave batch.

The sampler's emission used to be a per-instance greedy maximalisation scan
— ~60µs of sequential Python per emission on conflict-dense networks, the
last sequential loop in the sampling layer.  The batched priority-wave
maximaliser (:func:`repro.core.repair.wave_maximalize_batch`) decides a
whole refill's worth of emissions in a handful of numpy waves.  The gate
below enforces the PR-4 acceptance bar — ≥3× over the sequential scan on
the conflict-dense reference network (24 schemas / 1500 candidates / 186
violations) — after asserting bit-for-bit parity of the deterministic
schedules.  A slow bench also times one refill on the WebForm network of
the repository benchmark's ``paper-ig`` workload (6790 candidates, 6964
violations), where the kernel's cost lives.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np
import pytest

from repro.core import InstanceSampler
from repro.core.repair import greedy_maximalize_mask, wave_maximalize_batch
from repro.experiments.harness import build_fixture
from test_bench_reconciliation import reference_fixture, small_fixture

#: One refill's worth of emissions on the reference network.
REFILL_EMISSIONS = 250

#: One refill's worth of walk states on paper-ig's WebForm network (its
#: refills top 250 samples back up from the ~70 that survive an assertion).
WEBFORM_REFILL_STATES = 180


def _emission_inputs(fixture, n_states: int, seed: int):
    """Walk states plus the per-state conflicted availability sets.

    The availability sets are derived here, outside any timed region,
    because the historical sequential path maintained them incrementally
    across the walk — the scan being benchmarked never paid for them.
    """
    engine = fixture.network.engine
    sampler = InstanceSampler(fixture.network, rng=random.Random(seed))
    states, allowed = sampler.walk_states(n_states)
    conflicted = engine.conflicted_mask
    avail_sets = [
        set(
            np.flatnonzero(
                engine.selection_array(allowed & ~state & conflicted)[:-1]
            ).tolist()
        )
        for state in states
    ]
    return engine, states, allowed, avail_sets


def _sequential_emission(engine, instance, allowed, generator, available):
    """The pre-wave emission kernel, kept here as the gate's baseline.

    Violation-free candidates go in wholesale; then one numpy permutation
    (from ``generator``) of the state's conflicted availability set
    ``available``, and the sequential ``_scan_rows`` check.  This is the
    sampler's per-instance emission scan from before the wave kernel,
    verbatim: it draws the same stream and emits the same masks.
    """
    cur = instance
    avail = allowed & ~cur
    if not avail:
        return cur
    free = avail & engine.violation_free_mask
    if free:
        cur |= free
        avail ^= free
        if not avail:
            return cur
    count = len(available)
    if count > 1:
        indices = generator.permutation(
            np.fromiter(available, dtype=np.intp, count=count)
        ).tolist()
    else:
        indices = list(available)
    scan_rows = engine._scan_rows
    for bit, partners, large in map(scan_rows.__getitem__, indices):
        if cur & partners:
            continue
        if large:
            grown = cur | bit
            for vmask in large:
                if vmask & grown == vmask:
                    break
            else:
                cur = grown
            continue
        cur |= bit
    return cur


def _sequential_emissions(engine, states, allowed, avail_sets, np_rng):
    """The pre-wave emission path: one permutation scan per instance."""
    return [
        _sequential_emission(engine, state, allowed, np_rng, avail)
        for state, avail in zip(states, avail_sets)
    ]


def _assert_valid_emissions(engine, allowed, masks):
    excluded = engine.full_mask & ~allowed
    for mask in masks:
        assert engine.mask_is_consistent(mask)
        assert engine.mask_is_maximal(mask, excluded)


def test_bench_emission_wave_small(benchmark):
    """Fast-profile presence: the batch kernel on the small network."""
    engine, states, allowed, _ = _emission_inputs(small_fixture(), 120, 3)
    np_rng = np.random.default_rng(5)
    masks = benchmark(
        wave_maximalize_batch, engine, states, allowed, np_rng=np_rng
    )
    _assert_valid_emissions(engine, allowed, masks)
    # Deterministic schedules agree bit for bit with the scalar kernel.
    assert wave_maximalize_batch(engine, states, allowed) == [
        greedy_maximalize_mask(engine, state, allowed) for state in states
    ]


@pytest.mark.slow
def test_bench_emission_sequential_reference(benchmark):
    """The baseline side of the gate, tracked in BENCH_kernels.json."""
    engine, states, allowed, avail_sets = _emission_inputs(
        reference_fixture(), REFILL_EMISSIONS, 3
    )
    np_rng = np.random.default_rng(9)
    masks = benchmark(
        _sequential_emissions, engine, states, allowed, avail_sets, np_rng
    )
    _assert_valid_emissions(engine, allowed, masks)


@pytest.mark.slow
def test_bench_emission_wave_reference(benchmark):
    """The wave side of the gate, tracked in BENCH_kernels.json."""
    engine, states, allowed, _ = _emission_inputs(
        reference_fixture(), REFILL_EMISSIONS, 3
    )
    np_rng = np.random.default_rng(9)
    masks = benchmark(
        wave_maximalize_batch, engine, states, allowed, np_rng=np_rng
    )
    _assert_valid_emissions(engine, allowed, masks)


@pytest.mark.slow
def test_bench_emission_wave_webform(benchmark):
    """One refill on paper-ig's network: WebForm at scale 0.5, corpus seed
    3, ``coma_like`` matchers."""
    fixture = build_fixture(
        corpus_name="WebForm", scale=0.5, seed=3, pipeline="coma_like"
    )
    engine, states, allowed, _ = _emission_inputs(
        fixture, WEBFORM_REFILL_STATES, 3
    )
    np_rng = np.random.default_rng(9)
    masks = benchmark(
        wave_maximalize_batch, engine, states, allowed, np_rng=np_rng
    )
    _assert_valid_emissions(engine, allowed, masks)
    # Deterministic schedules agree bit for bit with the scalar kernel.
    assert wave_maximalize_batch(engine, states, allowed) == [
        greedy_maximalize_mask(engine, state, allowed) for state in states
    ]


@pytest.mark.slow
def test_emission_wave_speedup_gate(capsys):
    """The acceptance bar: ≥3× over the sequential emission scan."""
    engine, states, allowed, avail_sets = _emission_inputs(
        reference_fixture(), REFILL_EMISSIONS, 3
    )
    # Exactness before speed: the deterministic schedules must agree.
    assert wave_maximalize_batch(engine, states, allowed) == [
        greedy_maximalize_mask(engine, state, allowed) for state in states
    ]

    def timed(fn, repeats=9):
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    np_rng = np.random.default_rng(9)
    sequential = timed(
        lambda: _sequential_emissions(engine, states, allowed, avail_sets, np_rng)
    )
    wave = timed(
        lambda: wave_maximalize_batch(engine, states, allowed, np_rng=np_rng)
    )
    ratio = sequential / wave
    with capsys.disabled():
        print(
            f"\nemission scan ({REFILL_EMISSIONS} emissions, reference "
            f"network): sequential {sequential * 1e3:.2f}ms → wave "
            f"{wave * 1e3:.2f}ms  ({ratio:.1f}x)"
        )
    assert ratio >= 3.0
