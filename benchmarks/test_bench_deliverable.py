"""Deliverable benchmarks: Problem 2 one violation component at a time.

``current_matching`` on a sharded session solves Problem 2 (minimal
repair distance Δ, then maximal likelihood) per factor of
Ω = ∏ Ω_s × {violation-free candidates}: an enumerated shard takes its
exact optimum in one scan over its instances, so no whole-network local
search runs.  Two bars:

* the reference network (24 schemas / 1500 candidates / 124 shards), in
  the fast profile: at least 5× faster than Algorithm 2 over the whole
  network on the same state, after 0, 40 and 120 likelihood steps, with
  an objective that is never worse;
* the 10× network (240 schemas / 15000 candidates / 190 shards), slow:
  under 50 ms per call, objective never worse than Algorithm 2's.

The medians land in BENCH_kernels.json.
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from repro.core import ProbabilisticNetwork, instantiate, is_matching_instance
from repro.core.instantiation import log_likelihood, repair_distance
from repro.experiments import ScenarioSpec, build_session
from test_bench_reconciliation import REFERENCE_SAMPLES, reference_fixture
from test_bench_shard import tenx_fixture

#: Likelihood steps taken before the timed deliverable calls.
STEPS = (0, 40, 120)


class _Unfactorised:
    """Hides the estimator's ``components()``, so ``instantiate`` runs
    Algorithm 2 over the whole network on the same P and feedback."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        if name == "components":
            raise AttributeError(name)
        return getattr(self._inner, name)


def _algorithm_2(pnet, rng):
    whole = ProbabilisticNetwork(
        pnet.network, estimator=_Unfactorised(pnet.estimator)
    )
    return instantiate(whole, rng=rng)


def _session(fixture, steps):
    session = build_session(
        fixture,
        ScenarioSpec(
            strategy="likelihood",
            target_samples=REFERENCE_SAMPLES,
            seed=3,
            sharded=True,
        ),
    )
    while len(session.trace.steps) < steps and session.step() is not None:
        pass
    return session


def _objective(matching, pnet):
    return (
        repair_distance(matching, pnet.correspondences),
        -log_likelihood(matching, pnet.probabilities()),
    )


def _no_worse(challenger, incumbent):
    if challenger[0] != incumbent[0]:
        return challenger[0] < incumbent[0]
    return challenger[1] <= incumbent[1] + 1e-9 * abs(incumbent[1])


def _timed(call, repeats):
    samples = []
    for j in range(repeats):
        start = time.perf_counter()
        result = call(random.Random(j))
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


def test_bench_deliverable_reference(benchmark):
    """Fast-profile presence: the deliverable after 40 likelihood steps."""
    session = _session(reference_fixture(), 40)
    pnet = session.pnet
    matching = benchmark(session.current_matching, rng=random.Random(0))
    assert is_matching_instance(matching, pnet.network, pnet.feedback)


def test_deliverable_speedup_gate(capsys):
    """The acceptance bar: ≥5× over Algorithm 2, objective never worse."""
    lines = []
    for steps in STEPS:
        session = _session(reference_fixture(), steps)
        pnet = session.pnet
        exact, matching = _timed(
            lambda rng: session.current_matching(rng=rng), 9
        )
        heuristic, baseline = _timed(lambda rng: _algorithm_2(pnet, rng), 3)
        assert is_matching_instance(matching, pnet.network, pnet.feedback)
        assert _no_worse(_objective(matching, pnet), _objective(baseline, pnet))
        ratio = heuristic / exact
        lines.append(
            f"{steps:>4} steps: Algorithm 2 {heuristic * 1e3:.1f}ms → "
            f"per component {exact * 1e3:.2f}ms ({ratio:.0f}x)"
        )
        assert ratio >= 5.0, lines[-1]
    with capsys.disabled():
        print("\ndeliverable (reference network, sharded):")
        print("\n".join(lines))


@pytest.mark.slow
def test_bench_deliverable_10x(benchmark):
    """The 10× network after 40 likelihood steps, in BENCH_kernels.json."""
    session = _session(tenx_fixture(), 40)
    pnet = session.pnet
    matching = benchmark(session.current_matching, rng=random.Random(0))
    assert is_matching_instance(matching, pnet.network, pnet.feedback)


@pytest.mark.slow
def test_deliverable_10x_bar(capsys):
    """The acceptance bar: under 50 ms on the 10× network, and never
    worse than Algorithm 2 (which takes seconds there)."""
    session = _session(tenx_fixture(), 40)
    pnet = session.pnet
    elapsed, matching = _timed(
        lambda rng: session.current_matching(rng=rng), 9
    )
    started = time.perf_counter()
    baseline = _algorithm_2(pnet, random.Random(0))
    heuristic = time.perf_counter() - started
    assert is_matching_instance(matching, pnet.network, pnet.feedback)
    assert _no_worse(_objective(matching, pnet), _objective(baseline, pnet))
    with capsys.disabled():
        print(
            f"\ndeliverable (10x network, sharded): Algorithm 2 "
            f"{heuristic:.2f}s → per component {elapsed * 1e3:.2f}ms"
        )
    assert elapsed < 0.050
