"""Engine compile benchmarks: violation discovery on three networks.

Compiling the constraint engine (one-to-one pairs plus the cycle
constraint's minimal violations, then the mask index space) is the setup
cost every session, shard and rebuild pays.  Each bench times
``ConstraintEngine`` on an already-matched network, so matchers and
network validation stay outside the timed region:

* the reference synthetic network (24 schemas / 1500 candidates / 186
  violations), in the fast profile;
* paper-ig's network, WebForm at scale 0.5 with corpus seed 3 and the
  ``coma_like`` matchers (6790 candidates / 6964 violations);
* the 10× synthetic network (240 schemas / 15000 candidates / 194
  violations), whose ~10⁵ schema triangles made compile its whole setup.

The medians land in BENCH_kernels.json.
"""

from __future__ import annotations

import pytest

from repro.core.constraints import ConstraintEngine, default_constraints
from repro.experiments.harness import build_fixture
from test_bench_reconciliation import reference_fixture
from test_bench_shard import tenx_fixture


def _compile(network) -> ConstraintEngine:
    return ConstraintEngine(
        default_constraints(), network.correspondences, network.graph
    )


def test_bench_compile_reference(benchmark):
    """Fast-profile presence: compile the reference network."""
    network = reference_fixture().network
    engine = benchmark(_compile, network)
    assert engine.violations == network.engine.violations


@pytest.mark.slow
def test_bench_compile_webform(benchmark):
    """paper-ig's network, tracked in BENCH_kernels.json."""
    network = build_fixture(
        corpus_name="WebForm", scale=0.5, seed=3, pipeline="coma_like"
    ).network
    engine = benchmark.pedantic(_compile, args=(network,), iterations=1, rounds=5)
    assert len(engine.correspondences) == 6790
    assert len(engine.violations) == 6964


@pytest.mark.slow
def test_bench_compile_10x(benchmark):
    """The 10× network, tracked in BENCH_kernels.json."""
    network = tenx_fixture().network
    engine = benchmark.pedantic(_compile, args=(network,), iterations=1, rounds=3)
    assert len(engine.violations) == 194
