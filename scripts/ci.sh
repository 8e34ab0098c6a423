#!/usr/bin/env bash
# Tier-1 CI entrypoint: byte-compile the package, import/dead-store lint,
# the fast test profile, the shard-parity, emission-parity, IG-parity,
# matcher-parity and chaos smokes, every experiment runner at its quick
# size, the perfbench self-test, then the
# src/repro/{core,crowd,analysis,durability,shard,service} line-coverage
# floors (stdlib settrace tracer over the deterministic test files — the
# container ships no coverage.py).
# (pytest.ini deselects the slow benchmark/experiment regenerations; run
# `pytest -m ""` for the full matrix).
set -euo pipefail
cd "$(dirname "$0")/.."

python -m compileall -q src
# ruff.toml selects F401/F811/F841; the stdlib fallback enforces the same
# rules when no ruff binary is installed.
if command -v ruff >/dev/null 2>&1; then
    ruff check .
else
    python scripts/import_hygiene.py
fi
python -m pytest -q
# Shard parity smoke: one differential seed per expert strategy and per
# crowd criterion must reproduce the unsharded trace bit-for-bit, and
# expert and crowd information gain must run on the 124-shard reference
# network (the full matrices run in the plain pass above; this re-runs the
# six seed-0 traces and the reference-scale test standalone so a sharding
# or gain-factorisation regression is named in the CI log).
python -m pytest -q \
    "tests/test_shard_equivalence.py::TestTraceEquivalence::test_sharded_trace_bit_identical" \
    "tests/test_shard_equivalence.py::TestCrowdTraceEquivalence::test_sharded_crowd_trace_bit_identical" \
    "tests/test_shard_equivalence.py::TestReferenceScaleInformationGain" \
    -k "0- or ReferenceScale"
# Emission parity smoke: the priority-wave kernel must reproduce the
# sequential greedy scan for fixed priorities (pair, triangle and 4- and
# 5-member violations, across the 64-emission word boundary), re-run
# standalone so a kernel regression is named in the CI log.
python -m pytest -q tests/test_wave_maximalize.py -k "Parity"
# IG parity smoke: the gain reduction (cached counts, float32 product, one
# entropy-table gather) must equal a copy of the float64 per-size-loop
# reduction byte for byte, and the store's compact conflicted-column factor
# must give the full-width matrix's gains over a 60-step session on the
# reference network — re-run standalone so a gain regression is named in
# the CI log.
python -m pytest -q \
    "tests/test_uncertainty.py::TestInformationGainParity::test_gains_equal_reference_reduction" \
    "tests/test_uncertainty.py::TestInformationGainParity::test_compact_factor_matches_full_matrix_over_session"
# Matcher parity smoke: the bit-parallel Levenshtein and Jaro-Winkler
# kernels must equal the scalar references bit for bit (empty, identical,
# non-ASCII and astral names, lengths 63-65 across the one-word boundary
# and its scalar fallback, batches of hundreds of pairs) — re-run
# standalone so a kernel regression is named in the CI log.
python -m pytest -q tests/test_string_metrics.py -k "WordKernelParity"
# Durability: crash at every round boundary of a seeded crowd run, recover
# from checkpoint + journal, require a bit-identical final trace.
python scripts/chaos_smoke.py
# Every experiment runner at its quick size: no test calls the churn, serve
# or crowd-budget runners, so a runner broken by a change to a layer under
# it fails here.
PYTHONPATH=src python -m repro.experiments.cli all --quick > /dev/null
# Benchmark harness self-test on toy inputs (not in the default testpaths).
# Its traced runs patch entry points inside src/repro, so a change that
# removes one fails here rather than in a benchmark run.
python -m pytest perfbench -q
# The traced floor re-runs the deterministic core test files; the overlap
# with the plain pass above is deliberate — the plain pass is the exact
# tier-1 gate profile (all tests, no tracer), the floor is a coverage
# measurement, and neither substitutes for the other.
python scripts/coverage_floor.py --min 85
