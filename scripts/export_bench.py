#!/usr/bin/env python
"""Run the kernel benchmark suite and export ``BENCH_kernels.json``.

Executes the micro-kernel and network-matching benches with
pytest-benchmark and trims the raw report down to ``name → median seconds``
— the compact shape the perf trajectory tracks from PR to PR.  Run from
anywhere::

    python scripts/export_bench.py [output.json]

``--only FILE [FILE ...]`` restricts the run to the given bench files and
merges their medians into the existing report instead of rewriting it —
the cheap way to refresh one suite's numbers.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILES = (
    "benchmarks/test_bench_kernels.py",
    "benchmarks/test_bench_emission.py",
    "benchmarks/test_bench_match_network.py",
    "benchmarks/test_bench_reconciliation.py",
    "benchmarks/test_bench_crowd.py",
    "benchmarks/test_bench_lint.py",
    "benchmarks/test_bench_checkpoint.py",
    "benchmarks/test_bench_shard.py",
    "benchmarks/test_bench_churn.py",
    "benchmarks/test_bench_compile.py",
    "benchmarks/test_bench_service.py",
    "benchmarks/test_bench_deliverable.py",
)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", nargs="?", default=str(ROOT / "BENCH_kernels.json"))
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="FILE",
        help="bench files to (re)run; medians merge into the existing report",
    )
    args = parser.parse_args(argv[1:])
    out_path = pathlib.Path(args.output)
    bench_files = tuple(args.only) if args.only else BENCH_FILES
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = pathlib.Path(tmp) / "bench.json"
        command = [
            sys.executable,
            "-m",
            "pytest",
            *bench_files,
            "--benchmark-only",
            f"--benchmark-json={raw_path}",
            "-m",
            "",  # include the slow-marked scalar baselines
            "-q",
        ]
        result = subprocess.run(command, cwd=ROOT)
        if result.returncode:
            return result.returncode
        report = json.loads(raw_path.read_text())
    medians = {
        bench["name"]: bench["stats"]["median"]
        for bench in report["benchmarks"]
    }
    if args.only and out_path.exists():
        merged = json.loads(out_path.read_text())
        merged.update(medians)
        medians = merged
    out_path.write_text(json.dumps(medians, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(medians)} benchmark medians to {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
