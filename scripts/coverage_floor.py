#!/usr/bin/env python
"""Line-coverage floor for
``src/repro/{core,crowd,analysis,durability,shard,service}`` — stdlib only.

The container ships no ``coverage``/``pytest-cov``, so this script measures
line coverage with a ``sys.settrace`` tracer that activates only for frames
whose code lives under the measured packages (every other frame is skipped
at the call event, keeping overhead tolerable).  Executable lines come from
walking each module's compiled code objects (``co_lines``), so the
percentage is comparable to what coverage.py reports.

Usage::

    python scripts/coverage_floor.py [--min PCT]

Runs the deterministic core/crowd-focused test files under the tracer and
exits non-zero when any measured package's total coverage falls below the
floor (default 85%, enforced per package).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Packages under the floor; each is enforced independently.
PACKAGES = ("core", "crowd", "analysis", "durability", "shard", "service")
PACKAGE_DIRS = {
    name: str(ROOT / "src" / "repro" / name) + os.sep for name in PACKAGES
}

#: Deterministic, core/crowd-heavy test files (the hypothesis-driven
#: equivalence suites are excluded: under a Python tracer they blow past
#: their budget without adding measured lines).
TEST_FILES = [
    "tests/test_constraints.py",
    "tests/test_correspondence.py",
    "tests/test_crowd.py",
    "tests/test_feedback.py",
    "tests/test_graphs.py",
    "tests/test_instances.py",
    "tests/test_instantiation.py",
    "tests/test_network.py",
    "tests/test_probability.py",
    "tests/test_reconciliation.py",
    "tests/test_repair.py",
    "tests/test_sampling.py",
    "tests/test_schema.py",
    "tests/test_selection.py",
    "tests/test_uncertainty.py",
    "tests/test_scenarios.py",
    "tests/test_golden_traces.py",
    "tests/test_analysis_schema.py",
    "tests/test_analysis_implication.py",
    "tests/test_analysis_linter.py",
    "tests/test_scenario_prune.py",
    "tests/test_durability.py",
    "tests/test_chaos.py",
    "tests/test_shard_equivalence.py",
    "tests/test_delta.py",
    "tests/test_delta_equivalence.py",
    "tests/test_service.py",
]

_executed: dict[str, set[int]] = {}


def _tracer(frame, event, arg):
    if event != "call":
        return None
    filename = frame.f_code.co_filename
    if not any(filename.startswith(d) for d in PACKAGE_DIRS.values()):
        return None
    lines = _executed.setdefault(filename, set())
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _executable_lines(path: pathlib.Path) -> set[int]:
    """All line numbers with bytecode, via a recursive code-object walk."""
    code = compile(path.read_text(), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        lines.update(
            line for _, _, line in obj.co_lines() if line is not None
        )
        stack.extend(
            const for const in obj.co_consts if hasattr(const, "co_lines")
        )
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min", type=float, default=85.0, dest="floor")
    args = parser.parse_args(argv[1:])

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import pytest

    sys.settrace(_tracer)
    try:
        exit_code = pytest.main(
            [*TEST_FILES, "-q", "-x", "-p", "no:cacheprovider", "--no-header"]
        )
    finally:
        sys.settrace(None)
    if exit_code:
        print("coverage_floor: test run failed, not reporting coverage")
        return int(exit_code)

    failures = []
    for package in PACKAGES:
        total_executable = 0
        total_executed = 0
        print(f"\n{'module':<28} {'lines':>7} {'hit':>7} {'cover':>7}")
        for path in sorted((ROOT / "src" / "repro" / package).glob("*.py")):
            executable = _executable_lines(path)
            executed = _executed.get(str(path), set()) & executable
            total_executable += len(executable)
            total_executed += len(executed)
            pct = 100.0 * len(executed) / len(executable) if executable else 100.0
            print(
                f"{path.name:<28} {len(executable):>7} {len(executed):>7} {pct:>6.1f}%"
            )
        total_pct = (
            100.0 * total_executed / total_executable if total_executable else 100.0
        )
        label = f"TOTAL src/repro/{package}"
        print(
            f"{label:<28} {total_executable:>7} {total_executed:>7} {total_pct:>6.1f}%"
        )
        if total_pct < args.floor:
            failures.append((package, total_pct))
    for package, pct in failures:
        print(
            f"coverage_floor: src/repro/{package} at {pct:.1f}% is below "
            f"the {args.floor:.1f}% floor"
        )
    if failures:
        return 1
    print(f"coverage_floor: all packages >= {args.floor:.1f}% floor")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
