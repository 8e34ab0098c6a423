"""Self-test of the benchmark harness on toy-size inputs.

    python3 -m pytest perfbench

Runs every workload untraced and traced, and checks the result line
against ``BENCHMARK.json``: metric names and units, every output check
passing, end-to-end metrics never 0, and per-layer self times adding up
to the traced total.  Not collected by the repository's default test run.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys
import threading
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import (  # noqa: E402
    SELF_TIMES,
    best_of_replays,
    checks_pass,
    deliverable_ms,
)
from tracing import UNATTRIBUTED, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_result_line(workload, trace):
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    for metric in declared:
        value = metrics[metric["name"]]
        assert value["unit"] == metric["unit"]
        assert math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0, metric["name"]
    for metric in declared:
        assert f"  {metric['name']} " in done.stdout  # the printed table
    if trace:
        self_times = sum(metrics[name]["value"] for name in SELF_TIMES)
        assert self_times == pytest.approx(
            metrics["trace.total_s"]["value"], rel=1e-9, abs=1e-9
        )


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("paper-ig", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_failed_check_or_diverging_repetitions_are_incorrect():
    record = {"h_removed": [0.5], "f1": [0.9], "checks": {"a": True}}
    assert checks_pass([record, dict(record)])
    assert not checks_pass([dict(record, checks={"a": False})])
    assert not checks_pass([record, dict(record, f1=[0.8])])


def test_replays_count_each_op_and_call_at_its_best():
    servings = [
        {"latencies": [1.0, 5.0, 3.0], "deliverable_s": [[2.0, 4.0]]},
        {"latencies": [2.0, 4.0, 3.5], "deliverable_s": [[3.0, 1.0]]},
    ]
    assert best_of_replays(servings) == [1.0, 4.0, 3.0]
    assert deliverable_ms(servings) == pytest.approx(1500.0)
    record = {"h_removed": [0.5], "f1": [0.9], "checks": {}, "replays": True}
    assert checks_pass([dict(record, servings=servings)])
    uneven = [servings[0], {"latencies": [1.0], "deliverable_s": [[1.0]]}]
    assert not checks_pass([dict(record, servings=uneven)])


def test_tracer_self_times_add_up_across_threads():
    tracer = Tracer()
    tracer.start()

    def work(name):
        assert tracer.enter(name)
        assert not tracer.enter(name)  # re-entry keeps the outer span
        time.sleep(0.02)
        tracer.exit()

    threads = [threading.Thread(target=work, args=(f"layer{i}",))
               for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    time.sleep(0.01)
    total = tracer.stop()
    assert sum(tracer.seconds.values()) == pytest.approx(total)
    assert tracer.seconds[UNATTRIBUTED] >= 0.01
    assert tracer.spans == {"layer0": 1, "layer1": 1}
