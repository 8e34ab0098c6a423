"""The repository benchmark: end-to-end and per-layer metrics of a workload.

    python3 perfbench/run.py --workload paper-ig --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced over the
workload's repetitions (setup, serving, deliverable), each in a fresh
interpreter (``worker.py``).  ``--seconds`` sets how many: enough for
about that much measured time, and never fewer than the workload's
minimum.  Setup and whole-run metrics are medians over repetitions.
paper-ig's op latencies are best-of-replays: every repetition of a run
replays the same seeded session, and each op counts with its fastest
replay.  ``--trace 1`` runs one untraced and one traced
repetition and prints the per-layer ledger of the traced one: each layer's
self time (these and ``unattributed_s`` add up to ``trace.total_s``),
counts, ratios, and the tracing overhead against the untraced run.

Every metric is printed with its unit and sample count, and the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any failed output check makes
``correct`` false; a repetition that crashes or cannot import the program
makes the run exit with status 1 and print no result.  ``--toy`` runs
toy-size inputs (the harness self-test).
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Repetitions per run, at least: two replays for paper-ig's best-of, and
#: six fleet repetitions, whose median rejects disturbed ones.
MIN_REPETITIONS = {"paper-ig": 2, "fleet-durable": 6}
#: Measured seconds of one repetition, roughly: a paper-ig repetition is
#: 3-5 s of setup and 15-25 s of serving, a fleet one 3-6 s.
REPETITION_S = {"paper-ig": 25.0, "fleet-durable": 5.0}
#: Finish within 180 s: every repetition is killed at DEADLINE_S.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "op_p99_ms": "ms",
    "deliverable_ms": "ms",
    "peak_rss_mb": "MB",
    "op_success_share": "share",
    "h_removed_share": "share",
    "deliverable_f1": "share",
}

#: Per-layer self-time metrics and the tracer span each one reads.
SELF_TIMES = {
    "matchers.match_s": "matchers.match",
    "analysis.lint_s": "analysis.lint",
    "core.compile_s": "core.compile",
    "core.sampling.fill_s": "core.sampling.fill",
    "core.sampling.refill_s": "core.sampling.refill",
    "core.probability.views_s": "core.probability.views",
    "core.selection.select_s": "core.selection.select",
    "core.probability.integrate_s": "core.probability.integrate",
    "core.reconciliation.step_self_s": "core.reconciliation.step",
    "core.instantiation.deliverable_s": "core.instantiation.deliverable",
    "shard.build_s": "shard.build",
    "shard.refill_s": "shard.refill",
    "core.delta.recompile_s": "core.delta.recompile",
    "core.delta.apply_s": "core.delta.apply",
    "crowd.round_s": "crowd.round",
    "crowd.select_s": "crowd.select",
    "durability.journal_s": "durability.journal",
    "durability.checkpoint_s": "durability.checkpoint",
    "service.execute_s": "service.execute",
    "unattributed_s": "unattributed",
}

#: Per-layer counts, ratios and the service's own time ledgers (queue
#: wait and serve time overlap the self times above, so they are not part
#: of the sum).
COUNT_UNITS = {
    "matchers.candidates": "count",
    "analysis.findings": "count",
    "core.violations": "count",
    "core.sampling.refills": "count",
    "core.sampling.new_share": "share",
    "core.reconciliation.conflicts_resolved": "count",
    "shard.shards": "count",
    "shard.refills": "count",
    "core.delta.applied": "count",
    "crowd.answers": "count",
    "durability.journal_records": "count",
    "durability.checkpoints": "count",
    "durability.checkpoint_bytes": "bytes",
    "service.wait_s": "s",
    "service.serve_s": "s",
    "service.requests": "count",
    "service.failed": "count",
    "service.catalog.subnet_hit_share": "share",
    "service.catalog.fill_hit_share": "share",
    "service.catalog.delta_hit_share": "share",
    "trace.total_s": "s",
    "trace.untraced_total_s": "s",
    "trace.overhead_s": "s",
}


class RepetitionError(RuntimeError):
    """A worker process failed, timed out or printed no record."""


def repetition(args, started: float, *, trace=False) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    command += ["--trace"] * trace + ["--toy"] * args.toy
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as error:
        raise RepetitionError(f"repetition timed out after {timeout:.0f} s") \
            from error
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RepetitionError(f"repetition exited with {done.returncode}")
    return json.loads(lines[-1])


def percentiles(latencies: list[float]) -> list[float]:
    """The 1st..99th percentiles (interpolated between order statistics)."""
    if len(latencies) < 2:
        return latencies * 99
    return statistics.quantiles(latencies, n=100, method="inclusive")


def op_metrics(latencies: list[float], serve_s: float) -> dict:
    if not latencies:
        raise RepetitionError("no op completed")
    cuts = percentiles(latencies)
    return {
        "ops_per_s": len(latencies) / serve_s,
        "op_p50_ms": cuts[49] * 1e3,
        "op_p90_ms": cuts[89] * 1e3,
        "op_p99_ms": cuts[98] * 1e3,
    }


def best_of_replays(servings: list[dict]) -> list[float]:
    """Each op's fastest time over servings that replay one session.

    The replays do the same work op for op, so the fastest is the one
    least disturbed by whatever else the machine ran at the time.
    """
    return [min(times) for times in zip(*(s["latencies"] for s in servings))]


def deliverable_ms(servings: list[dict]) -> float:
    """``current_matching``: the mean over all calls of each call's fastest
    time over the servings, which make the same calls on the same session
    states.  A mean, because a call's cost depends on its RNG path and on
    the session's state, by up to 2x, and a median would pick one call."""
    sessions = zip(*(s["deliverable_s"] for s in servings))
    return statistics.fmean(
        min(times) for calls in sessions for times in zip(*calls)
    ) * 1e3


def repetition_metrics(record: dict) -> dict:
    """The metrics of one repetition that are not per op."""
    return {
        "setup_s": record["phases"]["setup"],
        "total_s": sum(record["phases"].values()),
        "peak_rss_mb": record["peak_rss_mb"],
        "op_success_share": (
            1 - (record["failed"] + record["rejected"]) / record["attempted"]
        ),
        "h_removed_share": statistics.fmean(record["h_removed"]),
        "deliverable_f1": statistics.fmean(record["f1"]),
    }


def end_to_end(full: list[dict]) -> dict:
    """Every end-to-end metric as (value, sample count).

    Op metrics of replayed sessions come from best-of-replays latencies,
    with ``ops_per_s`` over their sum; the fleet's are medians over
    repetitions of each serving's own.  The rest are medians over
    repetitions.
    """
    servings = [s for record in full for s in record["servings"]]
    if full[0]["replays"]:
        best = best_of_replays(servings)
        ops = op_metrics(best, sum(best))
    else:
        each = [op_metrics(s["latencies"], s["serve_s"]) for s in servings]
        ops = {name: statistics.median(m[name] for m in each)
               for name in each[0]}
    ops["deliverable_ms"] = deliverable_ms(servings)
    each = [repetition_metrics(record) for record in full]
    repeated = {name: statistics.median(m[name] for m in each)
                for name in each[0]}
    latencies = sum(len(s["latencies"]) for s in servings)
    samples = {
        "setup_s": len(full),
        "total_s": len(full),
        "ops_per_s": latencies,
        "op_p50_ms": latencies,
        "op_p90_ms": latencies,
        "op_p99_ms": latencies,
        "deliverable_ms": sum(len(calls) for s in servings
                              for calls in s["deliverable_s"]),
        "peak_rss_mb": len(full),
        "op_success_share": sum(record["attempted"] for record in full),
        "h_removed_share": sum(len(record["h_removed"]) for record in full),
        "deliverable_f1": sum(len(record["f1"]) for record in full),
    }
    values = {**ops, **repeated}
    return {name: (values[name], samples[name]) for name in END_TO_END_UNITS}


def per_layer(traced: dict, untraced: dict) -> dict:
    """The traced repetition's ledger as (value, span or sample count)."""
    seconds = traced["layer_seconds"]
    spans = traced["layer_spans"]
    counts = traced["counts"]
    metrics = {
        metric: (seconds.get(span, 0.0), spans.get(span, 0))
        for metric, span in SELF_TIMES.items()
    }
    for metric in COUNT_UNITS:
        metrics[metric] = (counts.get(metric, 0), 1)
    emitted = counts.get("core.sampling.emitted", 0)
    metrics["core.sampling.new_share"] = (
        counts.get("core.sampling.new", 0) / emitted if emitted else 0.0,
        emitted,
    )
    untraced_total = sum(untraced["phases"].values())
    metrics["trace.total_s"] = (traced["traced_total_s"], 1)
    metrics["trace.untraced_total_s"] = (untraced_total, 1)
    metrics["trace.overhead_s"] = (traced["traced_total_s"] - untraced_total, 2)
    return metrics


def checks_pass(records: list[dict]) -> bool:
    """Every output check held, and repeated runs of the seed agree: the
    same quality numbers, and replays of the same number of ops."""
    outcomes = {(tuple(r["h_removed"]), tuple(r["f1"])) for r in records}
    replayed = {len(s["latencies"]) for r in records if r.get("replays")
                for s in r["servings"]}
    return len(outcomes) == 1 and len(replayed) <= 1 and all(
        all(record["checks"].values()) for record in records
    )


def report(args, metrics: dict, units: dict, records: list[dict]) -> dict:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, samples) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]:6s} n={samples}")
    for index, record in enumerate(records):
        for check, held in record["checks"].items():
            print(f"  check {check} (repetition {index + 1}): "
                  f"{'ok' if held else 'FAILED'}")
    attempted = sum(record["attempted"] for record in records)
    failed = sum(record["failed"] for record in records)
    rejected = sum(record["rejected"] for record in records)
    print(f"  ops attempted={attempted} failed={failed} rejected={rejected}")
    return {
        "correct": checks_pass(records) and attempted >= 1,
        "attempted": attempted,
        "failed": failed + rejected,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, (value, _) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(MIN_REPETITIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-size inputs (the harness self-test)")
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if args.trace:
            untraced = repetition(args, started)
            traced = repetition(args, started, trace=True)
            units = {**{name: "s" for name in SELF_TIMES}, **COUNT_UNITS}
            result = report(args, per_layer(traced, untraced), units,
                            [untraced, traced])
        else:
            count = max(MIN_REPETITIONS[args.workload],
                        round(args.seconds / REPETITION_S[args.workload]))
            full = [repetition(args, started) for _ in range(count)]
            result = report(args, end_to_end(full), END_TO_END_UNITS, full)
    except RepetitionError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        # Also what a worker killed at the deadline left behind.
        shutil.rmtree(ROOT / ".perfbench-tmp", ignore_errors=True)
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        print("perfbench: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
