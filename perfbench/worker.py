"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts a new process per repetition: the matcher name registry
is process-wide (a second in-process ``match_network`` runs faster) and
peak memory is only meaningful per process.  Prints the repetition's
record as one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# The program under test, imported from source in the checkout.
sys.path.insert(0, str(ROOT / "src"))

SCRATCH = ROOT / ".perfbench-tmp"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    try:
        from tracing import Tracer, install
        from workloads import WORKLOADS, Clock
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 3
    tracer = Tracer() if args.trace else None
    uninstall = install(tracer) if tracer is not None else None
    SCRATCH.mkdir(exist_ok=True)
    clock = Clock(tracer)
    try:
        record = WORKLOADS[args.workload](
            args.seed, "toy" if args.toy else "full", clock, SCRATCH
        )
    finally:
        if uninstall is not None:
            uninstall()
    record["peak_rss_mb"] = clock.peak_rss_mb
    if tracer is not None:
        record["traced_total_s"] = clock.traced_total_s
        record["layer_seconds"] = dict(tracer.seconds)
        record["layer_spans"] = dict(tracer.spans)
        record["counts"] = {**tracer.counts, **record.get("counts", {})}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
