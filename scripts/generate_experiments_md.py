#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: run every experiment and record the results.

This is the paper-scale (or near-paper-scale, where noted) run; on the
batched kernels it takes on the order of a minute.  Usage::

    python scripts/generate_experiments_md.py [output-path]
"""

from __future__ import annotations

import sys
import time

from repro.experiments import (
    crowd_budget,
    fig6_sampling_time,
    fig7_kl_ratio,
    fig8_probability_correctness,
    fig9_uncertainty_reduction,
    fig10_ordering_instantiation,
    fig11_likelihood,
    table2_datasets,
    table3_violations,
)

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's Section VI, regenerated on this
repository's substrate (synthetic corpora with exact ground truth, from-
scratch matcher pipelines standing in for COMA++/AMC).  Absolute numbers
therefore differ from the paper's; the *shapes* — who wins, by roughly what
factor, where the curves sit — are the reproduction target.  Regenerate any
row with `repro-experiments <id>` or `pytest benchmarks/ --benchmark-only`.

Generated by `scripts/generate_experiments_md.py`.
"""

SECTIONS = [
    (
        "table2",
        "Paper: 4 corpora (BP 3 schemas 80–106 attrs; PO 10, 35–408; UAF "
        "15, 65–228; WebForm 89, 10–120).",
        "Schema counts match the paper exactly at scale 1.0; attribute "
        "ranges fall inside the published min/max bounds (the generator "
        "draws sizes uniformly inside them).",
        lambda: table2_datasets.run(scale=1.0, seed=0),
    ),
    (
        "table3",
        "Paper: violations per matcher — BP 252/244, PO 10078/11320, UAF "
        "40436/41256, WebForm 6032/6367: always far more than an expert "
        "could review, largely matcher-independent.",
        "Same shape: hundreds of violations on BP, thousands-to-hundreds-"
        "of-thousands on the larger corpora — always unreviewable, and the "
        "dataset ordering (BP ≪ WebForm < UAF/PO relative to size) "
        "matches.  PO/UAF/WebForm run at scale 0.5 to keep the pure-Python "
        "matcher pass tractable.  PO × coma_like over-generates badly: its "
        "numbered line-item blocks (item 7 / line 7 / position 7) let the "
        "max-delta selector flood candidates whenever an item index lacks "
        "its true counterpart — an exaggerated version of the paper's own "
        "PO effect (their PO/BP violation ratio is 40×; ours is larger).",
        lambda: _table3(),
    ),
    (
        "fig6",
        "Paper: per-sample probability-estimation time grows with |C| but "
        "stays low in absolute terms (~2 ms/sample at |C| = 4096 on 2014 "
        "hardware, 1000 samples ≈ 2 s).",
        "Same shape: per-sample time grows monotonically with |C|, from "
        "0.03 ms at |C| = 128 to 0.89 ms at |C| = 4096 — below the paper's "
        "~2 ms/sample there, and the growth curve matches.",
        lambda: fig6_sampling_time.run(
            sizes=(128, 256, 512, 1024, 2048, 4096), n_samples=200, seed=0
        ),
    ),
    (
        "fig7",
        "Paper: with 2^(|C|/2) samples the K-L ratio stays under ~2% for "
        "|C| = 10…20 — the sampled distribution is >98% closer to the "
        "exact one than the uniform baseline.",
        "Mostly the same shape, but not at the smallest budgets: 114.5% at "
        "|C| = 10 (32 samples; a draw whose walk misses instances has an "
        "unbounded KL) and 0.67–4.4% for |C| = 11–14; from |C| = 15 "
        "onwards every row is below 1%, under the paper's 2%.",
        lambda: fig7_kl_ratio.run(sizes=tuple(range(10, 21)), scale=1.0, seed=0),
    ),
    (
        "fig8",
        "Paper (BP): >75% of candidates have probability in [0.5, 1.0]; "
        "at high probabilities correct correspondences dominate (e.g. "
        "[0.9, 1.0]: 13% correct vs 1% incorrect).",
        "Same shape: the top buckets are overwhelmingly correct, the "
        "low buckets mostly incorrect, and most mass sits in the upper "
        "half.",
        lambda: fig8_probability_correctness.run(
            scale=1.0, seed=1, target_samples=500
        ),
    ),
    (
        "fig9",
        "Paper (BP): heuristic reaches uncertainty ≈ 0.1·H0 with ~30% "
        "effort vs ~75% for random (≈45–48% effort saved); precision of "
        "C \\ F⁻ rises with effort under both orderings.",
        "Same shape: the heuristic collapses uncertainty with a fraction "
        "of the random baseline's effort; see the savings line below the "
        "table.",
        lambda: fig9_uncertainty_reduction.run(
            corpus_name="BP", scale=1.0, seed=1, runs=3, target_samples=300
        ),
    ),
    (
        "fig10",
        "Paper (BP, 0–15% effort): heuristic ordering beats random on the "
        "instantiated matching by ~+0.12 precision and ~+0.08 recall on "
        "average; identical at 0% effort.",
        "Same shape: curves coincide at 0% and the heuristic pulls ahead "
        "with effort.",
        lambda: fig10_ordering_instantiation.run(
            corpus_name="BP", scale=1.0, seed=1, runs=3, target_samples=300
        ),
    ),
    (
        "fig11",
        "Paper (BP, 0–15% effort): instantiation using the likelihood "
        "criterion dominates the variant without it on precision and "
        "recall.",
        "Mostly the same shape: with the likelihood, precision and recall "
        "are higher at 0% and 5% effort and equal at 15%; at 10% recall "
        "ties and precision is slightly lower (0.9785 against 0.9799).",
        lambda: fig11_likelihood.run(
            corpus_name="BP", scale=1.0, seed=1, runs=3, target_samples=300
        ),
    ),
    (
        "crowd-budget",
        "Beyond the paper (crowd extension): at equal total answer budget, "
        "a redundant crowd with vote aggregation should beat one priced "
        "professional on uncertainty reduction — the crowdsourcing premise "
        "the paper's successor work builds on.",
        "The redundancy-3 crowd (unit-cost workers, k=4 questions/round, "
        "reliability-aware routing + weighted vote) ends every budget row "
        "with less remaining uncertainty than the equally-funded single "
        "professional (4 units/answer, err 0.1), across good/mixed/spammy "
        "reliability distributions.  Redundancy 5 flips the economics: at "
        "5 units a question costs more than the professional's answer, the "
        "crowd loses its question-count advantage and trails at every "
        "partial budget — redundancy only pays while it stays cheaper than "
        "the accuracy it replaces.",
        lambda: crowd_budget.run(),
    ),
]


def _table3():
    import itertools

    from repro.experiments.reporting import ExperimentResult

    bp = table3_violations.run(scale=1.0, seed=0, datasets=("BP",))
    rest = table3_violations.run(
        scale=0.5, seed=0, datasets=("PO", "UAF", "WebForm")
    )
    merged = ExperimentResult(
        experiment="table3",
        title=bp.title,
        columns=bp.columns,
        notes="BP at scale 1.0; PO/UAF/WebForm at scale 0.5",
    )
    for row in itertools.chain(bp.rows, rest.rows):
        merged.add_row(*row)
    return merged


def main() -> int:
    output_path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    parts = [HEADER]
    for name, paper_claim, measured_comment, runner in SECTIONS:
        print(f"running {name} ...", flush=True)
        started = time.perf_counter()
        result = runner()
        elapsed = time.perf_counter() - started
        print(f"  done in {elapsed:.0f}s", flush=True)
        parts.append(result.to_markdown())
        parts.append(f"**Paper:** {paper_claim}")
        parts.append(f"**Measured:** {measured_comment}")
        if name == "fig9":
            savings = fig9_uncertainty_reduction.effort_savings(
                result, threshold=0.1
            )
            parts.append(
                f"**Headline:** effort saved to reach H/H₀ ≤ 0.1: "
                f"**{savings:.0f} percentage points** "
                f"(paper reports savings up to ~48%)."
            )
        if name == "crowd-budget":
            margin = crowd_budget.crowd_advantage(result)
            parts.append(
                f"**Headline:** mean H/H₀ margin of the mixed-pool r=3 "
                f"crowd over the equally-funded professional: "
                f"**{margin:+.2f}** (positive = crowd ends with less "
                f"uncertainty at every budget)."
            )
        parts.append(f"*(regenerated in {elapsed:.0f}s)*")
        parts.append("")
    with open(output_path, "w") as handle:
        handle.write("\n\n".join(parts))
    print(f"wrote {output_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
