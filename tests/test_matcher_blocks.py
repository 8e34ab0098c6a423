"""Pins on the matcher layer's score blocks: bytes, hash-seed independence
and peak memory.

The digests below are the sha256 of every member block of the two stock
pipelines on the four corpora at scale 0.2 (corpus seed 3), computed over
the distinct attribute profiles exactly as ``MatcherPipeline.match_network``
scores them.  A kernel change that moves any score by one ulp moves a
digest.  The ensemble block is not pinned by digest: its weighted sum runs
through ``np.tensordot`` (a BLAS product), whose bytes follow the OpenBLAS
kernel the CPU dispatches.  It is checked in-process against the same
aggregation over ``np.stack`` of the member blocks instead.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import repro
from repro.datasets.corpora import CORPORA
from repro.matchers.ensemble import _weighted_average_blocks, weighted_average
from repro.matchers.pipeline import PIPELINES, coma_like

#: (corpus, pipeline) → digests of each member's block, in ensemble order.
BLOCK_DIGESTS = {
    ("BP", "coma_like"): (
        "ff7316977df5f1e6e42683a57edad4cb45f3937cb5b4a48673aa158af6be00db",
        "6320e8d5d7dd2c231d8f6a0817319f6e93d82aa6709691e35bd63d0b985a31fb",
        "1dd42307a2e25c7e6d72cb270ac15420f1aba088a00f8cfcd94c87420e87b07f",
        "1edff6ca4239dd247f464b9b09c9df86f76af860cfe36709321f9f196845e411",
        "cc473e87fa38d3a9826ff2448e9104a37de60585b3e70ea4229787c03a875e21",
    ),
    ("BP", "amc_like"): (
        "0a72024f92367040fbea292436ecd5c1881864e9adf7a35bd21b146f091f9ade",
        "1dd42307a2e25c7e6d72cb270ac15420f1aba088a00f8cfcd94c87420e87b07f",
        "4be517787929e61cd53337a34cfc086888ea561919039bb44b064f25151dea77",
        "28b4f440d0f61cb641794318fc0e6c27ccadad8e03a5a7cb9698060a40cd8369",
        "1b2dd93ba15fd21a00d58d068c0070f5ad4c1e59b177b641e553257937f0b7a6",
    ),
    ("UAF", "coma_like"): (
        "b1438ae67b1bb0ad1c45860e36e20cc7e6e5e91e662b2bd5a45a96d5540ac7e4",
        "0b28643c518a5579705873a4551b20105c0a86b4841c506a725ca6eae63b5c8a",
        "bc32813caa7a6e861fbbc624405b44f3742011b2ff28e349b3dc8b4558ae0486",
        "2b5d3d946bac6ab99b959ef50324a770a67442055889240f97e373620736f2f7",
        "8eb1a4a5c6a5931d394a03ed15ab5405ce8b789f2596e56e342e2c7937342e48",
    ),
    ("UAF", "amc_like"): (
        "14cfbd10a26526cde6ff0f1213efb60e09c68f92b1d2b03eafbb7ec56cfa7717",
        "bc32813caa7a6e861fbbc624405b44f3742011b2ff28e349b3dc8b4558ae0486",
        "e1780e4ebf60fcecd713a606f9c575f12b42579b1b7700c1ad7bb5d30cfba9ac",
        "fd7427c7990123339642483842ac73f7d0ae80464a96037cd0248efac27eced6",
        "9b1025dc8dc18f145cdc4ab23e762efe4a7df3621f88ee1e847a838e74a72b5a",
    ),
    ("PO", "coma_like"): (
        "24e794705eea7160af6e23ef983b64829d6b34a268573be6f3bc9100bcd83b32",
        "65c00ba9a2e38839a10ba1c940a5a02337d282864f138d9e5372141790a8ca1d",
        "db3c634a07dd1eb98122cb3976ad6736b35fb193bbeab979587463b175ba8d42",
        "6a90bcb52373d049eb6c04a4536b4de7130a131cd8f3cb95e6dc8bd610ae2655",
        "6ba8b4711e61ecc694c06c2446b7fd29334356259972dfcd0f8eb52ef92c6db7",
    ),
    ("PO", "amc_like"): (
        "fa165750843167bfe2d72ce3d788746a5995794a68c17ce09496b8df004d2ab2",
        "db3c634a07dd1eb98122cb3976ad6736b35fb193bbeab979587463b175ba8d42",
        "0459d0d534cc7398455e3a97abc0b3f38dfc2d7addc944f97491bc4ffcd2c421",
        "50fcdcde76555bd8161cbbcc1f08e3c0ff8d094d889e43b4f00e91401955353e",
        "22fc3a6ed6763c07d13e602f0e8123f9b432222851ac609c90ef5e28dd630811",
    ),
    ("WebForm", "coma_like"): (
        "c2b7981b2c2baabdf6aa85e86723ba4b735c77e475e743b7c673736beba49066",
        "ab682155f026977c13330f9d9067808ebbfa34b567309b6945b6246e6ead5533",
        "bc105b27a24d2a399242961119dc55cd207a21c92ca79a7c10fe6bc02dd99dd0",
        "59c9fab81599278f992c3d359bf82eda220b81d466b9aeaf2e15a00a54bf2305",
        "f62f6a15c20491d11882586937198afa6fa069d8ad66bb84afc602a7fbef8533",
    ),
    ("WebForm", "amc_like"): (
        "c2379287865e107d14ec74be7fe39538dbdc0951760d393fab6c7a2eb31489d4",
        "bc105b27a24d2a399242961119dc55cd207a21c92ca79a7c10fe6bc02dd99dd0",
        "502533c65ff8c67729c349910f20808c4a5fbc54b298551eac08ca05d157cc16",
        "eeb03c5fb625bb2515ac5507cd7d7eb58c4b56787523aca30534a1839f6bfb0f",
        "a2f0d25a89c30dab65e52d20506cebe465794d103968173f19e71e8e1750cee6",
    ),
}


def _digest(block) -> str:
    assert block.dtype == "float64" and block.flags.c_contiguous
    return hashlib.sha256(block.tobytes()).hexdigest()


@pytest.mark.parametrize("corpus_name, pipeline_name", sorted(BLOCK_DIGESTS))
def test_block_digests(corpus_name, pipeline_name):
    corpus = CORPORA[corpus_name](scale=0.2, seed=3)
    pipeline = PIPELINES[pipeline_name]().fit(corpus.schemas)
    ensemble = pipeline.matcher
    # The distinct attribute profiles, as match_network's universe.
    universe = {}
    for schema in corpus.schemas:
        for attr in schema:
            key = tuple(getattr(attr, field) for field in ensemble.depends_on)
            universe.setdefault(key, attr)
    attrs = list(universe.values())
    blocks = [member.similarity_matrix(attrs, attrs) for member in ensemble.matchers]
    digests = tuple(_digest(block) for block in blocks)
    assert digests == BLOCK_DIGESTS[corpus_name, pipeline_name]
    # The ensemble's preallocated stack aggregates to np.stack's bytes.
    assert ensemble.aggregation is weighted_average
    weights = np.asarray(ensemble.weights, dtype=np.float64)
    stacked = np.clip(_weighted_average_blocks(np.stack(blocks), weights), 0.0, 1.0)
    combined = ensemble.similarity_matrix(attrs, attrs)
    assert combined.dtype == stacked.dtype
    assert combined.tobytes() == stacked.tobytes()


_TFIDF_BLOCK_SCRIPT = """
import hashlib
from repro.datasets.corpora import CORPORA
from repro.matchers import TfIdfTokenMatcher, Thesaurus
corpus = CORPORA["BP"](scale=0.2, seed=3)
matcher = TfIdfTokenMatcher(Thesaurus()).fit(corpus.schemas)
attrs = [attr for schema in corpus.schemas for attr in schema]
print(hashlib.sha256(matcher.similarity_matrix(attrs, attrs).tobytes()).hexdigest())
"""


def test_tfidf_block_independent_of_hash_seed():
    """Token sets are frozensets of strings, whose iteration order follows
    ``PYTHONHASHSEED``; the IDF sums must not."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    digests = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", _TFIDF_BLOCK_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.add(result.stdout.strip())
    assert len(digests) == 1


def test_match_network_memory_guard():
    """The matchers' traced peak on WebForm 0.2 stays under 12 MiB; string
    kernels with (pairs × positions) work arrays read 17.4 MiB here."""
    corpus = CORPORA["WebForm"](scale=0.2, seed=3)
    # Warm the process-wide name registry, so the reading does not depend
    # on which tests ran before.
    coma_like().match_network(corpus.schemas)
    gc.collect()
    tracemalloc.start()
    try:
        coma_like().match_network(corpus.schemas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
