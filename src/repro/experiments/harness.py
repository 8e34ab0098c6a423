"""Shared experiment plumbing: building networks from corpora or synthetics.

All experiment runners take explicit size parameters so that the same code
backs both the quick ``benchmarks/`` targets and the full paper-scale runs of
the CLI.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..core.correspondence import CandidateSet, Correspondence, correspondence
from ..core.feedback import Oracle
from ..core.graphs import InteractionGraph, erdos_renyi_graph
from ..core.network import MatchingNetwork
from ..core.schema import Attribute, Schema
from ..datasets.corpora import CORPORA
from ..datasets.generator import Corpus
from ..matchers.pipeline import PIPELINES, MatcherPipeline


@dataclass
class NetworkFixture:
    """Everything an experiment needs: network, ground truth, oracle.

    ``corpus`` is None for purely synthetic fixtures (no generated
    documents back the schemas, only the network itself).
    """

    corpus: Optional[Corpus]
    network: MatchingNetwork
    ground_truth: frozenset[Correspondence]

    def oracle(self) -> Oracle:
        return Oracle(self.ground_truth)


def build_fixture(
    corpus_name: str = "BP",
    scale: float = 1.0,
    seed: int = 0,
    pipeline: str | MatcherPipeline = "coma_like",
    graph: Optional[InteractionGraph] = None,
) -> NetworkFixture:
    """Generate a corpus, run a matcher pipeline, assemble the network."""
    try:
        corpus_builder = CORPORA[corpus_name]
    except KeyError:
        raise KeyError(
            f"unknown corpus {corpus_name!r}; available: {sorted(CORPORA)}"
        ) from None
    corpus = corpus_builder(scale=scale, seed=seed)
    if isinstance(pipeline, str):
        try:
            pipeline = PIPELINES[pipeline]()
        except KeyError:
            raise KeyError(
                f"unknown pipeline {pipeline!r}; available: {sorted(PIPELINES)}"
            ) from None
    graph = graph or corpus.graph()
    candidates = pipeline.match_network(corpus.schemas, graph)
    network = MatchingNetwork(corpus.schemas, candidates, graph=graph)
    return NetworkFixture(
        corpus=corpus,
        network=network,
        ground_truth=corpus.ground_truth(graph),
    )


def synthetic_network(
    n_correspondences: int,
    n_schemas: int = 12,
    attributes_per_schema: int = 40,
    edge_probability: float = 0.35,
    conflict_bias: float = 0.6,
    seed: int = 0,
) -> MatchingNetwork:
    """A size-controlled random network for scalability studies (Fig. 6).

    Schemas and the Erdős–Rényi interaction graph are generated first; then
    ``n_correspondences`` random attribute pairs are drawn along the edges.
    ``conflict_bias`` is the fraction of draws that deliberately reuse an
    already-matched attribute, which manufactures one-to-one conflicts at a
    realistic density.
    """
    if n_correspondences < 1:
        raise ValueError("n_correspondences must be positive")
    rng = random.Random(seed)
    schemas = [
        Schema.from_names(
            f"S{i:03d}", [f"a{j:03d}" for j in range(attributes_per_schema)]
        )
        for i in range(n_schemas)
    ]
    by_name = {schema.name: schema for schema in schemas}
    graph = erdos_renyi_graph(
        [s.name for s in schemas], edge_probability, rng=rng, ensure_connected=True
    )
    edges = list(graph.edges)
    candidates = CandidateSet()
    used_endpoints: list[Attribute] = []
    attempts = 0
    max_attempts = n_correspondences * 50
    while len(candidates) < n_correspondences and attempts < max_attempts:
        attempts += 1
        left_name, right_name = edges[rng.randrange(len(edges))]
        left_schema, right_schema = by_name[left_name], by_name[right_name]
        if used_endpoints and rng.random() < conflict_bias:
            anchor = used_endpoints[rng.randrange(len(used_endpoints))]
            if anchor.schema == left_name:
                left_attr = anchor
                right_attr = right_schema.attributes[
                    rng.randrange(len(right_schema))
                ]
            elif anchor.schema == right_name:
                right_attr = anchor
                left_attr = left_schema.attributes[rng.randrange(len(left_schema))]
            else:
                continue
        else:
            left_attr = left_schema.attributes[rng.randrange(len(left_schema))]
            right_attr = right_schema.attributes[rng.randrange(len(right_schema))]
        corr = correspondence(left_attr, right_attr)
        if corr in candidates:
            continue
        candidates.add(corr, confidence=rng.random())
        used_endpoints.extend((left_attr, right_attr))
    if len(candidates) < n_correspondences:
        raise RuntimeError(
            "could not place the requested number of correspondences; "
            "increase schemas/attributes"
        )
    return MatchingNetwork(schemas, candidates, graph=graph)


def synthetic_fixture(
    n_correspondences: int,
    n_schemas: int = 12,
    attributes_per_schema: int = 40,
    edge_probability: float = 0.35,
    conflict_bias: float = 0.6,
    seed: int = 0,
) -> NetworkFixture:
    """A :func:`synthetic_network` wrapped with a simulatable ground truth.

    The ground truth is the deterministic greedy maximal matching instance
    (insertion-order scan), so every platform derives the same selective
    matching and oracles answer reproducibly.  This is the fixture the
    scenario harness and the reconciliation-session benchmarks drive.
    """
    from ..core.repair import greedy_maximalize

    network = synthetic_network(
        n_correspondences,
        n_schemas=n_schemas,
        attributes_per_schema=attributes_per_schema,
        edge_probability=edge_probability,
        conflict_bias=conflict_bias,
        seed=seed,
    )
    truth = frozenset(
        greedy_maximalize(set(), network.correspondences, [], network.engine)
    )
    return NetworkFixture(corpus=None, network=network, ground_truth=truth)


def conflicted_subnetwork(
    network: MatchingNetwork,
    size: int,
    seed: int = 0,
    conflict_fraction: float = 0.5,
) -> MatchingNetwork:
    """A sub-network of ``size`` candidates mixing conflicts and easy cases.

    ``conflict_fraction`` of the budget is grown by BFS over the violation
    hypergraph (contested correspondences); the rest is drawn uniformly from
    the remaining candidates.  Used by the K-L study (Fig. 7), which needs
    tiny networks that are neither trivial (all p = 1) nor so contested that
    their instance space dwarfs the sample budget.
    """
    if not 0.0 <= conflict_fraction <= 1.0:
        raise ValueError("conflict_fraction must lie in [0, 1]")
    rng = random.Random(seed)
    all_correspondences = list(network.correspondences)
    if size >= len(all_correspondences):
        return network
    engine = network.engine
    conflicted = [
        corr for corr in all_correspondences if engine.violations_involving(corr)
    ]
    conflict_budget = round(size * conflict_fraction)
    chosen: list[Correspondence] = []
    chosen_set: set[Correspondence] = set()
    frontier = list(conflicted)
    rng.shuffle(frontier)
    while frontier and len(chosen) < conflict_budget:
        corr = frontier.pop()
        if corr in chosen_set:
            continue
        chosen.append(corr)
        chosen_set.add(corr)
        for violation in engine.violations_involving(corr):
            # Sorted: iterating the violation's frozenset directly would
            # make the drawn subnetwork depend on the process hash seed.
            for neighbour in sorted(violation):
                if neighbour not in chosen_set:
                    frontier.append(neighbour)
    remaining = [c for c in all_correspondences if c not in chosen_set]
    rng.shuffle(remaining)
    for corr in remaining:
        if len(chosen) >= size:
            break
        chosen.append(corr)
        chosen_set.add(corr)
    return network.restricted_to(chosen)

