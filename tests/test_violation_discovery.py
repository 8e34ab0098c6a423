"""Order pin for violation discovery: the edge-anchored cycle enumerator
and the endpoint-index join against the algorithms they replaced.

The goldens pin the compiled violation order (repair's tie-breaks follow
it), so the engine must list the same violations, in the same order, with
the same sources, as the historical compile: a depth-first search over
every cycle of the interaction graph that sorts each adjacency it visits,
then every rotation of every cycle joined by nested scans.  Both are
copied below as the reference.
"""

from __future__ import annotations

import random

import pytest

from repro.core.constraints import (
    Constraint,
    ConstraintEngine,
    CycleConstraint,
    OneToOneConstraint,
    Violation,
    default_constraints,
)
from repro.core.graphs import erdos_renyi_graph
from repro.experiments.harness import build_fixture, synthetic_network


def reference_cycles(graph, max_length):
    """The historical ``InteractionGraph.cycles``."""
    if max_length < 3:
        return
    for start in sorted(graph.nodes):
        stack = [(start,)]
        while stack:
            path = stack.pop()
            head = path[-1]
            for neighbour in sorted(graph.neighbors(head)):
                if neighbour == start and len(path) >= 3:
                    if path[1] < path[-1]:
                        yield path
                    continue
                if neighbour <= start or neighbour in path:
                    continue
                if len(path) < max_length:
                    stack.append(path + (neighbour,))


class ReferenceCycleConstraint(Constraint):
    """The historical ``CycleConstraint``: all rotations, nested scans."""

    name = "cycle"

    def __init__(self, max_cycle_length):
        self.max_cycle_length = max_cycle_length

    def minimal_violations(self, correspondences, graph):
        by_edge = {}
        for corr in correspondences:
            by_edge.setdefault(corr.schema_pair, []).append(corr)
        seen = set()
        for cycle in reference_cycles(graph, self.max_cycle_length):
            for rotation in range(len(cycle)):
                rotated = cycle[rotation:] + cycle[:rotation]
                for violation in self._cycle_violations(rotated, by_edge):
                    if violation.correspondences not in seen:
                        seen.add(violation.correspondences)
                        yield violation

    def _cycle_violations(self, cycle, by_edge):
        k = len(cycle)
        edges = [tuple(sorted((cycle[i], cycle[(i + 1) % k]))) for i in range(k)]
        if any(edge not in by_edge for edge in edges):
            return
        chains = [[corr] for corr in by_edge[edges[0]]]
        for step in range(1, k - 1):
            junction = cycle[step]
            extended = []
            for chain in chains:
                tail = chain[-1].endpoint_in(junction)
                for corr in by_edge[edges[step]]:
                    if corr.endpoint_in(junction) == tail:
                        extended.append(chain + [corr])
            chains = extended
            if not chains:
                return
        first_schema, last_schema = cycle[0], cycle[k - 1]
        for chain in chains:
            chain_start = chain[0].endpoint_in(first_schema)
            chain_end = chain[-1].endpoint_in(last_schema)
            for closing in by_edge[edges[k - 1]]:
                start_agrees = closing.endpoint_in(first_schema) == chain_start
                end_agrees = closing.endpoint_in(last_schema) == chain_end
                if start_agrees != end_agrees:
                    members = frozenset(chain) | {closing}
                    if len(members) == k:
                        yield Violation(self.name, members)


def reference_compile(max_cycle_length, correspondences, graph):
    """The historical ``ConstraintEngine.__init__`` discovery loop."""
    constraints = (
        OneToOneConstraint(),
        ReferenceCycleConstraint(max_cycle_length),
    )
    seen = {}
    violations = []
    sources = []
    for position, constraint in enumerate(constraints):
        for violation in constraint.minimal_violations(correspondences, graph):
            slot = seen.get(violation.correspondences)
            if slot is None:
                seen[violation.correspondences] = len(violations)
                violations.append(violation)
                sources.append([position])
            else:
                sources[slot].append(position)
    return (
        [(v.constraint, v.correspondences) for v in violations],
        [tuple(contributors) for contributors in sources],
    )


def assert_compiles_like_reference(network, max_cycle_length):
    correspondences = network.correspondences
    engine = ConstraintEngine(
        default_constraints(max_cycle_length), correspondences, network.graph
    )
    violations, sources = reference_compile(
        max_cycle_length, correspondences, network.graph
    )
    assert [(v.constraint, v.correspondences) for v in engine.violations] == (
        violations
    )
    assert list(engine.violation_sources) == sources
    return engine


def random_network(seed):
    rng = random.Random(seed)
    return synthetic_network(
        rng.randint(25, 50),
        n_schemas=rng.randint(5, 8),
        attributes_per_schema=rng.randint(4, 6),
        edge_probability=rng.uniform(0.5, 0.9),
        conflict_bias=0.5,
        seed=seed,
    )


def uses_edge(cycle, edges):
    k = len(cycle)
    return any(
        tuple(sorted((cycle[i], cycle[(i + 1) % k]))) in edges for i in range(k)
    )


_FIXTURES = {}


def corpus_network(name, scale):
    if (name, scale) not in _FIXTURES:
        _FIXTURES[(name, scale)] = build_fixture(
            corpus_name=name, scale=scale, seed=3, pipeline="coma_like"
        ).network
    return _FIXTURES[(name, scale)]


class TestCompileOrderPin:
    @pytest.mark.parametrize("max_cycle_length", [3, 4, 5])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_networks(self, seed, max_cycle_length):
        engine = assert_compiles_like_reference(
            random_network(seed), max_cycle_length
        )
        assert any(v.constraint == "cycle" for v in engine.violations)

    @pytest.mark.parametrize("max_cycle_length", [3, 4])
    def test_movie_network(self, movie_network, max_cycle_length):
        assert_compiles_like_reference(movie_network, max_cycle_length)

    def test_bp(self):
        assert_compiles_like_reference(corpus_network("BP", 0.5), 3)

    @pytest.mark.parametrize("max_cycle_length", [3, 4])
    def test_webform(self, max_cycle_length):
        assert_compiles_like_reference(
            corpus_network("WebForm", 0.2), max_cycle_length
        )


class TestAnchoredCycles:
    @pytest.mark.parametrize("seed", range(40))
    def test_through_filters_full_enumeration_in_order(self, seed):
        rng = random.Random(seed)
        names = [f"S{rng.randint(0, 99):02d}{i}" for i in range(rng.randint(3, 10))]
        graph = erdos_renyi_graph(
            names, rng.uniform(0.2, 0.9), rng=rng, ensure_connected=seed % 2 == 0
        )
        edges = list(graph.edges)
        for max_length in (3, 4, 5):
            full = list(graph.cycles(max_length))
            assert full == list(reference_cycles(graph, max_length))
            through = rng.sample(edges, rng.randint(0, len(edges)))
            # Either orientation names an edge; non-edges are ignored.
            through = [edge[::-1] if rng.random() < 0.5 else edge for edge in through]
            through.append(("nowhere", "else"))
            anchored = {tuple(sorted(edge)) for edge in through}
            assert list(graph.cycles(max_length, through=through)) == [
                cycle for cycle in full if uses_edge(cycle, anchored)
            ]

    @pytest.mark.parametrize("max_cycle_length", [3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_anchored_violations(self, seed, max_cycle_length):
        network = random_network(seed)
        rng = random.Random(seed)
        pairs = sorted({corr.schema_pair for corr in network.correspondences})
        through = set(rng.sample(pairs, max(1, len(pairs) // 4)))
        for constraint in (OneToOneConstraint(), CycleConstraint(max_cycle_length)):
            full = list(
                constraint.minimal_violations(
                    network.correspondences, network.graph
                )
            )
            assert list(
                constraint.violations_through(
                    network.correspondences, network.graph, through
                )
            ) == [
                violation
                for violation in full
                if any(member.schema_pair in through for member in violation)
            ]

