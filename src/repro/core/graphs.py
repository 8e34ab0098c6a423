"""Interaction graphs: which schema pairs of a network get matched.

The paper's experiments use complete interaction graphs for the quality
studies (Section VI-C) and Erdős–Rényi random graphs for the scalability
study (Section VI-B, Fig. 6).  We provide both plus a few extra topologies
that are useful for examples and tests.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Optional, Sequence


class InteractionGraph:
    """An undirected graph over schema names.

    Edges are stored canonically as sorted 2-tuples of schema names.  The
    class is deliberately tiny — just what the matching network needs — and
    exposes :meth:`triangles` and :meth:`cycles` for the cycle constraint.
    """

    def __init__(
        self,
        nodes: Iterable[str] = (),
        edges: Iterable[tuple[str, str]] = (),
    ):
        self._adjacency: dict[str, set[str]] = {}
        for node in nodes:
            self.add_node(node)
        for left, right in edges:
            self.add_edge(left, right)

    def add_node(self, node: str) -> None:
        self._adjacency.setdefault(node, set())

    def add_edge(self, left: str, right: str) -> None:
        """Add an undirected edge, creating endpoints as needed."""
        if left == right:
            raise ValueError(f"self-loop on {left!r} is not allowed")
        self.add_node(left)
        self.add_node(right)
        self._adjacency[left].add(right)
        self._adjacency[right].add(left)

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self._adjacency)

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        seen: list[tuple[str, str]] = []
        for node in self._adjacency:
            for neighbour in self._adjacency[node]:
                if node < neighbour:
                    seen.append((node, neighbour))
        return tuple(sorted(seen))

    def neighbors(self, node: str) -> frozenset[str]:
        return frozenset(self._adjacency[node])

    def has_edge(self, left: str, right: str) -> bool:
        return right in self._adjacency.get(left, ())

    def degree(self, node: str) -> int:
        return len(self._adjacency[node])

    def triangles(self) -> Iterator[tuple[str, str, str]]:
        """Yield each 3-clique once, with nodes in sorted order."""
        for left, right in self.edges:
            common = self._adjacency[left] & self._adjacency[right]
            for third in sorted(common):
                if third > right:
                    yield (left, right, third)

    def cycles(
        self,
        max_length: int = 3,
        through: Optional[Iterable[tuple[str, str]]] = None,
    ) -> Iterator[tuple[str, ...]]:
        """Yield simple cycles of length 3..max_length, each exactly once.

        Cycles are emitted as node tuples starting from their smallest node
        and continuing towards the smaller of that node's two cycle
        neighbours, which canonicalises direction.  They come in
        depth-first pre-order: start node ascending, then neighbours in
        descending name order, a cycle before its extensions; as a sort key,
        ``(rank(c0), -rank(c1), …, -rank(c_{k-1}))`` with a prefix first.
        The constraint engine's violation order follows this order.

        Each cycle is found from one of its edges by extending paths from
        that edge and closing them by intersecting the head's adjacency set
        with the edge's start.  Without ``through`` that edge is the
        cycle's canonical first edge (c0, c1), so cycles stream out in order.
        With ``through`` (an iterable of edges), only the cycles using at
        least one of those edges are yielded, in the same order; the work
        is then bounded by the cycles through those edges, not the graph.
        """
        if max_length < 3:
            return
        adjacency = self._adjacency
        ascending: dict[str, list[str]] = {}

        def neighbours(node: str) -> list[str]:
            ordered = ascending.get(node)
            if ordered is None:
                ordered = ascending[node] = sorted(adjacency[node])
            return ordered

        def closed_paths(
            first: str, second: str, canonical: bool
        ) -> Iterator[tuple[str, ...]]:
            # Paths first, second, …, head in pre-order (the stack pops the
            # largest neighbour first); a path is a cycle when its head is
            # adjacent to ``first``.  ``canonical`` keeps the cycles whose
            # smallest node is ``first`` and whose ``second < last``.
            home = adjacency[first]
            stack = [(first, second)]
            while stack:
                path = stack.pop()
                head = path[-1]
                if len(path) >= 3 and head in home and (
                    not canonical or second < head
                ):
                    yield path
                if len(path) == max_length - 1:
                    for node in sorted(home & adjacency[head], reverse=True):
                        if node not in path and (not canonical or node > second):
                            yield path + (node,)
                elif len(path) < max_length - 1:
                    stack.extend(
                        path + (node,)
                        for node in neighbours(head)
                        if node not in path and (not canonical or node > first)
                    )

        if through is None:
            for start in sorted(adjacency):
                for second in reversed(neighbours(start)):
                    if second < start:
                        break
                    yield from closed_paths(start, second, True)
            return
        found: set[tuple[str, ...]] = set()
        for left, right in through:
            if self.has_edge(left, right):
                found.update(map(_canonical, closed_paths(left, right, False)))
        rank = {node: position for position, node in enumerate(sorted(adjacency))}
        yield from sorted(
            found,
            key=lambda cycle: (rank[cycle[0]], *(-rank[node] for node in cycle[1:])),
        )

    def __contains__(self, node: object) -> bool:
        return node in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InteractionGraph({len(self)} nodes, {len(self.edges)} edges)"


def _canonical(cycle: tuple[str, ...]) -> tuple[str, ...]:
    """The rotation and direction :meth:`InteractionGraph.cycles` emits."""
    pivot = cycle.index(min(cycle))
    forward = cycle[pivot:] + cycle[:pivot]
    return forward if forward[1] < forward[-1] else forward[:1] + forward[:0:-1]


def complete_graph(schema_names: Sequence[str]) -> InteractionGraph:
    """Every schema matched against every other (paper Section VI-C)."""
    graph = InteractionGraph(nodes=schema_names)
    for i, left in enumerate(schema_names):
        for right in schema_names[i + 1 :]:
            graph.add_edge(left, right)
    return graph


def erdos_renyi_graph(
    schema_names: Sequence[str],
    edge_probability: float,
    rng: random.Random | None = None,
    ensure_connected: bool = True,
) -> InteractionGraph:
    """G(n, p) random interaction graph (paper Section VI-B, Fig. 6).

    With ``ensure_connected`` a spanning path is added first so that every
    schema participates in at least one matching task.
    """
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must lie in [0, 1]")
    rng = rng or random.Random()
    graph = InteractionGraph(nodes=schema_names)
    if ensure_connected:
        for left, right in zip(schema_names, schema_names[1:]):
            graph.add_edge(left, right)
    for i, left in enumerate(schema_names):
        for right in schema_names[i + 1 :]:
            if rng.random() < edge_probability:
                graph.add_edge(left, right)
    return graph


def star_graph(hub: str, leaves: Sequence[str]) -> InteractionGraph:
    """Hub-and-spoke topology (a mediated-schema-like layout)."""
    graph = InteractionGraph(nodes=[hub, *leaves])
    for leaf in leaves:
        graph.add_edge(hub, leaf)
    return graph


def ring_graph(schema_names: Sequence[str]) -> InteractionGraph:
    """A single cycle through all schemas; the minimal cyclic topology."""
    if len(schema_names) < 3:
        raise ValueError("a ring needs at least three schemas")
    graph = InteractionGraph(nodes=schema_names)
    for left, right in zip(schema_names, schema_names[1:]):
        graph.add_edge(left, right)
    graph.add_edge(schema_names[-1], schema_names[0])
    return graph


def path_graph(schema_names: Sequence[str]) -> InteractionGraph:
    """A chain of pairwise matchings; acyclic, so no cycle constraints."""
    graph = InteractionGraph(nodes=schema_names)
    for left, right in zip(schema_names, schema_names[1:]):
        graph.add_edge(left, right)
    return graph
