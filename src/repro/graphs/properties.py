"""Structural graph parameters the paper's bounds are stated in.

Exact arboricity is a matroid-union computation; for the sizes this library
targets we provide the standard sandwich
``ceil(m_H / (n_H - 1)) <= a(G) <= degeneracy(G)`` (the upper bound because
a k-degenerate graph decomposes into k forests via the elimination order,
and degeneracy <= 2a - 1 always), with the Nash-Williams density lower
bound evaluated on the whole graph and on every k-core.

Every arboricity quantity comes from one O(n + m) core-number pass
(Batagelj-Zaversnik; vectorized over CSR arrays for compact graphs): the
degeneracy is the largest core number, and bucketing nodes by core number
and edges by the smaller core number of their endpoints gives the size of
every k-core at once as suffix sums.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple

import networkx as nx
import numpy as np

from repro.errors import InvalidParameterError
from repro.types import NodeId


def max_degree(graph: nx.Graph) -> int:
    """Delta(G); 0 for the empty graph."""
    return max((d for _, d in graph.degree()), default=0)


def degeneracy_ordering(graph: nx.Graph) -> Tuple[List[NodeId], int]:
    """Smallest-last vertex ordering and the graph's degeneracy.

    Returns ``(order, k)`` where each vertex has at most ``k`` neighbors
    later in ``order``. The greedy rule repeatedly removes a vertex of
    minimum current degree, ties broken by ``repr`` and then by position
    in ``graph.nodes()``; the order is therefore fully determined by the
    graph whenever node reprs are distinct (true of every builtin
    workload). A lazy-deletion heap keyed ``(current degree, repr,
    position)`` makes this O(m log n).
    """
    adjacency = {v: list(graph.neighbors(v)) for v in graph.nodes()}
    key = {v: (repr(v), i) for i, v in enumerate(adjacency)}
    degree = {v: len(nbrs) for v, nbrs in adjacency.items()}
    heap = [(degree[v], key[v], v) for v in adjacency]
    heapq.heapify(heap)
    removed = set()
    order: List[NodeId] = []
    k = 0
    while heap:
        d, _, v = heapq.heappop(heap)
        if v in removed or d != degree[v]:
            continue  # stale entry: v was removed or its degree dropped
        k = max(k, d)
        order.append(v)
        removed.add(v)
        for u in adjacency[v]:
            if u not in removed:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], key[u], u))
    return order, k


def _core_numbers(graph: nx.Graph) -> Tuple[np.ndarray, np.ndarray]:
    """Core numbers of every node and of every edge, in one O(n + m) pass.

    An edge's core number is the smaller of its endpoints' — the largest
    ``k`` whose k-core contains it — so the k-core has
    ``(node_cores >= k).sum()`` nodes and ``(edge_cores >= k).sum()``
    edges. ``nx.core_number`` serves networkx graphs; CSR inputs use the
    vectorized peel (core numbers are a graph invariant, so the two agree
    exactly).
    """
    if hasattr(graph, "indptr") and hasattr(graph, "indices"):
        from repro.kernels.cores import core_numbers_csr

        node_cores = core_numbers_csr(graph.indptr, graph.indices)
        src = np.repeat(np.arange(node_cores.size), np.diff(graph.indptr))
        dst = graph.indices
        once = src < dst  # each undirected edge appears in both rows
        return node_cores, np.minimum(node_cores[src[once]], node_cores[dst[once]])
    core = nx.core_number(graph)
    node_cores = np.fromiter(core.values(), dtype=np.int64, count=len(core))
    edge_cores = np.fromiter(
        (min(core[u], core[v]) for u, v in graph.edges()),
        dtype=np.int64,
        count=graph.number_of_edges(),
    )
    return node_cores, edge_cores


def degeneracy(graph: nx.Graph) -> int:
    """The largest core number; 0 for a graph without edges."""
    node_cores, _ = _core_numbers(graph)
    return int(node_cores.max()) if node_cores.size else 0


@dataclass(frozen=True)
class ArboricityBounds:
    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise InvalidParameterError(
                f"arboricity bounds crossed: {self.lower} > {self.upper}"
            )


def arboricity_bounds(graph: nx.Graph) -> ArboricityBounds:
    """The Nash-Williams density lower bound and the degeneracy upper bound.

    ``a(G) = max_H ceil(m_H / (n_H - 1))``; evaluating the density on the
    whole graph and on every k-core (2 <= k <= degeneracy) gives a
    practical lower bound, while the degeneracy elimination order explicitly
    decomposes the edges into ``degeneracy`` forests, an upper bound.

    One core-number pass yields everything: the degeneracy is the largest
    core number, and suffix sums of the node and edge counts per core
    number give every k-core's ``(n_k, m_k)`` without building a subgraph,
    so the whole evaluation is O(n + m).
    """
    n = graph.number_of_nodes()
    m = graph.number_of_edges()
    if n <= 1 or m == 0:
        return ArboricityBounds(lower=0 if m == 0 else 1, upper=0 if m == 0 else 1)
    node_cores, edge_cores = _core_numbers(graph)
    upper = max(1, int(node_cores.max()))
    # n_k[k] / m_k[k]: nodes / edges of the k-core (core number >= k)
    n_k = np.cumsum(np.bincount(node_cores, minlength=upper + 1)[::-1])[::-1]
    m_k = np.cumsum(np.bincount(edge_cores, minlength=upper + 1)[::-1])[::-1]
    lower = -(-m // (n - 1))
    for k in range(2, upper + 1):
        ns, ms = int(n_k[k]), int(m_k[k])
        if ns > 1 and ms > 0:
            lower = max(lower, -(-ms // (ns - 1)))
    lower = min(lower, upper)
    return ArboricityBounds(lower=lower, upper=upper)


def forest_decomposition(graph: nx.Graph) -> List[nx.Graph]:
    """Decompose the edges into at most ``degeneracy(G)`` forests.

    Each vertex has at most k = degeneracy neighbors *later* in the
    smallest-last order; assigning each such edge a distinct index in
    ``0..k-1`` at its earlier endpoint yields k forests (every vertex has at
    most one parent per index, and parents are always later in the order, so
    each index class is a functional forest).
    """
    order, k = degeneracy_ordering(graph)
    position = {v: i for i, v in enumerate(order)}
    forests = [nx.Graph() for _ in range(max(k, 1))]
    for f in forests:
        f.add_nodes_from(graph.nodes())
    counter: Dict[NodeId, int] = {v: 0 for v in graph.nodes()}
    for v in order:
        for u in graph.neighbors(v):
            if position[u] > position[v]:
                forests[counter[v]].add_edge(v, u)
                counter[v] += 1
    for f in forests:
        if not nx.is_forest(f):
            raise AssertionError("forest decomposition produced a cycle")
    return forests


def is_proper_minor_free_like(graph: nx.Graph) -> bool:  # pragma: no cover - helper
    """Heuristic used only by examples: planar => arboricity <= 3."""
    result, _ = nx.check_planarity(graph)
    return result
