"""Tests for degeneracy, arboricity bounds and forest decomposition.

The core-number derivation is pinned to independent references: per-k
``nx.k_core`` densities for the bounds, and a direct transcription of the
smallest-last rule for the ordering.
"""

import math

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import workloads
from repro.graphcore import CompactGraph
from repro.graphs import (
    arboricity_bounds,
    degeneracy,
    degeneracy_ordering,
    forest_decomposition,
    max_degree,
)


def reference_bounds(graph):
    """``(lower, upper)`` from the Nash-Williams density of the whole graph
    and of every ``nx.k_core`` (k >= 2), capped by the degeneracy."""
    n, m = graph.number_of_nodes(), graph.number_of_edges()
    if n <= 1 or m == 0:
        return (0, 0) if m == 0 else (1, 1)
    upper = max(1, max(nx.core_number(graph).values()))
    lower = math.ceil(m / (n - 1))
    for k in range(2, upper + 1):
        core = nx.k_core(graph, k)
        if core.number_of_nodes() > 1 and core.number_of_edges() > 0:
            lower = max(lower, math.ceil(core.number_of_edges() / (core.number_of_nodes() - 1)))
    return min(lower, upper), upper


def reference_ordering(graph):
    """Smallest-last, literally: remove a vertex of minimum (current
    degree, repr); ``min`` keeps the first of equal keys, i.e. node order."""
    live = {v: set(graph.neighbors(v)) for v in graph.nodes()}
    order, k = [], 0
    while live:
        v = min(live, key=lambda u: (len(live[u]), repr(u)))
        k = max(k, len(live[v]))
        order.append(v)
        for u in live.pop(v):
            live[u].discard(v)
    return order, k


_LABELS = {
    "int": lambda i: i,
    "tuple": lambda i: (i % 3, i),
    "str": lambda i: f"v{i}",
}


@st.composite
def labelled_graphs(draw, max_n=18):
    """Random simple graphs with int, tuple or str labels; isolated nodes
    and several components arise naturally at low density."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    label = _LABELS[draw(st.sampled_from(sorted(_LABELS)))]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = nx.Graph()
    # shuffled insertion so node order differs from label order
    graph.add_nodes_from(label(i) for i in draw(st.permutations(range(n))))
    graph.add_edges_from((label(u), label(v)) for u, v in chosen)
    return graph


REFERENCE_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestMaxDegree:
    def test_empty(self):
        assert max_degree(nx.Graph()) == 0

    def test_star(self):
        assert max_degree(nx.star_graph(6)) == 6


class TestDegeneracy:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (nx.path_graph(5), 1),
            (nx.cycle_graph(7), 2),
            (nx.complete_graph(6), 5),
            (nx.star_graph(9), 1),
            (nx.grid_2d_graph(4, 4), 2),
        ],
    )
    def test_known_values(self, graph, expected):
        assert degeneracy(graph) == expected

    def test_ordering_property(self, nonempty_graph):
        order, k = degeneracy_ordering(nonempty_graph)
        position = {v: i for i, v in enumerate(order)}
        for v in nonempty_graph.nodes():
            forward = sum(
                1 for u in nonempty_graph.neighbors(v) if position[u] > position[v]
            )
            assert forward <= k

    def test_order_covers_all_vertices(self, any_graph):
        order, _ = degeneracy_ordering(any_graph)
        assert sorted(order, key=repr) == sorted(any_graph.nodes(), key=repr)


class TestArboricityBounds:
    def test_tree(self):
        bounds = arboricity_bounds(nx.random_labeled_tree(20, seed=1) if hasattr(nx, "random_labeled_tree") else nx.path_graph(20))
        assert bounds.lower == 1
        assert bounds.upper == 1

    def test_complete_graph(self):
        # a(K_n) = ceil(n/2)
        bounds = arboricity_bounds(nx.complete_graph(8))
        assert bounds.lower == 4
        assert bounds.upper >= 4

    def test_cycle(self):
        bounds = arboricity_bounds(nx.cycle_graph(9))
        assert bounds.lower == 1 or bounds.lower == 2
        assert bounds.upper == 2

    def test_lower_le_upper(self, any_graph):
        bounds = arboricity_bounds(any_graph)
        assert bounds.lower <= bounds.upper

    def test_empty(self):
        bounds = arboricity_bounds(nx.Graph())
        assert bounds.lower == 0
        assert bounds.upper == 0


class TestForestDecomposition:
    def test_forests_are_forests_and_partition_edges(self, nonempty_graph):
        forests = forest_decomposition(nonempty_graph)
        seen = set()
        for forest in forests:
            assert nx.is_forest(forest)
            for u, v in forest.edges():
                key = tuple(sorted((repr(u), repr(v))))
                assert key not in seen
                seen.add(key)
        expected = {
            tuple(sorted((repr(u), repr(v)))) for u, v in nonempty_graph.edges()
        }
        assert seen == expected

    def test_count_matches_degeneracy(self):
        g = nx.complete_graph(7)
        forests = forest_decomposition(g)
        assert len(forests) == degeneracy(g)


class TestAgainstReferences:
    def test_bounds_on_menagerie(self, any_graph):
        bounds = arboricity_bounds(any_graph)
        assert (bounds.lower, bounds.upper) == reference_bounds(any_graph)
        assert degeneracy(any_graph) == max(nx.core_number(any_graph).values(), default=0)

    def test_ordering_on_menagerie(self, any_graph):
        assert degeneracy_ordering(any_graph) == reference_ordering(any_graph)

    @REFERENCE_SETTINGS
    @given(labelled_graphs())
    def test_bounds_on_random_graphs(self, graph):
        bounds = arboricity_bounds(graph)
        assert (bounds.lower, bounds.upper) == reference_bounds(graph)
        assert degeneracy(graph) == max(nx.core_number(graph).values(), default=0)

    @REFERENCE_SETTINGS
    @given(labelled_graphs())
    def test_ordering_on_random_graphs(self, graph):
        assert degeneracy_ordering(graph) == reference_ordering(graph)

    def test_equal_reprs_fall_back_to_node_order(self):
        class Same:
            def __repr__(self):
                return "same"

        a, b, c = Same(), Same(), Same()
        graph = nx.Graph()
        graph.add_nodes_from([b, c, a])
        order, k = degeneracy_ordering(graph)
        assert order == [b, c, a] and k == 0


class TestCompactParity:
    """Core numbers are graph invariants: the vectorized CSR branch must
    give exactly the networkx branch's bounds and degeneracy."""

    @pytest.mark.parametrize("name", workloads.default_grid_names())
    def test_builtin_workloads(self, name):
        graph = workloads.build(name, seed=3)
        compact = CompactGraph.from_networkx(graph)
        assert arboricity_bounds(compact) == arboricity_bounds(graph)
        assert degeneracy(compact) == degeneracy(graph)

    @pytest.mark.parametrize(
        "name,params",
        [
            ("xl-grid", {"rows": 8, "cols": 8}),
            ("xl-regular", {"n": 64, "d": 4}),
            ("xl-power-law", {"n": 64, "attach": 2}),
            ("xl-forest-stack", {"n_centers": 6, "leaves_per_center": 9, "a": 2}),
        ],
    )
    def test_xl_workloads(self, name, params):
        compact = workloads.build(name, params, seed=3)
        graph = compact.to_networkx()
        assert arboricity_bounds(compact) == arboricity_bounds(graph)
        assert degeneracy(compact) == degeneracy(graph)

    def test_menagerie(self, any_graph):
        compact = CompactGraph.from_networkx(any_graph)
        assert arboricity_bounds(compact) == arboricity_bounds(any_graph)
        assert degeneracy(compact) == degeneracy(any_graph)
