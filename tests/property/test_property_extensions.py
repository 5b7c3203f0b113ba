"""Property-based tests for the extension substrates and baselines."""

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.verify.checkers import verify_edge_coloring, verify_vertex_coloring
from repro.graphs import max_degree
from repro.baselines import (
    forest_edge_coloring,
    misra_gries_edge_coloring,
    randomized_edge_coloring,
    weak_vertex_coloring,
)
from repro.substrates import (
    cole_vishkin_forest_coloring,
    defective_coloring,
)
from repro.substrates.primes import next_prime

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def gnp_graphs(draw, max_n=26):
    n = draw(st.integers(min_value=2, max_value=max_n))
    p = draw(st.floats(min_value=0.05, max_value=0.5))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return nx.gnp_random_graph(n, p, seed=seed)


@st.composite
def random_forests(draw, max_n=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    import random as _random

    rng = _random.Random(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for v in range(1, n):
        if rng.random() < 0.8:  # forests, not only trees
            graph.add_edge(v, rng.randrange(v))
    return graph


class TestColeVishkinProperties:
    @SETTINGS
    @given(random_forests())
    def test_three_coloring(self, forest):
        coloring = cole_vishkin_forest_coloring(forest)
        verify_vertex_coloring(forest, coloring, palette=3)


class TestDefectiveProperties:
    @SETTINGS
    @given(gnp_graphs(), st.integers(min_value=3, max_value=23))
    def test_defect_bound_certified(self, graph, q_seed):
        q = next_prime(q_seed)
        result = defective_coloring(graph, q=q)
        assert result.measured_defect(graph) <= result.defect_bound
        if result.coloring:
            assert max(result.coloring.values()) < q * q

    @SETTINGS
    @given(gnp_graphs())
    def test_classes_degree_bounded(self, graph):
        result = defective_coloring(graph, q=7)
        for members in result.classes().values():
            assert max_degree(graph.subgraph(members)) <= result.defect_bound


class TestBaselineProperties:
    @SETTINGS
    @given(gnp_graphs())
    def test_misra_gries_vizing_bound(self, graph):
        coloring = misra_gries_edge_coloring(graph)
        if graph.number_of_edges():
            verify_edge_coloring(graph, coloring, palette=max_degree(graph) + 1)

    @SETTINGS
    @given(gnp_graphs())
    def test_forest_coloring_proper(self, graph):
        result = forest_edge_coloring(graph)
        if graph.number_of_edges():
            verify_edge_coloring(graph, result.coloring)

    @SETTINGS
    @given(gnp_graphs(max_n=20), st.integers(min_value=0, max_value=1000))
    def test_randomized_proper(self, graph, seed):
        result = randomized_edge_coloring(graph, seed=seed)
        if graph.number_of_edges():
            verify_edge_coloring(graph, result.coloring, palette=result.palette)

    @SETTINGS
    @given(gnp_graphs(max_n=18))
    def test_weak_coloring_proper(self, graph):
        result = weak_vertex_coloring(graph)
        if graph.number_of_nodes():
            verify_vertex_coloring(graph, result.coloring)
