"""Property-based tests (hypothesis) over random graphs.

Every invariant here is a theorem of the paper: properness of each
algorithm's output, the connector degree bounds, the H-partition property,
and the palette bounds — checked on arbitrary generated graphs.
"""

import math

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.verify.checkers import verify_edge_coloring, verify_vertex_coloring
from repro.graphs import CliqueCover, line_graph_with_cover, max_degree
from repro.core import (
    build_clique_connector,
    build_edge_connector,
    cd_coloring,
    edge_color_bounded_arboricity,
    star_partition_edge_coloring,
)
from repro.substrates import (
    ColoringOracle,
    basic_color_reduction,
    h_partition,
    kuhn_wattenhofer_reduction,
    linial_coloring,
)

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def gnp_graphs(draw, max_n=28):
    n = draw(st.integers(min_value=2, max_value=max_n))
    p = draw(st.floats(min_value=0.05, max_value=0.5))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return nx.gnp_random_graph(n, p, seed=seed)


@st.composite
def sparse_graphs(draw, max_n=30):
    n = draw(st.integers(min_value=3, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    import random as _random

    rng = _random.Random(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    # union of two random functional forests: arboricity <= 2
    for layer in (0, 1):
        for v in range(1, n):
            u = rng.randrange(v)
            graph.add_edge(v, u)
    return graph


class TestLinialProperties:
    @SETTINGS
    @given(gnp_graphs())
    def test_linial_proper(self, graph):
        coloring = linial_coloring(graph)
        verify_vertex_coloring(graph, coloring)

    @SETTINGS
    @given(gnp_graphs())
    def test_linial_color_count(self, graph):
        coloring = linial_coloring(graph)
        delta = max_degree(graph)
        used = max(coloring.values(), default=-1) + 1
        assert used <= max(graph.number_of_nodes(), 10 * (delta + 1) ** 2)


class TestReductionProperties:
    @SETTINGS
    @given(gnp_graphs(), st.integers(min_value=2, max_value=9))
    def test_basic_reduction_proper(self, graph, spread):
        coloring = {
            v: i * spread for i, v in enumerate(sorted(graph.nodes(), key=repr))
        }
        delta = max_degree(graph)
        reduced = basic_color_reduction(graph, coloring, delta + 1)
        verify_vertex_coloring(graph, reduced, palette=delta + 1)

    @SETTINGS
    @given(gnp_graphs(), st.integers(min_value=3, max_value=50))
    def test_kw_reduction_proper(self, graph, spread):
        coloring = {
            v: i * spread for i, v in enumerate(sorted(graph.nodes(), key=repr))
        }
        delta = max_degree(graph)
        reduced = kuhn_wattenhofer_reduction(graph, coloring)
        verify_vertex_coloring(graph, reduced, palette=delta + 1)


class TestOracleProperties:
    @SETTINGS
    @given(gnp_graphs())
    def test_vertex_oracle(self, graph):
        coloring = ColoringOracle().vertex_coloring(graph)
        verify_vertex_coloring(graph, coloring, palette=max_degree(graph) + 1)

    @SETTINGS
    @given(gnp_graphs(max_n=20))
    def test_edge_oracle(self, graph):
        coloring = ColoringOracle().edge_coloring(graph)
        delta = max_degree(graph)
        if graph.number_of_edges():
            verify_edge_coloring(graph, coloring, palette=max(2 * delta - 1, 1))


class TestConnectorProperties:
    @SETTINGS
    @given(gnp_graphs(max_n=18), st.integers(min_value=2, max_value=5))
    def test_clique_connector_degree(self, graph, t):
        line, cover = line_graph_with_cover(graph)
        if line.number_of_nodes() == 0:
            return
        connector = build_clique_connector(line, cover, t)
        assert max_degree(connector) <= cover.diversity() * (t - 1)

    @SETTINGS
    @given(gnp_graphs(max_n=22), st.integers(min_value=1, max_value=5))
    def test_edge_connector_degree(self, graph, t):
        if graph.number_of_edges() == 0:
            return
        connector = build_edge_connector(graph, t)
        assert max_degree(connector.graph) <= t
        assert len(connector.edge_map) == graph.number_of_edges()


class TestHPartitionProperties:
    @SETTINGS
    @given(sparse_graphs(), st.floats(min_value=2.2, max_value=6.0))
    def test_partition_property_and_orientation(self, graph, q):
        hp = h_partition(graph, arboricity=2, q=q)
        hp.validate()
        orientation = hp.orientation()
        assert orientation.is_acyclic()
        assert orientation.max_out_degree() <= hp.threshold


class TestEndToEndProperties:
    @SETTINGS
    @given(gnp_graphs(max_n=16), st.integers(min_value=1, max_value=2))
    def test_star_partition_proper_and_bounded(self, graph, x):
        if graph.number_of_edges() == 0:
            return
        result = star_partition_edge_coloring(graph, x=x)
        delta = max_degree(graph)
        verify_edge_coloring(
            graph, result.coloring, palette=max(2 ** (x + 1) * delta, 2 * delta - 1)
        )

    @SETTINGS
    @given(gnp_graphs(max_n=14))
    def test_cd_coloring_proper(self, graph):
        line, cover = line_graph_with_cover(graph)
        if line.number_of_nodes() == 0:
            return
        result = cd_coloring(line, cover, x=1)
        verify_vertex_coloring(line, result.coloring)

    @SETTINGS
    @given(sparse_graphs(max_n=24))
    def test_theorem_5_2_proper(self, graph):
        if graph.number_of_edges() == 0:
            return
        result = edge_color_bounded_arboricity(graph, arboricity=2)
        verify_edge_coloring(graph, result.coloring, palette=result.palette_bound)
