"""Tests for the verifiers — they must catch every violation they claim to."""

import networkx as nx
import pytest

from repro.errors import ColoringError
from repro.graphs import CliqueCover
from repro.verify.checkers import (
    max_star_size,
    verify_clique_decomposition,
    verify_edge_coloring,
    verify_star_partition,
    verify_vertex_coloring,
)


class TestVertexVerifier:
    def test_accepts_proper(self):
        g = nx.path_graph(3)
        assert verify_vertex_coloring(g, {0: 0, 1: 1, 2: 0})

    def test_rejects_monochromatic_edge(self):
        g = nx.path_graph(2)
        with pytest.raises(ColoringError):
            verify_vertex_coloring(g, {0: 1, 1: 1})

    def test_rejects_missing_vertex(self):
        g = nx.path_graph(2)
        with pytest.raises(ColoringError):
            verify_vertex_coloring(g, {0: 0})

    def test_rejects_palette_overflow(self):
        g = nx.path_graph(3)
        with pytest.raises(ColoringError):
            verify_vertex_coloring(g, {0: 0, 1: 1, 2: 2}, palette=2)

    def test_non_strict_returns_false(self):
        g = nx.path_graph(2)
        assert verify_vertex_coloring(g, {0: 1, 1: 1}, strict=False) is False


class TestEdgeVerifier:
    def test_accepts_proper(self):
        g = nx.path_graph(3)
        assert verify_edge_coloring(g, {(0, 1): 0, (1, 2): 1})

    def test_rejects_shared_endpoint_conflict(self):
        g = nx.path_graph(3)
        with pytest.raises(ColoringError):
            verify_edge_coloring(g, {(0, 1): 0, (1, 2): 0})

    def test_rejects_missing_edge(self):
        g = nx.path_graph(3)
        with pytest.raises(ColoringError):
            verify_edge_coloring(g, {(0, 1): 0})

    def test_rejects_palette_overflow(self):
        g = nx.star_graph(3)
        coloring = {(0, 1): 0, (0, 2): 1, (0, 3): 2}
        with pytest.raises(ColoringError):
            verify_edge_coloring(g, coloring, palette=2)

    def test_non_strict(self):
        g = nx.path_graph(3)
        assert verify_edge_coloring(g, {(0, 1): 0, (1, 2): 0}, strict=False) is False


class TestStarPartition:
    def test_max_star_size(self):
        g = nx.star_graph(4)
        edges = [(0, 1), (0, 2), (0, 3)]
        assert max_star_size(g, edges) == 3

    def test_accepts_valid_partition(self):
        g = nx.star_graph(4)
        classes = {0: [(0, 1), (0, 2)], 1: [(0, 3), (0, 4)]}
        assert verify_star_partition(g, classes, q=2)

    def test_rejects_oversized_star(self):
        g = nx.star_graph(4)
        classes = {0: [(0, 1), (0, 2), (0, 3)], 1: [(0, 4)]}
        with pytest.raises(ColoringError):
            verify_star_partition(g, classes, q=2)

    def test_rejects_non_partition(self):
        g = nx.star_graph(2)
        with pytest.raises(ColoringError):
            verify_star_partition(g, {0: [(0, 1)]}, q=2)


class TestCliqueDecomposition:
    def test_accepts_valid(self):
        g = nx.complete_graph(4)
        cover = CliqueCover.from_maximal_cliques(g)
        classes = {0: [0, 1], 1: [2, 3]}
        assert verify_clique_decomposition(g, cover, classes, max_clique=2)

    def test_rejects_large_restriction(self):
        g = nx.complete_graph(4)
        cover = CliqueCover.from_maximal_cliques(g)
        classes = {0: [0, 1, 2], 1: [3]}
        with pytest.raises(ColoringError):
            verify_clique_decomposition(g, cover, classes, max_clique=2)

    def test_rejects_non_partition(self):
        g = nx.complete_graph(3)
        cover = CliqueCover.from_maximal_cliques(g)
        with pytest.raises(ColoringError):
            verify_clique_decomposition(g, cover, {0: [0, 1]}, max_clique=3)
