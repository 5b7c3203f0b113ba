"""Tests for the interconnect topologies (torus, fat-tree)."""

import networkx as nx
import pytest

from repro.errors import InvalidParameterError
from repro.graphs import arboricity_bounds, fat_tree, max_degree, torus


class TestTorus:
    def test_four_regular(self):
        g = torus(4, 5)
        assert g.number_of_nodes() == 20
        assert all(d == 4 for _, d in g.degree())

    def test_edge_count(self):
        g = torus(5, 5)
        assert g.number_of_edges() == 2 * 25

    def test_low_arboricity(self):
        bounds = arboricity_bounds(torus(6, 6))
        # true arboricity is 3 (m = 2n, density 2n/(n-1)); the degeneracy
        # upper bound is 4 because every vertex has degree exactly 4
        assert bounds.lower == 3
        assert bounds.upper <= 4

    def test_connected(self):
        assert nx.is_connected(torus(3, 7))

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            torus(2, 5)


class TestFatTree:
    def test_switch_counts(self):
        k = 4
        g = fat_tree(k)
        # k pods * k switches + (k/2)^2 cores
        assert g.number_of_nodes() == k * k + (k // 2) ** 2

    def test_edge_count(self):
        k = 4
        g = fat_tree(k)
        # per pod: (k/2)^2 edge-agg links + (k/2)*(k/2) agg-core links
        expected = k * ((k // 2) ** 2) * 2
        assert g.number_of_edges() == expected

    def test_degrees_bounded_by_k(self):
        for k in (2, 4, 6):
            assert max_degree(fat_tree(k)) <= k

    def test_connected(self):
        assert nx.is_connected(fat_tree(4))

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            fat_tree(3)
        with pytest.raises(InvalidParameterError):
            fat_tree(0)

    def test_schedulable_with_four_delta(self):
        from repro.verify.checkers import verify_edge_coloring
        from repro.core import four_delta_edge_coloring

        g = fat_tree(4)
        result = four_delta_edge_coloring(g)
        verify_edge_coloring(g, result.coloring, palette=4 * max_degree(g))
