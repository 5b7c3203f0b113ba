"""Tests for the prior-art baselines: weak (Delta^(1+eps)) and randomized."""

import networkx as nx
import pytest

from repro.verify.checkers import verify_edge_coloring, verify_vertex_coloring
from repro.errors import InvalidParameterError
from repro.graphs import erdos_renyi, max_degree, random_regular
from repro.baselines import (
    randomized_edge_coloring,
    weak_edge_coloring,
    weak_vertex_coloring,
)


class TestWeakVertexColoring:
    def test_proper_on_menagerie(self, any_graph):
        result = weak_vertex_coloring(any_graph)
        if any_graph.number_of_nodes():
            verify_vertex_coloring(any_graph, result.coloring)

    def test_color_exponent_regime(self):
        # Delta^(1+eps) with small eps: more colors than Delta+1, far fewer
        # than Delta^2.
        g = random_regular(60, 20, seed=1)
        result = weak_vertex_coloring(g)
        assert result.colors_used >= 21
        assert result.colors_used <= 20**2
        assert 0.0 <= result.color_exponent < 1.0

    def test_faster_than_full_oracle(self):
        # the selling point of [6,7]: few rounds
        from repro.local import RoundLedger
        from repro.substrates import ColoringOracle

        g = random_regular(64, 16, seed=2)
        weak = weak_vertex_coloring(g)
        oracle_ledger = RoundLedger()
        ColoringOracle().vertex_coloring(g, ledger=oracle_ledger)
        assert weak.rounds_actual < oracle_ledger.total_actual

    def test_exponent_validation(self):
        with pytest.raises(InvalidParameterError):
            weak_vertex_coloring(nx.path_graph(3), exponent=0.3)
        with pytest.raises(InvalidParameterError):
            weak_vertex_coloring(nx.path_graph(3), exponent=1.0)
        with pytest.raises(InvalidParameterError):
            weak_vertex_coloring(nx.path_graph(3), threshold=0)

    def test_exponent_tradeoff(self):
        g = random_regular(60, 24, seed=3)
        low = weak_vertex_coloring(g, exponent=0.55)
        high = weak_vertex_coloring(g, exponent=0.9)
        verify_vertex_coloring(g, low.coloring)
        verify_vertex_coloring(g, high.coloring)

    def test_empty(self):
        assert weak_vertex_coloring(nx.Graph()).coloring == {}


class TestWeakEdgeColoring:
    def test_proper(self):
        g = random_regular(32, 8, seed=4)
        result = weak_edge_coloring(g)
        verify_edge_coloring(g, result.coloring)

    def test_edgeless(self):
        g = nx.Graph()
        g.add_nodes_from(range(3))
        assert weak_edge_coloring(g).coloring == {}


class TestRandomizedEdgeColoring:
    def test_proper_on_menagerie(self, nonempty_graph):
        result = randomized_edge_coloring(nonempty_graph, seed=1)
        verify_edge_coloring(nonempty_graph, result.coloring, palette=result.palette)

    def test_palette_bound(self):
        g = random_regular(40, 10, seed=5)
        result = randomized_edge_coloring(g, palette_factor=2.0, seed=2)
        assert result.colors_used <= 2 * 10

    def test_logarithmic_rounds(self):
        g = erdos_renyi(150, 0.08, seed=6)
        result = randomized_edge_coloring(g, seed=3)
        verify_edge_coloring(g, result.coloring)
        assert result.rounds <= 60  # O(log m) whp; generous cap

    def test_tight_palette_terminates_or_stalls_detectably(self):
        # below 2*Delta-1 the simple scheme may stall (the gap the nibble
        # method closes); it must either finish properly or raise, never
        # hang.
        from repro.errors import RoundLimitExceeded

        g = random_regular(48, 12, seed=7)
        try:
            result = randomized_edge_coloring(
                g, palette_factor=1.2, seed=4, max_rounds=300
            )
        except RoundLimitExceeded:
            return
        verify_edge_coloring(g, result.coloring, palette=result.palette)

    def test_two_delta_palette_always_terminates(self):
        for seed in range(5):
            g = random_regular(48, 12, seed=seed)
            result = randomized_edge_coloring(g, palette_factor=2.0, seed=seed)
            verify_edge_coloring(g, result.coloring, palette=result.palette)
            assert result.rounds <= 100

    def test_seed_reproducibility(self):
        g = erdos_renyi(30, 0.2, seed=8)
        a = randomized_edge_coloring(g, seed=9)
        b = randomized_edge_coloring(g, seed=9)
        assert a.coloring == b.coloring
        assert a.rounds == b.rounds

    def test_factor_validation(self):
        with pytest.raises(InvalidParameterError):
            randomized_edge_coloring(nx.path_graph(3), palette_factor=1.0)
