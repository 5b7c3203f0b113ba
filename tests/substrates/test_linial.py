"""Tests for Linial's O(Delta^2)-coloring."""

import networkx as nx
import pytest

from repro.verify.checkers import verify_vertex_coloring
from repro.errors import InvalidParameterError
from repro.graphs import erdos_renyi, max_degree, random_regular
from repro.local import RoundLedger
from repro.substrates import linial_coloring, linial_schedule
from repro.substrates.linial import LinialStep, _best_step, _encode, _refine


class TestSchedule:
    def test_steps_make_progress(self):
        schedule, final = linial_schedule(10**6, 8)
        assert schedule, "large id space must shrink"
        ms = [s.m for s in schedule] + [final]
        assert all(b < a for a, b in zip(ms, ms[1:]))

    def test_fixed_point_is_o_delta_squared(self):
        for delta in (2, 4, 8, 16, 32):
            _, final = linial_schedule(10**7, delta)
            assert final <= 10 * (delta + 1) ** 2, (delta, final)

    def test_schedule_length_is_log_star_like(self):
        schedule, _ = linial_schedule(2**64, 8)
        assert len(schedule) <= 7

    def test_no_progress_below_fixed_point(self):
        # when the id space is already below the fixed point nothing happens
        schedule, final = linial_schedule(50, 16)
        assert schedule == []
        assert final == 50

    def test_cover_freeness_constraint(self):
        schedule, _ = linial_schedule(10**6, 8)
        for step in schedule:
            assert step.q > 8 * step.d
            assert step.q ** (step.d + 1) >= step.m


class TestRefinement:
    def test_encode_roundtrip(self):
        coeffs = _encode(123, q=11, d=2)
        value = sum(c * 11**i for i, c in enumerate(coeffs))
        assert value == 123

    def test_encode_overflow_rejected(self):
        with pytest.raises(InvalidParameterError):
            _encode(1000, q=5, d=1)

    def test_refine_distinguishes_neighbors(self):
        step = LinialStep(m=25, q=5, d=1)
        new_a = _refine(3, [7, 9], step)
        new_b = _refine(7, [3, 9], step)
        assert new_a != new_b
        assert 0 <= new_a < 25


class TestColoring:
    def test_proper_on_menagerie(self, any_graph):
        coloring = linial_coloring(any_graph)
        verify_vertex_coloring(any_graph, coloring)

    def test_color_bound(self):
        for seed in range(3):
            g = erdos_renyi(80, 0.08, seed=seed)
            delta = max_degree(g)
            coloring = linial_coloring(g)
            used = max(coloring.values()) + 1
            _, expected = linial_schedule(80, delta)
            assert used <= expected
            assert used <= max(80, 10 * (delta + 1) ** 2)

    def test_reduces_large_id_space(self):
        g = random_regular(40, 4, seed=1)
        # simulate huge sparse ids
        initial = {v: v * 10**6 + 17 for v in g.nodes()}
        coloring = linial_coloring(g, initial=initial)
        verify_vertex_coloring(g, coloring)
        assert max(coloring.values()) + 1 <= 10 * 5**2

    def test_respects_initial_coloring(self):
        g = nx.cycle_graph(6)
        initial = {v: v % 2 for v in g.nodes()}  # already proper, 2 colors
        coloring = linial_coloring(g, initial=initial)
        verify_vertex_coloring(g, coloring)
        assert max(coloring.values()) + 1 <= 2

    def test_missing_initial_color_rejected(self):
        g = nx.path_graph(3)
        with pytest.raises(InvalidParameterError):
            linial_coloring(g, initial={0: 0, 1: 1})

    def test_rounds_recorded(self):
        g = random_regular(60, 4, seed=2)
        ledger = RoundLedger()
        linial_coloring(g, ledger=ledger)
        assert len(ledger.entries) == 1
        assert ledger.entries[0].label == "linial"
        assert ledger.total_actual <= 6

    def test_empty_graph(self):
        assert linial_coloring(nx.Graph()) == {}

    def test_deterministic(self):
        g = erdos_renyi(40, 0.15, seed=3)
        assert linial_coloring(g) == linial_coloring(g)
