"""Ablations for the Section 5 design choices.

* **q sweep** — the H-partition slack parameter trades the number of
  peeling levels (rounds) against the per-level degree bound (colors).
* **internal_x sweep** — Theorem 5.2's intra-set coloring can use deeper
  star-partition recursion ("much faster in the expense of increasing the
  constant", Section 5).
* **forest baseline** — the O(log* n)-round / O(a*Delta)-color endpoint of
  the tradeoff curve.
"""

import pytest

from repro.verify.checkers import verify_edge_coloring
from repro.baselines import forest_edge_coloring
from repro.core import edge_color_bounded_arboricity
from repro.graphs import max_degree, star_forest_stack
from repro.substrates import h_partition


def workload():
    return star_forest_stack(n_centers=6, leaves_per_center=18, a=2, seed=29)


@pytest.mark.parametrize("q", (2.5, 3.0, 5.0, 8.0))
def test_q_sweep(benchmark, record_info, q):
    graph = workload()

    def run():
        return edge_color_bounded_arboricity(graph, arboricity=2, q=q)

    result = benchmark(run)
    verify_edge_coloring(graph, result.coloring)
    levels = h_partition(graph, arboricity=2, q=q).num_levels
    record_info(
        benchmark,
        {
            "experiment": "ablation-q",
            "q": q,
            "levels": levels,
            "dhat": result.dhat,
            "colors_used": result.colors_used,
            "rounds_actual": result.rounds_actual,
        },
    )


@pytest.mark.parametrize("internal_x", (1, 2))
def test_internal_x_sweep(benchmark, record_info, internal_x):
    graph = workload()

    def run():
        return edge_color_bounded_arboricity(graph, arboricity=2, internal_x=internal_x)

    result = benchmark(run)
    verify_edge_coloring(graph, result.coloring)
    record_info(
        benchmark,
        {
            "experiment": "ablation-internal-x",
            "internal_x": internal_x,
            "colors_used": result.colors_used,
            "rounds_actual": result.rounds_actual,
        },
    )


def test_forest_endpoint(benchmark, record_info):
    graph = workload()
    result = benchmark(lambda: forest_edge_coloring(graph))
    verify_edge_coloring(graph, result.coloring)
    record_info(
        benchmark,
        {
            "experiment": "ablation-forest-endpoint",
            "delta": max_degree(graph),
            "colors_used": result.colors_used,
            "rounds_actual": result.rounds_actual,
            "rounds_modeled": result.rounds_modeled,
        },
    )
