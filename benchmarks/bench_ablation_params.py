"""Ablation: the Section 3 choice of the connector group size t.

Sweeps t around the paper's optimum ``t* = S^(1/(x+1))`` for CD-Coloring and
records colors/rounds, demonstrating that t* balances connector-coloring
time against base-case time (the tradeoff Theorem 2.7 formalizes).
"""

import pytest

from repro.verify.checkers import verify_vertex_coloring
from repro.core import cd_coloring, choose_t_clique
from repro.graphs import line_graph_with_cover, random_regular


def instance():
    base = random_regular(32, 16, seed=17)
    return line_graph_with_cover(base)


T_SWEEP = (2, 3, 4, 6, 8)


@pytest.mark.parametrize("t", T_SWEEP)
def test_t_sweep(benchmark, record_info, t):
    graph, cover = instance()

    def run():
        return cd_coloring(graph, cover, x=1, t=t, trim=False)

    result = benchmark(run)
    verify_vertex_coloring(graph, result.coloring)
    t_star = choose_t_clique(cover.max_clique_size(), 1)
    record_info(
        benchmark,
        {
            "experiment": "ablation-t",
            "t": t,
            "t_star": t_star,
            "colors_used": result.colors_used,
            "colors_bound": result.palette_bound,
            "rounds_actual": result.rounds_actual,
            "rounds_modeled": result.rounds_modeled,
        },
    )
