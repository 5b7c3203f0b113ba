"""(Delta + o(Delta))-edge-coloring on low-arboricity topologies (Section 5).

Planar and near-planar network topologies (grids, backbones, unions of a few
trees) have arboricity far below their maximum degree — exactly the regime
where the paper's Section 5 pipeline beats every previously-known
deterministic distributed algorithm on color count.

Run:  python examples/planar_low_arboricity.py
"""

from repro.verify.checkers import verify_edge_coloring
from repro.baselines import (
    degree_splitting_edge_coloring,
    greedy_edge_coloring,
    misra_gries_edge_coloring,
)
from repro.core import (
    edge_color_bounded_arboricity,
    edge_color_delta_plus_o_delta,
    edge_color_orientation_connector,
)
from repro.graphs import arboricity_bounds, max_degree, star_forest_stack, triangular_grid


def report(name: str, graph) -> None:
    delta = max_degree(graph)
    bounds = arboricity_bounds(graph)
    print(
        f"\n{name}: n={graph.number_of_nodes()} m={graph.number_of_edges()} "
        f"Delta={delta} arboricity in [{bounds.lower}, {bounds.upper}]"
    )

    t52 = edge_color_bounded_arboricity(graph, arboricity=bounds.upper)
    verify_edge_coloring(graph, t52.coloring)
    print(
        f"  Thm 5.2  Delta+O(a): {t52.colors_used} colors"
        f" (= Delta + {t52.colors_used - delta}), rounds={t52.rounds_actual:.0f}"
    )

    t53 = edge_color_orientation_connector(graph, arboricity=bounds.upper)
    verify_edge_coloring(graph, t53.coloring)
    print(
        f"  Thm 5.3  Delta+O(sqrt(Delta a)): {t53.colors_used} colors,"
        f" rounds={t53.rounds_actual:.0f}"
    )

    auto = edge_color_delta_plus_o_delta(graph, arboricity=bounds.upper)
    verify_edge_coloring(graph, auto.coloring)
    print(
        f"  Cor 5.5  auto (x={auto.params.x}): {auto.colors_used} colors,"
        f" overhead {auto.overhead_over_delta:.0%} over Delta"
    )

    vizing = misra_gries_edge_coloring(graph)
    greedy = greedy_edge_coloring(graph)
    split = degree_splitting_edge_coloring(graph)
    print(
        f"  baselines: Vizing={len(set(vizing.values()))},"
        f" greedy(2Δ-1)={len(set(greedy.values()))},"
        f" degree-splitting={split.colors_used}"
    )


def main() -> None:
    report("triangular grid 8x14 (planar, a<=3)", triangular_grid(8, 14))
    report(
        "backbone: union of 2 star forests (Delta >> a)",
        star_forest_stack(n_centers=5, leaves_per_center=30, a=2, seed=3),
    )


if __name__ == "__main__":
    main()
