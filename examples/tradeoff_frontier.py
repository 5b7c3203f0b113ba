"""The color/time tradeoff frontier — Table 1, drawn from live runs.

The paper's central message is a *frontier*: by deepening the connector
recursion (x), you pay a constant-factor more colors (2^(x+1)·Δ) and gain a
polynomial factor in round complexity (Δ^(1/(2x+2))). This example sweeps x
on one graph and prints the measured frontier next to the baselines that
bracket it: the O(log* n)-round forest-decomposition coloring (many colors)
and centralized Vizing (optimal colors, no locality at all).

Run:  python examples/tradeoff_frontier.py
"""

from repro.verify.checkers import verify_edge_coloring
from repro.baselines import forest_edge_coloring, greedy_edge_coloring, misra_gries_edge_coloring
from repro.core import star_partition_edge_coloring
from repro.graphs import max_degree, random_regular


def bar(value: float, scale: float, width: int = 34) -> str:
    filled = min(width, max(1, round(width * value / scale)))
    return "#" * filled


def main() -> None:
    graph = random_regular(n=64, d=24, seed=31)
    delta = max_degree(graph)
    print(f"workload: 24-regular graph, n=64, Delta={delta}\n")

    rows = []
    for x in (1, 2, 3):
        result = star_partition_edge_coloring(graph, x=x)
        verify_edge_coloring(graph, result.coloring)
        rows.append(
            (
                f"star-partition x={x} ({2 ** (x + 1)}Δ)",
                result.colors_used,
                result.rounds_modeled,
            )
        )

    fast = forest_edge_coloring(graph)
    verify_edge_coloring(graph, fast.coloring)
    rows.append(("forest decomposition (O(aΔ))", fast.colors_used, fast.rounds_modeled))

    greedy = greedy_edge_coloring(graph)
    rows.append(("greedy 2Δ-1 (sequential)", len(set(greedy.values())), None))
    vizing = misra_gries_edge_coloring(graph)
    rows.append(("Vizing Δ+1 (centralized)", len(set(vizing.values())), None))

    max_colors = max(r[1] for r in rows)
    max_rounds = max((r[2] for r in rows if r[2]), default=1)
    print(f"{'algorithm':<32} {'colors':>6}  {'modeled rounds':>14}")
    for name, colors, rounds in rows:
        rounds_str = f"{rounds:14.0f}" if rounds is not None else f"{'—':>14}"
        print(f"{name:<32} {colors:>6}  {rounds_str}")
        print(f"  colors |{bar(colors, max_colors)}")
        if rounds is not None:
            print(f"  rounds |{bar(rounds, max_rounds)}")
    print(
        "\nReading the frontier: deeper recursion (x up) moves down the"
        " rounds bar while the colors bar grows by ~2x per level — exactly"
        " Table 1's shape."
    )


if __name__ == "__main__":
    main()
