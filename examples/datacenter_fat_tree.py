"""Link scheduling a fat-tree datacenter fabric, with trace and DOT export.

Fat-trees are the canonical datacenter switch topology; an edge coloring of
the fabric is a contention-free link schedule. This example schedules a
k=6 fat-tree with the paper's 4Δ algorithm, compares against Vizing, traces
a few switches through the distributed run of the Linial substrate, and
writes a colored DOT file you can render with graphviz.

Run:  python examples/datacenter_fat_tree.py
"""

import tempfile
from pathlib import Path

from repro.verify.checkers import verify_edge_coloring
from repro.baselines import misra_gries_edge_coloring
from repro.core import four_delta_edge_coloring
from repro.graphs import fat_tree, max_degree
from repro.io import write_colored_dot
from repro.local import Network, Tracer
from repro.substrates.linial import LinialAlgorithm


def main() -> None:
    fabric = fat_tree(6)
    delta = max_degree(fabric)
    print(
        f"fat-tree k=6 fabric: {fabric.number_of_nodes()} switches, "
        f"{fabric.number_of_edges()} links, Delta={delta}"
    )

    result = four_delta_edge_coloring(fabric)
    verify_edge_coloring(fabric, result.coloring, palette=4 * delta)
    vizing = misra_gries_edge_coloring(fabric)
    print(
        f"schedule: {result.colors_used} slots "
        f"(paper bound {4 * delta}, Vizing optimum <= {len(set(vizing.values()))}), "
        f"{result.rounds_actual:.0f} simulated rounds"
    )

    # Trace three switches through one substrate run to see the round
    # structure of the distributed execution.
    net = Network(fabric)
    watch = set(list(fabric.nodes())[:3])
    tracer = Tracer(watch=watch, max_payload_repr=18)
    # spread ids like real O(log n)-bit identifiers so Linial has work to do
    initial = {v: 7919 * i + 13 for i, v in enumerate(sorted(fabric.nodes()))}
    ctx = net.make_context(initial_coloring=initial, m0=max(initial.values()) + 1)
    net.run(LinialAlgorithm(), ctx, tracer=tracer)
    print(f"\ntrace of switches {sorted(watch)} through Linial:")
    print(tracer.render(max_events_per_round=4))

    out = Path(tempfile.gettempdir()) / "fat_tree_schedule.dot"
    write_colored_dot(fabric, out, edge_coloring=result.coloring, name="fat-tree")
    print(f"\nwrote {out} (render with: dot -Tsvg {out} -o schedule.svg)")


if __name__ == "__main__":
    main()
