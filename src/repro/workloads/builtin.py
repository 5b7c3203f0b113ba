"""Builtin workload catalogue.

Every spec registered here is a scenario family the paper's bounds care
about: Delta ladders (regular graphs), bounded-arboricity instances
(Section 5's ``a = o(Delta)`` regime), bounded-diversity gadgets (Table 2
and Figure 1), interconnect topologies, and adversarial worst cases
(power-law hubs, complete graphs, shared-vertex cliques). The ``scale``
family holds >= 50k-node variants of the core shapes — large enough that
campaign grids over them exercise the streaming executor's bounded
window for real. The ``xl`` family holds >= 1M-node variants built by
the streaming CSR generators (:mod:`repro.graphcore.builders`) — its
specs are ``compact=True`` and resolve to
:class:`~repro.graphcore.CompactGraph`, never materializing a networkx
graph. Both families are excluded from the default ``repro campaign
cells`` grid (name them explicitly via ``--workloads``).
Importing this module populates :mod:`repro.workloads.registry`.
"""

from __future__ import annotations

import networkx as nx

from repro.errors import InvalidParameterError
from repro.graphs import (
    disjoint_cliques,
    erdos_renyi,
    fat_tree,
    forest_union,
    hypercube,
    line_graph_with_cover,
    planar_grid,
    random_bipartite_regular,
    random_regular,
    random_tree,
    random_uniform_hypergraph,
    shared_vertex_cliques,
    star_forest_stack,
    torus,
    triangular_grid,
)
from repro.workloads.registry import WorkloadSpec, register


def _power_law(n: int, attach: int, seed: int = 0) -> nx.Graph:
    """Barabási–Albert preferential attachment: heavy-tailed degrees, so
    Delta is far above the average degree — the hub-adversarial regime."""
    if not 1 <= attach < n:
        raise InvalidParameterError("power-law needs 1 <= attach < n")
    return nx.barabasi_albert_graph(n, attach, seed=seed)


def _geometric(n: int, radius: float, seed: int = 0) -> nx.Graph:
    """Random geometric graph on the unit square: locally dense clusters,
    the wireless-interference style workload."""
    if radius <= 0:
        raise InvalidParameterError("geometric radius must be positive")
    return nx.random_geometric_graph(n, radius, seed=seed)


def _with_cover(graph: nx.Graph, cover) -> nx.Graph:
    """Carry a clique cover on the graph itself: each node's ``cliques``
    attribute lists the indices of the cover cliques that contain it
    (``cd-vertex`` rebuilds the cover from it). A list, not a tuple, so
    the JSON attribute sideband of a ``.csrg`` file restores it equal."""
    for v, ids in cover.membership.items():
        graph.nodes[v]["cliques"] = list(ids)
    return graph


def _line_of_regular(n: int, d: int, seed: int = 0) -> nx.Graph:
    return _with_cover(*line_graph_with_cover(random_regular(n, d, seed=seed)))


def _hypergraph_line(n: int, edges: int, c: int, seed: int = 0) -> nx.Graph:
    hypergraph = random_uniform_hypergraph(n=n, num_edges=edges, c=c, seed=seed)
    return _with_cover(*hypergraph.line_graph_with_cover())


def _register_builtins() -> None:
    table = (
        # (name, family, seeded, defaults, factory, summary)
        ("random-regular", "regular", True, {"n": 64, "d": 8}, random_regular,
         "random d-regular graph: the Table 1 Delta-ladder workload"),
        ("erdos-renyi", "random", True, {"n": 64, "p": 0.1}, erdos_renyi,
         "G(n, p): unstructured random graph"),
        ("random-tree", "arboricity", True, {"n": 64}, random_tree,
         "uniform random labelled tree (arboricity 1)"),
        ("forest-union", "arboricity", True, {"n": 64, "a": 2}, forest_union,
         "union of a random forests: arboricity <= a, Delta typically larger"),
        ("star-forest-stack", "arboricity", True,
         {"n_centers": 6, "leaves_per_center": 24, "a": 2}, star_forest_stack,
         "union of a star forests: maximal Delta/a, the Section 5 sweet spot"),
        ("power-law", "adversarial", True, {"n": 64, "attach": 3}, _power_law,
         "Barabási–Albert hubs: Delta far above the average degree"),
        ("geometric", "random", True, {"n": 64, "radius": 0.25}, _geometric,
         "random geometric graph on the unit square"),
        ("bipartite-regular", "regular", True, {"n_each": 32, "d": 6},
         random_bipartite_regular,
         "union of d random perfect matchings between two sides"),
        ("line-of-regular", "diversity", True, {"n": 48, "d": 8}, _line_of_regular,
         "line graph of a random regular graph (diversity 2)"),
        ("hypergraph-line", "diversity", True, {"n": 40, "edges": 160, "c": 3},
         _hypergraph_line,
         "line graph of a random c-uniform hypergraph (diversity c)"),
        ("planar-grid", "topology", False, {"rows": 8, "cols": 8}, planar_grid,
         "rows x cols grid (planar, arboricity <= 2)"),
        ("triangular-grid", "topology", False, {"rows": 8, "cols": 8},
         triangular_grid,
         "grid with one diagonal per face (planar, arboricity <= 3)"),
        ("torus", "topology", False, {"rows": 8, "cols": 8}, torus,
         "wrap-around grid: 4-regular interconnect"),
        ("hypercube", "topology", False, {"dim": 6}, hypercube,
         "dim-dimensional hypercube (Delta = dim)"),
        ("fat-tree", "topology", False, {"k": 4}, fat_tree,
         "k-ary fat-tree datacenter switch fabric"),
        ("complete", "adversarial", False, {"n": 24}, nx.complete_graph,
         "complete graph: Delta = n-1, the dense worst case"),
        ("shared-cliques", "adversarial", False,
         {"clique_size": 5, "num_cliques": 4}, shared_vertex_cliques,
         "cliques sharing one vertex: the Figure 1 diversity gadget"),
        ("disjoint-cliques", "diversity", False, {"count": 6, "size": 5},
         disjoint_cliques,
         "disjoint cliques: diversity 1, clique size S"),
        # -- scale tier: >= 50k nodes at the registered defaults ----------
        ("scale-regular", "scale", True, {"n": 50_000, "d": 8}, random_regular,
         "50k-node random 8-regular graph: the Delta ladder at scale"),
        ("scale-power-law", "scale", True, {"n": 50_000, "attach": 3}, _power_law,
         "50k-node Barabási–Albert hubs: the adversarial regime at scale"),
        ("scale-forest-stack", "scale", True,
         {"n_centers": 400, "leaves_per_center": 124, "a": 2}, star_forest_stack,
         "50k-node union of 2 star forests: Section 5's sweet spot at scale"),
        ("scale-grid", "scale", False, {"rows": 224, "cols": 224}, planar_grid,
         "224x224 planar grid (50k+ nodes), deterministic topology at scale"),
    )
    for name, family, seeded, defaults, factory, summary in table:
        register(
            WorkloadSpec(
                name=name,
                family=family,
                summary=summary,
                factory=factory,
                defaults=defaults,
                params=tuple(sorted(defaults)),
                seeded=seeded,
            )
        )


def _register_xl() -> None:
    """The xl tier: >= 1M-node instances streamed straight into CSR
    (:mod:`repro.graphcore.builders`). Parallel families to the scale
    tier, not bit-identical clones of the nx generators — see the
    builders' docstrings for the constructions."""
    from repro.graphcore import (
        build_forest_stack,
        build_grid,
        build_power_law,
        build_regular,
    )

    table = (
        ("xl-regular", True, {"n": 1_000_000, "d": 8}, build_regular,
         "1M-node union of 4 seeded Hamilton cycles: Delta <= 8, "
         "d-regular up to rare layer collisions"),
        ("xl-power-law", True, {"n": 1_000_000, "attach": 3}, build_power_law,
         "1M-node preferential attachment: the hub-adversarial regime at "
         "full scale"),
        ("xl-forest-stack", True,
         {"n_centers": 8_000, "leaves_per_center": 124, "a": 2},
         build_forest_stack,
         "1M-node union of 2 star forests: Section 5's Delta >> a regime"),
        ("xl-grid", False, {"rows": 1_000, "cols": 1_000}, build_grid,
         "1000x1000 planar grid (1M nodes), deterministic topology"),
    )
    for name, seeded, defaults, factory, summary in table:
        register(
            WorkloadSpec(
                name=name,
                family="xl",
                summary=summary,
                factory=factory,
                defaults=defaults,
                params=tuple(sorted(defaults)),
                seeded=seeded,
                compact=True,
            )
        )


_register_builtins()
_register_xl()
