"""Seeded property-fuzz suite for the invariant oracles (PR 4 satellite).

Three sweeps:

* every registered *workload* (all families, scale included at reduced
  size) under fast reference algorithms — the oracles must accept every
  output and every claimed bound must hold;
* every registered *algorithm* on random instances of compatible
  workload families — same contract;
* deliberate mutations — corrupt one color / drop one assignment in an
  otherwise-valid run and assert the oracle catches it, so the oracles
  themselves are under test, not just the algorithms.

Everything is seeded: a failure reproduces bit-for-bit.
"""

import pytest

from repro import registry, workloads
from repro.verify import verify_run

#: Size-reduced parameters per workload so the full catalogue stays fast;
#: workloads absent here run at their registered defaults.
SMALL_PARAMS = {
    "random-regular": {"n": 16, "d": 4},
    "erdos-renyi": {"n": 16, "p": 0.2},
    "random-tree": {"n": 16},
    "forest-union": {"n": 16, "a": 2},
    "star-forest-stack": {"n_centers": 3, "leaves_per_center": 5, "a": 2},
    "power-law": {"n": 16, "attach": 2},
    "geometric": {"n": 16, "radius": 0.35},
    "bipartite-regular": {"n_each": 8, "d": 3},
    "line-of-regular": {"n": 12, "d": 4},
    "hypergraph-line": {"n": 12, "edges": 16, "c": 3},
    "planar-grid": {"rows": 4, "cols": 4},
    "triangular-grid": {"rows": 3, "cols": 4},
    "torus": {"rows": 4, "cols": 4},
    "hypercube": {"dim": 3},
    "complete": {"n": 8},
    "shared-cliques": {"clique_size": 4, "num_cliques": 3},
    "disjoint-cliques": {"count": 3, "size": 4},
    "scale-regular": {"n": 64, "d": 4},
    "scale-power-law": {"n": 64, "attach": 2},
    "scale-forest-stack": {"n_centers": 6, "leaves_per_center": 9, "a": 2},
    "scale-grid": {"rows": 8, "cols": 8},
    # xl instances resolve to CompactGraph — fuzzing them pushes every
    # algorithm and oracle through the compact/duck-typed pipeline too
    "xl-regular": {"n": 64, "d": 4},
    "xl-power-law": {"n": 64, "attach": 2},
    "xl-forest-stack": {"n_centers": 6, "leaves_per_center": 9, "a": 2},
    "xl-grid": {"rows": 8, "cols": 8},
}

ALL_WORKLOADS = workloads.names()
ALL_ALGORITHMS = registry.names()


def build_small(name: str, seed: int = 0):
    return workloads.build(name, SMALL_PARAMS.get(name), seed=seed)


def assert_verified(graph, algorithm: str, params=None):
    run = registry.run(algorithm, graph, **(params or {}))
    verdict = verify_run(graph, run, params=params)
    assert verdict.status == "ok", (
        f"{algorithm}: {verdict.status}: {verdict.violation}"
    )
    return run


class TestEveryWorkloadFamily:
    """Every registered workload (all families) x reference algorithms."""

    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    @pytest.mark.parametrize("seed", (0, 1))
    def test_edge_and_vertex_oracles_accept(self, workload, seed):
        graph = build_small(workload, seed=seed)
        assert_verified(graph, "greedy")
        assert_verified(graph, "greedy-vertex")

    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    def test_paper_pipeline_accepts(self, workload):
        graph = build_small(workload, seed=2)
        run = assert_verified(graph, "star4")
        delta = max((d for _, d in graph.degree()), default=0)
        assert run.colors_used <= max(4 * delta, 0)


#: Per-algorithm instance choices: workloads whose structure matches the
#: algorithm's ``requires`` (forests for cole-vishkin, bounded-arboricity
#: families for Section 5), plus parameters where depth matters.
_SPECIAL_INSTANCES = {
    "cole-vishkin": [("random-tree", {})],
    # cd-vertex colors graphs that carry their clique cover
    "cd-vertex": [("line-of-regular", {"x": 1}), ("hypergraph-line", {"x": 2})],
    "thm54": [("star-forest-stack", {"x": 2, "arboricity": 2})],
    "star": [("random-regular", {"x": 1}), ("random-regular", {"x": 2})],
}
_DEFAULT_INSTANCES = [("random-regular", {}), ("star-forest-stack", {})]


def _algorithm_cases():
    for algorithm in ALL_ALGORITHMS:
        for workload, params in _SPECIAL_INSTANCES.get(algorithm, _DEFAULT_INSTANCES):
            yield pytest.param(algorithm, workload, params, id=f"{algorithm}-{workload}")


class TestEveryAlgorithm:
    """Every registered algorithm x seeded random instances, all oracles."""

    @pytest.mark.parametrize("algorithm,workload,params", list(_algorithm_cases()))
    @pytest.mark.parametrize("seed", (0, 3))
    def test_output_satisfies_declared_invariants(
        self, algorithm, workload, params, seed
    ):
        graph = build_small(workload, seed=seed)
        assert_verified(graph, algorithm, params=params)


class TestMutationsAreCaught:
    """Corrupt one color in a valid run; the oracle must notice. This is
    the self-test of the oracle layer: a checker that cannot see a planted
    violation certifies nothing."""

    @pytest.mark.parametrize("algorithm", ("star4", "greedy", "thm52", "oracle-edge"))
    def test_edge_color_conflict_caught(self, algorithm):
        graph = build_small("random-regular", seed=1)
        run = registry.run(algorithm, graph)
        edges = sorted(run.coloring)
        u, v = edges[0]
        neighbor = next(e for e in edges[1:] if u in e or v in e)
        run.coloring[edges[0]] = run.coloring[neighbor]
        verdict = verify_run(graph, run)
        assert verdict.status == "fail"
        assert "share color" in verdict.violation

    @pytest.mark.parametrize(
        "algorithm", ("greedy-vertex", "oracle-vertex", "linial", "weak-vertex")
    )
    def test_vertex_color_conflict_caught(self, algorithm):
        graph = build_small("random-regular", seed=1)
        run = registry.run(algorithm, graph)
        u, v = next(iter(graph.edges()))
        run.coloring[u] = run.coloring[v]
        verdict = verify_run(graph, run)
        assert verdict.status == "fail"
        assert "monochromatic" in verdict.violation

    @pytest.mark.parametrize("algorithm", ("star4", "greedy-vertex"))
    def test_dropped_assignment_caught(self, algorithm):
        graph = build_small("random-regular", seed=1)
        run = registry.run(algorithm, graph)
        del run.coloring[next(iter(sorted(run.coloring)))]
        verdict = verify_run(graph, run)
        assert verdict.status == "fail"
        assert "uncolored" in verdict.violation

    def test_decomposition_mutation_caught(self):
        graph = build_small("star-forest-stack", seed=1)
        run = registry.run("h-partition", graph, arboricity=2)
        # Pull every vertex down to the first level: some vertex now has
        # more same-or-higher-level neighbors than the threshold allows.
        for v in run.coloring:
            run.coloring[v] = 1
        verdict = verify_run(graph, run, params={"arboricity": 2})
        assert verdict.status == "fail"

    def test_palette_inflation_caught(self):
        import dataclasses

        graph = build_small("random-regular", seed=1)
        run = registry.run("vizing", graph)
        verdict = verify_run(graph, dataclasses.replace(run, colors_used=999))
        assert verdict.status == "fail"
        assert "palette-bound" in verdict.violation
