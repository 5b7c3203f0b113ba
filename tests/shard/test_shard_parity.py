"""Sharded-execution parity: running under a sharding scope must be
bit-identical to the unsharded engines for every compact-capable
algorithm on every builtin workload family.

Algorithms with a registered shard program (linial, defective-refinement,
h-partition) execute shard-by-shard; everything else falls through to
the normal engine path with a disclosed ``shard.fallback`` — either way
the observable result must not change. The dispatch tests pin down that
the programmed algorithms really do take the sharded path (parity alone
would be vacuously satisfied by a scope that always falls back)."""

import numpy as np
import pytest

from repro import kernels, obs, registry, workloads
from repro.graphcore import CompactGraph
from repro.local.network import run_on_graph
from repro.shard import get_program, partition, program_names, sharding
from repro.substrates.defective import DefectiveRefinementAlgorithm
from repro.substrates.hpartition import _Peeler
from repro.substrates.linial import LinialAlgorithm

from tests.engine.test_compact_parity import (
    BUILTIN_WORKLOADS,
    COMPACT_OK,
    SMALL_PARAMS,
    assert_same_run,
)


def _compact_instance(workload):
    original = workloads.build(workload, SMALL_PARAMS.get(workload), seed=0)
    if isinstance(original, CompactGraph):
        return original
    return CompactGraph.from_networkx(original)


def _sharded_scope(graph, tmp_path, num_shards=3, **kwargs):
    num_shards = min(num_shards, max(1, graph.n))
    bundle = partition(graph, num_shards, tmp_path / "bundle")
    return sharding(graph, bundle, inline=True, **kwargs)


class TestEveryCompactAlgorithmShardsOrFallsBack:
    """The full matrix: every compact-capable algorithm on every builtin
    workload, sharded vs unsharded, byte-identical results (or the same
    error on both paths)."""

    @pytest.mark.parametrize("workload", BUILTIN_WORKLOADS)
    @pytest.mark.parametrize("algorithm", COMPACT_OK)
    def test_sharded_equals_unsharded(self, algorithm, workload, tmp_path):
        graph = _compact_instance(workload)
        try:
            plain = registry.run(algorithm, graph, engine="vector")
        except Exception as exc:
            with _sharded_scope(graph, tmp_path):
                with pytest.raises(type(exc)) as caught:
                    registry.run(algorithm, graph, engine="vector")
            assert str(caught.value) == str(exc)
            return
        with _sharded_scope(graph, tmp_path):
            sharded = registry.run(algorithm, graph, engine="vector")
        assert_same_run(plain, sharded)


class TestProgramsActuallyDispatch:
    def test_program_catalogue(self):
        assert program_names() == [
            "defective-refinement",
            "h-partition",
            "linial",
        ]
        # one definition: the sharded program *is* the registered kernel
        for name in program_names():
            assert kernels.get_kernel(name) is get_program(name)

    @pytest.mark.parametrize(
        "algorithm,make_extras",
        [
            (
                LinialAlgorithm(),
                lambda g: {
                    "initial_coloring": {v: v for v in range(g.n)},
                    "m0": g.n,
                },
            ),
            (
                DefectiveRefinementAlgorithm(),
                lambda g: {
                    "initial_coloring": {v: v for v in range(g.n)},
                    "q": 11,
                    "d": 3,
                },
            ),
            (_Peeler(), lambda g: {"threshold": 2}),
        ],
        ids=["linial", "defective-refinement", "h-partition"],
    )
    def test_dispatch_and_full_runresult_parity(
        self, algorithm, make_extras, tmp_path
    ):
        graph = workloads.build("xl-grid", {"rows": 25, "cols": 18}, seed=0)
        extras = make_extras(graph)
        plain = run_on_graph(graph, algorithm, extras=extras, engine="vector")
        with obs.collect() as runtime:
            with _sharded_scope(graph, tmp_path) as scope:
                sharded = run_on_graph(
                    graph, algorithm, extras=extras, engine="vector"
                )
        # every field of the RunResult, not just outputs
        assert sharded.outputs == plain.outputs
        assert sharded.rounds == plain.rounds
        assert sharded.messages == plain.messages
        assert sharded.round_messages == plain.round_messages
        assert sharded.engine == "sharded"
        counters = runtime.snapshot()["counters"]
        assert any("shard.dispatch" in key for key in counters)
        assert scope.last_stats["shards"] == 3
        assert scope.last_stats["worker_peak_rss_kb"] > 0

    def test_unprogrammed_algorithm_falls_back_disclosed(self, tmp_path):
        from repro.substrates.reduction import BasicReductionAlgorithm

        graph = workloads.build("xl-grid", {"rows": 6, "cols": 6}, seed=0)
        extras = {
            "coloring": {v: v for v in range(graph.n)},
            "m": graph.n,
            "target": graph.max_degree + 1,
        }
        plain = run_on_graph(
            graph, BasicReductionAlgorithm(), extras=extras, engine="vector"
        )
        with obs.collect() as runtime:
            with _sharded_scope(graph, tmp_path):
                run = run_on_graph(
                    graph, BasicReductionAlgorithm(), extras=extras, engine="vector"
                )
        assert run.outputs == plain.outputs
        assert run.engine == "vector"
        counters = runtime.snapshot()["counters"]
        assert any(
            "shard.fallback" in key and "no-program" in key for key in counters
        )
        assert not any("shard.dispatch" in key for key in counters)

    def test_foreign_graph_falls_back_disclosed(self, tmp_path):
        graph = workloads.build("xl-grid", {"rows": 6, "cols": 6}, seed=0)
        other = workloads.build("xl-grid", {"rows": 5, "cols": 7}, seed=0)
        extras = {"initial_coloring": {v: v for v in range(other.n)}, "m0": other.n}
        with obs.collect() as runtime:
            with _sharded_scope(graph, tmp_path):
                run = run_on_graph(
                    other, LinialAlgorithm(), extras=extras, engine="vector"
                )
        assert run.engine == "vector"
        counters = runtime.snapshot()["counters"]
        assert any(
            "shard.fallback" in key and "foreign-graph" in key
            for key in counters
        )

    @pytest.mark.parametrize(
        "algorithm,make_extras,reason",
        [
            (_Peeler(), lambda g: {"threshold": "2"}, "non-numeric threshold"),
            (
                LinialAlgorithm(),
                lambda g: {
                    "initial_coloring": {v: v for v in range(g.n)},
                    "m0": 1e4,
                },
                "expected a plain int extra",
            ),
            (
                LinialAlgorithm(),
                lambda g: {
                    "initial_coloring": {v: v for v in range(g.n - 1)},
                    "m0": g.n,
                },
                "per-node table is not a total dense map",
            ),
            (
                DefectiveRefinementAlgorithm(),
                lambda g: {
                    "initial_coloring": {v: v for v in range(g.n)},
                    "q": 11.0,
                    "d": 3,
                },
                "expected a plain int extra",
            ),
        ],
        ids=[
            "peeler-str-threshold",
            "linial-float-m0",
            "linial-missing-color",
            "defective-float-q",
        ],
    )
    def test_declined_inputs_fall_back_disclosed(
        self, algorithm, make_extras, reason, tmp_path
    ):
        # the program declines in ``plan``, so the scope must fall back
        # to the engine path, which then produces its authentic outcome
        # (a result, or the per-node error) identically on both paths.
        graph = workloads.build("xl-grid", {"rows": 6, "cols": 6}, seed=0)
        extras = make_extras(graph)

        def run():
            return run_on_graph(graph, algorithm, extras=extras, engine="vector")

        try:
            plain = run()
        except Exception as exc:
            with obs.collect() as runtime:
                with _sharded_scope(graph, tmp_path):
                    with pytest.raises(type(exc)) as caught:
                        run()
            assert str(caught.value) == str(exc)
        else:
            with obs.collect() as runtime:
                with _sharded_scope(graph, tmp_path):
                    sharded = run()
            assert sharded.outputs == plain.outputs
            assert sharded.rounds == plain.rounds
            assert sharded.messages == plain.messages
            assert sharded.round_messages == plain.round_messages
            assert sharded.engine == plain.engine
        counters = runtime.snapshot()["counters"]
        assert any(
            "shard.fallback" in key and reason in key for key in counters
        )
        assert not any("shard.dispatch" in key for key in counters)


class TestShardCountInsensitivity:
    """Bit-identity must hold for any shard count, including 1 and n-ish."""

    @pytest.mark.parametrize("num_shards", [1, 2, 5, 16])
    def test_linial_across_shard_counts(self, num_shards, tmp_path):
        graph = workloads.build("xl-grid", {"rows": 12, "cols": 11}, seed=0)
        extras = {"initial_coloring": {v: v for v in range(graph.n)}, "m0": graph.n}
        plain = run_on_graph(graph, LinialAlgorithm(), extras=extras, engine="vector")
        bundle = partition(graph, num_shards, tmp_path / f"b{num_shards}")
        with sharding(graph, bundle, inline=True):
            sharded = run_on_graph(
                graph, LinialAlgorithm(), extras=extras, engine="vector"
            )
        assert sharded.outputs == plain.outputs
        assert sharded.round_messages == plain.round_messages

    @pytest.mark.parametrize("num_shards", [1, 2, 5, 16])
    def test_peeler_across_shard_counts(self, num_shards, tmp_path):
        graph = workloads.build(
            "xl-forest-stack",
            {"n_centers": 7, "leaves_per_center": 10, "a": 2},
            seed=1,
        )
        plain = run_on_graph(
            graph, _Peeler(), extras={"threshold": 2}, engine="vector"
        )
        bundle = partition(graph, num_shards, tmp_path / f"b{num_shards}")
        with sharding(graph, bundle, inline=True):
            sharded = run_on_graph(
                graph, _Peeler(), extras={"threshold": 2}, engine="vector"
            )
        assert sharded.outputs == plain.outputs
        assert sharded.round_messages == plain.round_messages
