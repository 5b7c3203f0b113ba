"""Kernel dispatch on networkx inputs: the vector engine interns the
graph to dense ids, relabels the declared node-keyed extras, runs the
whole-run kernel and maps the outputs back.

Every case is checked against the reference engine's per-node run on the
same networkx graph (outputs, rounds, total messages and the per-round
message profile), and the dispatch must be counted. Inputs the kernels
cannot take must give the per-node outcome — the same result, or the
same exception type and message — and a ``kernel.fallback`` counter with
its reason.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro import kernels, obs
from repro.engine import get_engine
from repro.graphs import line_graph_with_cover
from repro.substrates.cole_vishkin import ColeVishkinAlgorithm, cv_iterations
from repro.substrates.defective import DefectiveRefinementAlgorithm
from repro.substrates.hpartition import _Peeler
from repro.substrates.linial import LinialAlgorithm
from repro.substrates.reduction import BasicReductionAlgorithm, BlockedReductionAlgorithm


def _shuffled_ints() -> nx.Graph:
    base = nx.gnm_random_graph(24, 50, seed=3)
    rng = random.Random(7)
    labels = rng.sample(range(1000), base.number_of_nodes())
    order = list(base.nodes())
    rng.shuffle(order)
    graph = nx.Graph()
    graph.add_nodes_from(labels[v] for v in order)
    graph.add_edges_from((labels[u], labels[v]) for u, v in base.edges())
    return graph


def _tuple_labels() -> nx.Graph:
    line, _cover = line_graph_with_cover(nx.gnm_random_graph(10, 16, seed=1))
    return line


def _str_labels() -> nx.Graph:
    return nx.relabel_nodes(
        nx.grid_2d_graph(4, 5), lambda rc: f"r{rc[0]}c{rc[1]}"
    )


def _isolated_nodes() -> nx.Graph:
    graph = nx.Graph()
    graph.add_node(50)
    graph.add_edges_from(nx.cycle_graph(9).edges())
    graph.add_nodes_from([-3, 40, 7.5])
    graph.add_edges_from([(8, 11), (11, 12)])
    return graph


def _disconnected() -> nx.Graph:
    graph = nx.disjoint_union(nx.petersen_graph(), nx.star_graph(7))
    graph.add_edges_from(nx.complete_graph(range(100, 105)).edges())
    return graph


GRAPHS = {
    "shuffled-ints": _shuffled_ints,
    "tuple-labels": _tuple_labels,
    "str-labels": _str_labels,
    "isolated-nodes": _isolated_nodes,
    "disconnected": _disconnected,
}


def _distinct_colors(graph: nx.Graph, palette: int, seed: int = 0) -> dict:
    """A proper (all-distinct) coloring drawn from ``range(palette)``."""
    nodes = list(graph.nodes())
    colors = random.Random(seed).sample(range(palette), len(nodes))
    return dict(zip(nodes, colors))


def _max_degree(graph: nx.Graph) -> int:
    return max((d for _, d in graph.degree()), default=0)


def _spanning_forest_parents(graph: nx.Graph) -> dict:
    parent = {}
    for component in nx.connected_components(graph):
        root = max(component, key=repr)
        parent[root] = None
        for child, par in nx.bfs_predecessors(graph.subgraph(component), root):
            parent[child] = par
    return parent


def _linial(graph):
    return LinialAlgorithm(), {
        "initial_coloring": _distinct_colors(graph, 10_000),
        "m0": 10_000,
    }


def _defective(graph):
    return DefectiveRefinementAlgorithm(), {
        "initial_coloring": _distinct_colors(graph, 125),
        "q": 5,
        "d": 2,
    }


def _basic(graph):
    n = graph.number_of_nodes()
    return BasicReductionAlgorithm(), {
        "coloring": _distinct_colors(graph, n),
        "m": n,
        "target": _max_degree(graph) + 1,
    }


def _kw(graph):
    delta = _max_degree(graph)
    return BlockedReductionAlgorithm(), {
        "coloring": _distinct_colors(graph, 5 * (delta + 1)),
        "block": 2 * (delta + 1),
        "palette": delta + 1,
    }


def _cole_vishkin(graph):
    n = graph.number_of_nodes()
    return ColeVishkinAlgorithm(), {
        "parent": _spanning_forest_parents(graph),
        "initial_coloring": _distinct_colors(graph, n),
        "iterations": cv_iterations(n),
    }


def _h_partition(graph):
    degeneracy = max(nx.core_number(graph).values())
    return _Peeler(), {"threshold": max(degeneracy, 1)}


CASES = {
    "linial": _linial,
    "defective-refinement": _defective,
    "basic-reduction": _basic,
    "kw-phase": _kw,
    "cole-vishkin": _cole_vishkin,
    "h-partition": _h_partition,
}


def _counted(counters: dict, metric: str, kernel: str) -> float:
    """Sum of the ``metric`` counters labeled ``kernel=<kernel>``."""
    total = 0
    for key, value in counters.items():
        name, _, labels = key.partition("[")
        if name == metric and f"kernel={kernel}" in labels.rstrip("]").split(","):
            total += value
    return total


def _outcome(engine: str, graph, algorithm, extras):
    """The run's comparable fields, or the raised exception's type and
    message, plus the counters collected during the run."""
    with obs.collect() as rt:
        try:
            result = get_engine(engine).run(graph, algorithm, extras=extras)
        except Exception as exc:  # noqa: BLE001 - compared, not swallowed
            return ("raised", type(exc), str(exc)), dict(rt.counters)
    fields = (
        result.engine,
        result.outputs,
        list(result.outputs),
        result.rounds,
        result.messages,
        list(result.round_messages),
    )
    return fields, dict(rt.counters)


class TestDispatchMatrix:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("kernel", sorted(CASES))
    def test_kernel_matches_reference(self, kernel, graph_name):
        graph = GRAPHS[graph_name]()
        algorithm, extras = CASES[kernel](graph)
        ref = get_engine("reference").run(graph, algorithm, extras=extras)
        with obs.collect() as rt:
            vec = get_engine("vector").run(graph, algorithm, extras=extras)
        assert vec.engine == "vector"
        assert vec.outputs == ref.outputs
        assert list(vec.outputs) == list(graph.nodes())
        assert vec.rounds == ref.rounds
        assert vec.messages == ref.messages
        assert list(vec.round_messages) == list(ref.round_messages)
        assert ref.rounds > 0  # no case is trivially settled at round 0
        assert _counted(rt.counters, "kernel.dispatch", kernel) == 1
        assert _counted(rt.counters, "kernel.fallback", kernel) == 0

    @pytest.mark.parametrize("kernel", sorted(CASES))
    def test_matrix_covers_the_declared_node_extras(self, kernel):
        # The extras the matrix builds that map node -> value are exactly
        # the ones the kernel declares beside its register_kernel call.
        graph = _str_labels()
        _algorithm, extras = CASES[kernel](graph)
        node_tables = {k for k, v in extras.items() if isinstance(v, dict)}
        keyed, valued = kernels.node_extras(kernel)
        assert set(keyed) == node_tables
        assert set(valued) <= set(keyed)

    def test_matrix_covers_every_kernel(self):
        assert sorted(CASES) == kernels.kernel_names()


class TestDeclaredNodeExtras:
    @pytest.mark.parametrize("name", kernels.kernel_names())
    def test_every_kernel_declares_its_node_extras(self, name):
        keyed, valued = kernels.node_extras(name)
        assert isinstance(keyed, tuple) and isinstance(valued, tuple)
        assert all(isinstance(key, str) for key in keyed)
        assert set(valued) <= set(keyed)

    def test_declarations_are_required(self):
        with pytest.raises(TypeError):
            kernels.register_kernel("undeclared", lambda *a: None)
        assert "undeclared" not in kernels.kernel_names()

    def test_relabel_restricts_tables_to_the_graph(self):
        index = {"a": 0, "b": 1}
        extras = {
            "initial_coloring": {"b": 5, "a": 4, "ghost": 9},
            "parent": {"a": None, "b": "a", "ghost": "a"},
            "iterations": 3,
        }
        dense = kernels.dense_extras("cole-vishkin", extras, index)
        assert dense["initial_coloring"] == {0: 4, 1: 5}
        assert dense["parent"] == {0: None, 1: 0}
        assert dense["iterations"] == 3
        assert extras["parent"]["b"] == "a"  # the caller's tables are untouched


def _assert_declines_to_per_node(graph, algorithm, extras, kernel, reason):
    ref, _ = _outcome("reference", graph, algorithm, extras)
    vec, counters = _outcome("vector", graph, algorithm, extras)
    if ref[0] == "raised":
        assert vec == ref
    else:
        assert vec[0] == "vector"
        assert vec[1:] == ref[1:]
    assert _counted(counters, "kernel.dispatch", kernel) == 0
    key = f"kernel.fallback[kernel={kernel},reason={reason}]"
    assert counters.get(key) == 1, counters
    return ref


class TestDeclines:
    def test_table_missing_a_node_raises_the_per_node_error(self):
        graph = _tuple_labels()
        algorithm, extras = _linial(graph)
        del extras["initial_coloring"][next(iter(graph.nodes()))]
        ref = _assert_declines_to_per_node(
            graph, algorithm, extras, "linial", "per-node table is not a total dense map"
        )
        assert ref[0] == "raised" and "has no initial color" in ref[2]

    def test_table_missing_a_node_in_a_sleeping_reduction(self):
        graph = _str_labels()
        algorithm, extras = _basic(graph)
        del extras["coloring"]["r2c3"]
        _assert_declines_to_per_node(
            graph, algorithm, extras, "basic-reduction",
            "per-node table is not a total dense map",
        )

    def test_float_values_run_per_node(self):
        graph = _shuffled_ints()
        algorithm, extras = _basic(graph)
        node = next(iter(graph.nodes()))
        extras["coloring"][node] = float(extras["coloring"][node])
        _assert_declines_to_per_node(
            graph, algorithm, extras, "basic-reduction", "non-int node key or value"
        )

    def test_bool_values_run_per_node(self):
        graph = _disconnected()
        algorithm, extras = _kw(graph)
        colors = extras["coloring"]
        first, second = list(graph.nodes())[:2]
        colors[first], colors[second] = True, False
        for v in graph.nodes():
            if v not in (first, second) and colors[v] in (0, 1):
                colors[v] = 1000 + colors[v]
        _assert_declines_to_per_node(
            graph, algorithm, extras, "kw-phase", "non-int node key or value"
        )

    def test_cole_vishkin_parent_outside_the_graph(self):
        graph = _str_labels()
        algorithm, extras = _cole_vishkin(graph)
        child = next(v for v, p in extras["parent"].items() if p is not None)
        extras["parent"][child] = "ghost"
        _assert_declines_to_per_node(
            graph, algorithm, extras, "cole-vishkin", "parent outside the graph"
        )

    def test_digraph_input(self):
        graph = nx.DiGraph(nx.cycle_graph(7))
        graph.remove_edge(3, 4)
        algorithm, extras = _basic(graph.to_undirected())
        _assert_declines_to_per_node(
            graph, algorithm, extras, "basic-reduction", "directed or multigraph input"
        )

    def test_self_loops_are_rejected_before_dispatch(self):
        from repro.errors import SimulationError

        graph = nx.cycle_graph(5)
        algorithm, extras = _linial(graph)
        graph.add_edge(2, 2)
        with obs.collect() as rt:
            with pytest.raises(SimulationError):
                get_engine("vector").run(graph, algorithm, extras=extras)
        assert _counted(rt.counters, "kernel.fallback", "linial") == 0
