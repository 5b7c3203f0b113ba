"""Benchmark: Figures 1-3 — the three connector constructions.

Each figure benchmark builds the paper's gadget, applies the construction,
and records the degree bound check in extra_info.
"""

import pytest

from repro.analysis.figures import (
    figure1_clique_connector,
    figure2_edge_connector,
    figure3_orientation_connector,
)

FIGURES = [
    pytest.param(lambda: figure1_clique_connector(t=4, clique_size=8), id="figure1"),
    pytest.param(lambda: figure2_edge_connector(t=3, star_size=7), id="figure2"),
    pytest.param(
        lambda: figure3_orientation_connector(in_group=3, out_group=2), id="figure3"
    ),
]


@pytest.mark.parametrize("build", FIGURES)
def test_figure(benchmark, record_info, build):
    report = benchmark(build)
    assert report.within_bound
    record_info(
        benchmark,
        {
            "experiment": report.name,
            "base_max_degree": report.base_max_degree,
            "connector_max_degree": report.connector_max_degree,
            "degree_bound": report.degree_bound,
            "connector_nodes": report.connector_nodes,
            "connector_edges": report.connector_edges,
        },
    )
