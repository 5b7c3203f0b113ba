"""The benchmark's own tests, on tiny inputs.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import workloads
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0.5", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    proc = bench("--workload", workload, "--seed", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    table = proc.stdout.splitlines()[:-1]
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in table)


def test_planted_failing_cell_raises_failed_ratio():
    proc = bench("--workload", "delta-ladder", "--seed", "1", "--trace", "0",
                 "--plant-failure")
    assert proc.returncode == 1
    out = result(proc)
    assert out["correct"] is False and out["failed"] > 0
    ratio = next(line for line in proc.stdout.splitlines() if line.startswith("failed_ratio"))
    assert float(ratio.split()[1]) > 0


def test_two_seeds_build_different_graphs_but_the_same_metric_set():
    from repro import workloads as library_workloads

    def graphs(seed):
        cells = workloads.build("delta-ladder", seed, tiny=True).cells
        return [sorted(library_workloads.build(c.workload, c.workload_params, seed=c.seed)
                       .edges()) for c in cells]

    assert graphs(1) != graphs(2)
    assert graphs(1) == graphs(1)
    names = [set(result(bench("--workload", "delta-ladder", "--seed", seed,
                              "--trace", "0"))["metrics"]) for seed in ("1", "2")]
    assert names[0] == names[1]


def test_tracer_patches_every_alias_and_restores_them():
    from repro import registry

    registry.specs()  # loads every algorithm module
    cd_coloring = sys.modules["repro.core.cd_coloring"]
    original = cd_coloring.line_graph_with_cover
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.leftovers() == []
        assert cd_coloring.line_graph_with_cover is not original
    finally:
        tracer.uninstall()
    assert cd_coloring.line_graph_with_cover is original
    assert "repro.core.cd_coloring.line_graph_with_cover" in tracer.leftovers()


def test_tracer_refuses_an_unpatched_alias():
    module = importlib.import_module("repro.core.star_partition")
    module._stray_alias = importlib.import_module("repro.graphs.linegraph").line_graph_with_cover
    try:
        with pytest.raises(RuntimeError, match="_stray_alias"):
            Tracer().install()
    finally:
        del module._stray_alias


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "delta-ladder", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
