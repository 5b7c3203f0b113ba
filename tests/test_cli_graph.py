"""CLI surface of the graph core: ``repro graph``, ``run --graph .csrg``,
and the workload-listing markers."""

import json

import pytest

from repro.cli import main
from repro.graphcore import load, read_info


@pytest.fixture
def csrg(tmp_path):
    path = tmp_path / "grid.csrg"
    code = main(
        [
            "graph", "build", "--workload", "xl-grid",
            "--workload-param", "rows=10", "--workload-param", "cols=12",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestGraphBuild:
    def test_build_writes_loadable_file(self, csrg, capsys):
        graph = load(csrg)
        assert graph.n == 120 and graph.max_degree == 4

    def test_build_reports_digest(self, tmp_path, capsys):
        path = tmp_path / "g.csrg"
        main(["graph", "build", "--workload", "xl-grid",
              "--workload-param", "rows=5", "--workload-param", "cols=5",
              "--out", str(path)])
        out = capsys.readouterr().out
        assert read_info(path)["digest"] in out

    def test_build_nx_workload_converts(self, tmp_path):
        # non-compact workloads intern through from_networkx
        path = tmp_path / "rr.csrg"
        assert main(["graph", "build", "--workload", "random-regular",
                     "--out", str(path)]) == 0
        assert load(path).n == 64

    def test_build_requires_out_and_workload(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["graph", "build", "--workload", "xl-grid"])
        with pytest.raises(SystemExit):
            main(["graph", "build", "--out", str(tmp_path / "x.csrg")])
        with pytest.raises(SystemExit):
            main(["graph", "build", "--workload", "no-such",
                  "--out", str(tmp_path / "x.csrg")])


class TestGraphInfo:
    def test_info_prints_header(self, csrg, capsys):
        assert main(["graph", "info", "--graph", str(csrg)]) == 0
        out = capsys.readouterr().out
        assert "n           = 120" in out
        assert "Delta       = 4" in out
        assert "format      = csrg v1" in out

    def test_info_requires_graph(self):
        with pytest.raises(SystemExit):
            main(["graph", "info"])



class TestStructuralInfo:
    def test_csrg_matches_its_edge_list_twin(self, tmp_path, capsys, monkeypatch):
        # ``info`` measures a .csrg in CSR form; the parameters are graph
        # invariants, so the edge-list twin must print the same lines.
        from repro.graphcore import CompactGraph

        csrg = tmp_path / "fs.csrg"
        twin = tmp_path / "fs.txt"
        assert main(["graph", "build", "--workload", "star-forest-stack",
                     "--workload-param", "n_centers=5",
                     "--workload-param", "leaves_per_center=30",
                     "--out", str(csrg)]) == 0
        assert main(["graph", "convert", "--in", str(csrg), "--out", str(twin)]) == 0
        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(CompactGraph, "to_networkx", None)  # no nx copy
            assert main(["info", "--graph", str(csrg)]) == 0
        from_csrg = capsys.readouterr().out
        assert main(["info", "--graph", str(twin)]) == 0
        from_twin = capsys.readouterr().out
        assert from_csrg == from_twin
        for line in ("n          = 155", "m          = ", "Delta      = ",
                     "degeneracy = 2", "arboricity in [2, 2]"):
            assert line in from_csrg


class TestGraphConvert:
    def test_csrg_edgelist_round_trip_preserves_digest(self, csrg, tmp_path, capsys):
        txt = tmp_path / "g.txt"
        back = tmp_path / "g2.csrg"
        assert main(["graph", "convert", "--in", str(csrg), "--out", str(txt)]) == 0
        assert main(["graph", "convert", "--in", str(txt), "--out", str(back)]) == 0
        assert read_info(back)["digest"] == read_info(csrg)["digest"]

    def test_metis_ingestion(self, csrg, tmp_path):
        graph = load(csrg)
        metis = tmp_path / "g.metis"
        lines = [f"{graph.n} {graph.m}"]
        for v in graph.nodes():
            lines.append(" ".join(str(u + 1) for u in graph.neighbors(v)))
        metis.write_text("\n".join(lines) + "\n")
        out = tmp_path / "from_metis.csrg"
        assert main(["graph", "convert", "--in", str(metis), "--out", str(out)]) == 0
        assert read_info(out)["digest"] == graph.digest()

    def test_metis_export_rejected(self, csrg, tmp_path):
        with pytest.raises(SystemExit):
            main(["graph", "convert", "--in", str(csrg),
                  "--out", str(tmp_path / "g.metis")])


class TestRunFromGraphFile:
    def test_run_csrg_matches_in_memory(self, csrg, tmp_path, capsys):
        from_file = tmp_path / "file.json"
        in_memory = tmp_path / "mem.json"
        assert main(["run", "--graph", str(csrg), "--algorithm", "linial",
                     "--engine", "vector", "--out", str(from_file)]) == 0
        assert main(["run", "--workload", "xl-grid",
                     "--workload-param", "rows=10", "--workload-param", "cols=12",
                     "--algorithm", "linial", "--engine", "vector",
                     "--out", str(in_memory)]) == 0
        a = json.loads(from_file.read_text())[0]
        b = json.loads(in_memory.read_text())[0]
        for key in ("n", "m", "colors_used", "rounds_actual", "rounds_modeled"):
            assert a[key] == b[key], key

    def test_run_csrg_verifies(self, csrg):
        # single-run front-ends never print unverified results; an ok
        # verdict on a compact graph exercises the oracles' duck typing
        assert main(["run", "--graph", str(csrg), "--algorithm", "greedy-vertex"]) == 0


class TestWorkloadListing:
    def test_exclusion_markers(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith(("scale-", "xl-")):
                assert "[excluded from default grid]" in line
            elif line.strip():
                assert "excluded" not in line

    def test_family_prefix_filter(self, capsys):
        assert main(["workloads", "--family", "x"]) == 0
        out = capsys.readouterr().out
        names = {line.split()[0] for line in out.splitlines() if line.strip()}
        assert names == {"xl-regular", "xl-power-law", "xl-forest-stack", "xl-grid"}

    def test_family_exact_name_still_works(self, capsys):
        assert main(["workloads", "--family", "adversarial"]) == 0

    def test_json_carries_grid_and_compact_flags(self, capsys):
        assert main(["workloads", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {row["name"]: row for row in payload}
        assert by_name["xl-grid"]["compact"] is True
        assert by_name["xl-grid"]["default_grid"] is False
        assert by_name["scale-regular"]["default_grid"] is False
        assert by_name["random-regular"]["default_grid"] is True
        assert by_name["random-regular"]["compact"] is False
