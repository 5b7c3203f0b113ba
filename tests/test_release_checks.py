"""Release-level checks: the CLI campaign run/check flow, packaging
consistency, and cross-module documentation invariants."""

import shutil
import sqlite3

import pytest

import repro
from repro.analysis.campaign import CampaignCell
from repro.cli import main


class TestCampaignCli:
    """``campaign run --store`` then ``campaign check --baseline`` over a
    tiny stand-in for the paper grids."""

    CELLS = [
        CampaignCell("greedy", "random-regular", {"n": 16, "d": 4}, seed=1),
        CampaignCell("star4", "random-regular", {"n": 16, "d": 4}, seed=1),
    ]

    @pytest.fixture
    def baseline(self, monkeypatch, tmp_path):
        monkeypatch.setattr("repro.analysis.campaign.paper_cells", lambda: self.CELLS)
        path = tmp_path / "baseline.db"
        assert main(["campaign", "run", "--store", str(path), "--jobs", "1"]) == 0
        return path

    def _check(self, baseline, *extra):
        return main(["campaign", "check", "--baseline", str(baseline), "--jobs", "1", *extra])

    def _planted(self, baseline, tmp_path, sql):
        current = tmp_path / "current.db"
        shutil.copy(baseline, current)
        with sqlite3.connect(current) as conn:
            conn.execute(sql)
        return current

    def test_run_then_check_clean(self, baseline, capsys):
        assert self._check(baseline) == 0
        assert "no regressions across 2 cells" in capsys.readouterr().out

    def test_check_against_a_store_clean(self, baseline, tmp_path):
        assert self._check(baseline, "--store", str(tmp_path / "current.db")) == 0

    def test_check_flags_extra_color(self, baseline, tmp_path, capsys):
        current = self._planted(
            baseline, tmp_path,
            "UPDATE runs SET colors_used = colors_used + 1 WHERE algorithm = 'star4'",
        )
        assert self._check(baseline, "--store", str(current)) == 1
        out = capsys.readouterr().out
        assert "REGRESSION star4|random-regular(d=4,n=16)|seed=1|: colors_used" in out

    def test_check_flags_flipped_verdict(self, baseline, tmp_path, capsys):
        current = self._planted(
            baseline, tmp_path, "UPDATE runs SET verdict = 'fail' WHERE algorithm = 'greedy'"
        )
        assert self._check(baseline, "--store", str(current)) == 1
        assert "greedy|random-regular(d=4,n=16)|seed=1|: verdict 'ok' -> 'fail'" in (
            capsys.readouterr().out
        )

    def test_check_flags_missing_cell(self, baseline, capsys):
        with sqlite3.connect(baseline) as conn:
            conn.execute("DELETE FROM runs WHERE algorithm = 'greedy'")
        assert self._check(baseline) == 1
        assert "missing-from-baseline" in capsys.readouterr().out

    def test_run_requires_store(self, monkeypatch):
        monkeypatch.setattr("repro.analysis.campaign.paper_cells", lambda: self.CELLS)
        with pytest.raises(SystemExit):
            main(["campaign", "run"])

    def test_check_requires_existing_baseline(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "check", "--baseline", str(tmp_path / "none.db")])


import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestPackagingConsistency:
    def test_version_matches_setup(self):
        setup_text = (REPO_ROOT / "setup.py").read_text(encoding="utf-8")
        assert f'version="{repro.__version__}"' in setup_text

    def test_design_doc_references_real_modules(self):
        import importlib
        import re

        design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for match in set(re.findall(r"`repro/([a-z_]+)/", design)):
            importlib.import_module(f"repro.{match}")

    def test_readme_mentions_all_examples(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for script in (REPO_ROOT / "examples").glob("*.py"):
            assert script.name in readme, f"README missing {script.name}"

    def test_experiments_md_is_fresh_format(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert "# EXPERIMENTS — paper vs. measured" in text
        assert "Scaling shapes" in text
        assert "Ablations" in text
