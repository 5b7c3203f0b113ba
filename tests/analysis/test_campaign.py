"""Tests for the regression comparison of campaign rows."""

from repro.analysis.campaign import CampaignCell, cell_key, compare_campaigns


def make_row(colors=10, rounds=20.0, verdict="ok", algorithm="t1", x=1):
    return {
        "algorithm": algorithm,
        "workload": "w",
        "workload_params": {"n": 10},
        "seed": 0,
        "algo_params": {"x": x},
        "colors_used": colors,
        "rounds_actual": rounds,
        "verdict": verdict,
    }


class TestCellKey:
    def test_matches_the_cell_it_came_from(self):
        cell = CampaignCell("t1", "w", {"n": 10}, seed=0, algo_params={"x": 1})
        assert cell_key(make_row()) == cell.key()

    def test_ignores_engine_and_run_key(self):
        row = make_row()
        assert cell_key(dict(row, engine="vector", run_key="abc")) == cell_key(row)


class TestComparison:
    def test_identical_runs_clean(self):
        assert compare_campaigns([make_row()], [make_row()]) == []

    def test_color_regression_flagged(self):
        regressions = compare_campaigns([make_row(colors=10)], [make_row(colors=12)])
        assert any(r.field == "colors_used" for r in regressions)

    def test_color_slack_suppresses(self):
        assert compare_campaigns(
            [make_row(colors=10)], [make_row(colors=12)], color_slack=2
        ) == []

    def test_round_regression_flagged(self):
        regressions = compare_campaigns([make_row(rounds=20.0)], [make_row(rounds=40.0)])
        assert any(r.field == "rounds_actual" for r in regressions)

    def test_round_slack_tolerates_jitter(self):
        assert compare_campaigns([make_row(rounds=20.0)], [make_row(rounds=24.0)]) == []

    def test_lost_verdict_flagged(self):
        regressions = compare_campaigns(
            [make_row()], [make_row(verdict="fail")], color_slack=100
        )
        assert [(r.field, r.baseline, r.current) for r in regressions] == [
            ("verdict", "ok", "fail")
        ]

    def test_errored_row_flagged(self):
        broken = dict(make_row(colors=None, rounds=None, verdict=None), error="boom")
        regressions = compare_campaigns([make_row()], [broken])
        assert [r.field for r in regressions] == ["verdict"]

    def test_new_row_flagged_as_missing(self):
        current = [make_row(), make_row(algorithm="brand-new")]
        regressions = compare_campaigns([make_row()], current)
        assert any(r.field == "missing-from-baseline" for r in regressions)

    def test_extra_baseline_rows_ignored(self):
        baseline = [make_row(), make_row(algorithm="retired")]
        assert compare_campaigns(baseline, [make_row()]) == []
