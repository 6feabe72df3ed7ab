import importlib.util
import json
from pathlib import Path

import pytest

from sepsym.cli import report_text

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "seed_sweep.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("seed_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(residual, ratio, norms):
    return {
        "scenario": "algebra",
        "seed": 7,
        "checks": [
            {"name": "algebra-table", "status": "pass", "max_residual": 0.0},
            {"name": "euler-identities", "status": "pass", "max_residual": residual,
             "details": {"ratio": ratio, "norms": norms}},
        ],
    }


def _write(directory: Path, reports: dict) -> None:
    directory.mkdir()
    for key, report in reports.items():
        (directory / f"{key}.json").write_text(report_text(report))


class TestCompare:
    def test_lists_each_moved_field(self, sweep, tmp_path):
        _write(tmp_path / "old", {
            "algebra.bundled": _report(1e-16, 0.354, [1.0, 2.0]),
            "algebra.0": _report(2e-16, 4.0, [1.0]),
        })
        _write(tmp_path / "new", {
            "algebra.bundled": _report(1.5e-16, None, [1.0, 2.5]),
            "algebra.0": _report(2e-16, 4.0, [1.0]),
            "algebra.1": _report(2e-16, 4.0, [1.0]),
        })
        new = {p.stem: json.loads(p.read_text()) for p in sorted((tmp_path / "new").iterdir())}
        lines = sweep.compare(new, tmp_path / "old")
        assert lines == [
            f"algebra.1: no report in {tmp_path / 'old'}",
            "algebra.bundled: checks.euler-identities.details.norms[1] 2.0 -> 2.5",
            "algebra.bundled: checks.euler-identities.details.ratio 0.354 -> null",
            "algebra.bundled: checks.euler-identities.max_residual 1e-16 -> 1.5e-16",
        ]

    def test_identical_reports_give_no_lines(self, sweep, tmp_path):
        reports = {"algebra.bundled": _report(float("nan"), 4.0, [1.0])}
        _write(tmp_path / "old", reports)
        assert sweep.compare(reports, tmp_path / "old") == []

    def test_shape_changes_are_one_field(self, sweep):
        old = {"a": [1, 2], "b": 1, "c": {"d": 1}}
        new = {"a": [1, 2, 3], "b": 1.0, "e": 2}
        assert list(sweep.changed_fields(old, new)) == [
            ("a", [1, 2], [1, 2, 3]),
            ("b", 1, 1.0),
            ("c", {"d": 1}, sweep.ABSENT),
            ("e", sweep.ABSENT, 2),
        ]


class TestLargestMoves:
    def test_one_line_per_scenario_and_collapsed_path(self, sweep, tmp_path):
        _write(tmp_path / "old", {
            "algebra.bundled": _report(1e-16, 0.354, [1.0, 2.0]),
            "algebra.0": _report(2e-16, 4.0, [1.0, 3.0]),
            "theorem10.0": _report(1e-16, 4.0, [8.0]),
        })
        new = {
            "algebra.bundled": _report(1.5e-16, None, [1.0, 2.5]),
            "algebra.0": _report(2e-16, 4.0000004, [1.1, 3.0]),
            "theorem10.0": _report(1e-16, 4.0, [8.000001]),
        }
        _write(tmp_path / "new", new)
        assert sweep.largest_moves(new, tmp_path / "old") == [
            # norms[0] and norms[1] collapse to norms[]: the larger move wins
            "algebra: checks.euler-identities.details.norms[] 2.50e-01 at bundled "
            "(2.0 -> 2.5), 2 moved",
            "theorem10: checks.euler-identities.details.norms[] 1.25e-07 at 0 "
            "(8.0 -> 8.000001), 1 moved",
            "algebra: checks.euler-identities.details.ratio 1.00e-07 at 0 "
            "(4.0 -> 4.0000004), 1 moved",
        ]

    def test_round_off_values_and_non_numbers_are_left_out(self, sweep, tmp_path):
        # |old| <= 1e-12, null, NaN and a missing report give no line
        _write(tmp_path / "old", {"algebra.bundled": _report(1e-16, 0.354, [float("nan")])})
        new = {
            "algebra.bundled": _report(1e-15, None, [1.0]),
            "algebra.0": _report(1e-15, 4.0, [1.0]),
        }
        assert sweep.largest_moves(new, tmp_path / "old") == []

    def test_main_prints_summary_after_field_lines(self, sweep, tmp_path, monkeypatch, capsys):
        old = {"algebra.bundled": _report(1e-16, 4.0, [1.0])}
        _write(tmp_path / "old", old)
        monkeypatch.setattr(sweep, "bundled_scenario_names", lambda: ["algebra"])
        monkeypatch.setattr(sweep, "load_scenario", lambda name, known: None)
        monkeypatch.setattr(sweep, "replace", lambda scenario, seed: scenario)
        monkeypatch.setattr(sweep, "build_report",
                            lambda scenario: _report(1e-16, 4.4, [1.0]))
        code = sweep.main(["--seeds", "0-0", "--compare", str(tmp_path / "old")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-5:] == [
            "algebra.bundled: checks.euler-identities.details.ratio 4.0 -> 4.4",
            f"algebra.0: no report in {tmp_path / 'old'}",
            f"2 fields differ from {tmp_path / 'old'}",
            "algebra: checks.euler-identities.details.ratio 1.00e-01 at bundled "
            "(4.0 -> 4.4), 1 moved",
            "1 (scenario, field) groups moved where |old| > 1e-12",
        ]
