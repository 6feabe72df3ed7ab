import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sepsym
from sepsym.checks import CHECKS, list_checks
from sepsym.cli import build_report, main
from sepsym.errors import ScenarioError
from sepsym.scenario import (
    build_generator,
    bundled_scenario_names,
    load_scenario,
    parse_scenario,
)
from sepsym.operators import cross_ratio_op, nonseparating_op
from sepsym.space import ConfigSpace, random_state

KNOWN = set(CHECKS)

FAST_SCENARIO = {
    "name": "fast",
    "seed": 11,
    "space": {"size": 3},
    "checks": ["algebra-table", "algebra-brackets"],
}


class TestScenarioLoading:
    def test_bundled_names(self):
        names = bundled_scenario_names()
        assert names == sorted(names)
        for expected in (
            "algebra",
            "derivation-bracket",
            "canonical-decomposition-roundtrip",
            "theorem10",
            "corollary1",
            "corollary2",
            "separation-evolution",
            "scaling-indices",
            "freelift-grid-ladder",
            "internal-dof-demo",
        ):
            assert expected in names

    def test_bundled_load(self):
        sc = load_scenario("algebra", KNOWN)
        assert sc.name == "algebra"
        assert sc.checks[0]["name"] == "algebra-table"

    def test_missing_seed_rejected(self):
        doc = {k: v for k, v in FAST_SCENARIO.items() if k != "seed"}
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(doc, KNOWN)

    def test_float_seed_rejected(self):
        doc = dict(FAST_SCENARIO, seed=1.5)
        with pytest.raises(ScenarioError, match="integer"):
            parse_scenario(doc, KNOWN)

    def test_bool_seed_rejected(self):
        doc = dict(FAST_SCENARIO, seed=True)
        with pytest.raises(ScenarioError, match="integer"):
            parse_scenario(doc, KNOWN)

    def test_check_list_must_be_a_list(self):
        doc = dict(FAST_SCENARIO, checks="algebra-table")
        with pytest.raises(ScenarioError, match="expected a list"):
            parse_scenario(doc, KNOWN)

    @pytest.mark.parametrize(
        "space", [{"size": 0}, {"size": "abc"}, {"size": 6, "factors": [4, 2]}]
    )
    def test_bad_space_rejected(self, space):
        doc = dict(FAST_SCENARIO, space=space)
        with pytest.raises(ScenarioError, match="space"):
            parse_scenario(doc, KNOWN)

    def test_unknown_check_rejected(self):
        doc = dict(FAST_SCENARIO, checks=["no-such-check"])
        with pytest.raises(ScenarioError, match="no-such-check"):
            parse_scenario(doc, KNOWN)

    def test_json_error_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "name": "x",\n  "seed": oops\n}\n')
        with pytest.raises(ScenarioError, match="line 3"):
            load_scenario(str(bad), KNOWN)

    def test_unknown_bundled_name(self):
        with pytest.raises(ScenarioError, match="bundled"):
            load_scenario("no-such-scenario", KNOWN)


class TestGeneratorFactory:
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "lambda", "a": [0.5, 0.1], "b": 0.3},
            {"kind": "log-modulus", "coeff": 0.7},
            {"kind": "shifted-log-modulus", "coeff": 0.8, "shift": 2},
            {"kind": "relative-log-modulus"},
            {"kind": "rms-log-modulus", "coeff": [0.9, 0.1]},
            {"kind": "linear"},
            {"kind": "linear", "matrix": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]},
            {"kind": "cross-ratio", "refs": [1, 2], "coupling": 0.5},
            {"kind": "non-separating"},
        ],
    )
    def test_kinds(self, spec):
        space = ConfigSpace(3)
        g = build_generator(space, spec, np.random.default_rng(0))
        assert g.op.space == space

    def test_spin_kinds(self):
        space = ConfigSpace(8, factors=(2, 4), grid=True)
        for kind in ("spin-rms-log", "spin-rotation"):
            g = build_generator(space, {"kind": kind}, np.random.default_rng(0))
            assert g.ell == 1

    @pytest.mark.parametrize(
        "kind, factory",
        [
            ("cross-ratio", lambda sp: cross_ratio_op(sp, (1, 2), coupling=0.6)),
            ("non-separating", lambda sp: nonseparating_op(sp, 2, coupling=0.6)),
        ],
    )
    def test_coupling_key_is_read(self, kind, factory):
        space = ConfigSpace(3)
        spec = {"kind": kind, "refs": [1, 2], "coupling": 0.6}
        g = build_generator(space, spec, np.random.default_rng(0))
        phi = random_state(2, space, np.random.default_rng(1), nowhere_zero=True).data
        assert np.array_equal(g.op.apply(0.0, phi), factory(space).apply(0.0, phi))

    def test_unknown_kind(self):
        with pytest.raises(ScenarioError, match="unknown generator kind"):
            build_generator(ConfigSpace(3), {"kind": "wat"}, np.random.default_rng(0))


class TestListChecks:
    def test_inventory(self):
        listing = list_checks()
        names = [n for n, _ in listing]
        assert len(names) >= 15
        assert "liftdeltal-identity" in names
        assert "freelift-grid-ladder" in names
        assert names == [n for n, _ in list_checks()]  # stable ordering
        for _, desc in listing:
            assert desc

    def test_every_scenario_check_is_registered(self):
        for name in bundled_scenario_names():
            sc = load_scenario(name, KNOWN)
            for entry in sc.checks:
                assert entry["name"] in CHECKS


class TestCheckErrors:
    # |X|^4 = 20^4 is over the flat-size cap, which raises a plain ValueError
    OVERSIZED = {
        "name": "oversized",
        "seed": 3,
        "space": {"size": 20},
        "generators": {
            "rms": {"kind": "rms-log-modulus"},
            "shifted": {"kind": "shifted-log-modulus"},
        },
        "checks": [
            {"name": "liftdeltal-identity", "params": {"pairs": [["rms", "shifted", [4]]]}},
            "algebra-table",
        ],
    }

    def test_unexpected_exception_becomes_error_entry(self, tmp_path, capsys):
        scen = tmp_path / "oversized.json"
        scen.write_text(json.dumps(self.OVERSIZED))
        out = tmp_path / "report.json"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        assert checks[0]["status"] == "error"
        assert checks[0]["details"]["error"].startswith("ValueError: ")
        assert "flat-size cap" in checks[0]["details"]["error"]
        assert checks[1]["status"] == "pass"  # later checks still run
        captured = capsys.readouterr()
        assert "Traceback" in captured.err and "Traceback" not in captured.out


class TestBadValuesExitTwo:
    """Malformed values end in exit 2 before any check runs, not in error
    entries or a traceback."""

    EVOLVING = dict(FAST_SCENARIO, checks=["index-evolution"])
    POINT_SYM = dict(FAST_SCENARIO, space={"size": 8, "grid": True},
                     checks=["corollary2-pointsym"])

    def run_main(self, tmp_path, capsys, doc, *flags):
        scen = tmp_path / "bad.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code = main(["run", "--scenario", str(scen), "--out", str(out), *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert "scenario error" in err and "Traceback" not in err
        assert not out.exists()
        return err

    @pytest.mark.parametrize("hbar", [-1, 0, "abc", True, float("nan"), [1.0]])
    def test_bad_hbar(self, tmp_path, capsys, hbar):
        err = self.run_main(tmp_path, capsys, dict(self.EVOLVING, hbar=hbar))
        assert "hbar" in err

    @pytest.mark.parametrize("evolution", [
        {"dt": -1}, {"dt": 0}, {"dt": "abc"}, {"t0": "abc"}, {"t1": None},
        {"t1": float("inf")}, "abc",
    ])
    def test_bad_evolution(self, tmp_path, capsys, evolution):
        err = self.run_main(tmp_path, capsys, dict(self.EVOLVING, evolution=evolution))
        assert "evolution" in err

    @pytest.mark.parametrize("symmetry", [
        {"eta": {"profile": "bogus"}},
        {"xi": {"profile": "sine", "amplitude": "big"}},
        {"eta": "sine"},
        {"gamma": "abc"},
        {"tau": [0.0, 1.0]},
        "abc",
    ])
    def test_bad_symmetry(self, tmp_path, capsys, symmetry):
        err = self.run_main(tmp_path, capsys, dict(self.POINT_SYM, symmetry=symmetry))
        assert "symmetry" in err

    @pytest.mark.parametrize("hbar", ["-1", "0", "nan", "inf"])
    def test_bad_hbar_flag(self, tmp_path, capsys, hbar):
        err = self.run_main(tmp_path, capsys, FAST_SCENARIO, f"--hbar={hbar}")
        assert "--hbar" in err

    def test_good_values_still_load(self):
        doc = dict(self.POINT_SYM, hbar=2, evolution={"dt": 0.01, "t0": 0, "t1": 1},
                   symmetry={"eta": {"profile": "sine", "amplitude": 0.5},
                             "tau": {"alpha": 1, "beta": 0.5}, "gamma": 1})
        sc = parse_scenario(doc, KNOWN)
        assert sc.hbar == 2.0
        assert sc.evolution == {"dt": 0.01, "t0": 0.0, "t1": 1.0}


class TestCliProcess:
    def run_cli(self, *args):
        # the child imports the same sepsym as this process, installed or not
        src = str(Path(sepsym.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "sepsym.cli", *args], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_list_checks_output(self):
        r = self.run_cli("list-checks")
        assert r.returncode == 0
        assert "liftdeltal-identity" in r.stdout
        assert "freelift-grid-ladder" in r.stdout
        assert len(r.stdout.strip().splitlines()) >= 15

    def test_run_success_and_report(self, tmp_path):
        scen = tmp_path / "fast.json"
        scen.write_text(json.dumps(FAST_SCENARIO))
        out = tmp_path / "report.json"
        r = self.run_cli("run", "--scenario", str(scen), "--out", str(out))
        assert r.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["scenario"] == "fast"
        assert doc["seed"] == 11
        assert doc["hbar"] == 1.0
        assert "tool_version" in doc
        for chk in doc["checks"]:
            assert set(chk) == {"name", "status", "max_residual", "tolerance", "details"}
            assert (chk["status"] == "pass") == (chk["max_residual"] <= chk["tolerance"])

    def test_cli_tol_beats_scenario_tolerances(self, tmp_path):
        scen = tmp_path / "fast.json"
        doc = dict(FAST_SCENARIO)
        doc["tolerances"] = {"algebra-brackets": 1.0}
        scen.write_text(json.dumps(doc))
        # scenario says 1.0 (passes); the flag must win and force a failure
        r = self.run_cli(
            "run", "--scenario", str(scen), "--tol", "algebra-brackets=1e-30"
        )
        assert r.returncode == 1

    def test_failing_tolerance_gives_exit_one(self, tmp_path):
        scen = tmp_path / "fast.json"
        scen.write_text(json.dumps(FAST_SCENARIO))
        r = self.run_cli(
            "run", "--scenario", str(scen), "--tol", "algebra-brackets=1e-30"
        )
        assert r.returncode == 1

    def test_malformed_config_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", \n "seed": }')
        r = self.run_cli("run", "--scenario", str(bad))
        assert r.returncode == 2
        assert "line" in r.stderr

    def test_missing_field_exit_two(self, tmp_path):
        bad = tmp_path / "nocheck.json"
        bad.write_text(json.dumps({"name": "x", "seed": 2, "space": {"size": 3}}))
        r = self.run_cli("run", "--scenario", str(bad))
        assert r.returncode == 2
        assert "checks" in r.stderr

    def test_bad_tol_flag(self, tmp_path):
        scen = tmp_path / "fast.json"
        scen.write_text(json.dumps(FAST_SCENARIO))
        assert self.run_cli("run", "--scenario", str(scen), "--tol", "nope").returncode == 2
        assert (
            self.run_cli("run", "--scenario", str(scen), "--tol", "wat=1e-3").returncode
            == 2
        )

    def test_seed_and_hbar_overrides(self, tmp_path):
        scen = tmp_path / "fast.json"
        scen.write_text(json.dumps(FAST_SCENARIO))
        out = tmp_path / "r.json"
        r = self.run_cli(
            "run", "--scenario", str(scen), "--seed", "77", "--hbar", "2.5",
            "--out", str(out),
        )
        assert r.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["seed"] == 77 and doc["hbar"] == 2.5


class TestDeterminism:
    def test_reports_byte_identical(self):
        sc = load_scenario("canonical-decomposition-roundtrip", KNOWN)
        one = json.dumps(build_report(sc, {}), sort_keys=True)
        two = json.dumps(build_report(sc, {}), sort_keys=True)
        assert one == two

    def test_seed_changes_details_not_structure(self):
        sc = load_scenario("algebra", KNOWN)
        rep = build_report(sc, {})
        names = [c["name"] for c in rep["checks"]]
        assert names == [c["name"] for c in sc.checks]
