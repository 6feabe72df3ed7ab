import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sepsym
from sepsym import scenario
from sepsym.checks import CHECKS, CheckContext, check_parameters, run_check
from sepsym.cli import build_report, main
from sepsym.errors import ScenarioError, SizeCapExceeded
from sepsym.scenario import (
    build_generator,
    bundled_scenario_names,
    load_scenario,
    parse_scenario,
    random_hermitian,
)
from sepsym.operators import cross_ratio_op, nonseparating_op
from sepsym.space import ConfigSpace, random_batch, random_state
from sepsym.symmetry import PointSymmetrySpec, point_symmetry_parts

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

    def test_negative_seed_rejected(self):
        doc = dict(FAST_SCENARIO, seed=-5)
        with pytest.raises(ScenarioError, match="non-negative integer"):
            parse_scenario(doc, KNOWN)

    def test_check_list_must_be_a_list(self):
        doc = dict(FAST_SCENARIO, checks="algebra-table")
        with pytest.raises(ScenarioError, match="expected a list"):
            parse_scenario(doc, KNOWN)

    @pytest.mark.parametrize(
        "space",
        [
            {"size": 0}, {"size": "abc"}, {"size": 6, "factors": [4, 2]},
            {"size": 3.7}, {"size": True}, {"size": "3"},
            {"size": 6, "factors": [2.9, 3]}, {"size": 6, "grid": "no"},
            {"size": 6, "factors": False}, {"size": 6, "factors": 0},
            {"size": 6, "factors": {}}, {"size": 6, "factors": []},
            {"size": 6, "factors": ""},
        ],
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
            {"kind": "linear", "matrix": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]},
            {"kind": "cross-ratio", "refs": [1, 2], "coupling": 0.5},
            {"kind": "non-separating"},
        ],
    )
    def test_kinds(self, spec):
        space = ConfigSpace(3)
        g = build_generator(space, spec)
        assert g.op.space == space

    def test_spin_kinds(self):
        space = ConfigSpace(8, factors=(2, 4), grid=True)
        for kind in ("spin-rms-log", "spin-rotation"):
            g = build_generator(space, {"kind": kind})
            assert g.ell == 1

    @pytest.mark.parametrize("kind", list(scenario.GENERATOR_KINDS))
    def test_each_kind_builds_its_own_operator(self, kind):
        # a table entry that borrowed another kind's builder would build
        # that operator instead
        spin = kind.startswith("spin-")
        space = ConfigSpace(8, factors=(2, 4), grid=True) if spin else ConfigSpace(3)
        spec = {"kind": kind, "matrix": np.eye(3).tolist()} if kind == "linear" else {"kind": kind}
        g = build_generator(space, spec)
        assert g.op.name.startswith(kind)

    @pytest.mark.parametrize(
        "spec, factory",
        [
            ({"kind": "cross-ratio", "refs": [1, 2], "coupling": 0.6},
             lambda sp: cross_ratio_op(sp, (1, 2), coupling=0.6)),
            ({"kind": "non-separating", "coupling": 0.6},
             lambda sp: nonseparating_op(sp, 2, coupling=0.6)),
        ],
    )
    def test_coupling_key_is_read(self, spec, factory):
        space = ConfigSpace(3)
        g = build_generator(space, spec)
        phi = random_state(2, space, np.random.default_rng(1), nowhere_zero=True)
        assert np.array_equal(g.op.apply(0.0, phi), factory(space).apply(0.0, phi))

    def test_scenario_holds_its_built_generators(self):
        # built once at load from their specs; every check reads these
        specs = {"A": {"kind": "linear", "matrix": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]},
                 "B": {"kind": "cross-ratio", "refs": [1, 2]}}
        sc = parse_scenario(dict(FAST_SCENARIO, generators=specs), KNOWN)
        phi = random_state(2, sc.space, np.random.default_rng(1), nowhere_zero=True)
        for name, spec in specs.items():
            want = build_generator(sc.space, spec).op
            data = phi if want.n == 2 else phi[:, 0]
            assert np.array_equal(sc.generators[name].op.apply(0.0, data), want.apply(0.0, data))

    @pytest.mark.parametrize("name, check", [("corollary2", "corollary2-pointsym"),
                                             ("freelift-grid-ladder", "freelift-grid-ladder")])
    def test_scenario_holds_its_built_symmetry_block(self, monkeypatch, name, check):
        # built once at load, and the very spec every point-symmetry check uses
        from sepsym import checks_lifts

        sc = load_scenario(name, KNOWN)
        assert isinstance(sc.symmetry, PointSymmetrySpec)
        used = []

        def parts(spec, space):
            used.append(spec)
            return point_symmetry_parts(spec, space)

        monkeypatch.setattr(checks_lifts, "point_symmetry_parts", parts)
        assert run_check(check, sc, {}).status == "pass"
        assert used and all(spec is sc.symmetry for spec in used)

    def test_no_symmetry_block_is_none(self):
        assert load_scenario("separation-evolution", KNOWN).symmetry is None
        assert parse_scenario(dict(FAST_SCENARIO, symmetry={}), KNOWN).symmetry is None

    def test_random_hermitian_checks_the_cap_before_drawing(self):
        # 300^2 entries exceed the flat-size cap; nothing is drawn first
        rng = np.random.default_rng(0)
        with pytest.raises(SizeCapExceeded):
            random_hermitian(ConfigSpace(300), rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_unknown_kind(self):
        with pytest.raises(ScenarioError, match="unknown generator kind"):
            build_generator(ConfigSpace(3), {"kind": "wat"})


class TestCheckDraws:
    @pytest.mark.parametrize("name", list(CHECKS))
    def test_draws_are_salted_by_registry_position(self, name):
        sc = parse_scenario(FAST_SCENARIO, KNOWN)
        ctx = CheckContext(scenario=sc, name=name)
        position = list(CHECKS).index(name)
        for salt in (0, 7, 997):
            expected = np.random.default_rng((sc.seed, position, salt)).random(4)
            assert np.array_equal(ctx.rng(salt).random(4), expected)


class TestListChecks:
    def test_inventory(self):
        listing = [(n, desc) for n, (_, desc) in CHECKS.items()]
        names = [n for n, _ in listing]
        assert len(names) >= 15
        assert "liftdeltal-identity" in names
        assert "freelift-grid-ladder" in names
        assert names == list(CHECKS)  # stable ordering
        for _, desc in listing:
            assert desc

    def test_every_scenario_check_is_registered(self):
        for name in bundled_scenario_names():
            sc = load_scenario(name, KNOWN)
            for entry in sc.checks:
                assert entry["name"] in CHECKS


def reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


class TestCheckErrors:
    # |X|^4 = 20^4 is over the flat-size cap
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

    def run(self, tmp_path, doc):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 1
        checks = json.loads(out.read_text(), parse_constant=reject_constant)["checks"]
        assert checks[0]["max_residual"] is None  # the error entry's inf, as strict JSON
        return checks

    def test_oversized_space_is_an_error_entry_without_traceback(self, tmp_path, capsys):
        checks = self.run(tmp_path, self.OVERSIZED)
        assert checks[0]["status"] == "error"
        assert checks[0]["details"]["error"].startswith("SizeCapExceeded: ")
        assert "flat-size cap" in checks[0]["details"]["error"]
        assert checks[1]["status"] == "pass"  # later checks still run
        assert "Traceback" not in capsys.readouterr().err

    def test_unexpected_exception_becomes_error_entry(self, tmp_path, capsys, monkeypatch):
        def broken(ctx):
            raise RuntimeError("planted fault")

        monkeypatch.setitem(CHECKS, "algebra-table", (broken, "raises"))
        checks = self.run(tmp_path, FAST_SCENARIO)
        assert checks[0]["status"] == "error"
        assert checks[0]["details"]["error"] == "RuntimeError: planted fault"
        assert checks[1]["status"] == "pass"  # later checks still run
        captured = capsys.readouterr()
        assert "Traceback" in captured.err and "Traceback" not in captured.out

    @pytest.mark.parametrize("evolution", [{"dt": 1e-6, "t1": 0.01}, {"dt": 1e-300, "t1": 1e-296}])
    @pytest.mark.parametrize("check", ["index-evolution", "symmetry-bracket-closure"])
    def test_index_flow_past_the_step_cap_is_an_error_entry(self, capsys, evolution, check):
        # each block validates at 10 000 steps, but the checks sample the
        # flow at 0.21 to 0.83, far more steps of dt from t0 than MAX_STEPS
        sc = parse_scenario(dict(FAST_SCENARIO, checks=[check], evolution=evolution), KNOWN)
        start = time.perf_counter()
        result = run_check(check, sc, {})
        assert time.perf_counter() - start < 0.5
        assert result.status == "error"
        assert result.details["error"].startswith("StepMismatch: ")
        assert "step-count cap" in result.details["error"]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name, tolerances, tol, expected", [
        ("algebra-table", {}, None, 1e-12),  # a single-bound check's default
        ("euler-identities", {}, None, 1.0),  # a composite check's default
        ("algebra-table", {"algebra-table": 0.5}, None, 0.5),
        ("algebra-table", {"algebra-table": 0.5}, 3.0, 3.0),
    ])
    def test_error_entry_reports_the_tolerance_in_force(self, monkeypatch, capsys,
                                                        name, tolerances, tol, expected):
        def broken(ctx):
            raise RuntimeError("planted fault")

        monkeypatch.setitem(CHECKS, name, (broken, "raises"))
        if tol is not None:  # --tol merged over the scenario's block, as main merges it
            tolerances = {**tolerances, name: tol}
        sc = parse_scenario(dict(FAST_SCENARIO, checks=[name], tolerances=tolerances), KNOWN)
        res = run_check(name, sc, {})
        assert (res.status, res.tolerance) == ("error", expected)


class TestScenarioSpaces:
    """The grid checks run on the space the scenario declares and report
    its grid in their details."""

    def test_details_report_the_scenario_grid(self, tmp_path):
        doc = dict(FAST_SCENARIO, space={"size": 6, "grid": True}, checks=[
            "lattice-shift-symmetry", "corollary2-pointsym", "freelift-grid-ladder",
            "corollary1-equivalence",
        ])
        scen = tmp_path / "grid6.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 0
        details = {c["name"]: c["details"] for c in json.loads(out.read_text())["checks"]}
        assert details["lattice-shift-symmetry"]["grid_size"] == 6
        assert details["corollary2-pointsym"]["grid_size"] == 6
        # the ladder refines the scenario's grid and judges the drift on its sites
        assert details["freelift-grid-ladder"]["grids"] == [6, 12, 24]
        assert details["freelift-grid-ladder"]["drift_sites"] == 6
        # the spin pair of corollary1 has a fixed space, which it names
        assert details["corollary1-equivalence"]["spin_space"] == {"size": 8, "factors": [2, 4]}

    def test_internal_dof_spin_space_is_the_scenario_space(self, monkeypatch):
        from sepsym import checks_lifts

        used = []
        spin_pair = checks_lifts._spin_pair
        monkeypatch.setattr(checks_lifts, "_spin_pair",
                            lambda space: used.append(space) or spin_pair(space))
        space = {"size": 12, "factors": [3, 4], "grid": True}
        sc = parse_scenario(dict(FAST_SCENARIO, space=space, checks=["internal-dof-demo"]), KNOWN)
        res = run_check("internal-dof-demo", sc, {})
        # the scenario's spin grid, then the same internal factor on twice the sites
        assert used == [sc.space, ConfigSpace(24, factors=(3, 8), grid=True)]
        assert res.details["grid_size"] == 4


class TestPremiseGrid:
    """Every check but liftdeltal-identity on spaces that lack some check's
    premise: a check that cannot use the space ends as a SpaceMismatch error
    entry, and nothing reaches stderr."""

    @pytest.mark.parametrize("space, errors", [
        ({"size": 1}, {"derivation-bracket", "corollary2-pointsym", "internal-dof-demo",
                       "freelift-grid-ladder"}),
        ({"size": 3}, {"corollary2-pointsym", "internal-dof-demo", "freelift-grid-ladder"}),
        ({"size": 8, "grid": True}, {"internal-dof-demo"}),
        ({"size": 8, "factors": [2, 4], "grid": True}, set()),
    ], ids=["size1", "size3", "grid8", "spin-grid4"])
    def test_premise_failures_are_error_entries(self, capsys, space, errors):
        names = [name for name in CHECKS if name != "liftdeltal-identity"]
        sc = parse_scenario(dict(FAST_SCENARIO, space=space, checks=names), KNOWN)
        checks = build_report(sc)["checks"]
        assert [c["name"] for c in checks] == names
        errored = {c["name"]: c["details"]["error"] for c in checks if c["status"] == "error"}
        assert set(errored) == errors
        assert all(error.startswith("SpaceMismatch: ") for error in errored.values()), errored
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("entry", [
        "liftdeltal-identity",
        {"name": "liftdeltal-identity"},
        {"name": "liftdeltal-identity", "params": {}},
    ])
    def test_bare_liftdeltal_exits_two(self, tmp_path, capsys, entry):
        # its pairs come only from the scenario
        scen = tmp_path / "bare.json"
        scen.write_text(json.dumps(dict(FAST_SCENARIO, checks=[entry])))
        assert main(["run", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert "scenario error" in err and "'pairs'" in err and "Traceback" not in err


class TestObstructionProvenance:
    def test_liftdeltal_pairs_carry_seed_batch_and_warnings(self, tmp_path):
        out = tmp_path / "report.json"
        seed = 2**31 + 5
        assert main(["run", "--scenario", "theorem10", "--seed", str(seed), "--out", str(out)]) == 0
        check = json.loads(out.read_text())["checks"][0]
        assert check["name"] == "liftdeltal-identity"
        pairs = check["details"]["pairs"]
        assert set(pairs) == {
            "rms-vs-shifted-n2", "rms-vs-shifted-n3", "rms-vs-cr0-n3",
            "cr0-vs-cr1-n3", "cr0-vs-cr1-n4",
        }
        for entry in pairs.values():
            n = entry["n"]
            assert entry["seed"] == 5 + n  # the seed drawn, seed % 2**31 + n
            assert entry["batch_size"] == (16 if n <= 3 else 6)
            assert entry["warnings"] == []


class TestEulerRatioAtRoundOff:
    def test_scale_invariant_cases_report_no_ratio(self, tmp_path):
        # at --seed 2 the cross-ratio r1 / r2 is a ratio of two round-off
        # residuals; a last-ulp change of the log once moved it 0.354 -> 0.636
        out = tmp_path / "report.json"
        assert main(["run", "--scenario", "algebra", "--seed", "2", "--out", str(out)]) == 0
        check = next(c for c in json.loads(out.read_text())["checks"]
                     if c["name"] == "euler-identities")
        assert check["status"] == "pass"
        cases = check["details"]["cases"]
        for name in ("cross-ratio", "rms-log-modulus"):
            assert cases[name]["fd_euler_ratio"] is None
            assert cases[name]["fd_euler_residual"] <= 1e-11
        for name in ("lambda", "log-modulus"):
            assert 3.5 <= cases[name]["fd_euler_ratio"] <= 4.5


class TestEulerBranchCut:
    """euler-identities draws phi with |arg| <= pi/6, so its stencils stay
    off the principal log's cut; uncapped, a stencil straddles it at seed
    122 (a cross ratio) and at seed 203 (Lambda's phi)."""

    @pytest.mark.parametrize("seed", [122, 203])
    def test_passes(self, seed):
        sc = replace(load_scenario("algebra", KNOWN), seed=seed)
        result = run_check("euler-identities", sc, {})
        assert result.status == "pass", result.details["criteria"]

    @pytest.mark.parametrize("seed, criterion", [
        (122, "cross-ratio.fd_derivative_ratio"),
        (203, "lambda.fd_euler_ratio"),
    ])
    def test_uncapped_draw_fails(self, monkeypatch, seed, criterion):
        from sepsym import checks_algebra

        def uncapped(sizes, space, seeds, **kwargs):
            return random_batch(sizes, space, seeds)

        monkeypatch.setattr(checks_algebra, "random_batch", uncapped)
        sc = replace(load_scenario("algebra", KNOWN), seed=seed)
        result = run_check("euler-identities", sc, {})
        assert result.status == "fail"
        assert result.details["criteria"][criterion]["defect"] > 1


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
        {"t1": float("inf")}, "abc", {"t0": 1.0, "t1": 0.0}, {"dt": 0.3},
        {"dt": 1e-300, "t1": 1e300}, {"dt": 1e-9},
    ])
    def test_bad_evolution(self, tmp_path, capsys, evolution):
        err = self.run_main(tmp_path, capsys, dict(self.EVOLVING, evolution=evolution))
        assert "evolution" in err

    def test_negative_factors(self, tmp_path, capsys):
        # (-1) * (-3) is the size, but a factor below 1 is no set of sites
        err = self.run_main(tmp_path, capsys,
                            dict(FAST_SCENARIO, space={"size": 3, "factors": [-1, -3]}))
        assert "factor sizes must be positive" in err

    @pytest.mark.parametrize("symmetry", [
        {"eta": {"profile": "bogus"}},
        {"xi": {"profile": "sine", "amplitude": "big"}},
        {"eta": "sine"},
        {"gamma": "abc"},
        {"tau": [0.0, 1.0]},
        {"tau": {"alpha": "fast"}},
        "abc",
        0,
        [],
    ])
    def test_bad_symmetry(self, tmp_path, capsys, symmetry):
        err = self.run_main(tmp_path, capsys, dict(self.POINT_SYM, symmetry=symmetry))
        assert "symmetry" in err

    @pytest.mark.parametrize("symmetry, where, allowed", [
        ({"gamma": 0.4}, "symmetry", "['eta', 'xi']"),
        ({"tau": {"alpha": 1, "beta": 0.5}}, "symmetry", "['eta', 'xi']"),
        ({"etaa": {"profile": "sine"}}, "symmetry", "['eta', 'xi']"),
        ({"eta": {"profile": "sine", "amplitud": 0.5}}, "symmetry.eta",
         "['amplitude', 'offset', 'phase', 'profile']"),
    ], ids=["gamma", "tau", "etaa", "amplitud"])
    def test_unknown_symmetry_key(self, tmp_path, capsys, symmetry, where, allowed):
        # a key nothing reads is an error, not a silent default
        err = self.run_main(tmp_path, capsys, dict(self.POINT_SYM, symmetry=symmetry))
        assert f"{where}: unknown keys" in err and allowed in err

    @pytest.mark.parametrize("doc, where, allowed", [
        (dict(EVOLVING, tolerence={"index-evolution": 1e-3}), "bad.json",
         "'symmetry', 'tolerances'"),
        (dict(EVOLVING, space={"size": 3, "grids": [8, 16]}), "space",
         "['factors', 'grid', 'size']"),
        (dict(EVOLVING, evolution={"dt": 0.01, "steps": 100}), "evolution",
         "['dt', 't0', 't1']"),
    ], ids=["tolerence", "space.grids", "evolution.steps"])
    def test_unknown_block_key(self, tmp_path, capsys, doc, where, allowed):
        # a misspelt key would otherwise run the check at its defaults
        err = self.run_main(tmp_path, capsys, doc)
        assert f"{where}: unknown keys" in err and allowed in err

    @pytest.mark.parametrize("spec, allowed", [
        ({"kind": "rms-log-modulus", "coef": 0.9}, "['coeff', 'kind']"),
        ({"kind": "log-modulus", "coupling": 0.5}, "['coeff', 'kind']"),
        ({"kind": "cross-ratio", "refs": [0, 1], "shift": 1}, "['coupling', 'kind', 'refs']"),
    ], ids=["coef", "coupling-on-log-modulus", "shift-on-cross-ratio"])
    def test_unknown_generator_key(self, tmp_path, capsys, spec, allowed):
        # a key the kind does not read would otherwise build it at its defaults
        err = self.run_main(tmp_path, capsys, dict(FAST_SCENARIO, generators={"g": spec}))
        assert "generators.g: unknown keys" in err and allowed in err

    @pytest.mark.parametrize("hbar", ["-1", "0", "nan", "inf"])
    def test_bad_hbar_flag(self, tmp_path, capsys, hbar):
        err = self.run_main(tmp_path, capsys, FAST_SCENARIO, f"--hbar={hbar}")
        assert "--hbar" in err

    @pytest.mark.parametrize("doc, flags", [
        (dict(EVOLVING, evolution={"dt": 1e-300, "t1": 1e-296}), ["--hbar=1e300"]),
        (dict(EVOLVING, evolution={"dt": 1e9, "t1": 1e10}), ["--hbar=1e-300"]),
        (dict(EVOLVING, hbar=1e300, evolution={"dt": 1e-300, "t1": 1e-296}), []),
    ], ids=["dt-underflows-flag", "horizon-overflows-flag", "dt-underflows-key"])
    def test_evolution_block_at_the_runs_hbar(self, tmp_path, capsys, doc, flags):
        # the block is absolute time, so it is validated in units of the hbar
        # the run uses, after any override
        err = self.run_main(tmp_path, capsys, doc, *flags)
        assert "evolution at hbar=" in err

    def test_negative_seed(self, tmp_path, capsys):
        # every seeded draw needs a non-negative seed, so one is refused at load
        err = self.run_main(tmp_path, capsys, dict(FAST_SCENARIO, seed=-5))
        assert "non-negative integer" in err

    def test_negative_seed_flag(self, tmp_path, capsys):
        err = self.run_main(tmp_path, capsys, FAST_SCENARIO, "--seed=-1")
        assert "--seed must be a non-negative integer" in err

    GENERATORS = {"rms": {"kind": "rms-log-modulus"}, "cr0": {"kind": "cross-ratio"}}

    @pytest.mark.parametrize("check, params", [
        # knobs that only set how much evidence is gathered or how tight a bound is
        ("mixed-power-identities", {"samples": 0}),
        ("matrix-rep-homomorphism", {"pairs": 0}),
        ("algebra-brackets", {"triples": 1}),
        ("derivation-bracket", {"states": 1}),
        ("symmetry-bracket-closure", {"bound": 1e9}),
        ("separation-evolution", {"dts": "abc"}),
        ("separation-evolution", {"pairs": 1}),
        ("scaling-indices", {"dts": [0.02]}),
        ("internal-dof-demo", {"batch": 0}),
        ("freelift-grid-ladder", {"batch": 4}),
        ("algebra-table", {"nonsense": 1}),
        ("algebra-table", 5),
        # the grid comes from the scenario's space, not from a parameter
        ("lattice-shift-symmetry", {"grid_size": 8}),
        ("corollary2-pointsym", {"grid_size": 8}),
        ("corollary1-equivalence", {"grid_size": 4}),
        ("internal-dof-demo", {"grid_size": 8}),
        ("freelift-grid-ladder", {"grids": [8, 16, 32]}),
        ("liftdeltal-identity", {"pairs": None}),
        ("liftdeltal-identity", {"pairs": 0}),
        ("liftdeltal-identity", {"pairs": []}),
        ("liftdeltal-identity", {"pairs": [["rms", "nope", [3]]]}),
        ("liftdeltal-identity", {"pairs": [["rms", "cr0"]]}),
        ("liftdeltal-identity", {"pairs": [["rms", "cr0", []]]}),
        ("liftdeltal-identity", {"pairs": [["rms", "cr0", [3.0]]]}),
        ("liftdeltal-identity", {"pairs": [["rms", "cr0", [2]]]}),
        ("liftdeltal-identity", {"pairs": [["rms", "cr0", [5]]]}),
        ("liftdeltal-identity", {"pairs": [["cr0", "rms", [3]]]}),
    ])
    def test_bad_check_params(self, tmp_path, capsys, check, params):
        doc = dict(FAST_SCENARIO, generators=self.GENERATORS,
                   checks=[{"name": check, "params": params}])
        err = self.run_main(tmp_path, capsys, doc)
        assert "params" in err

    def test_unknown_check_entry_key(self, tmp_path, capsys):
        doc = dict(FAST_SCENARIO, checks=[{"name": "algebra-table", "parms": {}}])
        assert "checks[0]" in self.run_main(tmp_path, capsys, doc)

    @pytest.mark.parametrize("tolerances", [
        [1], {"algebra-table": True}, {"nocheck": 1}, {"algebra-table": float("nan")},
        {"algebra-table": 0}, {"algebra-table": -1e-3}, {"algebra-table": "1e-3"},
    ])
    def test_bad_tolerances(self, tmp_path, capsys, tolerances):
        err = self.run_main(tmp_path, capsys, dict(FAST_SCENARIO, tolerances=tolerances))
        assert "tolerances" in err

    @pytest.mark.parametrize("generators", [
        [1],
        {"g": 1},
        {"g": {"kind": "wat"}},
        {"g": {"kind": "shifted-log-modulus", "shift": "x"}},
        {"g": {"kind": "cross-ratio", "refs": [0]}},
        {"g": {"kind": "linear"}},  # a linear generator gives its matrix
        {"g": {"kind": "linear", "matrix": [[1, 2], [3]]}},
        {"g": {"kind": "linear", "matrix": [[1, 0], [0, 1]]}},  # the space has 3 sites
        {"g": {"kind": "spin-rotation"}},  # needs a factored space
        {"g": {"kind": "log-modulus", "coeff": True}},
        {"g": {"kind": "rms-log-modulus", "coeff": float("nan")}},
        {"g": {"kind": "lambda", "a": [1, float("inf")]}},
        {"g": {"kind": "non-separating", "coupling": [True, 0]}},
        {"g": {"kind": "shifted-log-modulus", "shift": 2.7}},
        {"g": {"kind": "shifted-log-modulus", "shift": True}},
        {"g": {"kind": "cross-ratio", "refs": [0.5, 0]}},
        {"g": {"kind": "cross-ratio", "refs": [True, 0]}},
    ])
    def test_bad_generators(self, tmp_path, capsys, generators):
        # an unused generator still fails at load, not inside a later check
        err = self.run_main(tmp_path, capsys, dict(FAST_SCENARIO, generators=generators))
        assert "generators" in err

    @pytest.mark.parametrize("tol", [
        "algebra-table=nan", "algebra-table=inf", "algebra-table=0", "algebra-table=-1",
        "algebra-table=abc", "nocheck=1", "algebra-table",
    ])
    def test_bad_tol_flag(self, tmp_path, capsys, tol):
        err = self.run_main(tmp_path, capsys, FAST_SCENARIO, "--tol", tol)
        assert "--tol" in err

    def test_declared_params_load(self):
        doc = dict(FAST_SCENARIO, generators=self.GENERATORS, checks=[
            {"name": "liftdeltal-identity", "params": {"pairs": [["rms", "cr0", [3, 4]]]}},
            {"name": "liftdeltal-identity", "params": {"pairs": [["rms", "rms", [2]]]}},
            {"name": "freelift-grid-ladder", "params": {}},
        ], tolerances={"algebra-table": 1, "liftdeltal-identity": 2.5})
        sc = parse_scenario(doc, KNOWN)
        assert [c["params"] for c in sc.checks] == [c["params"] for c in doc["checks"]]
        assert sc.tolerances == {"algebra-table": 1.0, "liftdeltal-identity": 2.5}

    def test_good_values_still_load(self):
        doc = dict(self.POINT_SYM, hbar=2, evolution={"dt": 0.01, "t0": 0, "t1": 1},
                   symmetry={"eta": {"profile": "sine", "amplitude": 0.5},
                             "xi": {"profile": "linear", "offset": 0.2, "phase": 1}})
        sc = parse_scenario(doc, KNOWN)
        assert sc.hbar == 2.0
        assert sc.evolution == {"dt": 0.01, "t0": 0.0, "t1": 1.0}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)
# theorem10's generators: rms and shifted have threshold 1, cr0 and cr1 threshold 2
THEOREM10_GENERATORS = json.loads(
    (Path(sepsym.__file__).parent / "scenarios" / "theorem10.json").read_text()
)["generators"]
PAIR_ENTRIES = st.tuples(
    st.sampled_from([*THEOREM10_GENERATORS, "nope"]),
    st.sampled_from([*THEOREM10_GENERATORS, "nope"]),
    st.lists(st.integers(1, 5), min_size=1, max_size=3) | JSON_VALUES,
).map(list)
PARAM_VALUES = {
    "pairs": st.lists(PAIR_ENTRIES, max_size=3) | JSON_VALUES,
}
PARAMETRISED = [name for name in CHECKS if check_parameters(name)]
NUMBERS = st.floats() | st.integers(-5, 5) | st.lists(st.floats(), min_size=2, max_size=2)
GENERATOR_FIELDS = {
    "coeff": NUMBERS | JSON_VALUES,
    "coupling": NUMBERS | JSON_VALUES,
    "shift": st.integers(-5, 5) | NUMBERS | JSON_VALUES,
    "refs": st.lists(st.integers(-2, 4) | NUMBERS, max_size=3) | JSON_VALUES,
}


@st.composite
def fuzzed_generators(draw):
    """theorem10's generators with some number fields, their own or not,
    set to drawn values."""
    generators = {}
    for name, spec in THEOREM10_GENERATORS.items():
        fields = draw(st.lists(st.sampled_from(sorted(GENERATOR_FIELDS)), max_size=2))
        generators[name] = {**spec, **{key: draw(GENERATOR_FIELDS[key]) for key in fields}}
    return generators


# magnitudes from 1e-300 to 1e300 of either sign: a horizon over a step
# size can overflow, and a product of factors can hide their signs
WIDE = st.integers(-300, 300).map(lambda e: 10.0 ** e) | st.floats(-1e300, 1e300)
BLOCK_NUMBERS = WIDE | JSON_VALUES


def sometimes_unknown_key(draw, block):
    """``block``, about one time in ten with a key that no block allows."""
    if draw(st.integers(0, 9)) == 9:
        block["unknown"] = draw(JSON_VALUES)
    return block


@st.composite
def fuzzed_space(draw):
    factors = draw(st.none() | st.lists(st.integers(-4, 6), min_size=1, max_size=3)
                   | JSON_VALUES)
    integers = isinstance(factors, list) and all(type(f) is int for f in factors)
    # half the time the factors' own product, so that only their signs can fail
    space = {"size": math.prod(factors) if integers and draw(st.booleans())
             else draw(st.integers(-3, 12) | BLOCK_NUMBERS)}
    if factors is not None:
        space["factors"] = factors
    if draw(st.booleans()):
        space["grid"] = draw(st.booleans() | JSON_VALUES)
    return sometimes_unknown_key(draw, space)


@st.composite
def fuzzed_evolution(draw):
    keys = draw(st.lists(st.sampled_from(scenario.EVOLUTION_KEYS), unique=True))
    return sometimes_unknown_key(draw, {key: draw(BLOCK_NUMBERS) for key in keys})


@st.composite
def fuzzed_profile(draw):
    profile = {"profile": draw(st.sampled_from(["constant", "linear", "sine", "bogus"])
                               | JSON_VALUES)}
    for key in draw(st.lists(st.sampled_from(scenario.PROFILE_KEYS[1:]), unique=True)):
        profile[key] = draw(BLOCK_NUMBERS)
    return sometimes_unknown_key(draw, profile)


@st.composite
def fuzzed_symmetry(draw):
    keys = draw(st.lists(st.sampled_from(scenario.SYMMETRY_KEYS), unique=True))
    return sometimes_unknown_key(draw, {key: draw(fuzzed_profile() | JSON_VALUES)
                                        for key in keys})


@st.composite
def fuzzed_checks(draw):
    """Check entries, tolerances and generators with drawn values."""
    checks = []
    for name in draw(st.lists(st.sampled_from(PARAMETRISED) | st.sampled_from(sorted(CHECKS)),
                              min_size=1, max_size=3)):
        params = {key: draw(PARAM_VALUES[key]) for key in check_parameters(name)
                  if draw(st.booleans())}
        # about one entry in ten gets an undeclared key, one in ten a non-object
        if draw(st.integers(0, 9)) == 9:
            params["batch"] = draw(JSON_VALUES)
        checks.append({"name": name,
                       "params": draw(JSON_VALUES) if draw(st.integers(0, 9)) == 9 else params})
    tolerances = draw(st.dictionaries(
        st.sampled_from(["algebra-table", "liftdeltal-identity", "nocheck"]),
        st.floats(1e-12, 10.0) | JSON_VALUES, max_size=2,
    ) | JSON_VALUES)
    return {"generators": draw(fuzzed_generators()), "checks": checks, "tolerances": tolerances}


BLOCKS = {
    "space": fuzzed_space(),
    "evolution": fuzzed_evolution(),
    "hbar": BLOCK_NUMBERS,
    "symmetry": fuzzed_symmetry(),
}


@st.composite
def fuzzed_scenarios(draw, block):
    """A valid scenario with one block drawn: one of ``BLOCKS``, one in ten
    of them not an object; ``checks``, the check entries with tolerances
    and generators; or ``unknown``, a top-level key that no scenario has."""
    doc = {"name": "fuzz", "seed": 1, "space": {"size": 3}, "checks": ["algebra-table"]}
    if block == "checks":
        doc.update(draw(fuzzed_checks()))
    elif block == "unknown":
        key = draw(st.text(max_size=4).filter(lambda key: key not in scenario.TOP_LEVEL_KEYS))
        doc[key] = draw(JSON_VALUES)
    else:
        doc[block] = draw(JSON_VALUES if draw(st.integers(0, 9)) == 9 else BLOCKS[block])
    return doc


def fuzz_block(block, *examples):
    """A test that parses 200 scenarios, each with ``block`` drawn and the
    rest valid, and the ``examples`` besides."""
    def test(self, doc):
        try:
            sc = parse_scenario(doc, KNOWN)
        except ScenarioError:
            return
        assert block != "unknown"
        for entry in sc.checks:
            assert set(entry["params"]) == set(check_parameters(entry["name"]))
        assert all(math.isfinite(t) and t > 0 for t in sc.tolerances.values())
        assert min(sc.space.factors or (sc.space.size,)) >= 1
        assert math.isfinite(sc.hbar) and sc.hbar > 0
        assert scenario.evolution_config(sc.evolution, sc.hbar).n_steps() >= 1

    for doc in examples:
        test = example(doc)(test)
    return settings(max_examples=200, derandomize=True, deadline=None)(
        given(fuzzed_scenarios(block))(test))


class TestParseScenarioFuzz:
    """Any value in any block, and an unknown key in any block, gives a
    Scenario or a ScenarioError, never another exception.  Each test draws
    one block, so every block gets the whole budget."""

    # the two defects the wider draws reach, kept as examples: factors whose
    # product hides their signs, and a step count that overflows round()
    test_space = fuzz_block("space", dict(FAST_SCENARIO, space={"size": 3, "factors": [-1, -3]}))
    test_evolution = fuzz_block("evolution",
                                dict(FAST_SCENARIO, evolution={"dt": 1e-300, "t1": 1e300}))
    test_hbar = fuzz_block("hbar", dict(FAST_SCENARIO, hbar=1e300,
                                        evolution={"dt": 1e-300, "t1": 1e-296}))
    test_symmetry = fuzz_block("symmetry")
    test_checks = fuzz_block("checks")
    test_unknown_key = fuzz_block("unknown")


class TestAllowedKeyDocs:
    """The schema doc's `generators` table and its "Allowed keys" table
    name exactly the keys the parser accepts."""

    DOC = (Path(__file__).resolve().parents[1] / "docs" / "scenario-schema.md").read_text()

    def rows(self, heading):
        """(first cell, backticked keys of the second) of each body row of
        the table under ``heading``."""
        section = self.DOC.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
        table = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("|")]
        for cells in table[2:]:  # below the header and its rule
            yield cells[0].strip(), set(re.findall(r"`(\w+)`", cells[1]))

    def test_generator_table_matches_parser(self):
        table = {kind.strip("`"): keys | {"kind"} for kind, keys in self.rows("`generators`")}
        assert table == {kind: set(keys) for kind, (keys, _) in scenario.GENERATOR_KINDS.items()}

    def test_allowed_keys_table_matches_parser(self):
        table = dict(self.rows("Allowed keys"))
        every_generator_key = set().union(*(keys for keys, _ in scenario.GENERATOR_KINDS.values()))
        assert table == {
            "top level": set(scenario.TOP_LEVEL_KEYS),
            "`space`": set(scenario.SPACE_KEYS),
            "`evolution`": set(scenario.EVOLUTION_KEYS),
            "`symmetry`": set(scenario.SYMMETRY_KEYS),
            "`symmetry.eta`, `symmetry.xi`": set(scenario.PROFILE_KEYS),
            "each spec of `generators`": every_generator_key,
        }


class TestParameterDocs:
    """The schema doc's parameter table and ``list-checks`` name exactly
    the parameters the check signatures require."""

    REQUIRED = {(name, key) for name in CHECKS for key in check_parameters(name)}

    def test_schema_table_matches_signatures(self):
        doc = (Path(__file__).resolve().parents[1] / "docs" / "scenario-schema.md").read_text()
        section = doc.split("## Check parameters", 1)[1].split("\n## ", 1)[0]
        rows = {tuple(cell.strip().strip("`") for cell in line.strip("|").split("|"))
                for line in section.splitlines() if line.startswith("| `")}
        assert {(check, key) for check, key, _, _ in rows} == self.REQUIRED

    def test_list_checks_matches_signatures(self, capsys):
        assert main(["list-checks"]) == 0
        listed = set()
        for line in capsys.readouterr().out.splitlines():
            if line.endswith("]"):
                params = line.rsplit(" [required: ", 1)[1][:-1]
                listed |= {(line.split()[0], key) for key in params.split(", ")}
        assert listed == self.REQUIRED


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
        one = json.dumps(build_report(sc), sort_keys=True)
        two = json.dumps(build_report(sc), sort_keys=True)
        assert one == two

    def test_seed_changes_details_not_structure(self):
        sc = load_scenario("algebra", KNOWN)
        rep = build_report(sc)
        names = [c["name"] for c in rep["checks"]]
        assert names == [c["name"] for c in sc.checks]
