"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints a single PASS/FAIL line (run pytest with -s to see
them all); the assertions pin the raw residuals, not the normalised
composite defects.
"""

import json
from pathlib import Path

from sepsym.checks import CHECKS, run_check
from sepsym.cli import build_report, report_text
from sepsym.scenario import bundled_scenario_names, load_scenario

KNOWN = set(CHECKS)
MANIFEST = Path(__file__).with_name("bounds_manifest.json")
_cache: dict[tuple[str, str], object] = {}
_reports: dict[str, str] = {}


def scenario_check(scenario_name: str, check_name: str):
    key = (scenario_name, check_name)
    if key not in _cache:
        sc = load_scenario(scenario_name, KNOWN)
        entry = next(e for e in sc.checks if e["name"] == check_name)
        _cache[key] = run_check(check_name, sc, entry.get("params", {}))
    return _cache[key]


def bundled_report(scenario_name: str) -> str:
    """The bundled scenario's report as the command line writes it, built
    once for every test that reads it."""
    if scenario_name not in _reports:
        sc = load_scenario(scenario_name, KNOWN)
        _reports[scenario_name] = report_text(build_report(sc))
    return _reports[scenario_name]


def report(criterion: str, ok: bool, summary: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, summary


def test_criterion_01_mixed_power_algebra_exact():
    table = scenario_check("algebra", "algebra-table")
    brackets = scenario_check("algebra", "algebra-brackets")
    matrices = scenario_check("algebra", "matrix-rep-homomorphism")
    worst = max(table.max_residual, brackets.max_residual, matrices.max_residual)
    ok = (
        worst <= 1e-12
        and table.details["group_closure"]
        and matrices.details["pairs"] >= 1000
    )
    report("1", ok, f"64 generator products, sl(2,R) brackets, 1000 matrix pairs; "
                    f"max error {worst:.2e} <= 1e-12")


def test_criterion_02_euler_identities():
    res = scenario_check("algebra", "euler-identities")
    cases = res.details["cases"]
    closed = max(c["closed_residual"] for c in cases.values())
    ratios = {
        name: c["fd_derivative_ratio"] for name, c in cases.items()
    }
    euler_ratios_ok = all(
        3.5 <= c["fd_euler_ratio"] <= 4.5
        for name, c in cases.items()
        if c["fd_euler_residual"] > 1e-11  # strictly homogeneous cases are exact
    )
    ok = (
        set(cases) >= {"lambda", "log-modulus", "cross-ratio"}
        and closed <= 1e-10
        and euler_ratios_ok
        and all(3.5 <= r <= 4.5 for r in ratios.values())
    )
    report("2", ok, f"closed-form residual {closed:.2e} <= 1e-10; "
                    f"finite-difference Richardson ratios in [3.5, 4.5]")


def test_criterion_03_bracket_of_derivations():
    res = scenario_check("derivation-bracket", "derivation-bracket")
    leibniz, index = (res.details["criteria"][label]["value"]
                      for label in ("leibniz_residual", "index_error"))
    ok = leibniz <= 1e-8 and index <= 1e-6
    report("3", ok, f"bracket Leibniz residual {leibniz:.2e} <= 1e-8 "
                    f"on 16 seeded product states; index bracket error "
                    f"{index:.2e} <= 1e-6")


def test_criterion_04_canonical_decomposition():
    res = scenario_check(
        "canonical-decomposition-roundtrip", "canonical-decomposition-roundtrip"
    )
    ok = res.status == "pass" and res.max_residual <= 1e-8
    report("4", ok, f"threshold-1 and threshold-2 generators recovered and "
                    f"idempotent to {res.max_residual:.2e} <= 1e-8")


def test_criterion_05_obstruction_identity():
    res = scenario_check("theorem10", "liftdeltal-identity")
    pairs = res.details["pairs"]
    worst = max(p["identity_residual"] for p in pairs.values())
    covered = {(p["ell"], p["m"], p["n"]) for p in pairs.values()}
    linear = scenario_check("theorem10", "real-linear-degeneration")
    ok = (
        worst <= 1e-8
        and {(1, 1, 2), (1, 1, 3), (1, 2, 3), (2, 2, 3), (2, 2, 4)} <= covered
        and linear.max_residual <= 1e-10
    )
    report("5", ok, f"lift-bracket identity residual {worst:.2e} <= 1e-8 over "
                    f"(1,1), (1,2), (2,2) pairs; real-linear obstruction "
                    f"{linear.max_residual:.2e} <= 1e-10")


def test_criterion_06_corollary1_equivalence():
    res = scenario_check("corollary1", "corollary1-equivalence")
    two, lifted, spin_two, spin_lifted = (
        res.details["criteria"][f"{pair}.{side}"]["value"]
        for pair in ("vanishing_pair", "spin_pair") for side in ("two_particle", "lifted_n3")
    )
    ok = two <= 1e-8 and lifted <= 1e-7 and spin_two > 1e-3 and spin_lifted > 1e-3
    report("6", ok, f"vanishing pair: {two:.2e} / {lifted:.2e}; spin pair: "
                    f"{spin_two:.3f} / {spin_lifted:.3f} > 1e-3")


def test_criterion_07_point_symmetry_freelift():
    res = scenario_check("freelift-grid-ladder", "freelift-grid-ladder")
    d = res.details
    exact = max(max(d["c1"]["phase"]), max(d["c1"]["mult"]),
                max(d["c2"]["phase"]), max(d["c2"]["mult"]))
    ratios = d["c1"]["drift_ratios"] + d["c2"]["drift_ratios"]
    shift = scenario_check("freelift-grid-ladder", "lattice-shift-symmetry")
    ok = (
        exact <= 1e-10
        and all(3.0 <= r <= 5.0 for r in ratios)
        and d["grids"] == [8, 16, 32]
        and shift.max_residual <= 1e-12
    )
    report("7", ok, f"phase/mult parts {exact:.2e} <= 1e-10 exactly; derivative "
                    f"ladder ratios {['%.2f' % r for r in ratios]} in [3, 5]; "
                    f"lattice-shift commutation {shift.max_residual:.2e} <= 1e-12")


def test_criterion_08_separation_of_evolutions():
    res = scenario_check("separation-evolution", "separation-evolution")
    ratios, plateau = (res.details["criteria"][label]["value"] for label in ("ratios", "plateau"))
    ok = all(12.0 <= r <= 20.0 for r in ratios) and min(plateau) > 1e-2
    report("8", ok, f"separation residual dt-halving ratios "
                    f"{['%.1f' % r for r in ratios]} in [12, 20]; "
                    f"non-separating plateau {min(plateau):.3f} > 1e-2")


def test_criterion_09_index_ode_consistency():
    res = scenario_check("scaling-indices", "scaling-indices")
    ratios, closed, extraction_ratio = (res.details["criteria"][label]["value"] for label in
                                        ("ratios", "closed_form_error", "extraction_ratio"))
    ok = (
        all(12.0 <= r <= 20.0 for r in ratios)
        and closed <= 1e-8
        and res.details["extraction_errors"][1] <= 1e-4
        and 3.0 <= extraction_ratio <= 5.0
    )
    report("9", ok, f"scaling residual ratios {['%.1f' % r for r in ratios]}; "
                    f"closed form error {closed:.2e}; index "
                    f"extraction O(dt^2) with ratio {extraction_ratio:.2f}")


def reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def test_criterion_10_deterministic_reports():
    # each report as the command line writes it, parsed as strict JSON
    mismatched = []
    for name in bundled_scenario_names():
        first = bundled_report(name)
        second = report_text(build_report(load_scenario(name, KNOWN)))
        if first != second:
            mismatched.append(name)
        doc = json.loads(first, parse_constant=reject_constant)
        if not all(c["status"] == "pass" for c in doc["checks"]):
            mismatched.append(f"{name} (failing check)")
    ok = not mismatched
    report("10", ok, "all bundled scenarios pass and reproduce byte-identical "
                     f"strict-JSON reports (issues: {mismatched or 'none'})")


def bounds_manifest() -> dict:
    """``scenario/check`` -> its tolerance and ``scenario/check/label`` ->
    each criterion's limit, as ``{kind: limit}``, read from the bundled
    reports at their bundled seeds."""
    manifest: dict = {}
    for name in bundled_scenario_names():
        for check in json.loads(bundled_report(name))["checks"]:
            key = f"{name}/{check['name']}"
            manifest[key] = {"tolerance": check["tolerance"]}
            for label, criterion in check["details"].get("criteria", {}).items():
                manifest[f"{key}/{label}"] = {kind: limit for kind, limit in criterion.items()
                                               if kind not in ("value", "defect")}
    return manifest


def test_bounds_manifest():
    # every tolerance, band, floor and bound that a bundled report is judged
    # by is pinned in a checked-in file, one entry a line, so moving one
    # shows up in the diff of that file
    assert bounds_manifest() == json.loads(MANIFEST.read_text())
