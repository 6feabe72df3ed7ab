"""Command-line front end: run scenario files, list checks.

Exit codes: 0 all checks passed, 1 at least one check failed or errored,
2 the scenario could not be loaded or validated.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import __version__
from .checks import CHECKS, list_checks, run_check
from .errors import ScenarioError
from .scenario import bundled_scenario_names, finite_number, load_scenario


def _parse_tol_overrides(entries) -> dict[str, float]:
    out: dict[str, float] = {}
    for entry in entries or []:
        if "=" not in entry:
            raise ScenarioError(f"--tol expects NAME=VALUE, got {entry!r}")
        name, _, value = entry.partition("=")
        if name not in CHECKS:
            raise ScenarioError(f"--tol references unknown check {name!r}")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise ScenarioError(f"--tol {entry!r}: {exc}") from exc
    return out


def build_report(scenario: Scenario, tol_overrides: dict[str, float]) -> dict:
    results = []
    for entry in scenario.checks:
        name = entry["name"]
        res = run_check(
            name, scenario, entry.get("params", {}), tol_overrides.get(name)
        )
        results.append(res.to_json_dict())
    return {
        "schema": 1,
        "scenario": scenario.name,
        "seed": scenario.seed,
        "hbar": scenario.hbar,
        "tool_version": __version__,
        "checks": results,
    }


def _print_table(report: dict) -> None:
    width = max(len(c["name"]) for c in report["checks"])
    print(f"scenario {report['scenario']}  seed={report['seed']}  hbar={report['hbar']}")
    for c in report["checks"]:
        print(
            f"  {c['name']:<{width}}  {c['status']:<5}"
            f"  residual={c['max_residual']:.3e}  tol={c['tolerance']:.3e}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sepsym",
        description="Verification laboratory for separating non-linear evolution hierarchies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario and emit a report")
    runp.add_argument("--scenario", required=True,
                      help="path to a scenario JSON file or a bundled scenario name")
    runp.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    runp.add_argument("--out", default=None, help="write the JSON report here")
    runp.add_argument("--tol", action="append", metavar="NAME=VALUE",
                      help="override a check tolerance (repeatable)")
    runp.add_argument("--hbar", type=float, default=None, help="override hbar")
    sub.add_parser("list-checks", help="list every check with what it verifies")
    sub.add_parser("list-scenarios", help="list the bundled scenarios")
    args = parser.parse_args(argv)

    if args.command == "list-checks":
        for name, desc in list_checks():
            print(f"{name:<36} {desc}")
        return 0
    if args.command == "list-scenarios":
        for name in bundled_scenario_names():
            print(name)
        return 0

    try:
        scenario = load_scenario(args.scenario, set(CHECKS))
        overrides = _parse_tol_overrides(args.tol)
        if args.hbar is not None:
            scenario = replace(scenario, hbar=finite_number(args.hbar, "--hbar", positive=True))
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    report = build_report(scenario, overrides)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    _print_table(report)
    return 0 if all(c["status"] == "pass" for c in report["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
