"""Command-line front end: run scenario files, list checks.

Exit codes: 0 all checks passed, 1 at least one check failed or errored,
2 the scenario could not be loaded or validated.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import __version__
from . import obstruction  # noqa: F401  perfbench's tracer looks it up after importing cli
from .checks import CHECKS, check_parameters, run_check
from .errors import ScenarioError
from .scenario import (Scenario, bundled_scenario_names, evolution_config, finite_number,
                       load_scenario, seed_value, tolerance_map)


def _parse_tol_overrides(entries) -> dict[str, float]:
    out: dict[str, float] = {}
    for entry in entries or []:
        name, sep, value = entry.partition("=")
        if not sep:
            raise ScenarioError(f"--tol expects NAME=VALUE, got {entry!r}")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise ScenarioError(f"--tol {entry!r}: {exc}") from exc
    return tolerance_map(out, set(CHECKS), "--tol")


def build_report(scenario: Scenario) -> dict:
    results = [run_check(entry["name"], scenario, entry["params"]).to_json_dict()
               for entry in scenario.checks]
    return {
        "schema": 1,
        "scenario": scenario.name,
        "seed": scenario.seed,
        "hbar": scenario.hbar,
        "tool_version": __version__,
        "checks": results,
    }


def _finite_or_null(value):
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def report_text(report: dict) -> str:
    """The report as strict JSON text (RFC 8259): sorted keys, two-space
    indent, every non-finite float written as ``null``."""
    return json.dumps(_finite_or_null(report), sort_keys=True, indent=2, allow_nan=False) + "\n"


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
    sub.add_parser("list-checks",
                   help="list every check, what it verifies and its required parameters")
    sub.add_parser("list-scenarios", help="list the bundled scenarios")
    args = parser.parse_args(argv)

    if args.command == "list-checks":
        for name, (_, desc) in CHECKS.items():
            params = ", ".join(check_parameters(name))
            print(f"{name:<36} {desc}" + (f" [required: {params}]" if params else ""))
        return 0
    if args.command == "list-scenarios":
        for name in bundled_scenario_names():
            print(name)
        return 0

    try:
        scenario = load_scenario(args.scenario, set(CHECKS))
        scenario = replace(scenario, tolerances={**scenario.tolerances,
                                                 **_parse_tol_overrides(args.tol)})
        if args.hbar is not None:
            scenario = replace(scenario, hbar=finite_number(args.hbar, "--hbar", positive=True))
        if args.seed is not None:
            scenario = replace(scenario, seed=seed_value(args.seed, "--seed"))
        evolution_config(scenario.evolution, scenario.hbar)  # the block at the run's hbar
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    report = build_report(scenario)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report_text(report))
    _print_table(report)
    return 0 if all(c["status"] == "pass" for c in report["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
