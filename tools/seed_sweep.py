"""Run every bundled scenario over a range of seeds and list the failures.

Usage::

    python tools/seed_sweep.py [--seeds 0-29] [--out DIR] [--compare DIR]

Each bundled scenario runs in-process at its bundled seed and at every
seed of the range, exactly as ``sepsym run --scenario NAME --seed S``
would.  The script prints, per check, the seeds at which it did not pass
and ends with the number of failing (scenario, check, seed) runs.  With
``--out`` every report is also written, byte for byte as ``sepsym run
--out`` writes it, to ``DIR/<scenario>.<seed>.json`` (the bundled seed
as ``DIR/<scenario>.bundled.json``), so the reports of two checkouts can
be compared with ``diff -r``.  With ``--compare DIR`` the script then
prints every JSON field whose value differs from the same report in
``DIR`` (written by an earlier ``--out``), one line each as
``<scenario>.<seed>: <path> <old> -> <new>``.  Paths join object keys
with dots, address list entries as ``[i]`` and the entries of
``checks`` by their check name.  After those lines it prints one line
per (scenario, field path with list indices collapsed to ``[]``): the
largest relative move |new - old| / |old| among the numeric fields with
|old| > 1e-12, with the seed it occurred at and the number of moved
fields, largest first.  The ``sepsym`` next to this script is the one
imported.

Exit code: 0 when every run passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sepsym.checks import CHECKS  # noqa: E402
from sepsym.cli import build_report, report_text  # noqa: E402
from sepsym.scenario import bundled_scenario_names, load_scenario  # noqa: E402


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


ABSENT = object()
# below this an old value is round-off, where a relative move says nothing
MOVE_FLOOR = 1e-12


def _text(value) -> str:
    return "absent" if value is ABSENT else json.dumps(value, sort_keys=True)


def changed_fields(old, new, path: str = ""):
    """Yield ``(path, old, new)`` for every JSON value that differs.

    Objects recurse by key and lists of equal length by entry (a named
    object entry, such as a check, under its name).  Values are compared
    as the JSON text they serialise to, so NaN equals NaN and 1 differs
    from 1.0; a key on one side only shows ``absent`` on the other.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from changed_fields(old.get(key, ABSENT), new.get(key, ABSENT),
                                      f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for k, (a, b) in enumerate(zip(old, new)):
            named = isinstance(a, dict) and isinstance(b, dict) and "name" in a \
                and a["name"] == b.get("name")
            yield from changed_fields(a, b, f"{path}.{a['name']}" if named else f"{path}[{k}]")
    elif _text(old) != _text(new):
        yield path, old, new


def differences(reports: dict[str, dict], directory: Path):
    """Yield ``(key, path, old, new)`` for every field of ``reports`` (keyed
    ``<scenario>.<seed>``) that differs from ``directory/<key>.json``; a
    report missing there yields one ``(key, None, ABSENT, ABSENT)``."""
    for key, report in reports.items():
        path = directory / f"{key}.json"
        if not path.exists():
            yield key, None, ABSENT, ABSENT
            continue
        old = json.loads(path.read_text())
        new = json.loads(report_text(report))
        for field, a, b in changed_fields(old, new):
            yield key, field, a, b


def compare(reports: dict[str, dict], directory: Path) -> list[str]:
    """One line per field of ``reports`` that differs from ``directory``."""
    return [f"{key}: no report in {directory}" if field is None
            else f"{key}: {field} {_text(a)} -> {_text(b)}"
            for key, field, a, b in differences(reports, directory)]


def _finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def largest_moves(reports: dict[str, dict], directory: Path) -> list[str]:
    """One line per (scenario, field path with list indices collapsed to
    ``[]``): the largest relative move |new - old| / |old| among the
    numeric fields with |old| > MOVE_FLOOR, with the seed it occurred at
    and the number of such fields that moved, largest first."""
    worst: dict[tuple[str, str], tuple[float, str, float, float]] = {}
    counts: dict[tuple[str, str], int] = {}
    for key, field, a, b in differences(reports, directory):
        numeric = field is not None and _finite_number(a) and _finite_number(b)
        if not numeric or abs(a) <= MOVE_FLOOR:
            continue
        scenario, _, seed = key.rpartition(".")
        group = (scenario, re.sub(r"\[\d+\]", "[]", field))
        rel = abs(b - a) / abs(a)
        counts[group] = counts.get(group, 0) + 1
        if group not in worst or rel > worst[group][0]:
            worst[group] = (rel, seed, a, b)
    ranked = sorted(worst.items(), key=lambda item: (-item[1][0], item[0]))
    return [f"{scenario}: {field} {rel:.2e} at {seed} ({_text(a)} -> {_text(b)}), "
            f"{counts[scenario, field]} moved"
            for (scenario, field), (rel, seed, a, b) in ranked]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-29"),
                        help="inclusive seed range FIRST-LAST (default 0-29)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to write every report to")
    parser.add_argument("--compare", type=Path, default=None,
                        help="directory of earlier reports to list changed fields against")
    args = parser.parse_args(argv)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    failures: dict[tuple[str, str], list[str]] = {}
    reports: dict[str, dict] = {}
    for name in bundled_scenario_names():
        scenario = load_scenario(name, set(CHECKS))
        for seed in [None, *args.seeds]:
            label = "bundled" if seed is None else str(seed)
            run = scenario if seed is None else replace(scenario, seed=seed)
            report = reports[f"{name}.{label}"] = build_report(run)
            if args.out is not None:
                (args.out / f"{name}.{label}.json").write_text(report_text(report))
            for check in report["checks"]:
                if check["status"] != "pass":
                    failures.setdefault((name, check["name"]), []).append(label)

    for (name, check), seeds in sorted(failures.items()):
        print(f"{name:<36} {check:<36} {len(seeds):>3}  seeds {' '.join(seeds)}")
    total = sum(len(seeds) for seeds in failures.values())
    print(f"{total} failing (scenario, check, seed) runs in {len(reports)} reports")
    if args.compare is not None:
        lines = compare(reports, args.compare)
        for line in lines:
            print(line)
        print(f"{len(lines)} fields differ from {args.compare}")
        moves = largest_moves(reports, args.compare)
        for line in moves:
            print(line)
        print(f"{len(moves)} (scenario, field) groups moved where |old| > {MOVE_FLOOR:g}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
