"""Run every bundled scenario over a range of seeds and list the failures.

Usage::

    python tools/seed_sweep.py [--seeds 0-29] [--out DIR]

Each bundled scenario runs in-process at its bundled seed and at every
seed of the range, exactly as ``sepsym run --scenario NAME --seed S``
would.  The script prints, per check, the seeds at which it did not pass
and ends with the number of failing (scenario, check, seed) runs.  With
``--out`` every report is also written, byte for byte as ``sepsym run
--out`` writes it, to ``DIR/<scenario>.<seed>.json`` (the bundled seed
as ``DIR/<scenario>.bundled.json``), so the reports of two checkouts can
be compared with ``diff -r``.  The ``sepsym`` next to this script is the
one imported.

Exit code: 0 when every run passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sepsym.checks import CHECKS  # noqa: E402
from sepsym.cli import build_report  # noqa: E402
from sepsym.scenario import bundled_scenario_names, load_scenario  # noqa: E402


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-29"),
                        help="inclusive seed range FIRST-LAST (default 0-29)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to write every report to")
    args = parser.parse_args(argv)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    failures: dict[tuple[str, str], list[str]] = {}
    runs = 0
    for name in bundled_scenario_names():
        scenario = load_scenario(name, set(CHECKS))
        for seed in [None, *args.seeds]:
            label = "bundled" if seed is None else str(seed)
            run = scenario if seed is None else replace(scenario, seed=seed)
            report = build_report(run, {})
            runs += 1
            if args.out is not None:
                text = json.dumps(report, sort_keys=True, indent=2) + "\n"
                (args.out / f"{name}.{label}.json").write_text(text)
            for check in report["checks"]:
                if check["status"] != "pass":
                    failures.setdefault((name, check["name"]), []).append(label)

    for (name, check), seeds in sorted(failures.items()):
        print(f"{name:<36} {check:<36} {len(seeds):>3}  seeds {' '.join(seeds)}")
    total = sum(len(seeds) for seeds in failures.values())
    print(f"{total} failing (scenario, check, seed) runs in {runs} reports")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
