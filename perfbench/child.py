"""One benchmark sample: a fresh interpreter that runs one pass of a workload.

    python3 child.py --result R.json --out-dir DIR --seed-offset N [--trace T.json] SCENARIO...

It loads and validates every scenario through the public
``sepsym.scenario.load_scenario`` (the end of set-up), then runs each one
through ``sepsym.cli.main(["run", ...])`` exactly as ``sepsym run`` does,
with the scenario's bundled seed plus ``N``.  The result file holds the
monotonic clock at the end of set-up and at the end of the pass (the
parent started its clock before spawning this process), the exit codes,
the seeds used, the peak resident memory and the library versions.

An untraced child then times ``calibrate``, a fixed loop that does not
touch sepsym.  The parent times the same loop just before the spawn; the
pair tells how fast the machine ran while this sample was taken.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import time


def calibrate(numpy) -> float:
    """Seconds taken by a fixed mix of interpreted Python and small-array
    numpy work, the two kinds of work a sepsym pass does; median of three."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        table = {}
        for i in range(180000):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + i * 3 % 7
        x = numpy.linspace(0.0, 1.0, 28)
        for _ in range(12000):
            x = numpy.sin(x) * 0.5 + x * 0.5
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--result", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--seed-offset", type=int, required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("scenarios", nargs="+")
    args = ap.parse_args()

    import numpy
    import sepsym
    from sepsym import cli
    from sepsym.checks import CHECKS
    from sepsym.scenario import load_scenario

    seeds = {name: load_scenario(name, set(CHECKS)).seed + args.seed_offset
             for name in args.scenarios}
    t_loaded = time.monotonic()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()

    codes = {}
    for name, seed in seeds.items():
        out = os.path.join(args.out_dir, f"{name}.json")
        codes[name] = cli.main(["run", "--scenario", name, "--seed", str(seed), "--out", out])
    t_done = time.monotonic()

    if tracer is not None:
        tracer.dump(args.trace)
    calib_s = None if tracer is not None else calibrate(numpy)
    with open(args.result, "w") as fh:
        json.dump({
            "t_loaded": t_loaded,
            "t_done": t_done,
            "exit_codes": codes,
            "seeds": seeds,
            "calib_s": calib_s,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "sepsym_file": sepsym.__file__,
            "numpy": numpy.__version__,
            "python": platform.python_version(),
        }, fh)


if __name__ == "__main__":
    main()
