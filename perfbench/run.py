"""Cold-process scenario benchmark for sepsym.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs no install, because
each child runs with ``src/`` on ``PYTHONPATH``.  Every sample is one pass
of the workload's bundled scenarios in a fresh interpreter, through the
public ``sepsym.cli.main(["run", ...])``, one child at a time.  ``--seed N``
runs each scenario with its bundled seed plus N, so ``--seed 0`` is exactly
what ``sepsym run --scenario <name>`` does.

``--trace 0`` samples untraced passes for S seconds and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced passes
(at least two pairs) for S seconds, checks that tracing is transparent,
and reports the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted`` counts the checks of one pass and ``failed`` those whose
status is ``fail`` or ``error``.  Every further pass must repeat the first
byte for byte, so the two counts depend only on the workload and the seed,
not on how many passes fit in the run.  See NOTES.md for the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from child import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = BENCH / "child.py"

WORKLOADS = {
    "index-flow": ("scaling-indices", "algebra"),
    "lift-obstruction": ("theorem10", "corollary1", "corollary2", "internal-dof-demo",
                         "freelift-grid-ladder", "derivation-bracket",
                         "canonical-decomposition-roundtrip"),
    "separation": ("separation-evolution",),
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STATUSES = ("pass", "fail", "error")
RUN_LIMIT_S = 170.0  # the whole run, traced or not, ends well inside 180 s
# Reported times are scaled to a machine on which child.calibrate takes this
# long; see speed_factor.
REF_CALIB_S = 0.1


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# samples


def scenario_checks(name: str) -> list[str]:
    doc = json.loads((SRC / "sepsym" / "scenarios" / f"{name}.json").read_text())
    return [c if isinstance(c, str) else c["name"] for c in doc["checks"]]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(scenarios, offset: int, deadline: float, trace: Path | None = None) -> dict:
    """Run one pass in a fresh interpreter; return its timings and reports.

    An untraced pass is bracketed by two timings of ``calibrate``: one here,
    just before the spawn, and one in the child, just after its pass.
    """
    sample_dir = WORK / "sample"
    shutil.rmtree(sample_dir, ignore_errors=True)
    sample_dir.mkdir(parents=True)
    result = sample_dir / "result.json"
    cmd = [sys.executable, str(CHILD), "--result", str(result),
           "--out-dir", str(sample_dir), "--seed-offset", str(offset)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    calib_before = calibrate(numpy) if trace is None else None
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + list(scenarios), cwd=ROOT, env=child_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish before the run limit: {exc}") from exc
    if not result.exists():
        last_lines = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
        raise BenchError(f"child exited {proc.returncode} without a result: {last_lines}")
    res = json.loads(result.read_text())
    if not Path(res["sepsym_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"child imported sepsym from {res['sepsym_file']}, not {SRC}")
    reports = {}
    for name in scenarios:
        path = sample_dir / f"{name}.json"
        reports[name] = path.read_bytes() if path.exists() else b""
    return {
        "pass_s": res["t_done"] - t_spawn,
        "setup_s": res["t_loaded"] - t_spawn,
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        "calib_s": (calib_before, res["calib_s"]),
        "exit_codes": res["exit_codes"],
        "seeds": res["seeds"],
        "reports": reports,
        "versions": {"python": res["python"], "numpy": res["numpy"]},
    }


def check_samples(samples, scenarios) -> tuple[list[str], list[str], int]:
    """Validate every pass's reports; return (problems, failing checks, checks run).

    The failing checks and the checks run are those of the first pass.  The
    callers require every other pass to repeat its reports byte for byte, so
    counting each pass again would only scale both by the number of passes
    that happened to fit in the run.
    """
    problems, failing, attempted = [], [], 0
    for i, sample in enumerate(samples):
        for name in scenarios:
            try:
                rep = json.loads(sample["reports"][name])
            except ValueError:
                problems.append(f"{name}: no readable report")
                continue
            if rep.get("schema") != 1 or rep.get("scenario") != name:
                problems.append(f"{name}: not a schema-1 report for this scenario")
            if rep.get("seed") != sample["seeds"][name]:
                problems.append(f"{name}: report seed {rep.get('seed')} != "
                                f"{sample['seeds'][name]}")
            entries = rep.get("checks", [])
            if [c.get("name") for c in entries] != scenario_checks(name):
                problems.append(f"{name}: report does not list every check of the scenario")
            for c in entries:
                attempted += i == 0
                if c.get("status") not in STATUSES:
                    problems.append(f"{name}/{c.get('name')}: status {c.get('status')!r}")
                elif c["status"] != "pass" and i == 0:
                    failing.append(f"{name}/{c['name']}={c['status']}")
            all_pass = all(c.get("status") == "pass" for c in entries)
            if sample["exit_codes"][name] != (0 if all_pass else 1):
                problems.append(f"{name}: exit code {sample['exit_codes'][name]} "
                                f"does not match the check statuses")
    return problems, failing, attempted


def warm_up() -> None:
    """Compile sepsym's bytecode once, untimed: an installed sepsym pays
    that cost at install time, not on every run."""
    subprocess.run([sys.executable, "-c", "import sepsym.cli"], cwd=ROOT, env=child_env(),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
                   check=True)


# ---------------------------------------------------------------------------
# statistics and environment


def tail(values: list[float]) -> tuple[float, str]:
    """Highest nearest-rank percentile with at least ten samples above it,
    and a note stating it.

    Below 21 samples that percentile would fall under the median, which is
    no tail, so the median is returned instead.
    """
    xs = sorted(values)
    n = len(xs)
    k = n - 11
    if k < (n - 1) / 2:
        return (statistics.median(xs),
                f"median: {n} samples leave no percentile above it with ten samples above")
    return xs[k], f"p{100.0 * (k + 1) / n:.1f} (nearest rank), {n - 1 - k} samples above, of {n}"


def speed_factor(sample) -> float:
    """REF_CALIB_S over the mean of the two timings of the fixed calibration
    loop that bracket an untraced pass.

    The shared host's speed changes in phases lasting from seconds to
    minutes, by up to 40 %, with child CPU time equal to wall time, so the
    cause is a slower processor, not waiting.  A 40 s run can sit inside
    one slow phase, so run medians of raw wall time spread widely between
    runs.  The calibration loop slows in the same phases; a sample's times
    scaled by its factor read as on a machine of fixed speed.  The loop does
    not touch sepsym, so a change to sepsym moves the scaled times as it
    moves the raw ones.
    """
    return REF_CALIB_S / statistics.mean(sample["calib_s"])


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "?"


def environment(versions: dict) -> dict:
    cpu = "?"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append(f"L{_read(index / 'level')}{_read(index / 'type')[0].lower()} "
                      f"{_read(index / 'size')}")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": versions.get("python", platform.python_version()),
        "numpy": versions.get("numpy", "?"),
        "child_env": {var: "1" for var in THREAD_VARS},
        "concurrency": "one child process at a time (closed loop, one client)",
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def end_to_end(workload: str, offset: int, seconds: float, deadline: float) -> dict:
    scenarios = WORKLOADS[workload]
    samples = []
    start = time.monotonic()
    while True:
        samples.append(run_child(scenarios, offset, deadline))
        elapsed = time.monotonic() - start
        typical = elapsed / len(samples)  # one sample with its calibrations
        if elapsed + typical > seconds or time.monotonic() + 2 * typical > deadline:
            break

    problems, failing, attempted = check_samples(samples, scenarios)
    first = samples[0]["reports"]
    mismatched = sum(s["reports"][name] != first[name] for s in samples for name in scenarios)
    written = len(samples) * len(scenarios)

    n = len(samples)
    factors = [speed_factor(s) for s in samples]
    pass_times = [f * s["pass_s"] for f, s in zip(factors, samples)]
    tail_value, tail_note = tail(pass_times)
    raw = {k: statistics.median(s[k] for s in samples) for k in ("pass_s", "setup_s")}
    metrics = {
        "pass_s": metric(statistics.median(pass_times), "s"),
        "pass_s_tail": metric(tail_value, "s"),
        "setup_s": metric(statistics.median(f * s["setup_s"] for f, s in zip(factors, samples)),
                          "s"),
        "peak_rss_mb": metric(statistics.median(s["peak_rss_mb"] for s in samples), "MB"),
    }
    notes = {
        "pass_s": f"median of {n} scaled samples; raw median {raw['pass_s']:.4f} s",
        "pass_s_tail": f"{tail_note}; scaled",
        "setup_s": f"median of {n} scaled samples (interpreter start to scenarios loaded); "
                   f"raw median {raw['setup_s']:.4f} s",
        "peak_rss_mb": f"median of {n} samples (child ru_maxrss)",
        "speed": f"each sample's times are scaled by its speed factor, {REF_CALIB_S} s over "
                 f"the mean of the calibration times just before and after it; factors "
                 f"{min(factors):.4f} to {max(factors):.4f}, median "
                 f"{statistics.median(factors):.4f}",
    }
    ratios = {
        "check_fail_ratio": (len(failing), attempted),
        "report_mismatch_ratio": (mismatched, written),
    }
    return {
        "metrics": metrics, "notes": notes, "ratios": ratios, "samples": samples,
        "problems": problems, "failing": failing,
        "attempted": attempted, "failed": len(failing),
        "correct": not problems and mismatched == 0,
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def _layer(table: dict, layer: str) -> float:
    return sum(v for k, v in table.items() if k.split(".", 1)[0] == layer)


def layer_metrics(summary: dict, check_names) -> dict[str, tuple[float, str]]:
    calls, counts, edges = summary["calls"], summary["counts"], summary["edges"]
    total = {k: v / 1e9 for k, v in summary["total_ns"].items()}
    own = {k: v / 1e9 for k, v in summary["self_ns"].items()}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    flow = calls.get("symmetry.index_flow", 0)
    lift = calls.get("hierarchy.lift", 0)
    kernel = calls.get("operators.kernel", 0)
    out = {f"checks.{c}.s": (total.get(f"checks.{c}", 0.0), "s") for c in check_names}
    out.update({
        "scenario.load.s": (total.get("scenario.load_scenario", 0.0), "s"),
        "cli.overhead.s": (_layer(own, "cli"), "s"),
        "symmetry.index_flow.calls": (flow, "count"),
        "symmetry.index_flow.steps_per_call":
            (ratio(counts.get("symmetry.index_flow.steps", 0), flow), "steps/call"),
        "symmetry.index_flow.distinct_t_ratio":
            (ratio(counts.get("symmetry.index_flow.distinct_points", 0), flow), "ratio"),
        "symmetry.self_s": (_layer(own, "symmetry"), "s"),
        "evolution.rk4.calls": (calls.get("evolution.rk4_trajectory", 0), "count"),
        "evolution.rk4.steps": (counts.get("evolution.rk4.steps", 0), "count"),
        "evolution.rk4.self_s": (own.get("evolution.rk4_trajectory", 0.0), "s"),
        "mixedpow.calls": (_layer(calls, "mixedpow"), "count"),
        "mixedpow.index_pairs": (counts.get("mixedpow.index_pairs", 0), "count"),
        "mixedpow.self_s": (_layer(own, "mixedpow"), "s"),
        "hierarchy.lift.calls": (lift, "count"),
        "hierarchy.lift.kernel_calls_per_call":
            (ratio(edges.get("hierarchy.lift>operators.kernel", 0), lift), "calls/call"),
        "hierarchy.lift.self_s": (own.get("hierarchy.lift", 0.0), "s"),
        "operators.kernel.calls": (kernel, "count"),
        "operators.kernel.self_s": (own.get("operators.kernel", 0.0), "s"),
        "operators.kernel.mean_elems":
            (ratio(counts.get("operators.kernel.elems", 0), kernel), "elems"),
        "operators.kernel.bytes": (counts.get("operators.kernel.bytes", 0), "B-computed"),
        "opcalc.apply.calls": (calls.get("opcalc.apply", 0), "count"),
        "opcalc.derivative.calls": (calls.get("opcalc.derivative", 0), "count"),
        "opcalc.derivative.fd_calls": (counts.get("opcalc.derivative.fd_calls", 0), "count"),
        "opcalc.self_s": (_layer(own, "opcalc"), "s"),
        "obstruction.calls": (_layer(calls, "obstruction"), "count"),
        "obstruction.self_s": (_layer(own, "obstruction"), "s"),
        "space.calls": (_layer(calls, "space"), "count"),
        "space.self_s": (_layer(own, "space"), "s"),
    })
    return out


def deterministic_part(summary: dict) -> dict:
    return {k: summary[k] for k in ("calls", "edges", "counts")}


def negative_self_spans(trace: dict) -> int:
    self_col = trace["fields"].index("self_ns")
    return sum(1 for span in trace["spans"] if span[self_col] < 0)


def traced(workload: str, offset: int, seconds: float, deadline: float) -> dict:
    """Alternate untraced and traced passes (at least two pairs) for ``seconds``."""
    scenarios = WORKLOADS[workload]
    check_names = sorted({c for names in WORKLOADS.values()
                          for name in names for c in scenario_checks(name)})
    start = time.monotonic()
    plain, runs, summaries = [], [], []
    negative = 0
    while True:
        plain.append(run_child(scenarios, offset, deadline))
        path = WORK / f"trace-{workload}-{len(runs) + 1}.json"
        runs.append(run_child(scenarios, offset, deadline, trace=path))
        trace = json.loads(path.read_text())
        negative += negative_self_spans(trace)
        summaries.append(trace["summary"])
        if len(runs) > 1:
            path.unlink()  # keep the first trace file for inspection
        pair = plain[-1]["pass_s"] + runs[-1]["pass_s"]
        elapsed = time.monotonic() - start
        if len(runs) >= 2 and (elapsed + pair > seconds
                               or time.monotonic() + 2 * pair > deadline):
            break

    problems, failing, attempted = check_samples(plain + runs, scenarios)
    base = plain[0]["reports"]
    differing = sum(s["reports"][name] != base[name]
                    for s in plain + runs for name in scenarios)
    if differing:
        problems.append(f"{differing} reports differ from the first untraced pass")
    counts_repeat = all(deterministic_part(s) == deterministic_part(summaries[0])
                        for s in summaries)
    if not counts_repeat:
        problems.append("per-layer counts differ between traced passes")
    if negative:
        problems.append(f"{negative} spans with negative self time")

    per_run = [layer_metrics(s, check_names) for s in summaries]
    metrics = {}
    for name, (value, unit) in per_run[0].items():
        if unit == "s":
            value = float(statistics.median(m[name][0] for m in per_run))
        metrics[name] = metric(value, unit)
    overhead = statistics.median(t["pass_s"] - p["pass_s"] for p, t in zip(plain, runs))
    metrics["trace.overhead_s"] = metric(overhead, "s")
    notes = {
        "transparency": (f"{len(runs)} traced and {len(plain)} untraced passes: reports "
                         f"byte-identical: {differing == 0}; counts repeat exactly: "
                         f"{counts_repeat}; spans with negative self time: {negative}"),
        "trace.overhead_s": f"median over {len(runs)} alternating pairs of traced minus "
                            f"untraced pass_s",
        "hot_layers": (f"calls of {', '.join(summaries[0]['hot_layers'])} are timed and "
                       f"counted without per-call span records"),
        "times": f"seconds are medians over {len(runs)} traced passes; counts are exact",
    }
    return {
        "metrics": metrics, "notes": notes, "samples": plain + runs,
        "problems": problems, "failing": failing,
        "attempted": attempted, "failed": len(failing), "correct": not problems,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="added to every bundled scenario seed; 0 reproduces them")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sepsym" / "cli.py").is_file():
        print(f"perfbench: no sepsym source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    try:
        warm_up()
        run = (traced if args.trace else end_to_end)(args.workload, args.seed,
                                                      args.seconds, deadline)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / "sample", ignore_errors=True)

    first = run["samples"][0]
    env = environment(first["versions"])
    kept = ("pass_s", "setup_s", "peak_rss_mb", "calib_s", "exit_codes", "seeds")
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps({
        "args": vars(args), "environment": env, "metrics": run["metrics"],
        "notes": run["notes"], "failing": run["failing"], "problems": run["problems"],
        "samples": [{k: s[k] for k in kept} for s in run["samples"]],
    }, indent=1))
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"scenarios: {' '.join(WORKLOADS[args.workload])}")
    print("seeds used: " + ", ".join(f"{k}={v}" for k, v in first["seeds"].items()))
    print("environment: " + json.dumps(env, sort_keys=True))
    width = max(len(k) for k in run["metrics"])
    for name, m in run["metrics"].items():
        note = run["notes"].get(name, "")
        print(f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']:<11} {note}")
    for name, (num, den) in run.get("ratios", {}).items():
        print(f"  {name:<{width}}  {num / den if den else 0.0:>14.6g} {'ratio':<11} "
              f"{num} of {den}")
    for key in ("speed", "transparency", "hot_layers", "times"):
        if key in run["notes"]:
            print(f"{key}: {run['notes'][key]}")
    print("failing checks: " + (", ".join(run["failing"]) or "none"))
    for problem in run["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
