"""The benchmark's interface to sepsym.

``perfbench/child.py`` runs bundled scenarios through the public API, and
with ``--trace`` first installs ``perfbench/tracer.py``, which rebinds
sepsym's public functions and operator kernels by name and reads some of
their arguments by position.  A traced pass must run as a plain one does
and write the same reports byte for byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ("scaling-indices", "freelift-grid-ladder", "separation-evolution")


def run_child(out_dir: Path, trace: Path | None = None) -> dict:
    """One child pass over SCENARIOS: its result file, with the reports."""
    out_dir.mkdir()
    result = out_dir / "result.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--result", str(result),
           "--out-dir", str(out_dir), "--seed-offset", "0"]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([*cmd, *SCENARIOS], cwd=ROOT, env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-2000:]
    res = json.loads(result.read_text())
    res["reports"] = {name: (out_dir / f"{name}.json").read_bytes() for name in SCENARIOS}
    return res


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    trace = base / "trace.json"
    return run_child(base / "plain"), run_child(base / "traced", trace), trace


def test_traced_pass_writes_the_plain_reports(passes):
    plain, traced, _ = passes
    assert plain["exit_codes"] == traced["exit_codes"] == {name: 0 for name in SCENARIOS}
    assert traced["reports"] == plain["reports"]


def test_trace_counts_every_layer(passes):
    # the tracer reads rk4_trajectory's step count and the kernels by name
    counts = json.loads(passes[2].read_text())["summary"]
    for name in ("evolution.rk4_trajectory", "symmetry.index_flow", "operators.kernel",
                 "opcalc.apply", "opcalc.derivative"):
        assert counts["calls"].get(name, 0) > 0, name
    assert counts["counts"]["evolution.rk4.steps"] > 0
