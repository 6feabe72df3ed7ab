"""A run imports only what it uses: loading a scenario compiles no check,
the separation run's set-up leaves out the symmetry code, and a run
imports the check family it runs and no other."""

import json
import os
import subprocess
import sys
from pathlib import Path

import sepsym

SRC = str(Path(sepsym.__file__).resolve().parents[1])

# after ``body`` runs: the sepsym modules loaded, and those that define a
# check, a module-level ``check_*`` function whose first parameter is ``ctx``
PROBE = """
import inspect, json, sys
import sepsym.cli
from sepsym.checks import CHECKS
from sepsym.scenario import bundled_scenario_names, load_scenario
{body}
loaded = sorted(name for name in sys.modules if name.startswith("sepsym"))
holders = [name for name in loaded
           if any(attr.startswith("check_") and inspect.isfunction(fn)
                  and fn.__module__ == name and fn.__code__.co_varnames[:1] == ("ctx",)
                  for attr, fn in vars(sys.modules[name]).items())]
print(json.dumps([loaded, holders]))
"""


def modules_after(body: str) -> tuple[set[str], set[str]]:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE.format(body=body)], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    loaded, holders = json.loads(out.splitlines()[-1])
    return set(loaded), set(holders)


def test_separation_setup_leaves_out_symmetry_and_checks():
    loaded, holders = modules_after('load_scenario("separation-evolution", set(CHECKS))')
    assert {"sepsym.evolution", "sepsym.checks", "sepsym.scenario"} <= loaded
    assert "sepsym.symmetry" not in loaded
    assert not holders


def test_loading_any_scenario_compiles_no_check():
    loaded, holders = modules_after("for name in bundled_scenario_names():\n"
                                    "    load_scenario(name, set(CHECKS))")
    assert "sepsym.symmetry" in loaded  # the point-symmetry blocks are built
    assert not holders


def test_a_run_imports_its_family_only():
    loaded, holders = modules_after('sepsym.cli.main(["run", "--scenario", '
                                    '"separation-evolution"])')
    assert holders == {"sepsym.checks_evolution"}
    assert not {name for name in loaded if name.startswith("sepsym.checks_")} - holders
    assert "sepsym.symmetry" not in loaded
