"""A cold process imports no scipy module, whatever tritangle command it runs,
no numpy module for `import tritangle` and the closed-form commands, and no
dataclasses, inspect, json or numbers module for the closed-form commands' text
output."""

import json
import os
import subprocess
import sys
from pathlib import Path

from tritangle import rho, save_density_matrix, thresholds

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC if not path else SRC + os.pathsep + path}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def imports_of(package, importtime_log):
    """Names of the package's modules in a -X importtime log."""
    names = (line.rsplit("|", 1)[-1].strip() for line in importtime_log.splitlines())
    return [name for name in names if name == package or name.startswith(package + ".")]


def scipy_imports(importtime_log):
    return imports_of("scipy", importtime_log)


SUBMODULES = ("analytic", "bloch", "cli", "errors", "family", "measures", "params", "roof", "states")


def test_import_loads_no_scipy():
    code = "import " + ", ".join("tritangle." + name for name in SUBMODULES)
    proc = run_python("-X", "importtime", "-c", code)
    assert proc.returncode == 0, proc.stderr
    for name in SUBMODULES:
        assert "tritangle." + name in proc.stderr
    assert scipy_imports(proc.stderr) == []


def test_tangle_command_loads_no_scipy(tmp_path):
    # every command: the threshold solves, p_star included, curves' phase
    # search, decompose's ensemble and oracle's convex-roof search
    state = str(tmp_path / "state.txt")
    save_density_matrix(rho(0.3, 0.35), state)
    family_state = str(tmp_path / "family.txt")
    save_density_matrix(rho(0.9, 0.05), family_state)
    commands = {
        ("tangle", "--p", "0.8", "--n", "3"): "region=ALPHA_I\nvalue=",
        ("table1",): "n=1\np0=",
        ("ckw", "--n", "3", "--p-points", "11"): "p,one_tangle,conc_sq_sum,tau3,margin\n",
        ("vanishing", "--in", state, "--n", "2"): "p0=0.75\nvanishing=true\n",
        ("curves", "--n", "2", "--p-points", "11"): "p,tau_min,tau_analytic,envelope\n",
        ("decompose", "--p", "0.3", "--n", "2"): "members=5\nweight_0=",
        ("oracle", "--in", family_state, "--restarts", "2"): "rank=3\nm=5\n",
    }
    for command, head in commands.items():
        proc = run_python("-X", "importtime", "-m", "tritangle.cli", *command)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(head)
        assert scipy_imports(proc.stderr) == []


def test_closed_form_commands_load_no_numpy():
    closed_forms = (
        "from tritangle import alpha_I, alpha_I_dd, alpha_II, solve_p1; "
        "print(alpha_I(0.8, 2.0), alpha_I_dd(0.8, 2.0), alpha_II(0.95, 2.0, solve_p1(2.0)))"
    )
    for code in ("import tritangle", closed_forms):
        proc = run_python("-X", "importtime", "-c", code)
        assert proc.returncode == 0, proc.stderr
        assert imports_of("numpy", proc.stderr) == []
    commands = {
        ("tangle", "--p", "0.8", "--n", "3"): "region=ALPHA_I\nvalue=",
        ("table1",): "n=1\np0=",
        ("table1", "--json"): "[\n",
        ("ckw", "--n", "3", "--p-points", "11"): "p,one_tangle,conc_sq_sum,tau3,margin\n",
    }
    for command, head in commands.items():
        proc = run_python("-X", "importtime", "-m", "tritangle.cli", *command)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(head)
        assert "tritangle.analytic" in proc.stderr
        assert imports_of("numpy", proc.stderr) == []


def test_closed_form_commands_load_no_dataclasses_or_json():
    # beyond what the interpreter itself loads here: a .pth file may preload any of them
    proc = run_python("-X", "importtime", "-c", "pass")
    assert proc.returncode == 0, proc.stderr
    unwanted = ("dataclasses", "inspect", "json")
    baseline = {name for package in unwanted for name in imports_of(package, proc.stderr)}
    commands = {
        ("tangle", "--p", "0.8", "--n", "3"): "region=ALPHA_I\nvalue=",
        ("table1",): "n=1\np0=",
        ("ckw", "--n", "3", "--p-points", "11"): "p,one_tangle,conc_sq_sum,tau3,margin\n",
    }
    for command, head in commands.items():
        proc = run_python("-X", "importtime", "-m", "tritangle.cli", *command)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(head)
        loaded = {name for package in unwanted for name in imports_of(package, proc.stderr)}
        assert loaded <= baseline, (command, sorted(loaded - baseline))
    proc = run_python("-m", "tritangle.cli", "table1", "--n-list", "2", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [thresholds(2.0)._asdict()]


def test_closed_form_commands_load_no_numbers():
    # check_count tests integers with operator.index, which collections loads anyway
    proc = run_python("-X", "importtime", "-c", "pass")
    assert proc.returncode == 0, proc.stderr
    baseline = set(imports_of("numbers", proc.stderr))
    for command in (("tangle", "--p", "0.8", "--n", "3"), ("table1",), ("ckw", "--n", "3", "--p-points", "11")):
        proc = run_python("-X", "importtime", "-m", "tritangle.cli", *command)
        assert proc.returncode == 0, proc.stderr
        assert "tritangle.params" in proc.stderr
        assert set(imports_of("numbers", proc.stderr)) <= baseline, command


def test_lazy_exports_resolve():
    # in a fresh process, before any export has been looked up
    code = """
import tritangle
names = tritangle.__all__
assert len(set(names)) == len(names)
missing = set(names) - set(dir(tritangle))
assert not missing, missing
for name in names:
    getattr(tritangle, name)
namespace = {}
exec("from tritangle import *", namespace)
assert all(namespace[name] is getattr(tritangle, name) for name in names)
try:
    tritangle.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("no_such_name resolved")
from tritangle import cli
print(len(names))
"""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    # the names the package exported before it went lazy, less the retired NoRootError
    assert int(proc.stdout) == 65
