"""The command-line path runs without scipy.

scipy serves only the test oracles (quadrature_r_of_v, v_of_r and
integrate_direct import it when called) and the references of the test
suite.  Each check runs in a fresh interpreter, since this one has
imported scipy for the other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import affmax

SRC = str(Path(affmax.__file__).resolve().parent.parent)

# refuses every scipy import, as an interpreter without scipy would
BLOCK_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, NoScipy())
"""

README_PIPELINE = """
from affmax.cli import main

commands = [
    "solve-positive --v0 1.0 --theta 0.55 --lambda 1.0 --rmax 10 --out phi.csv",
    "solve-negative --n 2 --theta 0.55 --eta0 1.05 --out curve.csv --report report.json",
    "reconstruct --curve curve.csv --v0 1.0 --n 2 --out psi.csv",
    "assemble --phi phi.csv --psi psi.csv --curve curve.csv --theta 0.55 --n 2 "
    "--report report.json --out solution.json",
    "verify --solution solution.json --points 1000 --report verify.json",
]
for command in commands:
    rc = main(command.split())
    if rc != 0:
        raise SystemExit(f"{command.split()[0]} exited {rc}")
assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
"""


def run_python(code, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_import_loads_no_scipy(tmp_path):
    out = run_python(
        "import sys, affmax, affmax.cli\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))", tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_readme_pipeline_runs_with_scipy_blocked(tmp_path):
    out = run_python(BLOCK_SCIPY + README_PIPELINE, tmp_path)
    assert out.returncode == 0, out.stderr
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["pass"] is True
    assert report["residual_max"] < 1e-4 and report["convexity_margin"] > 0
