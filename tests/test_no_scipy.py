"""The package and its command-line path run without scipy.

scipy serves only the test suite: its oracles (tests/oracles.py) and
its references.  No module of the package imports it, at module level or
in a function body.  The run-time checks use a fresh interpreter, since
this one has imported scipy for the other tests; the README pipeline
run there also loads neither numpy.random nor secrets and hashlib.
"""

import ast
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
    "reconstruct --curve curve.csv --v0 1.0 --out psi.csv",
    "assemble --phi phi.csv --psi psi.csv --curve curve.csv --report report.json "
    "--out solution.json",
    "verify --solution solution.json --points 1000 --report verify.json",
]
for command in commands:
    rc = main(command.split())
    if rc != 0:
        raise SystemExit(f"{command.split()[0]} exited {rc}")
assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
# verify draws its sample with the standard library's random.Random, so no
# stage loads numpy.random or, through its seeding, secrets and OpenSSL
assert not [m for m in ("numpy.random", "secrets", "hashlib") if m in sys.modules]
"""


def scipy_imports(path):
    """(line, module) of each import of scipy or a scipy submodule in the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name == "scipy" or name.startswith("scipy.")]
    return sorted(found)


def test_no_module_imports_scipy():
    package = Path(affmax.__file__).resolve().parent
    found = {path.name: hits for path in sorted(package.glob("*.py"))
             if (hits := scipy_imports(path))}
    assert found == {}


def test_scipy_import_lint_sees_function_bodies(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f():\n    import scipy.integrate\n"
                     "    from scipy import interpolate\n"
                     "from scipy.integrate import quad\nimport scipyx\n")
    assert scipy_imports(probe) == [(2, "scipy.integrate"), (3, "scipy"),
                                    (4, "scipy.integrate")]


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
