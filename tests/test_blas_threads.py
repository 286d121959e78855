"""affmax runs BLAS on one thread unless the caller chose otherwise.

`import affmax` sets OPENBLAS_NUM_THREADS to 1 before numpy loads, as a
default only.  Each check runs in a fresh interpreter, since this one
loaded numpy before affmax.
"""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

import pytest

import affmax

SRC = str(Path(affmax.__file__).resolve().parent.parent)
VAR = "OPENBLAS_NUM_THREADS"
TASKS = "/proc/self/task"

# the environment variable and the thread count, after the code before it
PROBE = """
import os
{imports}
tasks = len(os.listdir({tasks!r})) if os.path.isdir({tasks!r}) else -1
print(os.environ.get({var!r}), tasks)
"""

PIPELINE = """
import sys
from affmax.cli import main

commands = [
    "solve-positive --rmax 10 --nodes 201 --out phi.csv",
    "solve-negative --eta-max 5000 --out curve.csv --report report.json",
    "reconstruct --curve curve.csv --out psi.csv",
    "assemble --phi phi.csv --psi psi.csv --curve curve.csv "
    "--report report.json --out solution.json",
    "verify --solution solution.json --points 100 --report verify.json",
    "sweep --theta-min 0.54 --theta-max 0.58 --steps 2 --eta-max 150 "
    "--jobs 2 --outdir sweep_out",
]
codes = [main(command.split()) for command in commands]
print(codes, file=sys.stderr)
"""

ARTIFACTS = ["phi.csv", "curve.csv", "report.json", "psi.csv", "solution.json",
             "verify.json", "sweep_out/sweep.json"]


def run_python(code, cwd=None, threads=None):
    """stdout and stderr of code in a fresh interpreter, with
    OPENBLAS_NUM_THREADS unset if threads is None."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop(VAR, None)
    if threads is not None:
        env[VAR] = threads
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout, out.stderr


def probe(imports, threads=None):
    var, tasks = run_python(PROBE.format(imports=imports, tasks=TASKS, var=VAR),
                            threads=threads)[0].split()
    return var, int(tasks)


def test_import_sets_one_thread_by_default():
    var, tasks = probe("import affmax.cli")
    assert var == "1"
    if tasks == -1:
        pytest.skip(f"{TASKS} is absent")
    assert tasks == 1


def test_caller_value_is_kept():
    assert probe("import affmax.cli", threads="2")[0] == "2"


def test_numpy_loaded_first_keeps_its_threads_and_environment():
    # nothing affmax sets could reach a BLAS that is already loaded
    assert probe("import numpy\nimport affmax") == probe("import numpy")


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    dirs = {threads: tmp_path / str(threads) for threads in (None, "2")}
    codes = set()
    for threads, d in dirs.items():
        d.mkdir()
        codes.add(run_python(PIPELINE, d, threads)[1])
    assert codes == {"[0, 0, 0, 0, 0, 0]\n"}
    for name in ARTIFACTS:
        assert filecmp.cmp(dirs[None] / name, dirs["2"] / name, shallow=False), name
