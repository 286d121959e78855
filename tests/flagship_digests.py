"""Print the sha256 of every artifact of the flagship pipeline.

Runs the five stages at their CLI defaults in a temporary directory
(verify at 1000 points, seed 0), then verify at seed 3, and an
``assemble --m 2`` solution verified at 300 points, seed 1.  The
stages' own output is dropped and each artifact is printed as
``sha256  bytes  name``.  A last line gives the byte total of the six
artifacts one perfbench flagship iteration writes (ITERATION), the
figure its ``artifact_mb`` reports.  Two checkouts are compared,
digests and sizes, by diffing the output of

    python tests/flagship_digests.py [--src DIR]

run in each.  DIR is the directory holding the affmax package, by
default the ``src`` next to this file.  Not part of the test suite: it
takes a few seconds.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

STAGES = [
    ["solve-positive", "--out", "phi.csv"],
    ["solve-negative", "--out", "curve.csv", "--report", "report.json"],
    ["reconstruct", "--curve", "curve.csv", "--out", "psi.csv"],
    ["assemble", "--phi", "phi.csv", "--psi", "psi.csv", "--curve", "curve.csv",
     "--report", "report.json", "--out", "solution.json"],
    ["verify", "--solution", "solution.json", "--points", "1000", "--seed", "0",
     "--report", "verify.json"],
    ["verify", "--solution", "solution.json", "--points", "1000", "--seed", "3",
     "--report", "verify_seed3.json"],
    ["assemble", "--phi", "phi.csv", "--psi", "psi.csv", "--curve", "curve.csv",
     "--report", "report.json", "--m", "2", "--out", "solution_m2.json"],
    ["verify", "--solution", "solution_m2.json", "--points", "300", "--seed", "1",
     "--report", "verify_m2.json"],
]

ARTIFACTS = ["phi.csv", "curve.csv", "report.json", "psi.csv", "solution.json",
             "verify.json", "verify_seed3.json", "solution_m2.json", "verify_m2.json"]
# what one flagship iteration of perfbench writes (verify at its seed only)
ITERATION = ["phi.csv", "curve.csv", "report.json", "psi.csv", "solution.json",
             "verify.json"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory holding the affmax package")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from affmax.cli import main as affmax_main

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for stage in STAGES:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = affmax_main(stage)
                if rc != 0:
                    sys.stderr.write(f"affmax {' '.join(stage)} exited {rc}\n")
                    return rc
            for name in ARTIFACTS:
                data = Path(name).read_bytes()
                print(f"{hashlib.sha256(data).hexdigest()}  {len(data):>7}  {name}")
            total = sum(Path(name).stat().st_size for name in ITERATION)
            print(f"{'':64}  {total:>7}  total of {', '.join(ITERATION)}")
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
