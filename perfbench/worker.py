"""One workload in a fresh interpreter: warm-up, timed iterations, checks.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Every stage is a call of ``affmax.cli.main(argv)`` in this
process, after one import; the generated argv is all the program sees.
Writes one JSON document to ``--result``.

An operation is one CLI stage call or one sweep row.  It fails on a
non-zero exit, an exception, a failed output check, or a sweep row whose
status is not ``ok``.  Failed operations are counted, never dropped.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import random
import resource
import sys
import time
from pathlib import Path

from spans import Tracer, layer_totals

# Reference values of the flagship report (CLI defaults) and the
# acceptance suite's tolerances for them (criterion 2 for lambda_cal;
# criterion 5 compares T_inf within its own tail bound).
FLAGSHIP_LAMBDA_CAL = 0.38974496147991927
FLAGSHIP_T_INF = 1.5420324739922862
LAMBDA_CAL_TOL = 1e-8

SWEEP_STEPS = 16


class Harness:
    """Calls CLI stages and books every operation as passed or failed."""

    def __init__(self, cli, tracer: Tracer | None):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []

    def stage(self, argv: list[str]) -> list[str]:
        """Run ``affmax <argv>``; the problems with its exit, if any."""
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(sink):
                if self.tracer is not None and self.tracer.installed:
                    name = "cli." + argv[0].replace("-", "_")
                    rc = self.tracer.call(name, self.cli.main, argv)
                else:
                    rc = self.cli.main(argv)
        except Exception as exc:  # the benchmark keeps running; counted later
            return [f"raised {type(exc).__name__}: {exc}"]
        if rc == 0:
            return []
        last = sink.getvalue().strip().splitlines()[-1:]
        return [f"exit {rc}: {''.join(last)}"]

    def book(self, op: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failures.append(f"{op}: {'; '.join(problems)}")


def _load_json(path) -> dict | None:
    """The JSON object in path, or None if it is missing or not an object."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def _number(rep: dict, key: str) -> float:
    value = rep.get(key)
    return float(value) if isinstance(value, (int, float)) else math.nan


def _verify_problems(path, tol) -> list[str]:
    rep = _load_json(path)
    if rep is None:
        return [f"{path} missing or unreadable"]
    out = []
    if rep.get("pass") is not True:
        out.append("verify.json does not report pass")
    if not _number(rep, "residual_max") < tol:
        out.append(f"residual_max {rep.get('residual_max')} not below {tol}")
    if not _number(rep, "convexity_margin") > 0:
        out.append(f"convexity_margin {rep.get('convexity_margin')} not above 0")
    return out


def _flagship_report_problems(path) -> list[str]:
    rep = _load_json(path)
    if rep is None:
        return [f"{path} missing or unreadable"]
    out = []
    lam, T_inf = _number(rep, "lambda_cal"), _number(rep, "T_inf")
    if not abs(lam - FLAGSHIP_LAMBDA_CAL) < LAMBDA_CAL_TOL:
        out.append(f"lambda_cal {lam} differs from {FLAGSHIP_LAMBDA_CAL}")
    if not abs(T_inf - FLAGSHIP_T_INF) < _number(rep, "tail_bound"):
        out.append(f"T_inf {T_inf} differs from {FLAGSHIP_T_INF} by more "
                   f"than its tail bound {rep.get('tail_bound')}")
    return out


def _accuracy(verify_path, report_path) -> dict:
    """The accuracy figures the roadmap tracks next to the timings."""
    ver = _load_json(verify_path) or {}
    rep = _load_json(report_path) or {}
    return {k: ver.get(k) for k in ("residual_max", "convexity_margin")} | \
        {k: rep.get(k) for k in ("lambda_cal", "T_inf")}


def _digest(path) -> tuple[str, int] | None:
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    return hashlib.sha256(data).hexdigest(), len(data)


class Workload:
    """Stages of one iteration; each artifact belongs to the stage writing it."""

    def __init__(self, harness: Harness, seed: int):
        self.h = harness
        self.seed = seed
        self.first: dict[str, tuple] | None = None

    def prepare(self):
        """Untimed inputs shared by all iterations."""

    def stages(self) -> list[tuple[list[str], list[str]]]:
        """(argv, artifacts written) for each stage of one iteration."""
        raise NotImplementedError

    def stage_problems(self, argv) -> list[str]:
        """Output checks of one stage beyond its exit code."""
        return []

    def iteration(self) -> tuple[float, int]:
        """Run, time and check one iteration: (seconds, artifact bytes)."""
        plan = self.stages()
        for _, artifacts in plan:
            for art in artifacts:
                Path(art).unlink(missing_ok=True)
        start = time.perf_counter()
        exits = [self.h.stage(argv) for argv, _ in plan]
        elapsed = time.perf_counter() - start
        digests = {}
        for (argv, artifacts), problems in zip(plan, exits):
            problems = problems + self.stage_problems(argv)
            for art in artifacts:
                digests[art] = _digest(art)
                if digests[art] is None:
                    problems.append(f"{art} not written")
                elif self.first is not None and digests[art] != self.first[art]:
                    problems.append(f"{art} differs from the first iteration's")
            self.h.book(argv[0], problems)
        if self.first is None:
            self.first = digests
        nbytes = sum(d[1] for d in digests.values() if d is not None)
        return elapsed, nbytes

    def accuracy(self) -> dict:
        return {}


class Flagship(Workload):
    """The certified five-stage pipeline, constructor path, CLI defaults."""

    def stages(self):
        return [
            (["solve-positive", "--out", "phi.csv"], ["phi.csv"]),
            (["solve-negative", "--out", "curve.csv", "--report", "report.json"],
             ["curve.csv", "report.json"]),
            (["reconstruct", "--curve", "curve.csv", "--out", "psi.csv"],
             ["psi.csv"]),
            (["assemble", "--phi", "phi.csv", "--psi", "psi.csv",
              "--curve", "curve.csv", "--report", "report.json",
              "--out", "solution.json"], ["solution.json"]),
            (["verify", "--solution", "solution.json", "--points", "1000",
              "--seed", str(self.seed), "--report", "verify.json"],
             ["verify.json"]),
        ]

    def stage_problems(self, argv):
        if argv[0] == "solve-negative":
            return _flagship_report_problems("report.json")
        if argv[0] == "verify":
            return _verify_problems("verify.json", 1e-4)
        return []

    def accuracy(self):
        return _accuracy("verify.json", "report.json")


class Sweep(Workload):
    """``sweep`` over a theta grid inside (1/2, 2/3), offset by the seed."""

    def __init__(self, harness, seed, jobs):
        super().__init__(harness, seed)
        self.jobs = jobs
        offset = random.Random(seed).uniform(0.0, 0.005)
        self.thetas = (0.51 + offset, 0.65 + offset)
        self.reference = None

    def argv(self, jobs, outdir):
        return ["sweep", "--n", "2", "--steps", str(SWEEP_STEPS),
                "--theta-min", repr(self.thetas[0]),
                "--theta-max", repr(self.thetas[1]),
                "--eta-max", "1e5", "--jobs", str(jobs), "--outdir", outdir]

    def prepare(self):
        if self.jobs > 1:
            # serial rows the pooled rows must equal
            self.h.book("sweep", self.h.stage(self.argv(1, "reference")))
            self.reference = self._book_rows("reference/sweep.json")

    def _book_rows(self, path):
        """Book one operation per expected row; returns the rows read."""
        rows = (_load_json(path) or {}).get("rows")
        rows = rows if isinstance(rows, list) else []
        for i in range(SWEEP_STEPS):
            row = rows[i] if i < len(rows) else None
            status = row.get("status") if isinstance(row, dict) else "missing"
            self.h.book("sweep-row", [] if status == "ok"
                        else [f"row {i} status {status}"])
        return rows

    def stages(self):
        return [(self.argv(self.jobs, "sweep_out"), ["sweep_out/sweep.json"])]

    def stage_problems(self, argv):
        rows = self._book_rows("sweep_out/sweep.json")
        if self.reference is not None and rows != self.reference:
            return ["pooled rows differ from the serial rows"]
        return []

    def accuracy(self):
        rows = (_load_json("sweep_out/sweep.json") or {}).get("rows", [])
        return {"theta_range": list(self.thetas), "rows": len(rows)}


def make_workload(name, harness, seed) -> Workload:
    if name == "flagship":
        return Flagship(harness, seed)
    if name == "sweep_jobs2":
        return Sweep(harness, seed, jobs=min(2, len(os.sched_getaffinity(0))))
    raise SystemExit(f"unknown workload {name!r}")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True, help="directory holding affmax")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    import affmax.cli as cli
    src = Path(args.src).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"imported {cli.__file__}, not the copy under {src}")
    workdir = Path(args.workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(workdir / "spool") if args.trace else None
    os.chdir(workdir)

    harness = Harness(cli, tracer)
    wl = make_workload(args.workload, harness, args.seed)
    wl.prepare()

    # warm-up, discarded; in the traced run it also takes the tracemalloc
    # peak of full_residual, which would slow a timed iteration several fold
    if tracer:
        tracer.install()
        tracer.alloc_probe = True
    wl.iteration()
    if tracer:
        tracer.alloc_probe = False
        tracer.uninstall()
        tracer.collect()

    # timed iterations; the traced run alternates traced and untraced ones
    times = {False: [], True: []}
    layers = []
    nbytes = 0
    clock = time.perf_counter()
    while (time.perf_counter() - clock < args.seconds
           or not times[False] or (tracer and not times[True])):
        traced = bool(tracer) and len(times[True]) <= len(times[False])
        if traced:
            tracer.install()
        elapsed, nbytes = wl.iteration()
        times[traced].append(elapsed)
        if traced:
            tracer.uninstall()
            layers.append(layer_totals(*tracer.collect()))

    result = {
        "iter_s": times[False], "traced_iter_s": times[True],
        "artifact_bytes": nbytes, "peak_rss_mb": peak_rss_mb(),
        "attempted": harness.attempted, "failures": harness.failures,
        "layers": layers,
        "alloc_peak_mb": tracer.alloc_peaks if tracer else {},
        "accuracy": wl.accuracy(),
        "versions": {pkg: importlib.metadata.version(pkg)
                     for pkg in ("numpy", "scipy")},
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
