"""Benchmark of the affmax CLI pipeline, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flagship --seed 0 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with no tracing.  ``--trace 1`` reports the per-layer metrics: it wraps
the public library calls of each layer (see ``spans.py``) in every other
timed iteration, and reports the traced-minus-untraced iteration time as
``trace.overhead_s``.  Either way the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run: seed, versions, git
SHA, ``nproc``, sample counts, failure ratio and the accuracy figures.

Set-up time is the time from starting a fresh interpreter until
``import affmax.cli`` finishes, the median over several interpreters,
half of them started before the workload and half after it, so that
the samples straddle the host's slow and fast phases.
The workload itself runs in one more fresh interpreter (``worker.py``),
so its peak RSS is its own.  Everything the run writes goes under
``.perfbench_work/`` in the checkout and is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKDIR = ROOT / ".perfbench_work" / f"run-{os.getpid()}"

SETUP_RUNS = 4          # timed fresh interpreters before and again after the
                        # workload; one more runs first, untimed
DEADLINE_S = 170        # the whole run ends within this, or fails
T0 = time.perf_counter()
IMPORT_FAMILIES = ("numpy", "scipy")

# metric names and units, in the order printed, come from BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_METRICS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
END_TO_END_METRICS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _remaining() -> float:
    return max(1.0, DEADLINE_S - (time.perf_counter() - T0))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(WORKDIR)
    return env


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing each of IMPORT_FAMILIES, and in total.

    ``-X importtime`` lists modules children first, indented by depth.  A
    module of a family counts with its cumulative time unless an
    ancestor already belongs to one of the families.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line.split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, int(cum), name.strip()))

    def family(mod):
        top = mod.split(".", 1)[0]
        return top if top in IMPORT_FAMILIES else None

    out = {fam: 0.0 for fam in IMPORT_FAMILIES}
    out["affmax"] = 0.0
    ancestors: list[str] = []
    for depth, cum, name in reversed(entries):   # parents first
        del ancestors[depth:]
        fam = family(name)
        if fam and not any(family(a) for a in ancestors):
            out[fam] += cum / 1e6
        if depth == 0 and name.split(".", 1)[0] == "affmax":
            out["affmax"] += cum / 1e6
        ancestors.append(name)
    out["affmax"] -= sum(out[fam] for fam in IMPORT_FAMILIES)
    return out


def measure_setup(importtime: bool, warm_up: bool) -> list[dict]:
    """Fresh interpreters timed from spawn until ``import affmax.cli`` ends.

    With warm_up, one more interpreter runs first and is not counted.
    """
    code = ("import time, affmax.cli; "
            "print(repr(time.perf_counter()), flush=True)")
    flags = ["-X", "importtime"] if importtime else []
    samples = []
    for i in range(SETUP_RUNS + warm_up):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *flags, "-c", code],
                              cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=_remaining())
        if proc.returncode != 0:
            raise RuntimeError(f"import affmax.cli failed: {proc.stderr[-500:]}")
        sample = {"setup_s": float(proc.stdout.split()[-1]) - start}
        if importtime:
            sample.update(parse_importtime(proc.stderr))
        if i or not warm_up:
            samples.append(sample)
    return samples


def run_worker(args) -> dict:
    result = WORKDIR / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", str(SRC), "--workdir", str(WORKDIR / "run"),
           "--result", str(result)]
    # own process group, so a timeout also ends the sweep's pool workers
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), text=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=_remaining())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {stderr[-2000:]}")
    with open(result) as fh:
        return json.load(fh)


def layer_metrics(out: dict, setup: list[dict]) -> dict[str, float]:
    """Medians over traced iterations (and set-up samples) of each metric."""
    rows = []
    for row in out["layers"]:
        row = dict(row)
        points = row.get("verify.full_residual.points", 0)
        if points:
            row["core.point_evals_per_point"] = row.get("core.point_evals", 0) / points
            row["verify.full_residual.us_per_point"] = \
                row["verify.full_residual.total_s"] / points * 1e6
        rows.append(row)
    values = {}
    for name in LAYER_METRICS:
        if name.startswith("setup."):
            key = name[len("setup."):-len("_s")]
            values[name] = statistics.median(s[key] for s in setup)
        elif name == "verify.full_residual.alloc_peak_mb":
            values[name] = out["alloc_peak_mb"].get("verify.full_residual", 0.0)
        elif name == "trace.overhead_s":
            values[name] = (statistics.median(out["traced_iter_s"])
                            - statistics.median(out["iter_s"]))
        else:
            values[name] = float(statistics.median(r.get(name, 0) for r in rows))
    return values


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "affmax" / "__init__.py").is_file():
        sys.stderr.write(f"error: no affmax sources under {SRC}\n")
        return 2

    try:
        WORKDIR.mkdir(parents=True)
        setup = measure_setup(bool(args.trace), warm_up=True)
        out = run_worker(args)
        setup += measure_setup(bool(args.trace), warm_up=False)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        try:
            WORKDIR.parent.rmdir()
        except OSError:     # another run still uses it
            pass

    failed = len(out["failures"])
    if args.trace:
        metrics = layer_metrics(out, setup)
        units = LAYER_METRICS
    else:
        measured = {
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "iter_s": statistics.median(out["iter_s"]),
            "peak_rss_mb": out["peak_rss_mb"],
            "artifact_mb": out["artifact_bytes"] / 1e6,
        }
        metrics = {name: measured[name] for name in END_TO_END_METRICS}
        units = END_TO_END_METRICS
    for msg in out["failures"][:20]:
        print(f"FAILED {msg}")
    for name, value in metrics.items():
        print(f"{name:45s} {value:.6g} {units[name]}")
    print(json.dumps({"run": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "python": platform.python_version(), **out["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "iter_s_samples": out["iter_s"],
        "traced_iter_s_samples": out["traced_iter_s"],
        "fail_ratio": failed / out["attempted"],
        "accuracy": out["accuracy"],
    }}))
    print(json.dumps({
        "correct": failed == 0, "attempted": out["attempted"], "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
