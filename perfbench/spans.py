"""Spans and counts recorded around the public calls of each affmax layer.

The tracer patches library functions from the outside: every module of
the package that binds a traced function under its name gets the
wrapper, so a call is seen whichever name its caller looks up
(``affmax.cli.full_residual`` as well as ``affmax.verify.full_residual``).
Nothing inside ``src/`` is changed, and ``uninstall`` restores every
binding, so untraced iterations run the original code.

Spans are kept in memory.  A span recorded in a forked worker process
(``sweep --jobs 2``) is appended to a spool file instead, one JSON object
per line, and merged into the parent's list by ``collect``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

# (layer, function, counter): the span is named "<layer>.<function>", and
# counter(result) gives extra counts recorded on it.  A layer is a module
# of the affmax package.
TRACED_FUNCTIONS = [
    ("core", "read_columns", None),
    ("core", "write_columns", None),
    ("positive_pair", "build_phi", None),
    ("negative_pair", "fixed_point_solve",
     lambda out: {"negative_pair.picard_iterations": out.iterations}),
    ("negative_pair", "extend_global",
     lambda out: {"negative_pair.curve_samples": len(out.eta)}),
    ("negative_pair", "growth_bounds_check", None),
    ("negative_pair", "blowup_time", None),
    ("reconstruct", "rebuild_profile", None),
    ("verify", "assemble", None),
    ("verify", "full_residual",
     lambda out: {"verify.full_residual.points": len(out.residuals)}),
    ("verify", "completeness_check", None),
]

# methods counted (not timed) on every call: the scalar point evaluations
COUNTED_METHODS = [
    ("core", "RadialProfile", "v_at", "core.point_evals"),
    ("core", "RadialProfile", "v_deriv_at", "core.point_evals"),
]


class Tracer:
    """Records spans (name, pid, depth, start, end, counts)."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.main_pid = os.getpid()
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.alloc_peaks: dict[str, float] = {}
        self.alloc_probe = False
        self._depth = 0
        self._patches: list[tuple] = []

    # -- recording --------------------------------------------------------
    def _record(self, name, depth, start, end, counts):
        span = {"name": name, "pid": os.getpid(), "depth": depth,
                "start": start, "end": end, "counts": counts or {}}
        if span["pid"] == self.main_pid:
            self.spans.append(span)
        else:
            with open(self.spool_dir / f"spans-{span['pid']}.jsonl", "a") as fh:
                fh.write(json.dumps(span) + "\n")

    def call(self, name, fn, *args, counter=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name.

        A call that raises records no span; the harness counts it as a
        failed operation.
        """
        depth = self._depth
        self._depth = depth + 1
        probe = self.alloc_probe and name == "verify.full_residual"
        if probe:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._depth = depth
            if probe:
                self.alloc_peaks[name] = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
        counts = None
        if counter is not None:
            try:
                counts = counter(out)
            except (AttributeError, TypeError):  # result changed shape: no count
                pass
        self._record(name, depth, start, end, counts)
        return out

    def collect(self) -> tuple[list[dict], dict[str, int]]:
        """All spans since the last collect, the worker processes' included."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
            path.unlink()
        counts = dict(self.counts)
        self.counts.clear()
        return spans, counts

    # -- patching ---------------------------------------------------------
    def _bind_everywhere(self, original, replacement, attr):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "affmax"
                                   or mod_name.startswith("affmax.")):
                continue
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, replacement)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self):
        """Wrap every traced function and counted method that exists.

        One the package no longer has is skipped, and its metrics read 0.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, attr, counter in TRACED_FUNCTIONS:
            original = getattr(sys.modules.get(f"affmax.{layer}"), attr, None)
            if callable(original):
                self._bind_everywhere(
                    original, self._wrap(f"{layer}.{attr}", original, counter),
                    attr)
        for layer, cls_name, meth, count_name in COUNTED_METHODS:
            cls = getattr(sys.modules.get(f"affmax.{layer}"), cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if callable(original):
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._counting(count_name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counter=counter, **kwargs)
        return traced

    def _counting(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_totals(spans, counts) -> dict:
    """Per-name sums for one iteration: total_s, self_s, calls and counts.

    Self time is a span's duration minus the union of the spans one level
    below it that fall inside it, from any process.
    """
    out: dict[str, float] = dict(counts)
    for span in spans:
        name = span["name"]
        dur = span["end"] - span["start"]
        out[f"{name}.total_s"] = out.get(f"{name}.total_s", 0.0) + dur
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for key, val in span["counts"].items():
            out[key] = out.get(key, 0) + val
        inner = [(s["start"], s["end"]) for s in spans
                 if s["depth"] == span["depth"] + 1
                 and s["start"] >= span["start"] and s["end"] <= span["end"]]
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - covered(inner)
    return out
