"""Checks of the benchmark's own tracing and parsing code.

Named so that the repository's default test collection (``test_*.py``)
skips it; run it explicitly from the checkout root:

    python3 -m pytest perfbench/selftest.py -q
"""

import contextlib
import io
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import affmax  # noqa: E402
import affmax.cli  # noqa: E402
import affmax.core  # noqa: E402
import affmax.verify  # noqa: E402
from run import parse_importtime  # noqa: E402
from spans import Tracer, covered, layer_totals  # noqa: E402


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (3.2, 3.5)]) == 3.0


def test_self_time_subtracts_union_of_children():
    spans = [
        {"name": "cli.sweep", "depth": 0, "start": 0.0, "end": 10.0, "counts": {}},
        # two workers in parallel: their union, not their sum, is covered
        {"name": "negative_pair.extend_global", "depth": 1, "start": 1.0,
         "end": 5.0, "counts": {"negative_pair.curve_samples": 7}},
        {"name": "negative_pair.extend_global", "depth": 1, "start": 2.0,
         "end": 6.0, "counts": {"negative_pair.curve_samples": 7}},
    ]
    out = layer_totals(spans, {"core.point_evals": 3})
    assert out["cli.sweep.total_s"] == 10.0
    assert out["cli.sweep.self_s"] == 5.0
    assert out["negative_pair.extend_global.total_s"] == 8.0
    assert out["negative_pair.extend_global.calls"] == 2
    assert out["negative_pair.curve_samples"] == 14
    assert out["core.point_evals"] == 3


def test_parse_importtime_attributes_nested_families_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:       200 |        200 |       numpy.linalg",
        "import time:       300 |        500 |     numpy",
        "import time:        50 |         50 |       numpy.testing",
        "import time:       400 |        450 |     scipy.integrate",
        "import time:        10 |        960 |   affmax.core",
        "import time:        20 |        980 | affmax",
        "import time:        30 |         30 | affmax.cli",
    ])
    out = parse_importtime(stderr)
    assert abs(out["numpy"] - 500e-6) < 1e-12
    # numpy.testing loaded from inside scipy counts for scipy only
    assert abs(out["scipy"] - 450e-6) < 1e-12
    assert abs(out["affmax"] - (1010 - 950) * 1e-6) < 1e-12


def test_install_wraps_every_name_a_caller_looks_up():
    originals = (affmax.verify.full_residual, affmax.core.read_columns,
                 affmax.core.RadialProfile.v_at)
    spool = HERE.parent / ".perfbench_work" / "selftest"
    tracer = Tracer(spool)
    tracer.install()
    try:
        # cli binds the name itself (``from .verify import full_residual``)
        assert affmax.cli.full_residual is affmax.verify.full_residual
        assert affmax.cli.full_residual is affmax.full_residual
        assert affmax.cli.full_residual is not originals[0]
        names, cols = affmax.cli.read_columns(io.StringIO(
            "r,v,u\n" + "".join(f"{i},{i},{i}\n" for i in range(9))))
        assert names == ["r", "v", "u"]
        prof = affmax.core.RadialProfile(r=cols[0], v=cols[1], u=cols[2], n=1)
        prof.v_at(0.5)
        prof.v_deriv_at(0.5, 1)
    finally:
        tracer.uninstall()
        shutil.rmtree(spool, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept while a benchmark run uses it
            spool.parent.rmdir()
    assert (affmax.cli.full_residual, affmax.cli.read_columns,
            affmax.core.RadialProfile.v_at) == originals
    spans, counts = tracer.collect()
    assert [s["name"] for s in spans] == ["core.read_columns"]
    assert counts == {"core.point_evals": 2}
