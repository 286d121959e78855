import base64
import json

import numpy as np
import pytest

from affmax.cli import main
from affmax.core import encode_column


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """End-to-end artifact chain shared by the CLI tests."""
    d = tmp_path_factory.mktemp("cli")
    assert run(["solve-positive", "--v0", "1.0", "--theta", "0.55",
                "--lambda", "1.0", "--rmax", "10", "--out",
                str(d / "phi.csv")]) == 0
    assert run(["solve-negative", "--n", "2", "--theta", "0.55",
                "--eta0", "1.05", "--eta-max-bounds", "50000",
                "--out", str(d / "curve.csv"),
                "--report", str(d / "report.json")]) == 0
    assert run(["reconstruct", "--curve", str(d / "curve.csv"), "--v0", "1.0",
                "--n", "2", "--out", str(d / "psi.csv")]) == 0
    assert run(["assemble", "--phi", str(d / "phi.csv"),
                "--psi", str(d / "psi.csv"), "--curve", str(d / "curve.csv"),
                "--m", "0", "--theta", "0.55",
                "--n", "2", "--report", str(d / "report.json"),
                "--out", str(d / "solution.json")]) == 0
    return d


class TestPipeline:
    def test_report_schema(self, workdir):
        rep = json.loads((workdir / "report.json").read_text())
        for key in ("taylor", "lambda_cal", "iterations", "bounds", "T_inf",
                    "tail_bound", "R_inf"):
            assert key in rep
        assert set(rep["bounds"]) == {"rho", "eps0", "eta1", "eta2"}
        assert rep["taylor"]["alpha"] == pytest.approx(4.13333333, abs=1e-6)

    def test_curve_header(self, workdir):
        assert (workdir / "curve.csv").read_text().splitlines()[0] == "eta,zeta,I"

    def test_profile_header(self, workdir):
        assert (workdir / "phi.csv").read_text().splitlines()[0] == "r,v,u"

    def test_verify_passes(self, workdir):
        rc = run(["verify", "--solution", str(workdir / "solution.json"),
                  "--points", "60", "--seed", "1",
                  "--report", str(workdir / "verify.json")])
        assert rc == 0
        rep = json.loads((workdir / "verify.json").read_text())
        assert rep["pass"]
        assert rep["residual_max"] < 1e-4
        assert rep["convexity_margin"] > 0
        assert len(rep["residuals"]) == 60

    def test_emit_plot_kinds(self, workdir):
        for kind, artifact in [("phase", "curve.csv"), ("profile", "phi.csv"),
                               ("bounds", "curve.csv"),
                               ("residual-hist", "verify.json")]:
            out = workdir / f"plot_{kind}.dat"
            assert run(["emit-plot-data", "--artifact", str(workdir / artifact),
                        "--kind", kind, "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            assert lines[0].startswith("#")
            assert len(lines) > 2

    def test_unknown_plot_kind(self, workdir):
        assert run(["emit-plot-data", "--artifact", str(workdir / "curve.csv"),
                    "--kind", "nope", "--out", str(workdir / "x.dat")]) == 1

    def test_assemble_without_curve_is_one_line_usage_error(
            self, workdir, tmp_path, monkeypatch, capsys):
        # --curve defaults to curve.csv, which the empty directory lacks
        monkeypatch.chdir(tmp_path)
        assert run(["assemble", "--phi", str(workdir / "phi.csv"),
                    "--psi", str(workdir / "psi.csv"),
                    "--report", str(workdir / "report.json")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "curve.csv" in err
        assert not (tmp_path / "solution.json").exists()


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, workdir):
        for tag in ("a", "b"):
            assert run(["solve-negative", "--n", "2", "--theta", "0.55",
                        "--eta0", "1.05", "--eta-max", "200",
                        "--eta-max-bounds", "200",
                        "--out", str(tmp_path / f"c_{tag}.csv"),
                        "--report", str(tmp_path / f"r_{tag}.json")]) in (0, 2)
            assert run(["assemble", "--phi", str(workdir / "phi.csv"),
                        "--psi", str(workdir / "psi.csv"),
                        "--curve", str(workdir / "curve.csv"),
                        "--report", str(workdir / "report.json"),
                        "--out", str(tmp_path / f"s_{tag}.json")]) == 0
            assert run(["verify", "--solution", str(tmp_path / f"s_{tag}.json"),
                        "--points", "40", "--seed", "4",
                        "--report", str(tmp_path / f"v_{tag}.json")]) == 0
        for name in ("c_{}.csv", "r_{}.json", "s_{}.json", "v_{}.json"):
            assert (tmp_path / name.format("a")).read_bytes() == \
                (tmp_path / name.format("b")).read_bytes()


_DELETE = object()
_MALFORMED_SOLUTIONS = {
    # a file as schema 1 wrote it: float columns as JSON lists
    "schema-1": {"schema": 1, "phi.r": [0.0, 0.5, 1.0]},
    "no-schema": {"schema": _DELETE},
    "missing-key": {"kappa": _DELETE},
    "missing-column": {"phi.u": _DELETE},
    "missing-curve-column": {"psi.constructor.zeta": _DELETE},
    "null-constructor": {"phi.constructor": None},
    "block-not-object": {"phi": [1.0]},
    "non-alphabet": {"phi.r": "AAAA*AAAAAA="},
    "odd-bytes": {"psi.v": base64.b64encode(bytes(12)).decode("ascii")},
    "unequal-columns": {"phi.u": encode_column(np.zeros(3))},
}


def _edit(data, edits):
    for dotted, value in edits.items():
        *path, key = dotted.split(".")
        block = data
        for k in path:
            block = block[k]
        if value is _DELETE:
            del block[key]
        else:
            block[key] = value


class TestConfigAndErrors:
    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[bernstein-radial]\nn = 3\ntheta = 1.0\n"
                       "out = %s\n" % (tmp_path / "rep.json"))
        assert run(["bernstein-radial", "--config", str(cfg)]) == 0
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["n"] == 3 and rep["theta"] == 1.0
        # flag overrides the file
        assert run(["bernstein-radial", "--config", str(cfg),
                    "--theta", "1.5"]) == 0

    def test_missing_solution_is_usage_error(self, tmp_path):
        assert run(["verify", "--solution", str(tmp_path / "missing.json")]) == 1

    def test_bad_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_command_prints_usage(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_version(self, capsys):
        assert run(["--version"]) == 0
        out = capsys.readouterr().out
        assert "affmax" in out and "schema" in out

    def test_invalid_dimension_is_usage_error(self):
        assert run(["bernstein-radial", "--n", "2", "--theta", "1.0"]) == 1

    def test_failed_construction_exits_2(self, tmp_path):
        # n = 3 is accepted, but the converged curve loses positivity
        assert run(["solve-negative", "--n", "3",
                    "--out", str(tmp_path / "c.csv"),
                    "--report", str(tmp_path / "r.json")]) == 2

    def test_calibration_overflow_is_one_line_failure(self, tmp_path, capsys):
        # exp(J) of the calibration constant overflows on the first sweep
        assert run(["solve-negative", "--n", "3", "--theta", "0.6",
                    "--eta0", "1.2", "--out", str(tmp_path / "c.csv"),
                    "--report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: NoConvergence: ") and err.count("\n") == 1
        for name in ("J = ", "n = 3", "theta = 0.6", "eta0 = 1.2"):
            assert name in err

    def test_calibration_overflow_fails_every_sweep_row(self, tmp_path, capsys):
        assert run(["sweep", "--n", "4", "--steps", "3", "--theta-min", "0.55",
                    "--theta-max", "0.72", "--outdir", str(tmp_path / "sw")]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        rows = json.loads((tmp_path / "sw" / "sweep.json").read_text())["rows"]
        assert len(rows) == 3
        for row in rows:
            assert row["status"] == "failed"
            assert row["error"].startswith("NoConvergence: calibration constant overflows")

    @pytest.mark.parametrize("text", [
        "", "\n\n", "eta,zeta,I\n", "eta,zeta,I\n1.1,0.2,0.3\n1.2,0.3\n",
        "eta,zeta,I\n1.1,0.2,0.3,0.4\n", "eta,zeta,I\n1.1,abc,0.3\n"],
        ids=["empty", "blank", "header-only", "short-row", "long-row",
             "non-numeric"])
    def test_malformed_csv_is_one_line_usage_error(self, tmp_path, capsys, text):
        bad = tmp_path / "curve.csv"
        bad.write_text(text)
        assert run(["reconstruct", "--curve", str(bad),
                    "--out", str(tmp_path / "psi.csv")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ParameterError: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["{\"schema\": 2,", "[1, 2]", "null"],
                             ids=["invalid-json", "array", "null"])
    def test_non_object_solution_is_one_line_usage_error(self, tmp_path, capsys,
                                                         text):
        bad = tmp_path / "solution.json"
        bad.write_text(text)
        self._assert_one_line_usage_error(bad, capsys)

    @pytest.mark.parametrize("edits", _MALFORMED_SOLUTIONS.values(),
                             ids=_MALFORMED_SOLUTIONS.keys())
    def test_malformed_solution_is_one_line_usage_error(self, workdir, tmp_path,
                                                        capsys, edits):
        data = json.loads((workdir / "solution.json").read_text())
        _edit(data, edits)
        bad = tmp_path / "solution.json"
        bad.write_text(json.dumps(data))
        err = self._assert_one_line_usage_error(bad, capsys)
        if data.get("schema") == 1:
            assert "rerun assemble" in err

    @staticmethod
    def _assert_one_line_usage_error(path, capsys):
        assert run(["verify", "--solution", str(path), "--points", "10",
                    "--report", str(path.parent / "verify.json")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ParameterError: ") and err.count("\n") == 1
        return err

    def test_bernstein_1d(self, tmp_path):
        out = tmp_path / "b1.json"
        assert run(["bernstein-1d", "--theta", "0.6", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pass"]


class TestSweep:
    def test_sweep_marks_unclaimed_rows(self, tmp_path):
        rc = run(["sweep", "--n", "2", "--theta-min", "0.55",
                  "--theta-max", "0.68", "--steps", "2", "--jobs", "1",
                  "--eta-max", "200", "--outdir", str(tmp_path / "sw")])
        assert rc in (0, 2)
        rep = json.loads((tmp_path / "sw" / "sweep.json").read_text())
        rows = rep["rows"]
        assert len(rows) == 2
        assert rows[0]["upper_bound_claimed"] is True
        assert rows[1]["upper_bound_claimed"] is False
        assert rows[1].get("note") == "upper-bound-not-claimed"
        assert all(r["status"] == "ok" for r in rows)

    def test_sweep_parallel_matches_serial(self, tmp_path):
        args = ["sweep", "--n", "2", "--theta-min", "0.54", "--theta-max",
                "0.58", "--steps", "2", "--eta-max", "150"]
        run(args + ["--jobs", "1", "--outdir", str(tmp_path / "s1")])
        run(args + ["--jobs", "2", "--outdir", str(tmp_path / "s2")])
        assert (tmp_path / "s1" / "sweep.json").read_bytes() == \
            (tmp_path / "s2" / "sweep.json").read_bytes()
