import base64
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import affmax
from affmax import cli, reconstruct, verify
from affmax.cli import main
from affmax.core import (ModelParams, PhaseCurve, TaylorData, decode_column,
                         encode_column, read_columns, upper_bound_claimed,
                         write_columns)
from affmax.negative_pair import growth_bounds_check, solve_negative
from affmax.reconstruct import _tables


def run(argv):
    return main(argv)


def assemble_argv(d, out, report=None):
    """assemble on the artifacts in d, as the README runs it."""
    return ["assemble", "--phi", str(d / "phi.csv"), "--psi", str(d / "psi.csv"),
            "--curve", str(d / "curve.csv"), "--m", "0",
            "--report", str(report or d / "report.json"), "--out", str(out)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """End-to-end artifact chain shared by the CLI tests."""
    d = tmp_path_factory.mktemp("cli")
    assert run(["solve-positive", "--v0", "1.0", "--theta", "0.55",
                "--lambda", "1.0", "--rmax", "10", "--out",
                str(d / "phi.csv")]) == 0
    assert run(["solve-negative", "--n", "2", "--theta", "0.55",
                "--eta0", "1.05", "--eta-max", "50000",
                "--out", str(d / "curve.csv"),
                "--report", str(d / "report.json")]) == 0
    assert run(["reconstruct", "--curve", str(d / "curve.csv"), "--v0", "1.0",
                "--out", str(d / "psi.csv")]) == 0
    assert run(assemble_argv(d, d / "solution.json")) == 0
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

    def test_assemble_without_report_is_one_line_usage_error(self, workdir, tmp_path,
                                                             capsys):
        # it wrote "R_inf": null, and verify then passed a completeness
        # check that checked no boundary
        argv = assemble_argv(workdir, tmp_path / "solution.json")
        i = argv.index("--report")
        assert run(argv[:i] + argv[i + 2:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParameterError: assemble needs --report")
        assert err.count("\n") == 1
        assert not (tmp_path / "solution.json").exists()

    @pytest.mark.parametrize("text", [
        "[1]", '{"R_inf": "big"}', '{"R_inf": NaN}', '{"T_inf": 1.5}', '{"R_inf": 4.6',
        # n and theta, which assemble reads from the report alone
        '{"R_inf": 4.6, "theta": 0.55}', '{"R_inf": 4.6, "n": "2", "theta": 0.55}',
        '{"R_inf": 4.6, "n": 2.0, "theta": 0.55}', '{"R_inf": 4.6, "n": 7, "theta": 0.55}',
        '{"R_inf": 4.6, "n": 1, "theta": 0.55}', '{"R_inf": 4.6, "n": 2}',
        '{"R_inf": 4.6, "n": 2, "theta": "0.55"}', '{"R_inf": 4.6, "n": 2, "theta": 0.7}',
        '{"R_inf": 4.6, "n": 2, "theta": 0.3}'],
        ids=["array", "string-R_inf", "nan-R_inf", "no-R_inf", "invalid-json",
             "no-n", "string-n", "float-n", "n-above-range", "n-below-range",
             "no-theta", "string-theta", "theta-above-range", "theta-below-range"])
    def test_malformed_report_is_one_line_usage_error(self, workdir, tmp_path,
                                                      capsys, text):
        # with the retired --n and --theta, an n the curve was not solved
        # at was a failed construction (exit 2), a theta blamed the columns
        bad = tmp_path / "report.json"
        bad.write_text(text)
        assert run(assemble_argv(workdir, tmp_path / "solution.json", bad)) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ParameterError: ") and err.count("\n") == 1
        assert not (tmp_path / "solution.json").exists()

    @pytest.mark.parametrize("flag, value, differ", [
        ("--eta-max", "1e5", "scan_range"), ("--theta", "0.6", "taylor_measured")],
        ids=["eta-max", "theta"])
    def test_report_of_another_run_is_one_line_usage_error(self, workdir, tmp_path,
                                                           capsys, flag, value, differ):
        # the curve is solved at theta 0.55 to eta_max 5e4.  A report of
        # another eta_max assembled with its own R_inf, and one of another
        # theta blamed the phi columns
        opts = {"--theta": "0.55", "--eta-max": "50000", flag: value}
        report = tmp_path / "report.json"
        assert run(["solve-negative", *(a for kv in opts.items() for a in kv),
                    "--out", str(tmp_path / "curve.csv"),
                    "--report", str(report)]) in (0, 2)
        capsys.readouterr()
        assert run(assemble_argv(workdir, tmp_path / "solution.json", report)) == 1
        assert capsys.readouterr().err == (
            f"error: ParameterError: {report} and {workdir / 'curve.csv'} are not "
            f"from one solve-negative run: {differ} differ\n")
        assert not (tmp_path / "solution.json").exists()

    @pytest.mark.parametrize("key, value", [("n", 3), ("theta", 0.56)])
    def test_hand_edited_report_is_one_line_usage_error(self, workdir, tmp_path,
                                                        capsys, key, value):
        # n 3 failed the construction (exit 2) and theta 0.56 blamed the phi
        # columns; the report's closed-form Taylor data is that of the n and
        # theta it was solved at
        report = json.loads((workdir / "report.json").read_text())
        report[key] = value
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(report))
        assert run(assemble_argv(workdir, tmp_path / "solution.json", bad)) == 1
        assert capsys.readouterr().err == (
            f"error: ParameterError: {bad} and {workdir / 'curve.csv'} are not "
            f"from one solve-negative run: taylor differ\n")
        assert not (tmp_path / "solution.json").exists()

    @pytest.mark.parametrize("name", ["phi.csv", "psi.csv"])
    def test_unordered_profile_rows_are_one_line_usage_error(self, workdir, tmp_path,
                                                             capsys, name):
        # swapped rows still agree with the factor row by row
        for f in ("phi.csv", "psi.csv", "curve.csv", "report.json"):
            (tmp_path / f).write_text((workdir / f).read_text())
        lines = (tmp_path / name).read_text().splitlines(keepends=True)
        lines[5], lines[6] = lines[6], lines[5]
        (tmp_path / name).write_text("".join(lines))
        assert run(assemble_argv(tmp_path, tmp_path / "solution.json")) == 1
        err = capsys.readouterr().err
        assert err == "error: ParameterError: r grid must be strictly increasing\n"
        assert not (tmp_path / "solution.json").exists()

    @pytest.mark.parametrize("col, value", [(2, 12345.0), (2, math.nan), (1, math.nan)],
                             ids=["u", "u-nan", "v-nan"])
    @pytest.mark.parametrize("name", ["phi.csv", "psi.csv"])
    def test_wrong_column_is_one_line_usage_error(self, workdir, tmp_path, capsys,
                                                  name, col, value):
        # the u column is cross-checked as v is, and a NaN fails the check
        for f in ("phi.csv", "psi.csv", "curve.csv", "report.json"):
            shutil.copy(workdir / f, tmp_path / f)
        cols = list(read_columns(tmp_path / name)[1])
        cols[col] = np.full_like(cols[col], value)
        write_columns(tmp_path / name, ["r", "v", "u"], cols)
        assert run(assemble_argv(tmp_path, tmp_path / "solution.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ParameterError: {name[:3]} profile columns disagree")
        assert err.count("\n") == 1
        assert not (tmp_path / "solution.json").exists()

    def test_curve_cut_short_of_its_anchor_is_one_line_usage_error(self, workdir, tmp_path,
                                                                   capsys):
        # reconstruct anchored this curve at its last row, eta = 1.0397, where
        # I = -0.225, instead of at eta0 = 1.05, and wrote psi.csv
        cols = read_columns(workdir / "curve.csv", header=["eta", "zeta", "I"])[1]
        keep = cols[0] <= 1.04
        write_columns(tmp_path / "curve.csv", ["eta", "zeta", "I"], [c[keep] for c in cols])
        assert run(["reconstruct", "--curve", str(tmp_path / "curve.csv"),
                    "--out", str(tmp_path / "psi.csv")]) == 1
        assert capsys.readouterr().err == ("error: ParameterError: curve column I is 0 "
                                           "at 0 rows, not at one eta0\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "curve.csv"]

    def test_psi_rows_do_not_reach_the_solution(self, workdir, tmp_path):
        # a psi.csv of every reconstruction table row assembles to the same
        # bytes as reconstruct's PROFILE_ROWS-row file: the certificate is
        # built from the curve, and the CSV only cross-checks it
        curve = PhaseCurve.from_csv(workdir / "curve.csv")
        tab = _tables(curve, v0=1.0)
        full = [np.exp(tab["t"]), np.exp(tab["logv"]), tab["u"]]
        assert len(full[0]) > len(read_columns(workdir / "psi.csv")[1][0]) + 2000
        for f in ("phi.csv", "curve.csv", "report.json"):
            shutil.copy(workdir / f, tmp_path / f)
        write_columns(tmp_path / "psi.csv", ["r", "v", "u"], full)
        assert run(assemble_argv(tmp_path, tmp_path / "solution.json")) == 0
        assert ((tmp_path / "solution.json").read_bytes()
                == (workdir / "solution.json").read_bytes())


class TestSchema3:
    def test_factor_blocks_hold_only_constructors(self, workdir):
        data = json.loads((workdir / "solution.json").read_text())
        assert data["schema"] == 3
        assert list(data["phi"]) == ["constructor"]
        assert list(data["psi"]) == ["constructor"]
        assert data["phi"]["constructor"]["nodes"] == 2001
        assert data["phi"]["constructor"]["rmax"] == 10.0

    def test_verify_builds_the_factors_assemble_fitted(self, workdir, tmp_path,
                                                        monkeypatch):
        built, fitted = [], verify.assemble

        def recording_assemble(*args, **kwargs):
            built.append(fitted(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(verify, "assemble", recording_assemble)
        assert run(assemble_argv(workdir, tmp_path / "solution.json")) == 0
        (sol,) = built
        path = tmp_path / "solution.json"
        back = verify.solution_from_payload(json.loads(path.read_text()), str(path))
        assert back.kappa == sol.kappa
        phi_csv_r = read_columns(str(workdir / "phi.csv"))[1][0]
        assert back.phi.r.tobytes() == sol.phi.r.tobytes() == phi_csv_r.tobytes()
        # assemble rebuilds psi from the curve.csv columns it read, verify
        # from the constructor's base64 columns: same bits at psi.csv's radii
        psi_csv_r = read_columns(str(workdir / "psi.csv"))[1][0]
        for made, read, at in ((sol.phi, back.phi, []),
                               (sol.psi, back.psi, psi_csv_r[psi_csv_r > 0])):
            r = np.concatenate([np.geomspace(max(made.r[0], 1e-6), made.r[-1], 257), at])
            a, b = made.evaluator, read.evaluator
            assert a.v(r).tobytes() == b.v(r).tobytes()
            assert a.u(r).tobytes() == b.u(r).tobytes()
            for k in (1, 2, 3):
                assert a.deriv(r, k).tobytes() == b.deriv(r, k).tobytes()


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, workdir):
        for tag in ("a", "b"):
            assert run(["solve-negative", "--n", "2", "--theta", "0.55",
                        "--eta0", "1.05", "--eta-max", "200",
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
    # schema 2 also stored the r, v, u columns of both factors
    "schema-2": {"schema": 2},
    "no-schema": {"schema": _DELETE},
    "missing-key": {"kappa": _DELETE},
    "missing-column": {"psi.constructor.eta": _DELETE},
    "missing-curve-column": {"psi.constructor.zeta": _DELETE},
    "null-constructor": {"phi.constructor": None},
    "missing-constructor": {"psi.constructor": _DELETE},
    "block-not-object": {"phi": [1.0]},
    "unknown-kind": {"phi.constructor.kind": "spline"},
    # each block takes its own factor's kind only
    "phi-kind-of-psi": {"phi.constructor.kind": "phase-reconstruction"},
    "psi-kind-of-phi": {"psi.constructor.kind": "positive-pair"},
    "non-alphabet": {"psi.constructor.eta": "AAAA*AAAAAA="},
    "odd-bytes": {"psi.constructor.zeta": base64.b64encode(bytes(12)).decode("ascii")},
    "unequal-columns": {"psi.constructor.zeta": encode_column(np.ones(3))},
    "short-I": {"psi.constructor.I": encode_column(np.zeros(3))},
    "empty-columns": {"psi.constructor.eta": "", "psi.constructor.zeta": "",
                      "psi.constructor.I": ""},
    # columns that decode but describe no curve
    "I-without-anchor": {"psi.constructor.I": lambda I: I + 1.0},
    "eta-reversed": {"psi.constructor.eta": lambda eta: eta[::-1]},
    "theta-string": {"theta": "0.55"},
    "theta-outside-range": {"theta": 0.7},
    "theta-nan": {"theta": math.nan},
    "kappa-string": {"kappa": "2.5"},
    "kappa-huge-int": {"kappa": 10**400},
    "phi-v0-string": {"phi.constructor.v0": "1.0"},
    "phi-v0-bool": {"phi.constructor.v0": True},
    "psi-v0-null": {"psi.constructor.v0": None},
    "psi-v0-negative": {"psi.constructor.v0": -1.0},
    "lambda-zero": {"phi.constructor.lambda": 0.0},
    "rmax-infinite": {"phi.constructor.rmax": math.inf},
    # finite, but the curvature table down to it leaves the float range
    "rmax-huge": {"phi.constructor.rmax": 1e300},
    "nodes-float": {"phi.constructor.nodes": 2001.0},
    "nodes-one": {"phi.constructor.nodes": 1},
    "nodes-huge": {"phi.constructor.nodes": 2**63},
    "R_inf-string": {"R_inf": "big"},
    "R_inf-negative": {"R_inf": -4.7},
    # what assemble wrote without --report
    "R_inf-null": {"R_inf": None},
    "m_cylinder-list": {"m_cylinder": [1]},
    "m_cylinder-huge": {"m_cylinder": 2**63},
    "n_psi-float": {"n_psi": 2.5},
    "n_psi-huge": {"n_psi": 10**400},
    "N-mismatch": {"N": 4},
    "lambda_phi-string": {"lambda_phi": "a"},
    "lambda_psi-object": {"lambda_psi": {}},
}


_DRAWN_FIELDS = [
    "schema", "theta", "kappa", "m_cylinder", "n_psi", "N", "R_inf",
    "lambda_phi", "lambda_psi", "phi.constructor.kind", "phi.constructor.v0",
    "phi.constructor.lambda", "phi.constructor.rmax", "phi.constructor.nodes",
    "psi.constructor.kind", "psi.constructor.v0", "psi.constructor.eta",
    "psi.constructor.zeta", "psi.constructor.I"]
_JSON_VALUES = st.one_of(
    st.text(max_size=12), st.none(), st.booleans(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.just(math.nan), st.sampled_from([2**63, -2**63, 10**400]))


def _edit(data, edits):
    for dotted, value in edits.items():
        *path, key = dotted.split(".")
        block = data
        for k in path:
            block = block[k]
        if value is _DELETE:
            del block[key]
        elif callable(value):       # an edit of the decoded column
            block[key] = encode_column(value(decode_column(block[key])))
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

    @pytest.mark.parametrize("key", ["thetaa = 0.6", "eta_max_bounds = 200",
                                     "damping = 0.25"],
                             ids=["misspelt", "retired", "retired-damping"])
    def test_unknown_config_key_is_one_line_usage_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[solve-negative]\ntheta = 0.55\n{key}\n")
        assert run(["solve-negative", "--config", str(cfg),
                    "--out", str(tmp_path / "c.csv"),
                    "--report", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParameterError: ") and err.count("\n") == 1
        assert key.split()[0] in err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("text, key", [
        ("nodes = 3\n", None),
        ("[solve-positive]\nnodes = 3\nnodes = 4\n", "nodes"),
        ("[solve-positive]\nout = 50%.csv\n", "out"),
        ("[solve-positive]\nnodes = abc\n", "nodes")],
        ids=["no-section-header", "duplicate-key", "percent-sign", "bad-value"])
    def test_malformed_config_is_one_line_usage_error(self, tmp_path, monkeypatch,
                                                      capsys, text, key):
        # the first three were configparser tracebacks; the bad value named
        # neither the file nor the key
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        assert run(["solve-positive", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ParameterError: config file {cfg}: ")
        assert err.count("\n") == 1
        if key:
            assert f": [solve-positive] {key}: " in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("name, text, reason", [
        ("missing.ini", None, "No such file or directory"),
        (".", None, "Is a directory"),
        ("run.ini", b"[solve-positive]\nnodes = \xff\n", "can't decode byte 0xff")],
        ids=["missing", "directory", "not-utf8"])
    def test_unreadable_config_is_one_line_usage_error(self, tmp_path, monkeypatch,
                                                       capsys, name, text, reason):
        # the undecodable file named neither the file nor the key, and the
        # directory was reported as not found
        monkeypatch.chdir(tmp_path)
        if text is not None:
            (tmp_path / name).write_bytes(text)
        before = sorted(tmp_path.iterdir())
        assert run(["solve-positive", "--config", name]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ParameterError: config file {name}: ")
        assert reason in err and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("flag, factor", [("--phi-v0", "phi"), ("--phi-lambda", "phi"),
                                              ("--psi-v0", "psi")])
    def test_mismatched_factor_columns_are_one_line_usage_error(self, workdir, tmp_path,
                                                                capsys, flag, factor):
        # the factor CSVs were built at 1.0; the constructor rebuilt at 2.0
        # disagrees with their columns
        out = tmp_path / "solution.json"
        assert run(assemble_argv(workdir, out) + [flag, "2.0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ParameterError: {factor} profile columns disagree")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("kind, text", [
        ("phase", None), ("residual-hist", "[0.1, 0.2]"),
        ("residual-hist", '{"residuals": [0.1, "a"]}'),
        ("residual-hist", '{"residuals": "0.1"}'),
        ("residual-hist", '{"residuals": [0.1, NaN]}'),
        ("residual-hist", '{"pass": true}'),
        ("phase", "eta\n1.1\n1.2\n"), ("profile", "r\n0.0\n1.0\n"),
        ("profile", b"r,v,u\n0.0,\xff,0.0\n")],
        ids=["no-artifact", "json-list", "string-residual", "string-residuals",
             "nan-residual", "no-residuals", "one-column-phase",
             "one-column-profile", "not-utf8-profile"])
    def test_bad_plot_artifact_is_one_line_usage_error(self, tmp_path, monkeypatch,
                                                       capsys, kind, text):
        # these were tracebacks, a bare 'residuals', (the one-column CSVs)
        # exit 0 with a header naming more columns than the rows hold, or
        # (the undecodable CSV) a codec message naming no file
        monkeypatch.chdir(tmp_path)
        argv = ["emit-plot-data", "--kind", kind]
        if isinstance(text, bytes):
            (tmp_path / "artifact").write_bytes(text)
        elif text is not None:
            (tmp_path / "artifact").write_text(text)
        if text is not None:
            argv += ["--artifact", "artifact"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParameterError: ") and err.count("\n") == 1
        if isinstance(text, bytes):
            assert err.startswith("error: ParameterError: artifact: ")
        assert not (tmp_path / "plot.dat").exists()

    def test_default_section_keys_need_not_be_options(self, tmp_path):
        # [DEFAULT] reaches every section, bernstein-1d's too, which has no n
        cfg = tmp_path / "run.ini"
        cfg.write_text("[DEFAULT]\nn = 3\n[bernstein-1d]\ntheta = 0.6\n")
        assert run(["bernstein-1d", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("command, key, value", [
        ("reconstruct", "n", "2"), ("assemble", "n", "2"), ("assemble", "theta", "0.55")])
    def test_option_with_one_right_value_is_refused(self, tmp_path, capsys,
                                                    command, key, value):
        # the rebuilt profile does not depend on n, so reconstruct has no
        # --n; assemble reads n and theta from its --report
        out = ["--out", str(tmp_path / "out")]
        assert run([command, f"--{key}", value] + out) == 1
        err = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith("error: ")]
        assert err == [f"error: unrecognized arguments: --{key} {value}"]
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{command}]\n{key} = {value}\n")
        assert run([command, "--config", str(cfg)] + out) == 1
        err = capsys.readouterr().err
        assert err == (f"error: ParameterError: config file {cfg}: [{command}] "
                       f"has no option {key}\n")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("flag", ["--eta-max-bounds", "--damping", "--tol",
                                      "--max-iter"])
    def test_eta_max_bounds_is_an_unrecognised_argument(self, tmp_path, capsys, flag):
        # the local solve picks its own damping, tolerance and sweep cap
        assert run(["solve-negative", "--eta-max", "200", flag, "200",
                    "--out", str(tmp_path / "c.csv")]) == 1
        err = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith("error: ")]
        assert err == [f"error: unrecognized arguments: {flag} 200"]
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "--points", "0"], ["verify", "--seed", "-1"],
        ["sweep", "--steps", "0"], ["sweep", "--jobs", "0"], ["sweep", "--jobs", "-3"],
        # n = 0 and -1 were a ZeroDivisionError traceback
        ["sweep", "--n", "0"], ["sweep", "--n", "-1"],
        ["bernstein-radial", "--samples", "0"], ["solve-positive", "--nodes", "0"],
        ["solve-positive", "--nodes", "1"], ["solve-positive", "--nodes", "1000001"],
        # theta = 1e300 overflowed the Taylor closed form with a traceback;
        # v0 = inf wrote psi.csv rows of inf and nan and exited 0
        ["solve-negative", "--theta", "1e300"], ["solve-negative", "--theta", "inf"],
        ["reconstruct", "--v0", "inf"], ["reconstruct", "--v0", "nan"],
        # bernstein-1d passed NaN and inf; bernstein-radial failed with
        # warnings; rmax's errors did not name it, after a warning
        ["bernstein-1d", "--theta", "nan"], ["bernstein-1d", "--theta", "inf"],
        ["bernstein-radial", "--theta", "inf"], ["bernstein-radial", "--hi", "inf"],
        ["solve-positive", "--rmax", "inf"], ["solve-positive", "--rmax", "-1"],
        # eta0 = inf exited 2 (GridTooCoarse) and eta_max = inf exited 2
        # (StepFailure), each after a numpy warning
        ["solve-negative", "--eta0", "inf"], ["solve-negative", "--eta-max", "inf"],
        # each wrote sweep.json of failed rows and exited 2
        ["sweep", "--eta0", "0.5"], ["sweep", "--eta0", "inf"],
        ["sweep", "--eta-max", "1.0"], ["sweep", "--eta-max", "inf"]],
        ids=" ".join)
    def test_bad_count_or_tolerance_is_one_line_usage_error(
            self, workdir, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        if argv[0] == "verify":
            argv = argv + ["--solution", str(workdir / "solution.json")]
        if argv[0] == "reconstruct":
            argv = argv + ["--curve", str(workdir / "curve.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParameterError: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_missing_solution_is_usage_error(self, tmp_path):
        assert run(["verify", "--solution", str(tmp_path / "missing.json")]) == 1

    def test_key_error_in_a_stage_is_not_a_usage_error(self, monkeypatch, capsys):
        # every JSON lookup goes through _get, so a KeyError is a fault of
        # the program and keeps its traceback
        def body(o):
            return o["no-such-option"]

        monkeypatch.setitem(cli._COMMANDS, "bernstein-1d", body)
        with pytest.raises(KeyError, match="no-such-option"):
            run(["bernstein-1d"])
        assert capsys.readouterr().err == ""

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
        # n = 3 is accepted, but its change grows at every damping
        assert run(["solve-negative", "--n", "3",
                    "--out", str(tmp_path / "c.csv"),
                    "--report", str(tmp_path / "r.json")]) == 2

    # eta0 - 1 lies 3.0e-8 below the root of the fourth-order seed near 7.795, so
    # exp(J) overflows on the first image, which no damping changes; a
    # later overflow only restarts the solve at a smaller damping
    def test_calibration_overflow_is_one_line_failure(self, tmp_path, capsys):
        assert run(["solve-negative", "--n", "3", "--theta", "0.6",
                    "--eta0", "8.7952282", "--out", str(tmp_path / "c.csv"),
                    "--report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: NoConvergence: ") and err.count("\n") == 1
        for name in ("J = ", "n = 3", "theta = 0.6", "eta0 = 8.7952282"):
            assert name in err

    # the field overflows far out and the stages go non-finite until the
    # step size collapses: one line, and none of numpy's warnings on the way
    def test_overflowing_extension_is_one_line_failure(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["solve-negative", "--eta-max", "1e300",
                        "--out", str(tmp_path / "c.csv"),
                        "--report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            "error: StepFailure: extension failed: Required step size is less "
            "than spacing between numbers.\n")

    def test_calibration_overflow_fails_every_sweep_row(self, tmp_path, capsys):
        assert run(["sweep", "--n", "3", "--steps", "1", "--theta-min", "0.6",
                    "--theta-max", "0.6", "--eta0", "8.7952282",
                    "--outdir", str(tmp_path / "sw")]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        rows = json.loads((tmp_path / "sw" / "sweep.json").read_text())["rows"]
        assert len(rows) == 1
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
        for factor in ("phi", "psi"):
            if any(k.startswith(f"{factor}.constructor.") for k in edits):
                assert f"error: ParameterError: {bad}: {factor}.constructor" in err
        if data.get("schema") in (1, 2):
            assert "rerun assemble" in err
        if data.get("R_inf", 1.0) is None:
            assert "rerun assemble with --report" in err

    @staticmethod
    def _assert_one_line_usage_error(path, capsys):
        assert run(["verify", "--solution", str(path), "--points", "10",
                    "--report", str(path.parent / "verify.json")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ParameterError: ") and err.count("\n") == 1
        return err

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(_DRAWN_FIELDS), value=_JSON_VALUES)
    def test_drawn_field_gives_one_line_or_a_verdict(self, workdir, tmp_path,
                                                     capsys, field, value):
        data = json.loads((workdir / "solution.json").read_text())
        _edit(data, {field: value})
        bad = tmp_path / "solution.json"
        bad.write_text(json.dumps(data))
        # a warning would print to stderr ahead of the error line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(["verify", "--solution", str(bad), "--points", "10",
                      "--report", str(tmp_path / "verify.json")])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        if rc == 1:
            assert not caught
            assert captured.err.startswith("error: ParameterError: ")
            assert captured.err.count("\n") == 1
        else:
            assert rc in (0, 2)

    @pytest.mark.parametrize("args", [
        ["--rmax", "1e300"], ["--lambda", "1e300"], ["--v0", "1e-200"],
        ["--v0", "1e300"], ["--rmax", "1e60"],
        # a table inside the float range whose u is not
        ["--v0", "1e100", "--lambda", "5e-292", "--rmax", "5e147"]],
        ids=lambda args: " ".join(args))
    def test_curvature_table_beyond_float_range_is_one_line_usage_error(
            self, tmp_path, capsys, args):
        out = tmp_path / "phi.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(["solve-positive", *args, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1 and not out.exists()
        assert captured.err.startswith("error: ParameterError: ")
        assert captured.err.count("\n") == 1

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(v0=st.floats(-300, 300), lam=st.floats(-300, 300),
           rmax=st.floats(-300, 300))
    def test_drawn_positive_pair_gives_one_line_or_finite_columns(
            self, tmp_path, capsys, v0, lam, rmax):
        # v0, lambda and rmax drawn log-uniformly in [1e-300, 1e300]
        out = tmp_path / "phi.csv"
        out.unlink(missing_ok=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(["solve-positive", "--v0", repr(10.0 ** v0),
                      "--lambda", repr(10.0 ** lam), "--rmax", repr(10.0 ** rmax),
                      "--nodes", "201", "--out", str(out)])
        captured = capsys.readouterr()
        if rc == 1:
            assert captured.err.startswith("error: ParameterError: ")
            assert captured.err.count("\n") == 1
            assert not out.exists()
        else:
            assert rc == 0 and captured.err == ""
            _, cols = read_columns(out, header=["r", "v", "u"])
            assert all(np.isfinite(c).all() for c in cols)

    @pytest.mark.parametrize("lam", ["1e-12", "1e-16", "1e-20"])
    def test_large_radius_scale_is_refused_or_right(self, tmp_path, capsys, lam):
        # here a v0 rmax^2 <= 2e-9, so v = v0 r and u = v0 r^2/2 to about 1e-9
        out = tmp_path / "phi.csv"
        rc = run(["solve-positive", "--lambda", lam, "--rmax", "10",
                  "--out", str(out)])
        if rc == 1:
            assert capsys.readouterr().err.startswith("error: ParameterError: ")
            assert not out.exists()
        else:
            assert rc == 0
            _, (r, v, u) = read_columns(out, header=["r", "v", "u"])
            assert np.all(np.abs(v - r) <= 1e-6 * r)
            assert np.all(np.abs(u - r * r / 2) <= 1e-6 * r * r / 2)

    def test_bernstein_1d(self, tmp_path):
        out = tmp_path / "b1.json"
        assert run(["bernstein-1d", "--theta", "0.6", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pass"]


class TestVerdicts:
    """Each stage's exit code maps its library verdict."""

    @pytest.mark.parametrize("eta_max, failed", [(1e5, []), (1e6, ["upper_holds"])],
                             ids=["1e5", "1e6"])
    def test_solve_negative(self, tmp_path, eta_max, failed):
        # the scan to 1e6 ends above eta^2, past the up-crossing near
        # 5.7e5, so no window certifies zeta <= eta^2 to its end
        assert solve_negative(2, 0.55, 1.05, eta_max)[2] == failed
        assert run(["solve-negative", "--eta-max", repr(eta_max),
                    "--out", str(tmp_path / "c.csv"),
                    "--report", str(tmp_path / "r.json")]) == (2 if failed else 0)

    def test_verify_fails_above_the_residual_tolerance(self, workdir, tmp_path,
                                                      monkeypatch):
        out = tmp_path / "verify.json"
        argv = ["verify", "--solution", str(workdir / "solution.json"),
                "--points", "60", "--seed", "1", "--report", str(out)]
        assert run(argv) == 0
        residual_max = json.loads(out.read_text())["residual_max"]
        monkeypatch.setattr(verify, "RESIDUAL_TOL", residual_max / 2)
        assert run(argv) == 2
        rep = json.loads(out.read_text())
        assert rep["pass"] is False and rep["tolerance"] == residual_max / 2
        assert all(b["holds"] for b in rep["bounds"])


class TestWrittenCurve:
    """solve-negative writes a subset of the curve's rows; its report is
    that of the full curve, and the later stages run on the subset."""

    @pytest.mark.parametrize("eta_max", [1e3, 1e5], ids=["1e3", "1e5"])
    def test_report_is_the_full_curves(self, workdir, tmp_path, eta_max):
        curve, report, failed = solve_negative(2, 0.55, 1.05, eta_max)
        assert run(["solve-negative", "--eta-max", repr(eta_max),
                    "--out", str(tmp_path / "curve.csv"),
                    "--report", str(tmp_path / "report.json")]) == (2 if failed else 0)
        written = json.loads((tmp_path / "report.json").read_text())
        assert written == json.loads(json.dumps(report))
        eta = read_columns(tmp_path / "curve.csv", header=["eta", "zeta", "I"])[1][0]
        assert len(eta) < len(curve.eta)
        assert written["bounds_detail"]["scan_range"] == [eta[0], eta[-1]]
        shutil.copy(workdir / "phi.csv", tmp_path / "phi.csv")
        assert run(["reconstruct", "--curve", str(tmp_path / "curve.csv"),
                    "--out", str(tmp_path / "psi.csv")]) == 0
        assert run(assemble_argv(tmp_path, tmp_path / "solution.json")) == 0

    def test_sweep_never_calls_the_rule(self, tmp_path, monkeypatch):
        # sweep writes no curve, so its rows are made without the rule
        def refuse(curve):
            raise AssertionError("written_curve called")
        for module in (cli, reconstruct):
            monkeypatch.setattr(module, "written_curve", refuse)
        with pytest.raises(AssertionError, match="written_curve called"):
            run(["solve-negative", "--eta-max", "50", "--out", str(tmp_path / "c.csv"),
                 "--report", str(tmp_path / "r.json")])
        assert run(["sweep", "--steps", "1", "--theta-min", "0.55", "--theta-max", "0.55",
                    "--eta-max", "50", "--outdir", str(tmp_path / "sw")]) == 0
        (row,) = json.loads((tmp_path / "sw" / "sweep.json").read_text())["rows"]
        assert row["status"] == "ok"


def full_parser_main(argv):
    """main on the parser of every command: the reference for its text."""
    ap = cli.build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else cli.USAGE_ERROR
    if args.version:
        print(f"affmax {affmax.__version__} (schema {affmax.SCHEMA_VERSION})")
        return 0
    if args.command is None:
        ap.print_usage(sys.stderr)
        return cli.USAGE_ERROR
    return cli._COMMANDS[args.command](cli._merge(args, args.command))


class TestParsing:
    """A command's own parser answers as the parser of every command does."""

    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["bogus"], ["--version"],
        *([command, "--help"] for command in cli._COMMANDS),
        ["reconstruct", "--n", "2"], ["solve-positive", "--nodes", "x"],
        ["solve-positive", "--node", "5"], ["solve-positive", "--version"],
        ["solve-positive", "--nodes", "x", "--bogus"], ["verify", "--", "x"]],
        ids=lambda argv: " ".join(argv) or "no-command")
    def test_text_and_exit_code_match_the_full_parser(self, tmp_path, monkeypatch,
                                                      capsys, argv):
        # --node 5 is an abbreviation of --nodes: both write profile.csv
        results = []
        for tag, fn in (("own", main), ("full", full_parser_main)):
            (tmp_path / tag).mkdir()
            monkeypatch.chdir(tmp_path / tag)
            rc = fn(list(argv))
            written = {p.name: p.read_bytes() for p in (tmp_path / tag).iterdir()}
            results.append((rc, capsys.readouterr(), written))
        assert results[0] == results[1]

    @pytest.mark.parametrize("command, flag, typ", [row[:3] for row in cli._OPTIONS],
                             ids=[f"{row[0]} --{row[1]}" for row in cli._OPTIONS])
    def test_options_match_the_full_parser(self, command, flag, typ):
        value = {int: "3", float: "0.5", str: "x.out"}[typ]
        for argv in ([command], [command, f"--{flag}", value]):
            own = cli._merge(cli._parse_args(argv), command)
            assert own == cli._merge(cli.build_parser().parse_args(argv), command)
        assert own[flag.replace("-", "_")] == typ(value)

    def test_a_stage_builds_one_parser(self, workdir, tmp_path, monkeypatch):
        # the parser of every command is ten parsers
        made = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            made.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        stages = [
            ["solve-positive", "--nodes", "201", "--out", str(tmp_path / "phi.csv")],
            ["solve-negative", "--eta-max", "200", "--out", str(tmp_path / "c.csv"),
             "--report", str(tmp_path / "r.json")],
            ["reconstruct", "--curve", str(workdir / "curve.csv"),
             "--out", str(tmp_path / "psi.csv")],
            assemble_argv(workdir, tmp_path / "solution.json"),
            ["verify", "--solution", str(tmp_path / "solution.json"), "--points", "20",
             "--report", str(tmp_path / "verify.json")]]
        for argv in stages:
            made.clear()
            assert run(argv) in (0, 2)
            assert made == [f"affmax {argv[0]}"]


def test_import_leaves_configparser_unloaded(tmp_path):
    # its import costs about 1 ms, which only a run with --config needs
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, affmax.cli\n"
         "print('configparser' in sys.modules)"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["sweep", "--jobs", "1", "--steps", "2", "--eta-max", "50", "--outdir", "sw"]],
    ids=["version", "sweep --jobs 1"])
def test_no_fork_leaves_multiprocessing_unloaded(tmp_path, argv):
    # its import costs about 6 ms, which only a sweep that forks needs
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, affmax.cli\n"
         f"rc = affmax.cli.main({argv!r})\n"
         "print(rc, 'multiprocessing' in sys.modules)"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 False"


def test_flagship_stages_leave_numpy_ma_unloaded(tmp_path):
    # np.unique without return_inverse imports it, about 6 ms of each process
    src = os.path.dirname(os.path.dirname(cli.__file__))
    stages = [["solve-positive", "--out", "phi.csv"],
              ["solve-negative", "--out", "curve.csv", "--report", "report.json"],
              ["reconstruct", "--curve", "curve.csv", "--out", "psi.csv"],
              assemble_argv(tmp_path, "solution.json"),
              ["verify", "--solution", "solution.json", "--points", "20"]]
    out = subprocess.run(
        [sys.executable, "-c", "import sys, affmax.cli\n"
         f"for argv in {stages!r}:\n"
         "    rc = affmax.cli.main(argv)\n"
         "    print('after', argv[0], rc, 'numpy.ma' in sys.modules)"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert [line for line in out.stdout.splitlines() if line.startswith("after ")] == [
        f"after {argv[0]} 0 False" for argv in stages]


_INT_OPTIONS = [(command, flag) for command, flag, typ, *_ in cli._OPTIONS
                if typ is int]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command, flag", _INT_OPTIONS,
                         ids=[f"{c} --{f}" for c, f in _INT_OPTIONS])
def test_int_option_at_zero_or_minus_one_exits_cleanly(workdir, tmp_path, monkeypatch,
                                                       capsys, command, flag, value):
    # each command runs on copies of the flagship artifacts under their
    # default names, assemble with its report.  No value here starts a
    # process: sweep refuses a --jobs below 1 before it forks
    for name in ("phi.csv", "psi.csv", "curve.csv", "report.json", "solution.json"):
        shutil.copy(workdir / name, tmp_path / name)
    (tmp_path / "run.ini").write_text("[assemble]\nreport = report.json\n")
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run([command, "--config", "run.ini", f"--{flag}", value])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    assert err.count("\n") <= 1 and "Traceback" not in err
    assert not caught


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

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_upper_bound_rule_at_its_edges(self, tmp_path, n):
        # the bound is claimed exactly for theta in [1/n, n/(n+1))
        thetas = [float(np.nextafter(1 / n, 0)), 1 / n,
                  float(np.nextafter(n / (n + 1), 0)), n / (n + 1)]
        want = [False, True, True, False]
        eta = np.geomspace(1.01, 100.0, 200)
        for theta, claimed in zip(thetas, want):
            assert upper_bound_claimed(n, theta) is claimed
            curve = PhaseCurve(params=ModelParams(n=n, theta=theta),
                               taylor=TaylorData(d1=2.0, alpha=0.0, beta=0.0, gamma=0.0),
                               eta=eta, zeta=0.5 * eta**2, I=np.zeros_like(eta))
            assert growth_bounds_check(curve)["upper_claimed"] is claimed
            if n == 2:
                outdir = tmp_path / repr(theta)
                assert run(["sweep", "--n", "2", "--theta-min", repr(theta),
                            "--theta-max", repr(theta), "--steps", "1",
                            "--eta-max", "50", "--outdir", str(outdir)]) in (0, 2)
                (row,) = json.loads((outdir / "sweep.json").read_text())["rows"]
                assert row["theta"] == theta
                assert row["upper_bound_claimed"] is claimed

    def test_bad_theta_fails_only_its_row(self, tmp_path):
        # eta0 and eta_max are checked before the first row, a theta at its row
        assert run(["sweep", "--steps", "1", "--theta-min", "1e300",
                    "--theta-max", "1e300", "--outdir", str(tmp_path / "sw")]) == 2
        (row,) = json.loads((tmp_path / "sw" / "sweep.json").read_text())["rows"]
        assert row["status"] == "failed"
        assert row["error"] == ("ParameterError: negative-pair solve needs a finite "
                                "theta <= 1e100, got 1e+300")

    @pytest.mark.parametrize("steps, jobs, cpus, children", [
        (2, 8, 8, 1), (3, 2, 8, 1), (1, 4, 8, 0), (4, 4, 1, 0)])
    def test_sweep_forks_no_more_workers_than_rows(self, tmp_path, monkeypatch,
                                                   steps, jobs, cpus, children):
        # min(jobs, rows, usable CPUs) processes compute rows, this one
        # included, so it forks one child fewer; the rows are the same
        started = []
        start = multiprocessing.process.BaseProcess.start

        def counting_start(proc):
            started.append(proc)
            start(proc)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            counting_start)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        args = ["sweep", "--n", "2", "--steps", str(steps), "--theta-min", "0.55",
                "--theta-max", "0.6", "--eta-max", "50"]
        assert run(args + ["--jobs", str(jobs), "--outdir", str(tmp_path / "sw")]) in (0, 2)
        assert len(started) == children
        run(args + ["--jobs", "1", "--outdir", str(tmp_path / "s1")])
        assert (tmp_path / "sw" / "sweep.json").read_bytes() == \
            (tmp_path / "s1" / "sweep.json").read_bytes()

    @pytest.mark.parametrize("steps, jobs, theta_min, theta_max", [
        (2, 2, "0.54", "0.58"), (5, 3, "0.54", "0.58"), (5, 3, "1e300", "2e300")])
    def test_sweep_parallel_matches_serial(self, tmp_path, monkeypatch,
                                           steps, jobs, theta_min, theta_max):
        # 5 rows in 3 processes are shares of 2, 2 and 1 rows; at theta
        # 1e300 and up every row fails, and its error string crosses the pipe
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(jobs)))
        args = ["sweep", "--n", "2", "--theta-min", theta_min, "--theta-max",
                theta_max, "--steps", str(steps), "--eta-max", "150"]
        rc = run(args + ["--jobs", "1", "--outdir", str(tmp_path / "s1")])
        assert run(args + ["--jobs", str(jobs), "--outdir", str(tmp_path / "s2")]) == rc
        assert (tmp_path / "s1" / "sweep.json").read_bytes() == \
            (tmp_path / "s2" / "sweep.json").read_bytes()


class TestSweepFailures:
    """A fault outside the rows' own AffmaxErrors, in a forked process.

    Five rows in three processes: this one computes rows 0 and 3, the
    children rows 1 and 4, and row 2.
    """

    THETAS = [float(t) for t in np.linspace(0.55, 0.6, 5)]

    def sweep(self, tmp_path, monkeypatch, faults, jobs):
        real, caller = cli._sweep_worker, os.getpid()

        def worker(task):
            fault = faults.get(self.THETAS.index(task[1]))
            if fault == "raise":
                raise ValueError(f"no row at theta {task[1]!r}")
            if fault in ("exit", "hang") and os.getpid() == caller:
                raise AssertionError(f"{fault} fault in the caller's share")
            if fault == "exit":
                os._exit(3)
            if fault == "hang":
                time.sleep(60)
            return real(task)

        monkeypatch.setattr(cli, "_sweep_worker", worker)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        start = time.perf_counter()
        rc = run(["sweep", "--n", "2", "--steps", "5", "--theta-min", "0.55",
                  "--theta-max", "0.6", "--eta-max", "50", "--jobs", str(jobs),
                  "--outdir", str(tmp_path / "sw")])
        assert time.perf_counter() - start < 30
        assert multiprocessing.active_children() == []
        return rc

    def test_exception_in_a_child_matches_jobs_1(self, tmp_path, monkeypatch, capsys):
        faults = {1: "raise"}
        serial = self.sweep(tmp_path, monkeypatch, faults, 1), capsys.readouterr().err
        forked = self.sweep(tmp_path, monkeypatch, faults, 3), capsys.readouterr().err
        assert forked == serial == (1, f"error: no row at theta {self.THETAS[1]!r}\n")

    @pytest.mark.parametrize("rows", [(1, 3), (2, 4)],
                             ids=["child-below-own", "child-below-child"])
    def test_lowest_failing_row_matches_jobs_1(self, tmp_path, monkeypatch, capsys,
                                               rows):
        # rows 1 and 3: a child's row lies below this process's; rows 2 and
        # 4: the second child's row lies below the first child's
        faults = dict.fromkeys(rows, "raise")
        serial = self.sweep(tmp_path, monkeypatch, faults, 1), capsys.readouterr().err
        forked = self.sweep(tmp_path, monkeypatch, faults, 3), capsys.readouterr().err
        assert forked == serial == (1, f"error: no row at theta {self.THETAS[rows[0]]!r}\n")

    def test_child_ending_without_its_rows(self, tmp_path, monkeypatch, capsys):
        assert self.sweep(tmp_path, monkeypatch, {2: "exit"}, 3) == 2
        assert capsys.readouterr().err == (
            "error: AffmaxError: the process computing rows 2 ended with exit "
            "code 3 before sending them\n")
        assert not (tmp_path / "sw").exists()

    def test_error_in_own_share_stops_the_children(self, tmp_path, monkeypatch,
                                                   capsys):
        # the children would sleep for a minute; they are terminated
        faults = {0: "raise", 1: "hang", 2: "hang"}
        assert self.sweep(tmp_path, monkeypatch, faults, 3) == 1
        assert capsys.readouterr().err == \
            f"error: no row at theta {self.THETAS[0]!r}\n"

    def test_failing_row_stops_the_sweep_before_a_later_row(self, tmp_path,
                                                            monkeypatch, capsys):
        # rows are taken in grid order: row 3, this process's, raises
        # before row 4 is awaited from the child that hangs on it
        start = time.perf_counter()
        assert self.sweep(tmp_path, monkeypatch, {3: "raise", 4: "hang"}, 3) == 1
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().err == \
            f"error: no row at theta {self.THETAS[3]!r}\n"
