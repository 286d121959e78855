"""Command-line front end: solver pipelines, sweeps and plot-data emission.

Exit codes: 0 on success, 1 on usage or configuration errors (bad
arguments, parameters or input files), 2 when a construction or a
verification fails.  Every flag has a key of the same name (dashes
become underscores) in an INI config file, one section per subcommand;
command-line flags override the file.  Outputs carry no timestamps, so
identical configuration yields byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys

import numpy as np

from . import SCHEMA_VERSION, __version__
from .core import (ModelParams, PhaseCurve, RadialProfile, SeparableSolution,
                   check_radii, decode_column, encode_column, read_columns,
                   upper_bound_claimed, write_columns)
from .errors import AffmaxError, ParameterError
from .negative_pair import (blowup_time, extend_global, fixed_point_solve,
                            growth_bounds_check)
from .phase_plane import bernstein_radial_check
from .positive_pair import PositivePairConfig, build_phi, phi_grid
from .reconstruct import rebuild_profile
from .verify import (assemble, bernstein_1d_check, check_assembly,
                     completeness_check, full_residual)

USAGE_ERROR, FAILURE = 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


# every option of every subcommand: (command, flag, type, default, help).
# The option's key, in the parsed options and in a config file, is the
# flag with dashes as underscores.
_OPTIONS = [
    ("solve-positive", "v0", float, 1.0, "initial curvature"),
    ("solve-positive", "theta", float, 0.55, "exponent"),
    ("solve-positive", "lambda", float, 1.0, "eigenvalue"),
    ("solve-positive", "rmax", float, 10.0, "largest radius"),
    ("solve-positive", "nodes", int, 2001, "grid size"),
    ("solve-positive", "out", str, "profile.csv", "profile CSV"),
    ("solve-negative", "n", int, 2, "factor dimension"),
    ("solve-negative", "theta", float, 0.55, "exponent"),
    ("solve-negative", "eta0", float, 1.05, "anchor eta0 > 1"),
    ("solve-negative", "eta-max", float, 1e5, "integration and bound-scan range"),
    ("solve-negative", "out", str, "curve.csv", "curve CSV"),
    ("solve-negative", "report", str, "report.json", "report JSON"),
    ("reconstruct", "curve", str, "curve.csv", "curve CSV"),
    ("reconstruct", "v0", float, 1.0, "anchor value v(1)"),
    ("reconstruct", "out", str, "profile.csv", "profile CSV"),
    ("assemble", "phi", str, "phi.csv", "1-D factor CSV"),
    ("assemble", "psi", str, "psi.csv", "n-D factor CSV"),
    ("assemble", "m", int, 0, "cylinder factors"),
    ("assemble", "theta", float, 0.55, "exponent"),
    ("assemble", "n", int, 2, "psi dimension"),
    ("assemble", "report", str, None, "solve-negative report (R_inf), required"),
    ("assemble", "curve", str, "curve.csv",
     "phase-curve CSV the psi factor is rebuilt from"),
    ("assemble", "psi-v0", float, 1.0, "anchor v(1) of the psi factor"),
    ("assemble", "phi-v0", float, 1.0, "initial curvature of the phi factor"),
    ("assemble", "phi-lambda", float, 1.0, "eigenvalue of the phi factor"),
    ("assemble", "out", str, "solution.json", "solution JSON"),
    ("verify", "solution", str, "solution.json", "solution JSON"),
    ("verify", "points", int, 1000, "sample count"),
    ("verify", "seed", int, 0, "sampling seed"),
    ("verify", "tol", float, 1e-4, "residual tolerance"),
    ("verify", "report", str, "verify.json", "report JSON"),
    ("bernstein-radial", "n", int, 3, "dimension (>= 3)"),
    ("bernstein-radial", "theta", float, 1.0, "exponent"),
    ("bernstein-radial", "lo", float, 1.001, "window start"),
    ("bernstein-radial", "hi", float, 1.05, "window end"),
    ("bernstein-radial", "samples", int, 50, "sample count"),
    ("bernstein-radial", "out", str, None, "report JSON"),
    ("bernstein-1d", "theta", float, 1.0, "exponent"),
    ("bernstein-1d", "out", str, None, "report JSON"),
    ("sweep", "n", int, 2, "factor dimension"),
    ("sweep", "theta-min", float, 0.51, "first theta"),
    ("sweep", "theta-max", float, 0.65, "last theta"),
    ("sweep", "steps", int, 4, "grid size"),
    ("sweep", "jobs", int, 1, "processes computing rows, this one included"),
    ("sweep", "eta0", float, 1.05, "anchor"),
    ("sweep", "eta-max", float, 1e3, "integration range"),
    ("sweep", "outdir", str, "sweep_out", "output directory"),
    ("emit-plot-data", "artifact", str, None, "input artifact"),
    ("emit-plot-data", "kind", str, "phase",
     "phase | profile | bounds | residual-hist"),
    ("emit-plot-data", "out", str, "plot.dat", "output file"),
]


def _options(command):
    """(key, flag, type, default, help) of each option of command."""
    return [(flag.replace("-", "_"), flag, typ, default, hlp)
            for cmd, flag, typ, default, hlp in _OPTIONS if cmd == command]


def _merge(args: argparse.Namespace, command: str) -> dict:
    cfg, own = {}, set()
    if getattr(args, "config", None):
        parser = configparser.ConfigParser()
        try:
            with open(args.config) as fh:
                parser.read_file(fh)
            if parser.has_section(command):
                cfg = dict(parser.items(command))
                own = set(cfg) - set(parser.defaults())     # [DEFAULT] serves every section
        except configparser.Error as exc:
            # a file configparser refuses: one line naming it, and the key if any
            key = getattr(exc, "option", None)
            at = f" [{exc.section}] {key}:" if key else ""
            raise ParameterError(f"config file {args.config}:{at} "
                                 f"{' '.join(str(exc).split())}") from None
        except OSError as exc:      # missing, a directory, unreadable
            raise ParameterError(f"config file {args.config}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ParameterError(f"config file {args.config}: {exc}") from None
    unknown = sorted(own - {key for key, *_ in _options(command)})
    if unknown:
        raise ParameterError(f"config file {args.config}: [{command}] has no "
                             f"option {', '.join(unknown)}")
    out = {}
    for key, _, typ, default, _ in _options(command):
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            out[key] = cli_val
        elif key in cfg:
            try:
                out[key] = typ(cfg[key])
            except ValueError as exc:
                raise ParameterError(f"config file {args.config}: [{command}] "
                                     f"{key}: {exc}") from None
        else:
            out[key] = default
    return out


def _dump_json(obj, path):
    text = json.dumps(obj, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_solve_positive(o) -> int:
    cfg = PositivePairConfig(v0=o["v0"], lam=o["lambda"], theta=o["theta"])
    grid = phi_grid(o["rmax"], int(o["nodes"]))
    prof = build_phi(cfg, grid)
    prof.to_csv(o["out"])
    print(f"wrote {o['out']} ({len(grid)} rows, r <= {o['rmax']})")
    return 0


def _solve_negative_pipeline(n, theta, eta0, eta_max):
    """The local solve's curve extended to eta_max, and its report."""
    local = fixed_point_solve(n, theta, eta0)
    curve = extend_global(local, eta_max=eta_max)
    bounds_rep = growth_bounds_check(curve)
    # the blow-up estimate uses the full integration range: the curve (and
    # any profile rebuilt from it) reaches within ~1/(q eta_max) of the
    # boundary, so T_inf must be at least that accurate
    T_inf, tail = blowup_time(curve)
    report = {
        "n": curve.params.n, "theta": curve.params.theta, "eta0": curve.params.eta0,
        "taylor": {"alpha": local.taylor_formula.alpha,
                   "beta": local.taylor_formula.beta,
                   "gamma": local.taylor_formula.gamma},
        "taylor_measured": {"alpha": local.taylor_measured.alpha,
                            "beta": local.taylor_measured.beta,
                            "gamma": local.taylor_measured.gamma},
        "lambda_cal": local.lambda_cal,
        "iterations": local.iterations,
        "bounds": {"rho": bounds_rep["rho"], "eps0": bounds_rep["eps0"],
                   "eta1": bounds_rep["eta1"], "eta2": bounds_rep["eta2"]},
        "bounds_detail": bounds_rep,
        "T_inf": T_inf, "tail_bound": tail, "R_inf": math.exp(T_inf),
        "upper_bound_claimed": bounds_rep["upper_claimed"],
    }
    return curve, report


def _cmd_solve_negative(o) -> int:
    curve, report = _solve_negative_pipeline(o["n"], o["theta"], o["eta0"], o["eta_max"])
    curve.to_csv(o["out"])
    _dump_json(report, o["report"])
    ok = (report["bounds_detail"]["rho_holds"]
          and report["bounds_detail"]["lower_quadratic_holds"]
          and (not report["upper_bound_claimed"]
               or report["bounds_detail"]["upper_holds"]))
    print(f"wrote {o['out']} and {o['report']}; lambda_cal = "
          f"{report['lambda_cal']:.6g}, T_inf = {report['T_inf']:.6g}")
    return 0 if ok else FAILURE


def _cmd_reconstruct(o) -> int:
    curve = PhaseCurve.from_csv(o["curve"])
    prof = rebuild_profile(curve, v0=o["v0"])
    prof.to_csv(o["out"])
    print(f"wrote {o['out']} ({len(prof.r)} rows)")
    return 0


def _cmd_assemble(o) -> int:
    if o["report"] is None:
        raise ParameterError("assemble needs --report, the report that gives R_inf")
    n, theta = int(o["n"]), o["theta"]
    phi_r, phi_v, _ = read_columns(o["phi"], header=["r", "v", "u"])[1]
    check_radii(phi_r)
    psi_r, psi_v, _ = read_columns(o["psi"], header=["r", "v", "u"])[1]
    check_radii(psi_r)
    _, curve = read_columns(o["curve"], header=["eta", "zeta", "I"])
    R_inf = _number(_load_json(o["report"]), "R_inf", o["report"], positive=True)
    # both factors are built from their constructors, as verify builds
    # them; the CSV columns only cross-check them
    phi_ctor = {"kind": "positive-pair", "v0": o["phi_v0"],
                "lambda": o["phi_lambda"], "rmax": float(phi_r[-1]),
                "nodes": len(phi_r)}
    psi_ctor = {"kind": "phase-reconstruction", "v0": o["psi_v0"],
                **{k: encode_column(c) for k, c in zip(("eta", "zeta", "I"), curve)}}
    phi = _factor(phi_ctor, theta, 1, "phi.constructor")
    _check_columns_match(phi_r, phi_v, phi, "phi")
    psi = _factor(psi_ctor, theta, n, "psi.constructor")
    _check_columns_match(psi_r, psi_v, psi, "psi")
    sol = assemble(phi, psi, m_cylinder=int(o["m"]), theta=theta, R_inf=R_inf)
    payload = {
        "schema": SCHEMA_VERSION, "theta": sol.theta, "kappa": sol.kappa,
        "m_cylinder": sol.m_cylinder, "n_psi": sol.psi.n, "N": sol.N,
        "R_inf": sol.R_inf,
        "lambda_phi": sol.lambda_phi, "lambda_psi": sol.lambda_psi,
        "phi": {"constructor": phi_ctor}, "psi": {"constructor": psi_ctor},
    }
    _dump_json(payload, o["out"])
    print(f"wrote {o['out']} (kappa = {sol.kappa:.6g}, N = {sol.N})")
    return 0


def _check_columns_match(r, v, rebuilt: RadialProfile, name: str):
    v_ref = rebuilt.v_at(r)
    scale = np.max(np.abs(v_ref))
    if np.max(np.abs(v_ref - v)) > 1e-6 * scale:
        raise ParameterError(
            f"{name} profile columns disagree with the reconstruction; "
            "wrong curve/v0/lambda for this CSV?")


def _factor(ctor, theta, n, where):
    """The factor a solution.json constructor block describes (phi unscaled).

    assemble and verify both build their factors here.  A missing key or
    a value of the wrong type or range raises a one-line ParameterError.
    """
    kind = _get(ctor, "kind", where)
    if kind not in ("positive-pair", "phase-reconstruction"):
        raise ParameterError(f"{where} has unknown kind {kind!r}")
    v0 = _number(ctor, "v0", where, positive=True)
    if kind == "positive-pair":
        lam, rmax = (_number(ctor, k, where, positive=True) for k in ("lambda", "rmax"))
        grid = phi_grid(rmax, _number(ctor, "nodes", where, integer=True))
        return build_phi(PositivePairConfig(v0=v0, lam=lam, theta=theta), grid)
    eta, zeta, I = (decode_column(_get(ctor, k, where), f"{where}: {k}")
                    for k in ("eta", "zeta", "I"))
    return rebuild_profile(PhaseCurve.from_columns(eta, zeta, I, n=n, theta=theta),
                           v0=v0)


def _load_json(path):
    """The JSON document in the file at path; ParameterError if it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ParameterError(f"{path} is not valid JSON ({exc})") from None


def _get(obj, key, where):
    """obj[key], after checking that obj is a JSON object holding key."""
    if not isinstance(obj, dict):
        raise ParameterError(f"{where} is not a JSON object")
    if key not in obj:
        raise ParameterError(f"{where} lacks the key {key!r}")
    return obj[key]


def _finite(val) -> bool:
    """Whether val is a finite JSON number: not a bool, NaN, an infinity
    or an int beyond the float range."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def _number(obj, key, where, integer=False, positive=False):
    """obj[key]: an integer if asked, else a finite JSON number, positive
    if asked; else ParameterError."""
    val = _get(obj, key, where)
    if integer:
        ok = isinstance(val, int) and not isinstance(val, bool)
    else:
        ok = _finite(val) and (val > 0 or not positive)
    if not ok:
        need = ("an integer" if integer else
                f"a {'positive ' if positive else ''}finite number")
        raise ParameterError(f"{where}: {key} must be {need}, got {repr(val)[:40]}")
    return val if integer else float(val)


def _solution_from_json(path):
    """The SeparableSolution a schema-3 solution.json describes.

    Invalid JSON, another schema, a missing key, a scalar or constructor
    value of the wrong type or range, or a curve column that is not
    base64 float64 data raise a one-line ParameterError.
    """
    data = _load_json(path)
    if _get(data, "schema", path) != SCHEMA_VERSION:
        raise ParameterError(
            f"{path} has solution schema {data['schema']!r}, this version reads "
            f"schema {SCHEMA_VERSION}; rerun assemble to regenerate it")
    n = _number(data, "n_psi", path, integer=True)
    m = _number(data, "m_cylinder", path, integer=True)
    theta = _number(data, "theta", path)
    try:
        # psi is rebuilt from a phase curve of the negative pair
        ModelParams(n=n, theta=theta).require_negative_pair()
        check_assembly(theta, n, m)
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None
    if _number(data, "N", path, integer=True) != 1 + n + m:
        raise ParameterError(f"{path}: N is not 1 + n_psi + m_cylinder = {1 + n + m}")
    kappa, lam_phi, lam_psi = (_number(data, k, path)
                               for k in ("kappa", "lambda_phi", "lambda_psi"))
    if _get(data, "R_inf", path) is None:
        raise ParameterError(f"{path}: R_inf is null; rerun assemble with --report")
    R_inf = _number(data, "R_inf", path, positive=True)
    phi, psi = (_factor(_get(_get(data, k, path), "constructor", f"{path}: {k}"),
                        theta, dim, f"{path}: {k}.constructor")
                for k, dim in (("phi", 1), ("psi", n)))
    return SeparableSolution(
        phi=phi.scaled(kappa), psi=psi, kappa=kappa, theta=theta,
        R_inf=R_inf, m_cylinder=m,
        lambda_phi=lam_phi, lambda_psi=lam_psi)


def _cmd_verify(o) -> int:
    sol = _solution_from_json(o["solution"])
    rep = full_residual(sol, n_points=int(o["points"]), seed=int(o["seed"]))
    comp = completeness_check(sol)
    passed = (rep.residual_max < o["tol"] and rep.convexity_margin > 0
              and comp["pass"])
    payload = rep.as_dict()
    payload["completeness"] = comp
    payload["bounds"] = [
        {"bound_id": "hessian-positive-definite",
         "holds": bool(rep.convexity_margin > 0),
         "witness": {"min_eigenvalue": rep.convexity_margin}},
        {"bound_id": "u-diverges-at-boundary",
         "holds": bool(comp["psi"]["pass"]),
         "witness": {k: comp["psi"].get(k) for k in
                     ("u_log_slope", "u_fit_residual")}},
        {"bound_id": "u-diverges-at-infinity",
         "holds": bool(comp["phi"]["increasing"] and comp["phi"]["slope"] > 0),
         "witness": comp["phi"]},
    ]
    payload["tolerance"] = o["tol"]
    payload["pass"] = bool(passed)
    _dump_json(payload, o["report"])
    print(f"residual max {rep.residual_max:.3e} (tol {o['tol']:.1e}), "
          f"convexity margin {rep.convexity_margin:.3e}, "
          f"completeness {'pass' if comp['pass'] else 'FAIL'}")
    return 0 if passed else FAILURE


def _check_verdict(rep, out, label) -> int:
    """Dump rep to out if given, print label with the verdict, return its exit code."""
    if out:
        _dump_json(rep, out)
    print(f"{label}: {'pass' if rep['pass'] else 'FAIL'}")
    return 0 if rep["pass"] else FAILURE


def _cmd_bernstein_radial(o) -> int:
    rep = bernstein_radial_check(int(o["n"]), o["theta"], (o["lo"], o["hi"]),
                                 samples=int(o["samples"]))
    return _check_verdict(rep, o["out"], f"n={o['n']} theta={o['theta']} "
                                         f"window=({o['lo']}, {o['hi']})")


def _cmd_bernstein_1d(o) -> int:
    return _check_verdict(bernstein_1d_check(o["theta"]), o["out"],
                          f"theta={o['theta']}")


def _sweep_worker(task):
    n, theta, eta0, eta_max = task
    row = {"theta": theta, "upper_bound_claimed": upper_bound_claimed(n, theta)}
    if not row["upper_bound_claimed"]:
        row["note"] = "upper-bound-not-claimed"
    try:
        _, report = _solve_negative_pipeline(n, theta, eta0, eta_max)
        row.update({"lambda_cal": report["lambda_cal"],
                    "iterations": report["iterations"],
                    "T_inf": report["T_inf"], "R_inf": report["R_inf"],
                    "bounds": report["bounds"], "status": "ok"})
    except AffmaxError as exc:
        row.update({"status": "failed", "error": f"{type(exc).__name__}: {exc}"})
    return row


def _sweep_share(tasks, conn):
    """Body of a forked sweep process: send its rows, or the exception
    that stopped them, back once."""
    try:
        out = [_sweep_worker(t) for t in tasks]
    except Exception as exc:  # the caller re-raises it, as --jobs 1 would
        out = exc
    conn.send(out)
    conn.close()


def _sweep_rows(tasks, procs):
    """The rows of tasks, in order, computed by procs processes in all.

    Row i goes to process i mod procs.  Process 0 is this one; the others
    are forked children, each sending its list back once over a pipe.  An
    exception raised in a child is raised here.  A child that ends without
    sending its rows is an AffmaxError naming them.  No child outlives the
    call, whatever it raises.
    """
    if procs == 1:
        return [_sweep_worker(t) for t in tasks]
    # imported here: multiprocessing costs every other command ~6 ms.
    # The forked children keep the one BLAS thread affmax/__init__.py
    # sets, so the rows are the only parallelism.  Fork, not spawn: a
    # child starts with numpy and affmax loaded instead of importing them.
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for k in range(1, procs):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_sweep_share, args=(tasks[k::procs], send))
            child.start()
            children.append((child, recv))
            send.close()  # so that recv sees EOF once the child ends
        shares = [[_sweep_worker(t) for t in tasks[::procs]]]
        for k, (child, recv) in enumerate(children, 1):
            try:
                share = recv.recv()
            except EOFError:
                child.join()
                which = ", ".join(map(str, range(k, len(tasks), procs)))
                raise AffmaxError(f"the process computing rows {which} ended with "
                                  f"exit code {child.exitcode} before sending "
                                  f"them") from None
            child.join()
            if isinstance(share, Exception):
                raise share
            shares.append(share)
    finally:
        for child, recv in children:
            child.terminate()  # no-op for a child already joined
            child.join()
            recv.close()
    rows = [None] * len(tasks)
    for k, share in enumerate(shares):
        rows[k::procs] = share
    return rows


def _cmd_sweep(o) -> int:
    import os
    if not o["steps"] >= 1:
        raise ParameterError(f"steps must be at least 1, got {o['steps']}")
    if not o["jobs"] >= 1:
        raise ParameterError(f"jobs must be at least 1, got {o['jobs']}")
    ModelParams.require_negative_pair_n(o["n"])
    thetas = np.linspace(o["theta_min"], o["theta_max"], int(o["steps"]))
    tasks = [(int(o["n"]), float(t), o["eta0"], o["eta_max"]) for t in thetas]
    rows = _sweep_rows(tasks, min(int(o["jobs"]), len(tasks),
                                  len(os.sched_getaffinity(0))))
    os.makedirs(o["outdir"], exist_ok=True)
    out = os.path.join(o["outdir"], "sweep.json")
    _dump_json({"n": int(o["n"]), "rows": rows}, out)
    n_ok = sum(r["status"] == "ok" for r in rows)
    print(f"wrote {out}: {n_ok}/{len(rows)} solves succeeded")
    return 0 if n_ok == len(rows) else FAILURE


def _cmd_emit_plot_data(o) -> int:
    kind, path = o["kind"], o["artifact"]
    if path is None:
        raise ParameterError("emit-plot-data needs an --artifact")
    if kind == "phase":
        _, cols = read_columns(path, header=["eta", "zeta", "I"])
        names, cols = ["eta", "zeta"], cols[:2]
    elif kind == "profile":
        names, cols = read_columns(path, header=["r", "v", "u"])
    elif kind == "bounds":
        curve = PhaseCurve.from_csv(path)
        rep = growth_bounds_check(curve)
        names = ["eta", "zeta", "rho*(eta-1)", "eps0*eta^2"]
        cols = [curve.eta, curve.zeta, rep["rho"] * (curve.eta - 1.0),
                rep["eps0"] * curve.eta**2]
    elif kind == "residual-hist":
        res = _get(_load_json(path), "residuals", path)
        if not (isinstance(res, list) and all(map(_finite, res))):
            raise ParameterError(f"{path}: residuals must be a list of finite numbers")
        res = np.abs(np.array(res, dtype=float))
        hist, edges = np.histogram(np.log10(np.maximum(res, 1e-300)), bins=40)
        names = ["log10_abs_residual", "count"]
        cols = [0.5 * (edges[:-1] + edges[1:]), hist]
    else:
        raise ParameterError(f"unknown plot kind {kind!r}")
    write_columns(o["out"], names, cols, sep=" ", comment="# ")
    print(f"wrote {o['out']}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> _Parser:
    ap = _Parser(prog="affmax", description=__doc__)
    ap.add_argument("--version", action="store_true", help="print version and exit")
    sub = ap.add_subparsers(dest="command")
    for command in _COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="INI config file")
        for key, flag, typ, _, hlp in _options(command):
            p.add_argument(f"--{flag}", type=typ, default=None, help=hlp, dest=key)
    return ap


_COMMANDS = {
    "solve-positive": _cmd_solve_positive,
    "solve-negative": _cmd_solve_negative,
    "reconstruct": _cmd_reconstruct,
    "assemble": _cmd_assemble,
    "verify": _cmd_verify,
    "bernstein-radial": _cmd_bernstein_radial,
    "bernstein-1d": _cmd_bernstein_1d,
    "sweep": _cmd_sweep,
    "emit-plot-data": _cmd_emit_plot_data,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    if args.version:
        print(f"affmax {__version__} (schema {SCHEMA_VERSION})")
        return 0
    if args.command is None:
        ap.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        opts = _merge(args, args.command)
        return _COMMANDS[args.command](opts)
    except (FileNotFoundError, OSError, KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except AffmaxError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return USAGE_ERROR if isinstance(exc, ParameterError) else FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
