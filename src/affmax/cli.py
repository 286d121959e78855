"""Command-line front end: solver pipelines, sweeps and plot-data emission.

A stage reads its files, runs the checks only a file needs, makes one
library call and writes its outputs; verify.py builds every factor and
solution (assemble_solution gives a solution with its solution.json
payload) and reads solution.json.  Exit codes: 0 on success, 1 on usage
or configuration errors (bad arguments, parameters or input files), 2
when a construction or a verification fails.  Every flag has a key of
the same name (dashes become underscores) in an INI config file, one
section per subcommand; command-line flags override the file.  Outputs
carry no timestamps, so identical configuration yields byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import SCHEMA_VERSION, __version__
from .core import (ModelParams, PhaseCurve, RadialProfile, check_radii,
                   read_columns, read_curve_columns, upper_bound_claimed,
                   write_columns)
from .errors import AffmaxError, ParameterError
from .negative_pair import growth_bounds_check, solve_negative, taylor_coeffs
from .phase_plane import bernstein_radial_check
from .reconstruct import written_curve
from .verify import (assemble_solution, bernstein_1d_check, build_factor,
                     check_assembly, json_finite, json_get, json_number,
                     solution_from_payload, verify_solution)
from .verify import full_residual  # noqa: F401  perfbench/selftest.py reads cli's binding

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
    ("solve-positive", "nodes", int, 201,
     "rows of the profile CSV and the phi constructor's nodes; "
     "phi's evaluator is its curvature table's, whatever the rows"),
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
    ("assemble", "report", str, None, "solve-negative report (n, theta, R_inf), required"),
    ("assemble", "curve", str, "curve.csv",
     "phase-curve CSV the psi factor is rebuilt from"),
    ("assemble", "psi-v0", float, 1.0, "anchor v(1) of the psi factor"),
    ("assemble", "phi-v0", float, 1.0, "initial curvature of the phi factor"),
    ("assemble", "phi-lambda", float, 1.0, "eigenvalue of the phi factor"),
    ("assemble", "out", str, "solution.json", "solution JSON"),
    ("verify", "solution", str, "solution.json", "solution JSON"),
    ("verify", "points", int, 1000, "sample count"),
    ("verify", "seed", int, 0, "sampling seed"),
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
        import configparser     # about 1 ms, paid only by a run with --config
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
    ctor = {"kind": "positive-pair", **{k: o[k] for k in ("v0", "lambda", "rmax", "nodes")}}
    prof = build_factor(ctor, o["theta"], None, "solve-positive")
    prof.to_csv(o["out"])
    print(f"wrote {o['out']} ({len(prof.r)} rows, r <= {o['rmax']})")
    return 0


def _cmd_solve_negative(o) -> int:
    curve, report, failed = solve_negative(o["n"], o["theta"], o["eta0"], o["eta_max"])
    written_curve(curve).to_csv(o["out"])
    _dump_json(report, o["report"])
    print(f"wrote {o['out']} and {o['report']}; lambda_cal = "
          f"{report['lambda_cal']:.6g}, T_inf = {report['T_inf']:.6g}")
    return FAILURE if failed else 0


def _cmd_reconstruct(o) -> int:
    curve = PhaseCurve.from_csv(o["curve"])
    prof = build_factor({"kind": "phase-reconstruction", "v0": o["v0"]},
                        curve.params.theta, curve, "reconstruct")
    prof.to_csv(o["out"])
    print(f"wrote {o['out']} ({len(prof.r)} rows)")
    return 0


def _cmd_assemble(o) -> int:
    if o["report"] is None:
        raise ParameterError("assemble needs --report, which gives n, theta and R_inf")
    phi_r, phi_v, phi_u = read_columns(o["phi"], header=["r", "v", "u"])[1]
    check_radii(phi_r)
    psi_r, psi_v, psi_u = read_columns(o["psi"], header=["r", "v", "u"])[1]
    check_radii(psi_r)
    curve = read_curve_columns(o["curve"])
    report = _load_json(o["report"])
    R_inf = json_number(report, "R_inf", o["report"], positive=True)
    n = json_number(report, "n", o["report"], integer=True)
    theta = json_number(report, "theta", o["report"])
    # checked before the factors are built, whose fits would only fail on them
    check_assembly(theta, n, int(o["m"]))
    # both factors are built as verify builds them from their constructors,
    # psi from the curve columns read here; the CSV columns only cross-check them
    phase = PhaseCurve.from_columns(*curve, n=n, theta=theta)
    _check_same_run(report, o["report"], phase, o["curve"])
    phi_ctor = {"kind": "positive-pair", "v0": o["phi_v0"],
                "lambda": o["phi_lambda"], "rmax": float(phi_r[-1]),
                "nodes": len(phi_r)}
    psi_ctor = {"kind": "phase-reconstruction", "v0": o["psi_v0"]}
    sol, payload = assemble_solution(phi_ctor, psi_ctor, phase, int(o["m"]), R_inf)
    _check_columns_match(phi_r, phi_v, phi_u, sol.phi, "phi")
    _check_columns_match(psi_r, psi_v, psi_u, sol.psi, "psi")
    _dump_json(payload, o["out"])
    print(f"wrote {o['out']} (kappa = {sol.kappa:.6g}, N = {sol.N})")
    return 0


def _check_same_run(report, report_path, curve: PhaseCurve, curve_path):
    """ParameterError unless the report records curve's eta0, eta range, measured
    and closed-form Taylor data (of its n and theta), as one run writes them."""
    p = curve.params
    taylors = {"taylor": taylor_coeffs(p.n, p.theta), "taylor_measured": curve.taylor}
    recorded = {key: json_get(report, key, report_path) for key in ("eta0", *taylors)}
    recorded["scan_range"] = json_get(json_get(report, "bounds_detail", report_path),
                                      "scan_range", f"{report_path}: bounds_detail")
    measured = {"eta0": p.eta0, "scan_range": [float(curve.eta[0]), float(curve.eta[-1])],
                **{key: {c: getattr(t, c) for c in ("alpha", "beta", "gamma")}
                   for key, t in taylors.items()}}
    differ = [key for key in measured if recorded[key] != measured[key]]
    if differ:
        raise ParameterError(f"{report_path} and {curve_path} are not from one "
                             f"solve-negative run: {', '.join(differ)} differ")


def _check_columns_match(r, v, u, rebuilt: RadialProfile, name: str):
    """ParameterError unless the v and u columns of a profile file agree
    with the rebuilt factor at its radii r, each to 1e-6 of its largest
    value; a NaN agrees with nothing."""
    for col, ref in ((v, rebuilt.v_at(r)), (u, rebuilt.evaluator.u(r))):
        if not np.max(np.abs(ref - col)) <= 1e-6 * np.max(np.abs(ref)):
            raise ParameterError(
                f"{name} profile columns disagree with the reconstruction; "
                "wrong curve/v0/lambda for this CSV?")


def _load_json(path):
    """The JSON document in the file at path; ParameterError if it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ParameterError(f"{path} is not valid JSON ({exc})") from None


def _cmd_verify(o) -> int:
    sol = solution_from_payload(_load_json(o["solution"]), o["solution"])
    rep = verify_solution(sol, int(o["points"]), int(o["seed"]))
    _dump_json(rep, o["report"])
    print(f"residual max {rep['residual_max']:.3e} (tol {rep['tolerance']:.1e}), "
          f"convexity margin {rep['convexity_margin']:.3e}, "
          f"completeness {'pass' if rep['completeness']['pass'] else 'FAIL'}")
    return 0 if rep["pass"] else FAILURE


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
        _, report, _ = solve_negative(n, theta, eta0, eta_max)
        row.update({"lambda_cal": report["lambda_cal"],
                    "iterations": report["iterations"],
                    "T_inf": report["T_inf"], "R_inf": report["R_inf"],
                    "bounds": report["bounds"], "status": "ok"})
    except AffmaxError as exc:
        row.update({"status": "failed", "error": f"{type(exc).__name__}: {exc}"})
    return row


def _sweep_share(tasks, conn):
    """Body of a forked sweep process: send each row of tasks as soon as
    it is made, or the exception that stopped them."""
    try:
        for t in tasks:
            conn.send(_sweep_worker(t))
    except Exception as exc:  # raised by _sweep_rows at its row, as --jobs 1 would
        conn.send(exc)
    conn.close()


def _sweep_rows(tasks, procs):
    """The rows of tasks, in order, computed by procs processes in all.

    Row i goes to process i mod procs.  Process 0 is this one; the others
    are forked children, each sending its rows over a pipe as it makes
    them.  The rows are taken in grid order, row i made here or received
    from its child, so the first exception met, here or sent by a child,
    is that of the lowest failing row, as --jobs 1 raises it.  A child
    that ends before sending row i is an AffmaxError naming the rows it
    still held.  No child outlives the call, whatever it raises.
    """
    children = []   # [k - 1]: (process, pipe end) of the child making rows k::procs
    try:
        if procs > 1:
            # imported here: multiprocessing costs every other command ~6 ms.
            # The forked children keep the one BLAS thread affmax/__init__.py
            # sets, so the rows are the only parallelism.  Fork, not spawn: a
            # child starts with numpy and affmax loaded instead of importing them.
            import multiprocessing
            ctx = multiprocessing.get_context("fork")
            for k in range(1, procs):
                recv, send = ctx.Pipe(duplex=False)
                child = ctx.Process(target=_sweep_share, args=(tasks[k::procs], send))
                child.start()
                children.append((child, recv))
                send.close()  # so that recv sees EOF once the child ends
        rows = []
        for i, task in enumerate(tasks):
            if i % procs == 0:
                rows.append(_sweep_worker(task))
                continue
            child, recv = children[i % procs - 1]
            try:
                row = recv.recv()
            except EOFError:
                child.join()
                which = ", ".join(map(str, range(i, len(tasks), procs)))
                raise AffmaxError(f"the process computing rows {which} ended with "
                                  f"exit code {child.exitcode} before sending "
                                  f"them") from None
            if isinstance(row, Exception):
                raise row
            rows.append(row)
    finally:
        for child, recv in children:
            child.terminate()  # a child that sent all its rows has no work left
            child.join()
            recv.close()
    return rows


def _cmd_sweep(o) -> int:
    import os
    if not o["steps"] >= 1:
        raise ParameterError(f"steps must be at least 1, got {o['steps']}")
    if not o["jobs"] >= 1:
        raise ParameterError(f"jobs must be at least 1, got {o['jobs']}")
    ModelParams.require_negative_pair_n(o["n"])
    if not 1 < o["eta0"] < o["eta_max"] < np.inf:      # a bad theta fails only its row
        raise ParameterError(f"sweep needs 1 < eta0 < eta_max < inf, got eta0 = "
                             f"{o['eta0']}, eta_max = {o['eta_max']}")
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
        names, cols = ["eta", "zeta"], read_curve_columns(path)[:2]
    elif kind == "profile":
        names, cols = read_columns(path, header=["r", "v", "u"])
    elif kind == "bounds":
        curve = PhaseCurve.from_csv(path)
        rep = growth_bounds_check(curve)
        names = ["eta", "zeta", "rho*(eta-1)", "eps0*eta^2"]
        cols = [curve.eta, curve.zeta, rep["rho"] * (curve.eta - 1.0),
                rep["eps0"] * curve.eta**2]
    elif kind == "residual-hist":
        res = json_get(_load_json(path), "residuals", path)
        if not (isinstance(res, list) and all(map(json_finite, res))):
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


def _add_options(p, command):
    """Give the parser p the options of command, --config among them."""
    p.add_argument("--config", default=None, help="INI config file")
    for key, flag, typ, _, hlp in _options(command):
        p.add_argument(f"--{flag}", type=typ, default=None, help=hlp, dest=key)


def build_parser() -> _Parser:
    ap = _Parser(prog="affmax", description=__doc__)
    ap.add_argument("--version", action="store_true", help="print version and exit")
    sub = ap.add_subparsers(dest="command")
    for command in _COMMANDS:
        _add_options(sub.add_parser(command), command)
    return ap


def _parse_args(argv) -> argparse.Namespace:
    """The parsed argv, or SystemExit with the exit code of a usage error
    or of a request for help or the version.

    A known command's own parser, the one build_parser gives it, parses
    it.  Only what that parser leaves undecided goes to the full parser
    of every command, whose text is the same: no command or an unknown
    one, top-level help or --version, and arguments the command lacks.
    """
    if argv and argv[0] in _COMMANDS:
        ap = _Parser(prog=f"affmax {argv[0]}")
        _add_options(ap, argv[0])
        args, rest = ap.parse_known_args(argv[1:])
        if not rest:
            args.command, args.version = argv[0], False
            return args
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command is None and not args.version:
        ap.print_usage(sys.stderr)
        raise SystemExit(USAGE_ERROR)
    return args


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
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    if args.version:
        print(f"affmax {__version__} (schema {SCHEMA_VERSION})")
        return 0
    try:
        opts = _merge(args, args.command)
        return _COMMANDS[args.command](opts)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except AffmaxError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return USAGE_ERROR if isinstance(exc, ParameterError) else FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
