"""Assemble u(x, y) = kappa*phi(|x|) + psi(|y|) (+ |z|^2/2 cylinder factors)
and verify the original equation u^{ij} D_ij w = 0, w = (det D^2 u)^(-theta),
by independent finite differences at sample points, together with
convexity and completeness checks.

The scaling law behind the assembly: u -> kappa u sends the factor
eigenvalue to lambda/kappa (w scales by kappa^(-n theta) and u^{ij} by
kappa^(-1)), so kappa = lambda_phi / (-lambda_psi) makes the two factor
eigenvalues exactly opposite and the sum solves the source equation.
build_factor builds every stage's factors, assemble_solution a solution and
its solution.json payload (schema 4), and solution_from_payload reads one.
"""

from __future__ import annotations

import math
import random
import sys

import numpy as np

from . import SCHEMA_VERSION
from .core import (ModelParams, PhaseCurve, RadialProfile, SeparableSolution,
                   VerificationReport, decode_column, effective_lambda_fit,
                   eigenvalue_from_lambda_prime, encode_column)
from .errors import NearSingular, ParameterError, SignError
from .positive_pair import PositivePairConfig, build_phi, phi_grid
from .reconstruct import (BOX_FRACTION, U_CEILING, large_condition_check,
                          rebuild_profile)

__all__ = [
    "assemble", "check_assembly", "full_residual", "completeness_check",
    "verify_solution", "RESIDUAL_TOL", "bernstein_1d_check", "residual_at",
    "build_factor", "assemble_solution", "solution_from_payload",
]


def _fit_nodes(profile: RadialProfile):
    """Interior radii for eigenvalue fits: away from 0 and the grid edge."""
    r = profile.r
    r_lo, r_hi = 0.1 * r[-1], 0.75 * r[-1]
    lo = max(r_lo, r[0] + 0.05 * (r[-1] - r[0]), 1e-2)
    return np.linspace(lo, r_hi, 9)


# the largest m_cylinder assemble and verify accept, as input validation
# only: the verify stencil does not grow with m_cylinder
MAX_CYLINDER = 8


def check_assembly(theta: float, n: int, m_cylinder: int):
    """ParameterError unless the psi dimension n is one the negative pair
    is solved in, m_cylinder is an integer in [0, MAX_CYLINDER] and theta
    lies in (1/2, n/(n+1))."""
    ModelParams.require_negative_pair_n(n)
    if not (0 <= m_cylinder <= MAX_CYLINDER and int(m_cylinder) == m_cylinder):
        raise ParameterError(
            f"m_cylinder must be an integer in [0, {MAX_CYLINDER}], got {m_cylinder}")
    if not 0.5 < theta < n / (n + 1):
        raise ParameterError(
            f"assembly needs theta in (1/2, {n/(n+1)}) for the {n}-dimensional factor")


def assemble(phi: RadialProfile, psi: RadialProfile, theta: float,
             m_cylinder: int = 0, R_inf: float = math.inf) -> SeparableSolution:
    """Choose kappa so the eigenvalues of kappa phi and psi are opposite
    and combine; the solution keeps phi and psi as they are.

    R_inf is the boundary radius of the psi factor (infinite for an
    entire one).  Requires the fitted eigenvalues to have strictly opposite signs
    (SignError otherwise) and theta inside (1/2, n/(n+1)) for the
    psi dimension n (the range on which both factor constructions are
    available and complete).
    """
    n = psi.n
    check_assembly(theta, n, m_cylinder)
    lp_phi, _ = effective_lambda_fit(phi, theta, phi.n, nodes=_fit_nodes(phi))
    lp_psi, _ = effective_lambda_fit(psi, theta, n, nodes=_fit_nodes(psi))
    lam_phi = eigenvalue_from_lambda_prime(lp_phi, theta)
    lam_psi = eigenvalue_from_lambda_prime(lp_psi, theta)
    if lam_phi * lam_psi >= 0:
        raise SignError(
            f"factor eigenvalues {lam_phi:.4g}, {lam_psi:.4g} do not have opposite signs")
    if lam_phi < 0:
        raise SignError("expected the 1-D factor to carry the positive eigenvalue")
    kappa = lam_phi / (-lam_psi)
    return SeparableSolution(phi=phi, psi=psi, kappa=kappa,
                             theta=theta, R_inf=R_inf, m_cylinder=int(m_cylinder),
                             lambda_phi=lam_phi / kappa, lambda_psi=lam_psi)


def build_factor(ctor, theta: float, curve: PhaseCurve | None,
                 where: str) -> RadialProfile:
    """The factor of a constructor block, as every stage builds it: phi of
    a "positive-pair" block (v0, lambda, rmax, nodes) at theta when curve
    is None, else the profile of a "phase-reconstruction" block (v0)
    rebuilt from curve.  A bad block is a one-line ParameterError naming
    where."""
    kind = json_get(ctor, "kind", where)
    if kind != ("positive-pair" if curve is None else "phase-reconstruction"):
        raise ParameterError(f"{where} has unknown kind {kind!r}")
    v0 = json_number(ctor, "v0", where, positive=True)
    if curve is not None:
        return rebuild_profile(curve, v0=v0)
    lam, rmax = (json_number(ctor, k, where, positive=True) for k in ("lambda", "rmax"))
    nodes = json_number(ctor, "nodes", where, integer=True)
    try:
        return build_phi(PositivePairConfig(v0=v0, lam=lam, theta=theta),
                         phi_grid(rmax, nodes))
    except ParameterError as exc:
        raise ParameterError(f"{where}: {exc}") from None


def assemble_solution(phi_ctor, psi_ctor, curve: PhaseCurve, m_cylinder: int,
                      R_inf: float) -> tuple[SeparableSolution, dict]:
    """(assemble, at curve's theta, of build_factor's phi and psi, its
    solution.json payload): the solution's scalars and each factor's
    block, psi's with curve's eta and zeta columns and its anchor eta0."""
    theta = curve.params.theta
    sol = assemble(build_factor(phi_ctor, theta, None, "phi.constructor"),
                   build_factor(psi_ctor, theta, curve, "psi.constructor"),
                   theta=theta, m_cylinder=m_cylinder, R_inf=R_inf)
    psi_ctor = {**psi_ctor, "eta": encode_column(curve.eta),
                "zeta": encode_column(curve.zeta), "eta0": curve.params.eta0}
    return sol, {
        "schema": SCHEMA_VERSION, "theta": sol.theta, "kappa": sol.kappa,
        "m_cylinder": sol.m_cylinder, "n_psi": sol.psi.n, "N": sol.N,
        "R_inf": sol.R_inf,
        "lambda_phi": sol.lambda_phi, "lambda_psi": sol.lambda_psi,
        "phi": {"constructor": phi_ctor}, "psi": {"constructor": psi_ctor},
    }


def solution_from_payload(data, where: str) -> SeparableSolution:
    """The SeparableSolution a solution.json payload describes, its factors
    built by build_factor; where names the payload.

    Another schema, a missing key, a scalar or constructor value of the
    wrong type or range, a curve column that is not base64 float64 data,
    or an eta0 that is not one of the eta samples raise a one-line
    ParameterError.
    """
    if json_get(data, "schema", where) != SCHEMA_VERSION:
        raise ParameterError(
            f"{where} has solution schema {data['schema']!r}, this version reads "
            f"schema {SCHEMA_VERSION}; rerun assemble to regenerate it")
    n = json_number(data, "n_psi", where, integer=True)
    m = json_number(data, "m_cylinder", where, integer=True)
    theta = json_number(data, "theta", where)
    try:
        check_assembly(theta, n, m)
    except ParameterError as exc:
        raise ParameterError(f"{where}: {exc}") from None
    if json_number(data, "N", where, integer=True) != 1 + n + m:
        raise ParameterError(f"{where}: N is not 1 + n_psi + m_cylinder = {1 + n + m}")
    kappa, lam_phi, lam_psi = (json_number(data, k, where)
                               for k in ("kappa", "lambda_phi", "lambda_psi"))
    if json_get(data, "R_inf", where) is None:
        raise ParameterError(f"{where}: R_inf is null; rerun assemble with --report")
    R_inf = json_number(data, "R_inf", where, positive=True)
    phi, psi = (json_get(json_get(data, k, where), "constructor", f"{where}: {k}")
                for k in ("phi", "psi"))
    at = f"{where}: psi.constructor"
    eta, zeta = (decode_column(json_get(psi, k, at), f"{at}: {k}") for k in ("eta", "zeta"))
    eta0 = json_number(psi, "eta0", at, positive=True)
    try:
        curve = PhaseCurve.from_columns(eta, zeta, eta0, n=n, theta=theta)
    except ParameterError as exc:
        raise ParameterError(f"{at}: {exc}") from None
    return SeparableSolution(
        phi=build_factor(phi, theta, None, f"{where}: phi.constructor"),
        psi=build_factor(psi, theta, curve, at), kappa=kappa, theta=theta,
        R_inf=R_inf, m_cylinder=m, lambda_phi=lam_phi, lambda_psi=lam_psi)


def json_get(obj, key, where):
    """obj[key], after checking that obj is a JSON object holding key."""
    if not isinstance(obj, dict):
        raise ParameterError(f"{where} is not a JSON object")
    if key not in obj:
        raise ParameterError(f"{where} lacks the key {key!r}")
    return obj[key]


def json_finite(val) -> bool:
    """Whether val is a finite JSON number: not a bool, NaN, an infinity
    or an int beyond the float range."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def json_number(obj, key, where, integer=False, positive=False):
    """obj[key]: an integer if asked, else a finite JSON number, positive
    if asked; else ParameterError."""
    val = json_get(obj, key, where)
    if integer:
        ok = isinstance(val, int) and not isinstance(val, bool)
    else:
        ok = json_finite(val) and (val > 0 or not positive)
    if not ok:
        need = ("an integer" if integer else
                f"a {'positive ' if positive else ''}finite number")
        raise ParameterError(f"{where}: {key} must be {need}, got {repr(val)[:40]}")
    return val if integer else float(val)


# ---------------------------------------------------------------------------
# batched pointwise machinery: every function below takes arrays of points


def _distinct(r):
    """(ascending distinct values of r, the index of each r among them).

    Evaluating at the distinct values keeps spline interval walks short
    and evaluates each radius once; 0.0 and -0.0 count as one value,
    the one np.unique's sort puts first.  np.unique itself is kept out of
    the package by a lint: its first call without return_inverse imports
    numpy.ma, about 6 ms of a fresh process.
    """
    flat = np.ravel(r)
    perm = np.argsort(flat, kind="quicksort")
    s = flat[perm]
    first = np.empty(len(s), dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    inv = np.empty(len(s), dtype=np.intp)
    inv[perm] = np.cumsum(first) - 1
    return s[first], inv.reshape(np.shape(r))


def _det_parts(sol: SeparableSolution, x, rho):
    """(kappa phi'', psi', psi'') at the radii |x| and rho (arrays of one shape)."""
    xs, ix = _distinct(x)
    rs, ir = _distinct(rho)
    # kappa multiplies the distinct values, before the gather
    return ((sol.kappa * sol.phi.v_deriv_at(xs, 1))[ix], sol.psi.v_at(rs)[ir],
            sol.psi.v_deriv_at(rs, 1)[ir])


def _w(sol: SeparableSolution, x, rho):
    """(w, its _det_parts): w = (det D^2 u)^(-theta) at the points (x, |y| = rho)."""
    parts = phi2, psi1, psi2 = _det_parts(sol, x, rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        det = phi2 * psi2 * (psi1 / rho) ** (sol.psi.n - 1)
    bad = np.flatnonzero(~(det >= 1e-12))     # NaN (a stencil on rho = 0) included
    if len(bad):
        i = bad[0]
        raise NearSingular(f"det D^2 u = {det.flat[i]:.3e} at "
                           f"(x={x.flat[i]:.3g}, rho={rho.flat[i]:.3g})")
    return det ** (-sol.theta), parts


def _stencil(n: int) -> np.ndarray:
    """Unit offsets in (x, y) of the points the residual reads, shape
    (S, 1 + n), S = 1 + 2(1 + n) + 2n(n - 1).

    Rows: the centre; +e_i, -e_i for x and each y_i; then e_i+e_j,
    e_i-e_j, -e_i+e_j, -e_i-e_j for each y pair j < i.  w depends on x
    and |y| alone, and u^{ij} is block diagonal, so the x-y and cylinder
    entries of D^2 w meet exact zeros of u^{ij} and need no points.
    """
    e = np.eye(1 + n)
    rows = [np.zeros(1 + n)]
    for i in range(1 + n):
        rows += [e[i], -e[i]]
    for i, j in zip(*np.add(np.tril_indices(n, -1), 1)):     # the y pairs j < i
        rows += [e[i] + e[j], e[i] - e[j], -e[i] + e[j], -e[i] - e[j]]
    return np.array(rows)


def _hessian_from_stencil(f: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """(..., N, N) central-difference Hessians from values f (..., S) on
    _stencil(n) with steps h (..., N); the entries _stencil has no points
    for are exactly 0."""
    H = np.zeros(h.shape + h.shape[-1:])
    d = np.arange(1 + n)
    H[..., d, d] = (f[..., 1:2 * n + 2:2] - 2.0 * f[..., :1]
                    + f[..., 2:2 * n + 3:2]) / h[..., :1 + n] ** 2
    i, j = np.add(np.tril_indices(n, -1), 1)     # the y pairs, in _stencil order
    g = f[..., 2 * n + 3:].reshape(f.shape[:-1] + (-1, 4))
    H[..., i, j] = H[..., j, i] = ((g[..., 0] - g[..., 1] - g[..., 2] + g[..., 3])
                                   / (4 * h[..., i] * h[..., j]))
    return H


def _inverse_hessian(parts, rho, y, m: int) -> np.ndarray:
    """(P, N, N) block-diagonal u^{ij} from the _det_parts at P points with
    y coordinates y and rho = |y|: 1/(kappa phi'') + radial inverse + identity."""
    phi2, psi1, psi2 = parts
    n = y.shape[1]
    inv = np.zeros((len(y), 1 + n + m, 1 + n + m))
    inv[:, 0, 0] = 1.0 / phi2
    c = ((rho * psi2 - psi1) / (rho**3 * psi2))[:, None, None]
    yy = y[:, :, None] * y[:, None, :]
    inv[:, 1:1 + n, 1:1 + n] = (rho / psi1)[:, None, None] * (np.eye(n) - c * yy)
    inv[:, 1 + n:, 1 + n:] = np.eye(m)
    return inv


def _least_eigenvalue(parts, rho, m: int) -> np.ndarray:
    """The least of the eigenvalues kappa phi'', psi'/rho (n >= 2), psi''
    and, if m > 0, 1 of the block-diagonal D^2 u, from the _det_parts."""
    phi2, psi1, psi2 = parts
    least = np.minimum(np.minimum(phi2, psi1 / rho), psi2)
    return np.minimum(least, 1.0) if m else least


_H_REL = 1e-3   # relative step of the verify stencil
# bytes of w values in one block of points (8 S per point and step): the
# block's other work arrays are small multiples of it, and its fixed
# cost, about a millisecond of factor evaluations, stays small next to
# its work (blocks of 372 points at n = 2, whatever m_cylinder)
_BLOCK_BYTES = 1 << 16


def _residuals(sol: SeparableSolution, pts: np.ndarray, h_rel: float = _H_REL):
    """(u^{ij} D_ij w, the least eigenvalue of D^2 u) at each of the (P, N)
    points, by blocks of _BLOCK_BYTES of w values.  w is differentiated by
    central differences with steps h = h_rel * max(|p_i|, 1) and h/2,
    combined by Richardson extrapolation as (4 H(h/2) - H(h)) / 3.  Every
    residual depends on its own point alone; a NearSingular names the first
    bad stencil point of the first block that has one, in (step, point,
    stencil) order."""
    h = h_rel * np.maximum(np.abs(pts), 1.0) / np.array([1.0, 2.0])[:, None, None]
    off = _stencil(sol.psi.n)
    block = max(1, _BLOCK_BYTES // (16 * len(off)))
    out = np.empty((2, len(pts)))
    for lo in range(0, len(pts), block):
        out[:, lo:lo + block] = _block(sol, pts[lo:lo + block], h[:, lo:lo + block], off)
    return out[0], out[1]


def _block(sol: SeparableSolution, p: np.ndarray, hk: np.ndarray, off: np.ndarray):
    """_residuals at the points p of one block, with steps hk (2, P, N): the
    factors are evaluated once over both steps' stencil points off, whose row
    0 is p itself, bit for bit.  The work arrays die on return."""
    n, m = sol.psi.n, sol.m_cylinder
    q = p[:, None, :1 + n] + off * hk[:, :, None, :1 + n]
    rho = np.linalg.norm(q[..., 1:], axis=-1)
    w, parts = _w(sol, q[..., 0], rho)
    H = _hessian_from_stencil(w, hk, n)
    c, r0 = [a[0, :, 0] for a in parts], rho[0, :, 0]      # the points p
    # over all (N, N) entries: a (1+n, 1+n) one rounds its sums differently
    return (np.einsum("pij,pij->p", _inverse_hessian(c, r0, p[:, 1:1 + n], m),
                      (4.0 * H[1] - H[0]) / 3.0),
            _least_eigenvalue(c, r0, m))


def residual_at(sol: SeparableSolution, point: np.ndarray) -> float:
    """u^{ij} D_ij w at one point, by _residuals' Richardson-extrapolated
    differences; ParameterError unless the point has N coordinates."""
    pts = np.asarray([point], dtype=float)
    if pts.shape != (1, sol.N):
        raise ParameterError(f"point must have {sol.N} coordinates")
    return float(_residuals(sol, pts)[0][0])


def _sample_points(sol: SeparableSolution, n_points: int, seed: int):
    """n_points (>= 1) samples: |x| inside the phi table, rho away from 0 and R_inf.

    One random.Random(seed) call gives every uniform, k * 2**-53 in [0, 1)
    from the top 53 bits of a 64-bit word, one row of n_points per use: x,
    log rho and the cylinder coordinates are uniform, and the directions
    are Box-Muller normals, normalised.
    """
    if not n_points >= 1:
        raise ParameterError(f"the sample count must be at least 1, got {n_points}")
    if not seed >= 0:
        raise ParameterError(f"the sampling seed must be non-negative, got {seed}")
    n, m = sol.psi.n, sol.m_cylinder
    pairs = (n + 1) // 2                    # Box-Muller gives two normals a pair
    rows = 2 + 2 * pairs + m
    words = np.frombuffer(random.Random(seed).randbytes(8 * rows * n_points), "<u8")
    u = (words >> 11).reshape(rows, n_points) * 2.0**-53
    x_max = 0.8 * float(sol.phi.r[-1])
    lo = math.log(max(10.0 * _H_REL, 20.0 * (sol.psi.r[0] + 1e-9)))
    hi = math.log(BOX_FRACTION * float(sol.psi.r[-1]))
    pts = np.empty((n_points, 1 + n + m))
    pts[:, 0] = -x_max + 2.0 * x_max * u[0]
    rho = np.exp(lo + (hi - lo) * u[1])
    radius = np.sqrt(-2.0 * np.log1p(-u[2:2 + pairs]))     # log of 1 - u in (0, 1]
    angle = 2.0 * math.pi * u[2 + pairs:2 + 2 * pairs]
    dirs = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n].T
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts[:, 1:1 + n] = rho[:, None] * dirs
    pts[:, 1 + n:] = (-1.0 + 2.0 * u[2 + 2 * pairs:]).T
    return pts


def full_residual(sol: SeparableSolution, n_points: int,
                  seed: int) -> VerificationReport:
    """Residual statistics of the source equation at random interior points."""
    pts = _sample_points(sol, n_points, seed)
    res, least = _residuals(sol, pts)
    blow = {"T_inf": math.log(sol.R_inf) if np.isfinite(sol.R_inf) else None,
            "R_inf": sol.R_inf if np.isfinite(sol.R_inf) else None}
    return VerificationReport(
        residual_max=float(np.max(np.abs(res))),
        residual_mean=float(np.mean(np.abs(res))),
        convexity_margin=float(np.min(least)),
        blowup=blow,
        effective_lambda={"lambda_phi": sol.lambda_phi,
                          "lambda_psi": sol.lambda_psi, "kappa": sol.kappa},
        residuals=res.tolist(),
    )


def completeness_check(sol: SeparableSolution) -> dict:
    """u -> infinity toward every boundary direction of R x B_{R_inf} x R^m.

    The kappa phi side grows at least linearly for large |x| (its curvature is
    positive and u' increasing), so u exceeds U_CEILING at a finite,
    reported |x|.  The psi side delegates to the boundary blow-up check.
    A phi evaluator with no rule for u raises ParameterError.
    """
    xs = sol.phi.r[-1] * np.array([0.25, 0.5, 1.0])
    u_vals = sol.kappa * sol.phi.evaluator.u(xs)
    slope = (u_vals[2] - u_vals[1]) / (xs[2] - xs[1])
    x_ceiling = xs[2] + max(U_CEILING - u_vals[2], 0.0) / slope if slope > 0 else math.inf
    phi_rep = {"increasing": bool(u_vals[0] < u_vals[1] < u_vals[2]),
               "slope": float(slope), "u_reaches_ceiling_at": float(x_ceiling)}
    psi_rep = large_condition_check(sol.psi, sol.R_inf)
    return {
        "pass": _diverges_at_infinity(phi_rep) and psi_rep["pass"],
        "phi": phi_rep, "psi": psi_rep,
        "backs": "u -> inf as |x| -> inf and as |y| -> R_inf",
    }


def _diverges_at_infinity(phi_rep) -> bool:
    """u -> inf as |x| -> inf, by completeness_check's phi report."""
    return phi_rep["increasing"] and phi_rep["slope"] > 0


RESIDUAL_TOL = 1e-4     # the acceptance tolerance of the residual maximum


def verify_solution(sol: SeparableSolution, n_points: int, seed: int) -> dict:
    """The verify.json payload: full_residual's statistics at n_points
    points drawn with seed, completeness_check's report, the named bounds,
    the tolerance, and "pass": the residual maximum is below RESIDUAL_TOL
    and every bound holds."""
    rep = full_residual(sol, n_points=n_points, seed=seed)
    comp = completeness_check(sol)
    phi, psi = comp["phi"], comp["psi"]
    bounds = [
        {"bound_id": "hessian-positive-definite", "holds": rep.convexity_margin > 0,
         "witness": {"min_eigenvalue": rep.convexity_margin}},
        {"bound_id": "u-diverges-at-boundary", "holds": psi["pass"],
         "witness": {k: psi.get(k) for k in ("u_log_slope", "u_fit_residual")}},
        {"bound_id": "u-diverges-at-infinity", "holds": _diverges_at_infinity(phi),
         "witness": phi},
    ]
    return {**vars(rep), "completeness": comp, "bounds": bounds,
            "tolerance": RESIDUAL_TOL,
            "pass": rep.residual_max < RESIDUAL_TOL and all(b["holds"] for b in bounds)}


# ---------------------------------------------------------------------------
# the 1-D uniqueness check


def bernstein_1d_check(theta: float,
                       c2_values=(-2.0, -0.5, 0.5, 2.0),
                       c3_values=(0.0, 0.7, 1.5)) -> dict:
    """Every non-quadratic 1-D branch violates convexity or the large condition.

    The general solution family has (u'')^(-theta) = -theta C2 x + C3.
    For each sampled (C2, C3) with C2 != 0 and each normalised domain
    (the line, the unit interval, the half-line) the case analysis
    p(x) = -theta C2 x + C3 shows convexity (p > 0 on the domain) and
    largeness (u -> inf at every finite boundary point) cannot both
    hold; only C2 = 0 (the quadratic) survives on the line.
    """
    if not 0 < theta < math.inf:
        raise ParameterError(f"theta must be positive and finite, got {theta}")
    cases = []
    for C2 in c2_values:
        for C3 in c3_values:
            p0, p1, slope = C3, C3 - theta * C2, -theta * C2
            line = C2 == 0 and C3 > 0           # p > 0 on the whole line
            # u is finite at an end with p > 0 (u'' ~ p^(-1/theta)), and at one
            # with p = 0 unless theta <= 1/2; [0, 1] is convex only with p > 0 at an end
            half = bool(p0 == 0 and slope > 0 and theta <= 0.5)
            cases += [{"C2": C2, "C3": C3, "domain": "line", "convex": line,
                       "large": None, "excluded": not line,
                       "reason": "linear p changes sign on the line"},
                      {"C2": C2, "C3": C3, "domain": "interval",
                       "convex": bool(min(p0, p1) >= 0 and max(p0, p1) > 0),
                       "large": False, "excluded": True,
                       "reason": "u finite at an endpoint with p > 0"},
                      {"C2": C2, "C3": C3, "domain": "halfline",
                       "convex": bool((slope > 0 and p0 >= 0) or (slope >= 0 and p0 > 0)),
                       "large": half, "excluded": not half, "reason": "u finite at x = 0"}]
    # C2 = 0, C3 > 0, the quadratic, is convex and entire on the line
    return {"theta": theta, "pass": all(c["excluded"] for c in cases if c["C2"] != 0),
            "cases": cases}
