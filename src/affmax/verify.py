"""Assemble u(x, y) = kappa*phi(|x|) + psi(|y|) (+ |z|^2/2 cylinder factors)
and verify the original equation u^{ij} D_ij w = 0, w = (det D^2 u)^(-theta),
by independent finite differences at sample points, together with
convexity and completeness checks.

The scaling law behind the assembly: u -> kappa u sends the factor
eigenvalue to lambda/kappa (w scales by kappa^(-n theta) and u^{ij} by
kappa^(-1)), so kappa = lambda_phi / (-lambda_psi) makes the two factor
eigenvalues exactly opposite and the sum solves the source equation.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (RadialProfile, SeparableSolution, VerificationReport,
                   effective_lambda_fit, eigenvalue_from_lambda_prime)
from .errors import NearSingular, ParameterError, SignError
from .reconstruct import U_CEILING, large_condition_check

__all__ = [
    "assemble", "check_assembly", "full_residual", "completeness_check",
    "bernstein_1d_check", "residual_at",
]


def _fit_nodes(profile: RadialProfile):
    """Interior radii for eigenvalue fits: away from 0 and the grid edge."""
    r = profile.r
    r_lo, r_hi = 0.1 * r[-1], 0.75 * r[-1]
    lo = max(r_lo, r[0] + 0.05 * (r[-1] - r[0]), 1e-2)
    return np.linspace(lo, r_hi, 9)


# the largest m_cylinder assemble and verify accept.  The stencil no longer
# limits it: _residuals works in blocks of points, and at n = 2, m = 8
# (N = 11, 243 stencil points a sample) 1000 samples take 5.7 MB traced
# and verify peaks at 53 MB RSS.  The cap stays so that the same inputs
# are accepted.
MAX_CYLINDER = 8


def check_assembly(theta: float, n: int, m_cylinder: int):
    """ParameterError unless theta lies in (1/2, n/(n+1)) for the psi
    dimension n and m_cylinder is an integer in [0, MAX_CYLINDER]."""
    if not (0 <= m_cylinder <= MAX_CYLINDER and int(m_cylinder) == m_cylinder):
        raise ParameterError(
            f"m_cylinder must be an integer in [0, {MAX_CYLINDER}], got {m_cylinder}")
    if not 0.5 < theta < n / (n + 1):
        raise ParameterError(
            f"assembly needs theta in (1/2, {n/(n+1)}) for the {n}-dimensional factor")


def assemble(phi: RadialProfile, psi: RadialProfile, theta: float,
             m_cylinder: int = 0, R_inf: float = math.inf) -> SeparableSolution:
    """Scale phi so the factor eigenvalues are opposite and combine.

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
    return SeparableSolution(phi=phi.scaled(kappa), psi=psi, kappa=kappa,
                             theta=theta, R_inf=R_inf, m_cylinder=int(m_cylinder),
                             lambda_phi=lam_phi / kappa, lambda_psi=lam_psi)


# ---------------------------------------------------------------------------
# batched pointwise machinery: every function below takes arrays of points


def _distinct(r):
    """(ascending distinct values of r, the index of each r among them).

    Evaluating at the distinct values keeps spline interval walks short
    and evaluates each radius once; 0.0 and -0.0 count as one value.
    """
    vals, inv = np.unique(r, return_inverse=True)
    return vals, inv.reshape(np.shape(r))


def _det_parts(sol: SeparableSolution, x, rho):
    """(phi'', psi', psi'') at the radii |x| and rho (arrays of one shape)."""
    xs, ix = _distinct(x)
    rs, ir = _distinct(rho)
    return (sol.phi.v_deriv_at(xs, 1)[ix], sol.psi.v_at(rs)[ir],
            sol.psi.v_deriv_at(rs, 1)[ir])


def _w(sol: SeparableSolution, x, rho) -> np.ndarray:
    """w = (det D^2 u)^(-theta) at the points with coordinates x and |y| = rho."""
    phi2, psi1, psi2 = _det_parts(sol, x, rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        det = phi2 * psi2 * (psi1 / rho) ** (sol.psi.n - 1)
    bad = np.flatnonzero(~(det >= 1e-12))     # NaN (a stencil on rho = 0) included
    if len(bad):
        i = bad[0]
        raise NearSingular(f"det D^2 u = {det.flat[i]:.3e} at "
                           f"(x={x.flat[i]:.3g}, rho={rho.flat[i]:.3g})")
    return det ** (-sol.theta)


def _stencil(N: int) -> np.ndarray:
    """Unit offsets of the Hessian stencil, shape (S, N), S = 1 + 2N + 2N(N-1).

    Rows: the centre; +e_i, -e_i for each i; then e_i+e_j, e_i-e_j,
    -e_i+e_j, -e_i-e_j for each j < i.
    """
    e = np.eye(N)
    rows = [np.zeros(N)]
    for i in range(N):
        rows += [e[i], -e[i]]
    for i in range(N):
        for j in range(i):
            rows += [e[i] + e[j], e[i] - e[j], -e[i] + e[j], -e[i] - e[j]]
    return np.array(rows)


def _hessian_from_stencil(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(P, N, N) central-difference Hessians from values f (P, S) on _stencil(N)."""
    P, N = h.shape
    H = np.empty((P, N, N))
    d = np.arange(N)
    H[:, d, d] = (f[:, 1:2 * N:2] - 2.0 * f[:, :1] + f[:, 2:2 * N + 1:2]) / h ** 2
    i, j = np.tril_indices(N, -1)            # the pairs j < i in stencil order
    g = f[:, 1 + 2 * N:].reshape(P, -1, 4)
    H[:, i, j] = H[:, j, i] = ((g[..., 0] - g[..., 1] - g[..., 2] + g[..., 3])
                               / (4 * h[:, i] * h[:, j]))
    return H


def _inverse_hessian(sol: SeparableSolution, pts: np.ndarray) -> np.ndarray:
    """(P, N, N) block-diagonal u^{ij}: 1/phi'' + radial inverse + identity."""
    n, m = sol.psi.n, sol.m_cylinder
    y = pts[:, 1:1 + n]
    rho = np.linalg.norm(y, axis=1)
    phi2, psi1, psi2 = _det_parts(sol, pts[:, 0], rho)
    inv = np.zeros((len(pts), 1 + n + m, 1 + n + m))
    inv[:, 0, 0] = 1.0 / phi2
    c = ((rho * psi2 - psi1) / (rho**3 * psi2))[:, None, None]
    yy = y[:, :, None] * y[:, None, :]
    inv[:, 1:1 + n, 1:1 + n] = (rho / psi1)[:, None, None] * (np.eye(n) - c * yy)
    for k in range(m):
        inv[:, 1 + n + k, 1 + n + k] = 1.0
    return inv


_H_REL = 1e-3   # relative step of the verify stencil
# bytes of w values in one block of points (8 S per point and step): the
# block's other work arrays are small multiples of it (N for the stencil
# coordinates), and its fixed cost, about a millisecond of factor
# evaluations, stays small next to its work
_BLOCK_BYTES = 1 << 17


def _residuals(sol: SeparableSolution, pts: np.ndarray, h_rel: float = _H_REL) -> np.ndarray:
    """u^{ij} D_ij w at each of the (P, N) points, by blocks of points.

    w is differentiated by central differences with steps h = h_rel *
    max(|p_i|, 1) and h/2, combined by Richardson extrapolation as
    (4 H(h/2) - H(h)) / 3.  Each step is one pass over the points in
    blocks of _BLOCK_BYTES of w values, and w is evaluated once over every
    stencil point of a block, so its work arrays do not grow with P.  Every
    residual depends on its own point alone, and a NearSingular names the
    first bad stencil point in (step, point, stencil) order, whatever the
    block size.
    """
    n, (P, N) = sol.psi.n, pts.shape
    h = h_rel * np.maximum(np.abs(pts), 1.0)
    off = _stencil(N)
    block = max(1, _BLOCK_BYTES // (8 * len(off)))
    H = np.empty((P, N, N))
    res = np.empty(P)
    for step in (1.0, 2.0):                  # h, then h/2
        for lo in range(0, P, block):
            p, hk = pts[lo:lo + block], h[lo:lo + block] / step
            q = p[:, None, :] + off * hk[:, None, :]
            Hk = _hessian_from_stencil(
                _w(sol, q[..., 0], np.linalg.norm(q[..., 1:1 + n], axis=-1)), hk)
            if step == 1.0:
                H[lo:lo + block] = Hk
            else:
                Hk = (4.0 * Hk - H[lo:lo + block]) / 3.0
                res[lo:lo + block] = np.einsum("pij,pij->p",
                                               _inverse_hessian(sol, p), Hk)
    return res


def _eigenvalues(sol: SeparableSolution, pts: np.ndarray) -> np.ndarray:
    """(P, N) sorted eigenvalues of D^2 u, in closed form.

    D^2 u is block diagonal: phi'' on x; on y the radial block with
    eigenvalues psi'/rho (multiplicity n-1, tangential) and psi''
    (radial); 1 on each cylinder coordinate.
    """
    n, m = sol.psi.n, sol.m_cylinder
    rho = np.linalg.norm(pts[:, 1:1 + n], axis=1)
    phi2, psi1, psi2 = _det_parts(sol, pts[:, 0], rho)
    cols = [phi2] + [psi1 / rho] * (n - 1) + [psi2] + [np.ones(len(pts))] * m
    return np.sort(np.stack(cols, axis=1), axis=1)


def residual_at(sol: SeparableSolution, point: np.ndarray) -> float:
    """u^{ij} D_ij w at one point, with w differentiated by nested FD;
    ParameterError unless the point has N coordinates."""
    pts = np.asarray([point], dtype=float)
    if pts.shape != (1, sol.N):
        raise ParameterError(f"point must have {sol.N} coordinates")
    return float(_residuals(sol, pts)[0])


def _sample_points(sol: SeparableSolution, n_points: int, seed: int):
    """n_points (>= 1) samples: |x| inside the phi table, rho away from 0 and R_inf."""
    if not n_points >= 1:
        raise ParameterError(f"the sample count must be at least 1, got {n_points}")
    rng = np.random.default_rng(seed)
    n, m = sol.psi.n, sol.m_cylinder
    x_max = 0.8 * float(sol.phi.r[-1])
    r_lo = max(10.0 * _H_REL, 20.0 * (sol.psi.r[0] + 1e-9))
    r_hi = 0.95 * float(sol.psi.r[-1])
    pts = np.empty((n_points, 1 + n + m))
    pts[:, 0] = rng.uniform(-x_max, x_max, n_points)
    rho = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), n_points))
    dirs = rng.normal(size=(n_points, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts[:, 1:1 + n] = rho[:, None] * dirs
    if m:
        pts[:, 1 + n:] = rng.uniform(-1.0, 1.0, (n_points, m))
    return pts


def full_residual(sol: SeparableSolution, n_points: int,
                  seed: int) -> VerificationReport:
    """Residual statistics of the source equation at random interior points."""
    pts = _sample_points(sol, n_points, seed)
    res = _residuals(sol, pts)
    eigs = _eigenvalues(sol, pts)[:, 0]
    blow = {"T_inf": math.log(sol.R_inf) if np.isfinite(sol.R_inf) else None,
            "R_inf": sol.R_inf if np.isfinite(sol.R_inf) else None}
    return VerificationReport(
        residual_max=float(np.max(np.abs(res))),
        residual_mean=float(np.mean(np.abs(res))),
        convexity_margin=float(np.min(eigs)),
        blowup=blow,
        effective_lambda={"lambda_phi": sol.lambda_phi,
                          "lambda_psi": sol.lambda_psi, "kappa": sol.kappa},
        residuals=res.tolist(),
    )


def completeness_check(sol: SeparableSolution) -> dict:
    """u -> infinity toward every boundary direction of R x B_{R_inf} x R^m.

    The phi side grows at least linearly for large |x| (its curvature is
    positive and u' increasing), so u exceeds U_CEILING at a finite,
    reported |x|.  The psi side delegates to the boundary blow-up check.
    A phi evaluator with no rule for u raises ParameterError.
    """
    phi = sol.phi
    xs = phi.r[-1] * np.array([0.25, 0.5, 1.0])
    u_vals = phi.evaluator.u(xs)
    increasing = bool(u_vals[0] < u_vals[1] < u_vals[2])
    slope = (u_vals[2] - u_vals[1]) / (xs[2] - xs[1])
    x_ceiling = xs[2] + max(U_CEILING - u_vals[2], 0.0) / slope if slope > 0 else math.inf
    phi_ok = increasing and slope > 0
    psi_rep = large_condition_check(sol.psi, sol.R_inf)
    return {
        "pass": bool(phi_ok and psi_rep["pass"]),
        "phi": {"increasing": increasing, "slope": float(slope),
                "u_reaches_ceiling_at": float(x_ceiling)},
        "psi": psi_rep,
        "backs": "u -> inf as |x| -> inf and as |y| -> R_inf",
    }


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
