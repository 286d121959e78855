"""Reference computations and model factors that more than one test module uses.

The curvature v = u'' of the entire 1-D factor is computed three
independent ways here, with scipy: adaptive quadrature of r(v) and its
inversion by bisection (quadrature_r_of_v, v_of_r), and direct
integration of the curvature ODE (integrate_direct).  _integrand_factory
is the integrand of r(v) in the endpoint variable t, v = v0 (1 - t^2),
written with math, apart from the package's Gauss-Legendre table.  Note
the convention of positive_pair: v here is u'', while RadialProfile.v
stores u'.

The model factors are the 1-D factor with the opposite eigenvalue sign
(negative_pair_blowup_1d), whose curvature blows up at a finite radius
while u stays bounded, and the degenerate paraboloid branch
(paraboloid_profile).  origin_compatibility reports the
origin-regularity hypotheses of a phase curve.
"""

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import make_interp_spline

from affmax import negative_pair
from affmax.core import (AnalyticEvaluator, PhaseCurve, RadialProfile,
                         cumulative_simpson)
from affmax.errors import DomainError, NoConvergence, ParameterError, StepFailure
from affmax.positive_pair import PositivePairConfig


def _integrand_factory(config: PositivePairConfig):
    """Integrand of r(v) after the substitution s = v0 (1 - t^2).

    The 1/sqrt endpoint singularity at s = v0 cancels against the
    Jacobian; h(t) -> (2 theta - 1) as t -> 0.
    """
    th, v0 = config.theta, config.v0

    def integrand(t):
        z = 1.0 - t * t
        if t == 0.0:
            h = 2 * th - 1.0
        else:
            h = -math.expm1((2 * th - 1.0) * math.log1p(-t * t)) / (t * t)
        return 2.0 / (math.sqrt(v0) * z ** 1.5 * math.sqrt(h))

    return integrand


def quadrature_r_of_v(v: float, config: PositivePairConfig) -> float:
    """Radius at which the curvature has decayed to v (0 < v < v0).

    Adaptive quadrature, to 1e-12 absolute and relative, on two
    desingularised pieces: s = v0 (1 - t^2) near the upper endpoint, and
    w = 1/sqrt(s) for the far tail (where the integrand tends to the
    constant 2).
    """
    if not 0.0 < v < config.v0:
        raise DomainError(f"v must lie in (0, v0) = (0, {config.v0}), got {v}")
    v0, th = config.v0, config.theta
    v_cut = max(v, v0 / 2.0)
    t_up = math.sqrt(1.0 - v_cut / v0)
    val, _ = quad(_integrand_factory(config), 0.0, t_up,
                  epsabs=1e-12, epsrel=1e-12, limit=200)
    if v < v0 / 2.0:
        def tail_integrand(w):
            return 2.0 / math.sqrt(-math.expm1((2 * th - 1.0)
                                               * 2.0 * math.log(1.0 / (w * math.sqrt(v0)))))
        lo, hi = math.sqrt(2.0 / v0), 1.0 / math.sqrt(v)
        part, _ = quad(tail_integrand, lo, hi, epsabs=1e-12, epsrel=1e-12,
                       limit=200)
        val += part
    return val / math.sqrt(config.a)


def v_of_r(r: float, config: PositivePairConfig, tol: float = 1e-10,
           max_iter: int = 200) -> float:
    """Invert the quadrature by bisection on the monotone map v -> r(v)."""
    if r < 0:
        raise DomainError(f"r must be nonnegative, got {r}")
    if r == 0.0:
        return config.v0
    eps = 1e-14 * config.v0
    lo, hi = eps, config.v0 - eps
    if quadrature_r_of_v(hi, config) > r:
        return config.v0 - eps  # r below resolvable scale; v ~ v0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        rm = quadrature_r_of_v(mid, config)
        if abs(rm - r) < tol:
            return mid
        if rm > r:      # r(v) decreasing: too-far radius means v too small
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * config.v0:
            return 0.5 * (lo + hi)
    raise NoConvergence(f"bisection for v(r={r}) did not reach tol={tol}")


def integrate_direct(config: PositivePairConfig, r_max: float):
    """Independent oracle: integrate v' = -sqrt(a * radicand(v)) directly.

    The start is degenerate (v'(0) = 0); the first step uses the Taylor
    expansion of v about 0 through fourth order.  Returns (profile,
    vpp): a profile on 2001 nodes over [0, r_max] whose u' and u columns
    come from cumulative integration of the computed curvature, and that
    curvature column.  The profile's evaluator interpolates u' and u
    linearly between the nodes and gives u'' from the dense solution.
    """
    if not r_max > 0:
        raise ParameterError("r_max must be positive")
    v0, a, th = config.v0, config.a, config.theta
    scale = 1.0 / math.sqrt(a * v0)
    h0 = 1e-4 * min(scale, r_max)
    v2 = a * v0 * v0 * (0.5 - th)                       # v''(0)
    v4 = a * v0 * (3 - (th + 1) * (2 * th + 1)) * v2    # v''''(0)
    v_start = v0 + 0.5 * v2 * h0 * h0 + v4 * h0**4 / 24.0

    def rhs(r, y):
        return [-math.sqrt(max(a * float(config.radicand(min(y[0], v0 * (1 - 1e-16)))), 0.0))]

    sol = solve_ivp(rhs, (h0, r_max), [v_start], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    if not sol.success:
        raise StepFailure(f"curvature integration failed: {sol.message}")

    def curvature(x):
        x = np.abs(x)
        return np.where(x <= h0, v0 + 0.5 * v2 * x ** 2 + v4 * x ** 4 / 24.0,
                        sol.sol(np.clip(x, h0, r_max))[0])

    r = np.linspace(0.0, r_max, 2001)
    vpp = curvature(r)
    v_up = cumulative_simpson(vpp, r)    # u'
    u = cumulative_simpson(v_up, r)
    ev = AnalyticEvaluator(lambda x: np.sign(x) * np.interp(np.abs(x), r, v_up),
                           [curvature], u_fn=lambda x: np.interp(np.abs(x), r, u))
    return RadialProfile(r=r, v=v_up, u=u, n=1, evaluator=ev), vpp


def negative_pair_blowup_1d(v0: float, theta: float, lam: float,
                            vmax_factor: float = 1e8,
                            return_profile: bool = False) -> dict:
    """The 1-D factor with the opposite eigenvalue sign: curvature blows up
    at a finite radius R, but u stays bounded there (no large condition).
    The v-integrals run over 60,000 nodes.

    Returns {"R", "u_at_R", "tail_r", "tail_u"}; the tails are analytic
    bounds for the truncated v-integrals beyond vmax_factor * v0.  With
    return_profile, a RadialProfile of (r, u', u) on [0, r_trunc] is
    attached under "profile".
    """
    if not theta > 0.5:
        raise ParameterError("construction needs theta > 1/2")
    a = 2.0 * lam / (2.0 * theta - 1.0)
    t_max = math.sqrt(vmax_factor - 1.0)
    t = np.concatenate([[0.0], np.geomspace(1e-8, t_max, 59999)])
    vv = v0 * (1.0 + t * t)
    with np.errstate(divide="ignore"):
        h = np.where(t > 0,
                     np.expm1((2 * theta - 1.0) * np.log1p(t * t)) / np.maximum(t * t, 1e-300),
                     2 * theta - 1.0)
    # dr/dt = 2 v0 t / sqrt(a * v0^3 (1+t^2)^3 * h * t^2)
    drdt = 2.0 / (math.sqrt(a * v0) * (1.0 + t * t) ** 1.5 * np.sqrt(h))
    r = cumulative_simpson(drdt, t)
    c = v0 ** (theta - 0.5) / math.sqrt(a)
    vmax = v0 * vmax_factor
    tail_r = c * vmax ** (-theta) / theta
    R = float(r[-1]) + tail_r
    # u(R) = int (R - r(v)) v dr
    integ = (R - r) * vv * drdt
    u_main = float(np.trapezoid(integ, t))
    tail_u = (c * c / (theta * (2 * theta - 1.0))) * vmax ** (1.0 - 2 * theta)
    out = {"R": R, "u_at_R": u_main + tail_u, "tail_r": tail_r, "tail_u": tail_u}
    if return_profile:
        u_prime = cumulative_simpson(vv * drdt, t)
        u = cumulative_simpson(u_prime * drdt, t)
        keep = np.concatenate([[True], np.diff(r) > 1e-13])
        rr, up, uu = r[keep], u_prime[keep], u[keep]
        cols = make_interp_spline(np.log1p(rr), np.stack([up, uu]).T, k=3)
        ev = AnalyticEvaluator(lambda a: cols(np.log1p(a))[..., 0],
                               u_fn=lambda a: cols(np.log1p(a))[..., 1])
        sub = slice(None, None, max(1, len(rr) // 2000))
        out["profile"] = RadialProfile(r=rr[sub], v=up[sub], u=uu[sub], n=1,
                                       evaluator=ev)
    return out


def paraboloid_profile(v0: float, r0: float, grid, n: int = 2) -> RadialProfile:
    """The degenerate branch eta == 1, zeta == 0: v = (v0/r0) r, u = v0 r^2/(2 r0)."""
    grid = np.asarray(grid, dtype=float)
    c = v0 / r0
    ev = AnalyticEvaluator(lambda r: c * r,
                           [lambda r: c + 0.0 * r, lambda r: 0.0 * r,
                            lambda r: 0.0 * r],
                           u_fn=lambda r: 0.5 * c * r * r)
    return RadialProfile(r=grid, v=c * grid, u=0.5 * c * grid**2, n=n, evaluator=ev)


def origin_compatibility(curve: PhaseCurve) -> dict:
    """Both origin-regularity hypothesis sets, checked on [1, eta0].

    The first requires zeta' monotone non-decreasing (zeta'' >= 0 on the
    window); the stronger one asks zeta'' > 0 with the fourth derivative
    in its band (its original sign list is garbled, so the sign of
    zeta''' is recorded rather than asserted).  Which set is binding for
    the fixed point is left open; both are reported.  The windowed fits
    are looked up on negative_pair at each call, so a test can patch them.
    """
    eta0 = curve.params.eta0
    sel = curve.eta <= eta0 * (1 + 1e-12)
    x = curve.eta[sel] - 1.0
    z = curve.zeta[sel]
    span = eta0 - 1.0
    centers = np.linspace(0.12 * span, 0.88 * span, 16)
    _, d2, d3 = negative_pair.local_derivatives(x, z, centers, window=0.2 * span)
    tay = curve.taylor
    return {
        "zeta_dd_min": float(min(np.min(d2), tay.alpha)),
        "first_condition_monotone_slope": bool(min(np.min(d2), tay.alpha) >= 0),
        "second_condition_dd_positive": bool(min(np.min(d2), tay.alpha) > 0),
        "zeta_ddd_sign": float(np.sign(np.median(d3))),
        "zeta_d4_band_center": tay.gamma,
        "ambiguous_sign_set": True,
    }
