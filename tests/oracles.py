"""Reference computations of the 1-D factor that the test suite checks against.

The curvature v = u'' of the entire 1-D factor is computed three
independent ways here, with scipy: adaptive quadrature of r(v) and its
inversion by bisection (quadrature_r_of_v, v_of_r), and direct
integration of the curvature ODE (integrate_direct).  _integrand_factory
is the scalar integrand that positive_pair._integrand_nodes evaluates on
arrays.  Note the convention of positive_pair: v here is u'', while
RadialProfile.v stores u'.
"""

import math

import numpy as np
from scipy.integrate import quad, solve_ivp

from affmax.core import AnalyticEvaluator, RadialProfile, cumulative_simpson
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
