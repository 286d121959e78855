"""Closed-form 1-D factor from the curvature quadrature.

With v = u'' > 0, the 1-D eigen-equation integrates once to

    (v')^2 = a (v^3 - v0^(1-2*theta) v^(2(theta+1))),   a = 2*lambda/(2*theta - 1),

for theta > 1/2, with v decreasing from v(0) = v0 to 0 as r -> infinity.
Inverting the resulting quadrature gives v(r) with all derivatives in
closed form, and u by double integration is smooth, strictly convex and
tends to +infinity (linear growth with unbounded u), so the factor is
entire and complete.

Note the convention clash: in this module v denotes u'' (the quadrature
variable), while RadialProfile.v stores u'.  Internally u'' is always
called vpp; profiles returned from here respect the RadialProfile
contract.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (CumulativeSimpson, ProfileEvaluator, RadialProfile,
                   cumulative_simpson)
from .errors import ParameterError
from .spline import interp_spline

__all__ = ["PositivePairConfig", "phi_grid", "build_phi"]

# a phi grid resamples the 16,000-row curvature table
MAX_NODES = 10**6


@dataclass
class PositivePairConfig:
    """Initial curvature v0, eigenvalue lam > 0 and exponent theta > 1/2."""

    v0: float
    lam: float
    theta: float

    def __post_init__(self):
        if not self.v0 > 0:
            raise ParameterError(f"v0 must be positive, got {self.v0}")
        if not self.lam > 0:
            raise ParameterError(f"lambda must be positive, got {self.lam}")
        if not self.theta > 0.5:
            raise ParameterError(f"theta must exceed 1/2, got {self.theta}")

    @property
    def a(self) -> float:
        return 2.0 * self.lam / (2.0 * self.theta - 1.0)

    def radicand(self, v):
        """v^3 - v0^(1-2 theta) v^(2 theta + 2), stable near v = v0."""
        v = np.asarray(v, dtype=float)
        return v**3 * (-np.expm1((2 * self.theta - 1.0) * np.log(v / self.v0)))

    # closed-form derivative chain for v = v(r) (the curvature u'')
    def vpp_prime(self, v):
        return -np.sqrt(np.maximum(self.a * self.radicand(v), 0.0))

    def vpp_second(self, v):
        th, v0, a = self.theta, self.v0, self.a
        return 1.5 * a * v * v - (th + 1) * a * v0 ** (1 - 2 * th) * v ** (2 * th + 1)


def _math_map(fn, x, *scalars):
    """[fn(xi, *scalars) for xi in x] as an array, for fn from math."""
    return np.fromiter(map(fn, x.tolist(), *map(itertools.repeat, scalars)),
                       float, len(x))


def _integrand_nodes(config: PositivePairConfig, t):
    """Integrand of r(v) after the substitution s = v0 (1 - t^2), at each t >= 0.

    h(t) = -expm1((2 theta - 1) log1p(-t^2)) / t^2 -> 2 theta - 1 as t -> 0
    cancels the 1/sqrt endpoint singularity.  log1p, expm1 and pow come
    from math, as in the scalar reference of the test suite, because
    numpy's array kernels for them are picked by CPU and can differ from
    libm by 1 ulp.
    """
    c = 2 * config.theta - 1.0
    tt = t * t
    h = np.full(len(t), c)                     # the limit at t = 0
    pos = t != 0.0
    h[pos] = -_math_map(math.expm1, c * _math_map(math.log1p, -tt[pos])) / tt[pos]
    z15 = _math_map(math.pow, 1.0 - tt, 1.5)
    return 2.0 / (math.sqrt(config.v0) * z15 * np.sqrt(h))


class PositivePairEvaluator(ProfileEvaluator):
    """Spline-backed evaluator with the closed-form curvature chain.

    v(r) = u' comes from an antiderivative table of the curvature;
    derivatives of order 1..3 (u'', u''', u'''') use the exact algebraic
    chain evaluated at the splined curvature value.
    """

    def __init__(self, config: PositivePairConfig, r: np.ndarray, vpp: np.ndarray,
                 v_up: np.ndarray, u: np.ndarray):
        self.config = config
        self.r_max = float(r[-1])
        # one spline with the columns (log u'', u', u) on s = log(1 + r)
        self._cols = interp_spline(
            np.log1p(r), np.stack([np.log(vpp), v_up, u]).T)

    def _v(self, a):
        return self._cols(np.log1p(a), 1)

    def _u(self, a):
        return self._cols(np.log1p(a), 2)

    def _deriv(self, a, k):
        vpp = np.exp(self._cols(np.log1p(a), 0))
        if k == 2:
            return self.config.vpp_prime(vpp)
        return self.config.vpp_second(vpp) if k == 3 else vpp


def _table_range(config: PositivePairConfig, r_max: float) -> tuple:
    """(t_first, v_min): the first nonzero t of the curvature table, whose
    row lies near r = t_first sqrt(2/(v0 lambda)), and the last curvature.

    v_min = min(v0/4, 1/(a (2/sqrt(v0 a) + r_max)^2)); the second term is
    the curvature lower bound at r_max.  t_first is 1e-8, or less if that
    row would lie beyond the finest phi grid spacing r_max / MAX_NODES.
    ParameterError unless v0, a, v_min, t_first^2 and the products the
    table forms, v^3 and a * radicand(v) (both increasing on [v_min,
    v0/2]), are finite normal floats (float64 overflows to inf here).
    """
    v0, a = np.float64(config.v0), np.float64(config.a)
    with np.errstate(all="ignore"):
        v_min = min(v0 / 4.0, 1.0 / (a * (2.0 / np.sqrt(v0 * a) + r_max) ** 2))
        t_first = min(1e-8, r_max / MAX_NODES * np.sqrt(v0 * config.lam / 2.0))
        vals = np.array([v0, a, v_min, t_first ** 2, v0 ** 3, v_min ** 3,
                         a * config.radicand(v_min), a * config.radicand(v0 / 2.0)])
    if not np.all((vals >= np.finfo(float).tiny) & (vals < np.inf)):
        raise ParameterError(
            f"the curvature table of v0 = {config.v0:g}, lambda = {config.lam:g}, "
            f"theta = {config.theta:g} to r_max = {r_max:g} leaves the float range")
    return t_first, float(v_min)


def _curvature_table(config: PositivePairConfig, r_max: float):
    """Dense (r, v) table of the curvature by cumulative integration of dr/dv.

    Two pieces: the endpoint-substituted variable t (s = v0 (1 - t^2))
    down to v0/2, then log v down to the value reached at r_max.  Both
    integrands are smooth, so cumulative Simpson reaches ~1e-12 without
    any adaptive quadrature calls.
    """
    v0, a = config.v0, config.a
    t_first, v_min = _table_range(config, r_max)
    # piece A: v from v0 down to v0/2
    tA = np.concatenate([[0.0], np.geomspace(t_first, math.sqrt(0.5), 8000)])
    rA = cumulative_simpson(_integrand_nodes(config, tA) / math.sqrt(a), tA)
    vA = v0 * (1.0 - tA * tA)
    # piece B: descend in y = -log v from v0/2 down to v_min
    y = np.linspace(-math.log(v0 / 2.0), -math.log(v_min), 8000)
    vB = np.exp(-y)
    fB = vB / np.sqrt(a * config.radicand(vB))        # dr/dy > 0
    rB = rA[-1] + cumulative_simpson(fB, y)
    r = np.concatenate([rA, rB[1:]])
    v = np.concatenate([vA, vB[1:]])
    return r, v


def phi_grid(r_max: float, nodes: int) -> np.ndarray:
    """nodes radii evenly spaced over [0, r_max], 0 < r_max < inf and
    nodes in [2, MAX_NODES]."""
    if not 0 < r_max < math.inf:
        raise ParameterError(f"rmax must be positive and finite, got {r_max}")
    if not 2 <= nodes <= MAX_NODES:
        raise ParameterError(f"nodes must be in [2, {MAX_NODES}], got {nodes}")
    return np.linspace(0.0, r_max, nodes)


def build_phi(config: PositivePairConfig, grid) -> RadialProfile:
    """Profile of the entire 1-D factor on the given radii (grid[0] = 0).

    The curvature table comes from cumulative integration of the
    quadrature (cross-checked against the adaptive quadrature oracle of
    the test suite); u' and u follow by cumulative integration, so
    u(0) = u'(0) = 0 and u is even.
    """
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0:
        raise ParameterError("grid must start at r = 0")
    r_max = float(grid[-1])
    r_q, v_q = _curvature_table(config, r_max)
    if r_q[-1] < r_max:
        raise ParameterError("curvature table fell short of r_max")
    # spline the quadrature table directly: any intermediate resampling
    # would plant C^1 kinks that downstream Hessian differencing amplifies.
    # Rows closer than 1e-11 of the radius scale 1/sqrt(v0 a), times
    # t_first/1e-8 for a table that starts lower, are dropped.
    scale = 1.0 / (math.sqrt(config.v0) * math.sqrt(config.a))
    step = 1e-11 * scale * (_table_range(config, r_max)[0] / 1e-8)
    keep = np.concatenate([[True], np.diff(r_q) > step])
    r_tab, vpp = r_q[keep], v_q[keep]
    simpson = CumulativeSimpson(r_tab)
    v_up = simpson(vpp)
    with np.errstate(over="ignore", invalid="ignore"):
        u = simpson(v_up)
    del simpson                 # its weights would sit under the spline fit's peak
    if not np.isfinite(u[-1]):
        raise ParameterError(f"u overflows before r_max = {r_max:g} at v0 = "
                             f"{config.v0:g}, lambda = {config.lam:g}")
    ev = PositivePairEvaluator(config, r_tab, vpp, v_up, u)
    return RadialProfile(r=grid, v=ev.v(grid), u=ev.u(grid), n=1, evaluator=ev)
