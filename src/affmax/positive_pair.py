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

import math
from dataclasses import dataclass

import numpy as np

from .core import ProfileEvaluator, RadialProfile
from .errors import ParameterError
from .spline import interp_spline

__all__ = ["PositivePairConfig", "phi_grid", "build_phi"]

# a phi grid resamples the 2,000-row curvature table
MAX_NODES = 10**6
# rows of each piece of the curvature table.  With 1,000, r and u' are
# within 7e-13 of the closed form (measured for theta <= 1.3, table starts
# t_first = 1e-8 and rmax sqrt(v0 a) up to 1e8); the error falls as rows^-6
TABLE_ROWS = 1000
# the 3-point Gauss-Legendre rule on [0, 1]
_GL_NODES = 0.5 + math.sqrt(0.15) * np.array([-1.0, 0.0, 1.0])
_GL_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0


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
    """(t, y): the grids of the curvature table's two pieces.

    t is 0, then geometric from t_first to sqrt(1/2); its row at t_first
    lies near r = t_first sqrt(2/(v0 lambda)).  y = -log v is even from
    -log(v0/2) to -log(v_min), v_min = min(v0/4, 1/(a (2/sqrt(v0 a) +
    r_max)^2)); the second term is the curvature lower bound at r_max.
    t_first is 1e-8, or less if that row would lie beyond the finest phi
    grid spacing r_max / MAX_NODES.  ParameterError unless v0, a, v_min,
    t_first^2 and the products the table forms, v^3 and a * radicand(v)
    (both increasing on [v_min, v0/2]), are finite normal floats (float64
    overflows to inf here).
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
    t = np.concatenate([[0.0], np.geomspace(t_first, math.sqrt(0.5), TABLE_ROWS)])
    y = np.linspace(-math.log(v0 / 2.0), -math.log(v_min), TABLE_ROWS)
    return t, y


def _gauss_piece(dr_dx, vpp_of, x, r0):
    """r (from r0) and u'' on the grid x, and the increments of u' = int u'' dr
    and of int r u'' dr over each [x[i], x[i+1]], by the 3-point
    Gauss-Legendre rule in x.  r at each node comes from the same rule on
    the part of its interval below that node.
    """
    dx = np.diff(x)
    h = dx[:, None] * _GL_NODES                        # each node less x[i]
    nodes = x[:-1, None] + h
    f = dr_dx(nodes)
    r = r0 + np.concatenate([[0.0], np.cumsum(dx * (f @ _GL_WEIGHTS))])
    below = x[:-1, None, None] + h[..., None] * _GL_NODES
    r_nodes = r[:-1, None] + h * (dr_dx(below) @ _GL_WEIGHTS)
    g = dx[:, None] * _GL_WEIGHTS * vpp_of(nodes) * f
    return r, vpp_of(x), g.sum(axis=1), (g * r_nodes).sum(axis=1)


def _curvature_table(config: PositivePairConfig, r_max: float):
    """The columns (r, u'', u', u) of the curvature quadrature dr/dv.

    Two pieces: the endpoint-substituted variable t (v = v0 (1 - t^2))
    down to v0/2, then y = -log v down to the value reached at r_max.
    Both integrands are smooth, and the 3-point Gauss-Legendre rule on
    each interval gives r, u' and int r u'' dr to about 1e-12 relative;
    u = r u' - int r u'' dr, so u(0) = u'(0) = 0.
    """
    v0, a, c = config.v0, config.a, 2 * config.theta - 1.0
    t, y = _table_range(config, r_max)

    def dr_dt(t):
        # h = (1 - (1 - t^2)^c) / t^2 > 0 cancels the 1/sqrt singularity at v0
        tt = t * t
        h = -np.expm1(c * np.log1p(-tt)) / tt
        return 2.0 / (math.sqrt(v0) * math.sqrt(a) * (1.0 - tt) ** 1.5 * np.sqrt(h))

    def dr_dy(y):
        v = np.exp(-y)
        return v / np.sqrt(a * config.radicand(v))

    rA, vA, dvA, dIA = _gauss_piece(dr_dt, lambda t: v0 * (1.0 - t * t), t, 0.0)
    rB, vB, dvB, dIB = _gauss_piece(dr_dy, lambda y: np.exp(-y), y, rA[-1])
    r, vpp = np.concatenate([rA, rB[1:]]), np.concatenate([vA, vB[1:]])
    v_up = np.cumsum(np.concatenate([[0.0], dvA, dvB]))
    with np.errstate(over="ignore", invalid="ignore"):
        u = r * v_up - np.cumsum(np.concatenate([[0.0], dIA, dIB]))
    return r, vpp, v_up, u


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

    The curvature table holds r, u'', u' and u from one quadrature rule
    (cross-checked against the closed form and the adaptive quadrature
    oracle of the test suite), with u(0) = u'(0) = 0 and u even.
    """
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0:
        raise ParameterError("grid must start at r = 0")
    r_max = float(grid[-1])
    table = _curvature_table(config, r_max)
    if table[0][-1] < r_max:
        raise ParameterError("curvature table fell short of r_max")
    if not np.isfinite(table[3][-1]):
        raise ParameterError(f"u overflows before r_max = {r_max:g} at v0 = "
                             f"{config.v0:g}, lambda = {config.lam:g}")
    # spline the quadrature table directly: any intermediate resampling
    # would plant C^1 kinks that downstream Hessian differencing amplifies.
    ev = PositivePairEvaluator(config, *table)
    return RadialProfile(r=grid, v=ev.v(grid), u=ev.u(grid), n=1, evaluator=ev)
