"""Domain types and the radial/phase transformation chain.

The central objects are radial profiles (r, v = u', u) of rotationally
symmetric convex functions and phase curves (eta, zeta(eta)) anchored at
eta0.
The fourth-order radial operator

    L[u] = -u'''' + (th+1) (u''')^2/u''
           + 2(n-1) u''' [ (th-1) u''/u' - th/r ]
           + (n-1) u'' (u''/u' - 1/r) [ ((n-1)th-(n-2)) u''/u' - ((n-1)th-1)/r ]

equals lambda' (u'')^2 exactly when u solves the radial eigenvalue
problem; lambda' = 0 recovers the source equation.  The eigenvalue of
the second-order formulation u^{ij} D_ij w = lambda w is lambda =
theta * lambda' (derived from the radial reduction identity
L[u] = (u'')^2 * (u^{ij} D_ij w)/(theta w)).
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass

import numpy as np

from . import fd
from .errors import (DegenerateProfile, DomainError, GridTooCoarse,
                     InconsistentProfile, NonConvexProfile, ParameterError)

__all__ = [
    "ModelParams", "upper_bound_claimed", "TaylorData", "PhaseCurve",
    "RadialProfile", "SeparableSolution", "VerificationReport",
    "radial_lhs", "radial_residual", "profile_to_phase",
    "effective_lambda_fit", "eigenvalue_from_lambda_prime",
]


# ---------------------------------------------------------------------------
# parameters and Taylor data


@dataclass
class ModelParams:
    """Problem parameters for one radial factor / phase curve.

    lambda3 is the coefficient of the exponential forcing term in the
    phase-plane equation; it is negative for the bounded-domain factor
    and positive for the entire one.  eta0 anchors the exponential
    integral I(eta) = int_{eta0}^eta (s+1)/zeta ds.
    """

    n: int
    theta: float
    lambda3: float = 0.0
    eta0: float = 1.05

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ParameterError(f"n must be an integer >= 1, got {self.n}")
        self.n = int(self.n)
        if not self.theta > 0:
            raise ParameterError(f"theta must be positive, got {self.theta}")
        if not 1 < self.eta0 < math.inf:
            raise ParameterError(f"eta0 must exceed 1 and be finite, got {self.eta0}")

    @staticmethod
    def require_negative_pair_n(n):
        if not 2 <= n <= 5:
            raise ParameterError(f"negative-pair solve needs 2 <= n <= 5, got {n}")

    def require_negative_pair(self):
        """Extra hypotheses for the bounded-factor construction."""
        self.require_negative_pair_n(self.n)
        # the closed-form Taylor data at eta = 1 are cubic in theta and
        # leave the float range near theta = 1e102
        if not self.theta <= 1e100:
            raise ParameterError(
                f"negative-pair solve needs a finite theta <= 1e100, got {self.theta}")
        if not self.theta > (self.n - 7) / self.n**2:
            raise ParameterError(
                f"global extension needs theta > (n-7)/n^2 = {(self.n - 7) / self.n ** 2}")


def upper_bound_claimed(n: int, theta: float) -> bool:
    """zeta <= eta^2 (eventually) is claimed exactly for theta in [1/n, n/(n+1))."""
    return bool(1 / n <= theta < n / (n + 1))


@dataclass
class TaylorData:
    """Behaviour of zeta at the singular endpoint eta = 1.

    d1 = zeta'(1) (= 2 for admissible curves), alpha = zeta''(1),
    beta = zeta'''(1), gamma = zeta''''(1).
    """

    d1: float
    alpha: float
    beta: float
    gamma: float

    def remainder(self, x):
        """R(x) = alpha/2 + beta x/6 + gamma x^2/24: zeta = x (d1 + x R(x))
        to fourth order in x = eta - 1."""
        return self.alpha / 2 + x * (self.beta / 6 + x * (self.gamma / 24))

    def seed(self, x: np.ndarray) -> np.ndarray:
        """The fourth-order expansion x (d1 + x R(x)) of zeta."""
        return x * (self.d1 + x * self.remainder(x))


X_SWITCH = 1e-4   # below this eta-1, series forms replace ratio forms


class SwitchSplit:
    """A non-decreasing x = eta - 1 split at X_SWITCH: the samples x[:k]
    below it (xs) take series forms, the rest (xl) ratio forms."""

    def __init__(self, x):
        self.x = x
        self.k = int(np.searchsorted(x, X_SWITCH))
        self.xs, self.xl = x[:self.k], x[self.k:]

    def x_over_zeta(self, zeta, taylor: TaylorData):
        """(eta-1)/zeta, 1/(d1 + x R(x)) below X_SWITCH."""
        out = np.empty_like(self.x)
        out[:self.k] = 1.0 / (taylor.d1 + self.xs * taylor.remainder(self.xs))
        np.divide(self.xl, zeta[self.k:], out=out[self.k:])
        return out


# ---------------------------------------------------------------------------
# cumulative quadrature


class CumulativeSimpson:
    """int_{x[0]}^{x[i]} y for every i, by Simpson's rule on unequal
    intervals, on one grid x whose weights are formed once.

    Bit for bit scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)
    for 1-D input: intervals 0, 2, 4, ... take the first half of the
    triple starting at them; intervals 1, 3, 5, ... and always the last
    take the second half of the triple ending at them.  Only those halves
    are computed.  x must be strictly increasing and hold at least 3
    samples.
    """

    def __init__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError("x must be a 1-D array")
        if len(x) < 3:
            raise ValueError("cumulative Simpson needs at least 3 samples")
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ValueError("x must be strictly increasing")
        self.size = len(x)
        # the triples starting at even samples span (dx0, dx1): the weights
        # of their first halves, of their second halves (the triple
        # reversed) and of the last interval's second half
        dx0, dx1 = dx[:-1:2], dx[1::2]
        self._first = self._weights(dx0, dx1)
        self._second = self._weights(dx1, dx0)
        self._last = self._weights(dx[-1:], dx[-2:-1])

    @staticmethod
    def _weights(x21, x32):
        """(x21/6, c1, c2, c3) of the Simpson integral over [x1, x2] of the
        samples y0, y1, y2 at x1, x2, x3 = x2 + x32."""
        x31 = x21 + x32
        x21_x31 = x21 / x31
        x21_x32 = x21 / x32
        x21x21_x31x32 = x21_x31 * x21_x32
        return (x21 / 6, 3 - x21_x31, 3 + x21x21_x31x32 + x21_x31, -x21x21_x31x32)

    @staticmethod
    def _half(weights, y0, y1, y2):
        s, c1, c2, c3 = weights
        return s * (c1 * y0 + c2 * y1 + c3 * y2)

    def __call__(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.size,):
            raise ValueError("y and x must be 1-D arrays of one length")
        y0, y1, y2 = y[:-2:2], y[1:-1:2], y[2::2]
        sub = np.empty(self.size - 1)
        sub[:-1:2] = self._half(self._first, y0, y1, y2)
        sub[1::2] = self._half(self._second, y2, y1, y0)
        sub[-1:] = self._half(self._last, y[-1:], y[-2:-1], y[-3:-2])
        out = np.empty(self.size)
        out[0] = 0.0
        np.cumsum(sub, out=out[1:])
        out[1:] += 0.0                  # as scipy's initial=0.0: -0.0 becomes 0.0
        return out


def cumulative_simpson(y, x) -> np.ndarray:
    """int_{x[0]}^{x[i]} y for every i: CumulativeSimpson(x)(y)."""
    return CumulativeSimpson(x)(y)


# ---------------------------------------------------------------------------
# phase curves


def measure_taylor(eta, zeta, eta0: float) -> "TaylorData":
    """Estimate (d1, alpha, beta, gamma) of a sampled curve at eta -> 1+.

    The fit is the least-squares zeta = sum c_k x^k / k! (k = 1..5,
    x = eta - 1) over the samples in (0, min(1e-2, (eta0-1)/2)], with
    each design column divided by its norm.
    """
    x = np.asarray(eta, dtype=float) - 1.0
    sel = (x > 0) & (x <= min(1e-2, (eta0 - 1.0) / 2.0))
    xs = x[sel]
    if len(xs) < 7:
        raise GridTooCoarse("too few samples inside the Taylor-fit window")
    cols = np.vstack([xs ** (k + 1) / math.factorial(k + 1) for k in range(5)]).T
    norm = np.linalg.norm(cols, axis=0)
    ys = np.asarray(zeta, dtype=float)[sel]
    c = np.linalg.lstsq(cols / norm, ys, rcond=None)[0] / norm
    return TaylorData(d1=float(c[0]), alpha=float(c[1]), beta=float(c[2]),
                      gamma=float(c[3]))


@dataclass
class PhaseCurve:
    """Sampled (eta, zeta) with eta > 1 strictly increasing, anchored at
    eta0 = params.eta0.

    A curve the solver builds also carries I(eta) = int_{eta0}^{eta}
    (s+1)/zeta(s) ds, which vanishes at eta0, is negative below it and
    positive above; a curve read from a file carries I = None.  The
    Taylor data describes the eta -> 1+ limit, where zeta -> 0 linearly
    with slope d1.
    """

    params: ModelParams
    taylor: TaylorData
    eta: np.ndarray
    zeta: np.ndarray
    I: np.ndarray | None = None

    def __post_init__(self):
        self.eta, self.zeta = self._columns(self.eta, self.zeta)
        if self.I is not None:
            self.I = np.asarray(self.I, dtype=float)
            if len(self.I) != len(self.eta):
                raise ParameterError(f"curve columns eta, I hold {len(self.eta)}, "
                                     f"{len(self.I)} values")

    @staticmethod
    def _columns(eta, zeta):
        """eta, zeta as float arrays, after checking they describe a curve."""
        eta, zeta = (np.asarray(c, dtype=float) for c in (eta, zeta))
        if not 0 < len(eta) == len(zeta):
            raise ParameterError(f"curve columns eta, zeta hold {len(eta)}, "
                                 f"{len(zeta)} values")
        if not np.all(np.diff(eta) > 0):
            raise ParameterError("eta samples must be strictly increasing")
        if eta[0] <= 1.0:
            raise ParameterError("curve samples start strictly above eta = 1")
        if not np.all(zeta > 0):
            raise ParameterError("zeta must be positive on the sampled range")
        return eta, zeta

    @property
    def eta_max(self) -> float:
        return float(self.eta[-1])

    def to_csv(self, path):
        """eta, zeta and anchor, 1 on the row at eta0 and 0 on every other."""
        write_columns(path, CURVE_HEADER, [self.eta, self.zeta, self.eta == self.params.eta0])

    @classmethod
    def from_columns(cls, eta, zeta, eta0: float, n: int = 2,
                     theta: float = 0.55) -> "PhaseCurve":
        """The curve of these columns anchored at eta0, which must be one of
        the eta samples, else ParameterError; the Taylor data is measured
        from them."""
        eta, zeta = cls._columns(eta, zeta)
        if not np.any(eta == eta0):
            raise ParameterError(f"eta0 = {eta0!r} is not one of the eta samples")
        return cls(params=ModelParams(n=n, theta=theta, eta0=float(eta0)),
                   taylor=measure_taylor(eta, zeta, eta0), eta=eta, zeta=zeta)

    @classmethod
    def from_csv(cls, path) -> "PhaseCurve":
        """The curve of a CSV that to_csv wrote."""
        return cls.from_columns(*read_curve_columns(path))


CURVE_HEADER = ["eta", "zeta", "anchor"]


def read_curve_columns(path):
    """(eta, zeta, eta0) of a curve CSV with the header eta,zeta,anchor:
    eta0 is the eta of the one row whose anchor is 1, every other anchor
    being 0.  Any other header (eta,zeta,I, say, of an older version) or
    anchor column raises a ParameterError naming the file."""
    names, cols = read_columns(path)
    where = "curve CSV" if hasattr(path, "read") else path
    if names != CURVE_HEADER:
        raise ParameterError(f"{where} has the header {','.join(names)}, not "
                             "eta,zeta,anchor; rerun solve-negative to regenerate it")
    eta, zeta, anchor = cols
    rows = np.flatnonzero(anchor)       # a NaN is nonzero
    if len(rows) != 1 or anchor[rows[0]] != 1.0:
        raise ParameterError(f"{where}: the anchor column must be 1 on one row "
                             "and 0 on every other")
    return eta, zeta, float(eta[rows[0]])


# ---------------------------------------------------------------------------
# radial profiles


class ProfileEvaluator:
    """Evaluation of u, v = u' and d^k v / dr^k (k = 1, 2, 3) of a profile.

    v, u and deriv hold the whole contract: they take radii r as a float or
    an ndarray of any shape and return that shape (a float for a float);
    deriv takes only k = 1, 2, 3; |r| > r_max raises DomainError; and the
    subclass rules _v, _u, _deriv see a = |r| alone, the results taking
    the parity of an even u (v, v'' odd).  A missing rule raises ParameterError.
    """

    r_max = math.inf        # the table edge of a table-backed evaluator

    def v(self, r):
        return self._evaluate(r, True, self._v)

    def u(self, r):
        return self._evaluate(r, False, self._u)

    def deriv(self, r, k: int):
        if k not in (1, 2, 3):
            raise ParameterError(f"derivative order must be 1, 2 or 3, got {k!r}")
        return self._evaluate(r, k == 2, self._deriv, k)

    def _evaluate(self, r, odd: bool, rule, *args):
        """rule(|r|, *args) in the shape of r, made odd in r if asked."""
        r = np.asarray(r, dtype=float)
        a = np.abs(r)
        if np.any(a > self.r_max):
            raise DomainError(f"{type(self).__name__} evaluated at |r| = "
                              f"{np.max(a)!r}, beyond its table edge {self.r_max!r}")
        # a constant rule broadcasts; times 1.0 leaves every value as it is
        val = np.broadcast_to(rule(a, *args), r.shape) * (np.sign(r) if odd else 1.0)
        return val if val.ndim else float(val)

    def _v(self, a):
        raise ParameterError(f"{type(self).__name__} has no rule for v")

    def _u(self, a):
        raise ParameterError(f"{type(self).__name__} has no rule for u")

    def _deriv(self, a, k):
        raise ParameterError(f"{type(self).__name__} has no rule for v" + "'" * k)


class AnalyticEvaluator(ProfileEvaluator):
    """Closed-form profile: v_fn plus rules for v', v'', ... and for u.

    The callables receive the array of radii |r|; a callable returning a
    constant (lambda r: 2.0) is broadcast to the shape of r.  Asking for
    a rule that was not given raises ParameterError.
    """

    def __init__(self, v_fn, derivs=(), u_fn=None):
        self.v_fn, self.derivs, self.u_fn = v_fn, list(derivs), u_fn

    def _v(self, a):
        return self.v_fn(a)

    def _u(self, a):
        return super()._u(a) if self.u_fn is None else self.u_fn(a)

    def _deriv(self, a, k):
        return super()._deriv(a, k) if k > len(self.derivs) else self.derivs[k - 1](a)


def check_radii(r):
    """ParameterError unless r is a strictly increasing grid of radii >= 0."""
    if not np.all(np.diff(r) > 0):
        raise ParameterError("r grid must be strictly increasing")
    if r[0] < 0:
        raise ParameterError("radii must be nonnegative")


@dataclass
class RadialProfile:
    """One radial factor: grid r >= 0 with v = u'(r) and u(r), in dimension n.

    Normalisation u(0) = 0.  Point values between (and beyond) the
    stored nodes come from the evaluator, which every profile carries.
    """

    r: np.ndarray
    v: np.ndarray
    u: np.ndarray
    n: int
    evaluator: ProfileEvaluator

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        check_radii(self.r)

    # -- point evaluation -------------------------------------------------
    def v_at(self, r):
        return self.evaluator.v(r)

    def v_deriv_at(self, r, k: int):
        """d^k v/dr^k (k = 1, 2, 3) at the radii r, by the evaluator's rule."""
        return self.evaluator.deriv(r, k)

    def to_csv(self, path):
        write_columns(path, ["r", "v", "u"], [self.r, self.v, self.u])


# ---------------------------------------------------------------------------
# assembled solutions and reports


@dataclass
class SeparableSolution:
    """u(x, y, z) = kappa phi(|x|) + psi(|y|) + |z|^2/2 on R x B_{R_inf} x R^m.

    phi and psi are the factors as their constructors built them; R_inf
    is infinite when psi is entire (no finite boundary).
    """

    phi: RadialProfile           # 1-D factor, as built
    psi: RadialProfile           # n-D factor on the ball of radius R_inf
    kappa: float
    theta: float
    R_inf: float = math.inf
    m_cylinder: int = 0
    lambda_phi: float = 0.0      # eigenvalues of kappa phi and psi
    lambda_psi: float = 0.0

    @property
    def N(self) -> int:
        return 1 + self.psi.n + self.m_cylinder


@dataclass
class VerificationReport:
    residual_max: float
    residual_mean: float
    convexity_margin: float
    blowup: dict
    effective_lambda: dict
    residuals: list              # the residual at each sampled point

    def __post_init__(self):
        if self.residual_max < 0 or self.residual_mean < 0:
            raise ParameterError("residual statistics must be nonnegative")


# ---------------------------------------------------------------------------
# the radial operator


def radial_lhs(r, u1, u2, u3, u4, theta: float, n: int):
    """The fourth-order radial operator applied to u, from its derivatives."""
    r = np.asarray(r, dtype=float)
    t1 = -u4 + (theta + 1.0) * u3 * u3 / u2
    t2 = 2.0 * (n - 1) * u3 * ((theta - 1.0) * u2 / u1 - theta / r)
    q = u2 / u1 - 1.0 / r
    t3 = (n - 1) * u2 * q * (((n - 1) * theta - (n - 2)) * u2 / u1
                             - ((n - 1) * theta - 1.0) / r)
    return t1 + t2 + t3


def _profile_derivatives(profile: RadialProfile, nodes):
    """(u', u'', u''', u'''') = (v, v', v'', v''') at the given radii."""
    return [profile.v_at(nodes)] + [profile.v_deriv_at(nodes, k) for k in (1, 2, 3)]


def radial_residual(profile: RadialProfile, theta: float, n: int,
                    lambda_prime: float, nodes):
    """L[u] - lambda' (u'')^2 at the given nodes.

    Zero (within the derivative-estimation error) exactly when the
    profile solves the radial eigenvalue ODE with that lambda'.
    """
    nodes = np.atleast_1d(np.asarray(nodes, dtype=float))
    u1, u2, u3, u4 = _profile_derivatives(profile, nodes)
    if np.any(u2 <= 0):
        bad = nodes[np.asarray(u2) <= 0]
        raise NonConvexProfile(f"u'' <= 0 at r = {bad[:3]}")
    return radial_lhs(nodes, u1, u2, u3, u4, theta, n) - lambda_prime * u2 * u2


SPREAD_TOL = 1e-3   # the largest relative spread of an eigenprofile's lambda' ratios


def effective_lambda_fit(profile: RadialProfile, theta: float, n: int, nodes):
    """Least-squares lambda' with L[u] = lambda' (u'')^2 across nodes.

    Returns (lambda_prime, fit_residual).  fit_residual is the relative
    spread of the per-node ratios; above SPREAD_TOL the profile is not
    an eigenprofile and InconsistentProfile is raised.
    """
    nodes = np.atleast_1d(np.asarray(nodes, dtype=float))
    u1, u2, u3, u4 = _profile_derivatives(profile, nodes)
    if np.any(u2 <= 0):
        raise NonConvexProfile("u'' <= 0 inside the fitted range")
    lhs = radial_lhs(nodes, u1, u2, u3, u4, theta, n)
    w = u2 * u2
    lam = float(np.sum(lhs * w) / np.sum(w * w))
    ratios = lhs / w
    scale = max(abs(lam), np.max(np.abs(ratios)), 1e-12)
    spread = float((np.max(ratios) - np.min(ratios)) / scale)
    if spread > SPREAD_TOL:
        raise InconsistentProfile(
            f"lambda' ratios spread {spread:.3e} exceeds {SPREAD_TOL:.1e}")
    return lam, spread


def eigenvalue_from_lambda_prime(lambda_prime: float, theta: float) -> float:
    """Eigenvalue of u^{ij} D_ij w = lambda w from the radial coefficient."""
    return theta * lambda_prime


def profile_to_phase(profile: RadialProfile, r_floor: float = 1e-3,
                     nodes=None):
    """Sampled (eta, zeta) of the profile: eta = r v'/v, zeta = r deta/dr.

    Radii below r_floor (the ratio is 0/0 at the origin) and, by default,
    the table edge r_max (no room for a centred stencil) are excluded.
    Both derivatives come from edge-aware stencils on the evaluator's v
    alone.  Returns (eta, zeta) ordered by increasing r; callers may
    reparametrise by eta when it is strictly monotone.
    """
    ev = profile.evaluator
    if nodes is None:
        nodes = profile.r[(profile.r >= r_floor) & (profile.r < ev.r_max)]
    nodes = np.atleast_1d(np.asarray(nodes, dtype=float))
    if len(nodes) == 0:
        raise GridTooCoarse("no nodes above the r floor")
    v = profile.v_at(nodes)
    if np.any(v == 0):
        raise DegenerateProfile("v vanishes at an interior node")
    r_hi = float(profile.r[-1])
    # local variation scale of v, from the stored columns; stencils
    # shrink with it and with the distance to the domain edge
    # (self-limiting under nesting: reach <= 0.4 * gap)
    dv = np.gradient(profile.v, profile.r)
    with np.errstate(divide="ignore", invalid="ignore"):
        ell = np.where(dv != 0, np.abs(profile.v / dv), np.inf)
    ell[:2] = np.inf

    def hcap(x, base):
        h = base * np.maximum(np.abs(x), 1e-2)
        h = np.minimum(h, 0.04 * np.interp(x, profile.r, ell))
        gap = r_hi - x
        return np.where(gap > 0, np.minimum(h, 0.1 * gap), h)

    def eta_fn(x):
        # v' from values too, so a values-only profile takes this path;
        # a small step, as the outer derivative amplifies its truncation error
        vprime = fd.derivative_from_callable(ev.v, x, 1, h=hcap(x, 2e-3))
        return x * vprime / ev.v(x)

    eta = eta_fn(nodes)
    zeta = nodes * fd.derivative_from_callable(eta_fn, nodes, 1,
                                               h=hcap(nodes, 5e-4))
    return eta, zeta


# ---------------------------------------------------------------------------
# deterministic column IO (CSV with full double precision; base64 float64)


def write_columns(path, names, cols, sep=",", comment=""):
    """Write columns as text rows under a header of names.

    Each value of a bool column is 0 or 1, each other value its shortest
    round-tripping float repr; fields are joined by sep and the header
    line starts with comment.
    """
    fmts = ["%d" if np.asarray(c).dtype == bool else "%r" for c in cols]
    data = np.column_stack([np.asarray(c, dtype=float) for c in cols])
    rows = (sep.join(fmts) + "\n") * len(data)
    text = comment + sep.join(names) + "\n" + rows % tuple(data.ravel().tolist())
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# in ASCII text: the line breaks of str.splitlines other than "\n", and
# \x1c-\x1f, which numpy strips from a field as whitespace and float() does not
_ROW_WALK_CHARS = "\r\x0b\x0c\x1c\x1d\x1e\x1f"


def read_columns(path, header=None):
    """Header names and float columns of a CSV as written by write_columns.

    ASCII text whose only line break is "\n" and that holds no other
    control character from \x0b to \x1f is parsed by numpy's C reader,
    which converts each field with the same strtod as float(); any other
    text, and any text that reader refuses, is read row by row.  Each
    column comes back C-contiguous, as decode_column gives it.  Empty,
    header-only, ragged or non-numeric input, undecodable text in the
    file at path, and a header other than the given list of names, raise
    ParameterError.
    """
    if hasattr(path, "read"):
        text = path.read()
    else:
        with open(path) as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ParameterError(f"{path}: {exc}") from None
    data = None
    if text.isascii() and not any(map(text.__contains__, _ROW_WALK_CHARS)):
        # the reader takes the lines as a list of str, one byte a character
        # here; a StringIO of the text would hold it at four
        head, *lines = text.strip().split("\n")
        names = [s.strip() for s in head.split(",")]
        try:
            data = np.loadtxt(lines, delimiter=",", comments=None,
                              dtype=float, ndmin=2) if lines else None
        except ValueError:
            pass
    if data is None or data.shape[1] != len(names):
        names, data = _read_rows(text)
    if header is not None and names != header:
        raise ParameterError(f"expected header {','.join(header)}, got {names}")
    return names, list(data.T.copy())


def _read_rows(text):
    """read_columns' names and 2-D data, row by row: the reference for every message."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ParameterError("CSV input is empty")
    names = [s.strip() for s in lines[0].split(",")]
    if len(lines) == 1:
        raise ParameterError(f"CSV input has a header ({','.join(names)}) but no data rows")
    rows = []
    for k, ln in enumerate(lines[1:], start=1):
        fields = ln.split(",")
        if len(fields) != len(names):
            raise ParameterError(
                f"CSV data row {k} has {len(fields)} fields, the header has {len(names)}")
        try:
            rows.append([float(x) for x in fields])
        except ValueError:
            raise ParameterError(f"CSV data row {k} is not numeric: {ln[:60]!r}") from None
    return names, np.array(rows)


def encode_column(col) -> str:
    """ASCII base64 of the little-endian float64 bytes of col."""
    raw = np.ascontiguousarray(col, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def decode_column(text, name: str = "column") -> np.ndarray:
    """The float64 array encode_column turned into text.

    Text outside the base64 alphabet, or a byte count that is not a
    multiple of 8, raises ParameterError naming the column.
    """
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} is not valid base64 text") from None
    if len(raw) % 8:
        raise ParameterError(
            f"{name} decodes to {len(raw)} bytes, not a whole number of float64 values")
    return np.frombuffer(raw, dtype="<f8").astype(float)
