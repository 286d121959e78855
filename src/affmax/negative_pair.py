"""Local solve of the forced phase equation at the singular point and its
global extension: Taylor data, calibrated integral mapping, damped Picard
iteration, growth bounds and the finite blow-up time.

The mapping takes a candidate phi on [1, eta0] with phi(1) = 0,
phi'(1) = 2 to the solution zeta of

    zeta' = (th+1) phi/eta + A(eta) + B(eta)/phi
            + lam(phi, eta0) * eta^2 * exp(I_phi)/phi,   zeta(1) = 0,

where I_phi = int_{eta0}^eta (s+1)/phi and lam(phi, eta0) > 0 is
calibrated so that lam * exp(I_phi)/phi tends to 4 + n(n-2)/2 at
eta -> 1+.  A fixed point solves the phase equation with
lambda3 = -lam(phi, eta0) < 0.  Since the right-hand side depends on
the candidate only, each sweep is a pure quadrature; the singular
factor of exp(I_phi) is split off analytically as
((eta-1)/(eta0-1)) * exp(J) with a regular J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (CumulativeSimpson, ModelParams, PhaseCurve, SwitchSplit,
                   TaylorData, cumulative_simpson, measure_taylor,
                   upper_bound_claimed)
from .dop853 import DOP853, dense_values
from .errors import (GridTooCoarse, MembershipViolation, NoConvergence,
                     ParameterError, PositivityLoss, SingularityMismatch,
                     StepFailure, TailUnbounded)
from .phase_plane import coef_linear, coef_q, phase_field

__all__ = [
    "taylor_coeffs", "calibration_target", "GammaSetSpec", "LocalSolve",
    "calibrate_lambda", "fixed_point_solve", "extend_global",
    "growth_bounds_check", "blowup_time", "local_derivatives", "solve_negative",
]

# the quadratic lower bound eps0 eta^2 keeps this fraction of the scanned minimum
_SAFETY = 0.9
_SIGMA = 0.5       # half-width of the first- and second-derivative bands
_FD_SLACK = 5e-3   # allowed error of the windowed-fit derivatives in the bands


def calibration_target(n: int) -> float:
    """Prescribed limit of lam * exp(I)/phi at eta -> 1+: 4 + n(n-2)/2."""
    return 4.0 + n * (n - 2) / 2.0


# n: (beta(theta), gamma(theta))
_BETA_GAMMA = {
    2: (lambda t: (32 * t * t - 8 * t - 7) / 6,
        lambda t: (2 * t - 1) * (136 * t * t - 136 * t - 125) / 45),
    3: (lambda t: 10 * (100 * t * t - 37 * t - 17) / 147,
        lambda t: 80 * (2 * t - 1) * (710 * t * t - 710 * t - 421) / 11319),
    4: (lambda t: 9 * (36 * t * t - 16 * t - 5) / 40,
        lambda t: 99 * (2 * t - 1) * (12 * t * t - 12 * t - 5) / 160),
    5: (lambda t: 14 * (196 * t * t - 97 * t - 23) / 297,
        lambda t: 112 * (2 * t - 1) * (3122 * t * t - 3122 * t - 979) / 34749),
}


def taylor_coeffs(n: int, theta: float) -> TaylorData:
    """Exact Taylor data of the local solution at eta = 1.

    zeta'(1) = 2 and alpha = (4(n+2) theta + 2(n+6))/(n+4); beta and
    gamma are _BETA_GAMMA's, the table tests/taylor_series.py prints
    (with sympy) for n = 2..5.  All four follow from the regular series
    v = r + c r^3 + ... of the radial equation L[u] = lambda' (u'')^2,
    with eta = r v'/v and zeta = eta - eta^2 + r^2 v''/v, and none
    depends on lambda'.
    """
    ModelParams(n=n, theta=theta).require_negative_pair()
    beta, gamma = _BETA_GAMMA[n]
    return TaylorData(d1=2.0, alpha=(4 * (n + 2) * theta + 2 * (n + 6)) / (n + 4),
                      beta=beta(theta), gamma=gamma(theta))


# ---------------------------------------------------------------------------
# the sample grid, stable integrand helpers (x = eta - 1)


class _Grid(SwitchSplit):
    """The samples x and eta = 1 + x of a candidate on [1, eta0] and what
    depends on them alone: the X_SWITCH split, eta^2 - 1 above it and the
    Simpson weights."""

    def __init__(self, x, eta, eta0: float):
        self.simpson = CumulativeSimpson(eta)     # first: the split needs eta increasing
        super().__init__(x)
        self.eta, self.eta0 = eta, eta0
        self.eta2m1 = eta[self.k:] ** 2 - 1.0


class _MapGrid(_Grid):
    """A _Grid with the mapping's coefficient arrays of (n, theta):
    A(eta), n eta q(eta) and eta^2."""

    def __init__(self, x, eta, eta0: float, n: int, theta: float):
        super().__init__(x, eta, eta0)
        self.n, self.theta = n, theta
        self.A = coef_linear(eta, n, theta)
        self.neq = n * eta * coef_q(eta, n, theta)
        self.eta_sq = eta**2


def _g_integrand(grid: _Grid, phi, taylor: TaylorData):
    """(s+1)/phi - 1/(s-1), regular at x = 0 for phi'(1) = 2:
    (1 - R)/(2 + x R) below X_SWITCH."""
    k, xs = grid.k, grid.xs
    out = np.empty_like(grid.x)
    R = taylor.remainder(xs)
    out[:k] = (1 - R) / (2.0 + xs * R)
    pl = phi[k:]
    out[k:] = (grid.eta2m1 - pl) / (pl * grid.xl)
    return out


def local_derivatives(x, y, centers, window: float):
    """First three derivatives at each center from windowed quartic fits.

    Each center c gets the least-squares quartic in x - c through the
    samples with |x - c| <= window/2 (x increasing), its design columns
    normalised to unit length.  The windows are laid end to end and each
    window's moments summed with np.add.reduceat; all are solved at once
    by the normal equations with one step of iterative refinement.
    GridTooCoarse, naming the center, if a window holds fewer than the
    5 samples a quartic needs.
    """
    h = window / 2
    centers = np.asarray(centers, dtype=float)
    # fl(x - c) is non-decreasing in x, so |x - c| <= h holds on one run
    runs = np.array([(np.searchsorted(d, -h), np.searchsorted(d, h, side="right"))
                     for d in (x - c for c in centers)])
    count = runs[:, 1] - runs[:, 0]
    if np.any(count < 5):
        i = int(np.argmax(count < 5))
        raise GridTooCoarse(f"the fit window centred at x = {float(centers[i])!r} "
                            f"holds {count[i]} of the 5 samples a quartic fit needs")
    starts = np.concatenate([[0], np.cumsum(count[:-1])])
    idx = np.arange(count.sum()) + np.repeat(runs[:, 0] - starts, count)
    xs = x[idx] - np.repeat(centers, count)
    ys = y[idx]

    def sums(v):
        return np.add.reduceat(v, starts)

    x2 = xs * xs
    cols = (np.ones_like(xs), xs, x2, x2 * xs, x2 * x2)
    norm = np.sqrt([sums(p * p) for p in cols])             # (5, windows)
    A = [p / np.repeat(nj, count) for p, nj in zip(cols, norm)]
    G = np.empty((len(centers), 5, 5))
    for j in range(5):
        for k in range(j, 5):
            G[:, j, k] = G[:, k, j] = sums(A[j] * A[k])

    def At(v):
        """A^T v of each window, as (windows, 5, 1)."""
        return np.stack([sums(a * v) for a in A], axis=-1)[..., None]

    coef = np.linalg.solve(G, At(ys))
    fit = sum(a * np.repeat(coef[:, j, 0], count) for j, a in enumerate(A))
    coef += np.linalg.solve(G, At(ys - fit))
    coef = coef[..., 0] / norm.T
    return coef[:, 1], 2.0 * coef[:, 2], 6.0 * coef[:, 3]


# ---------------------------------------------------------------------------
# calibration and the mapping


def _prepare_grid(eta, phi, eta0: float, taylor: TaylorData | None):
    """(eta, x, phi, taylor) of a sampled candidate with phi(1) = 0 (the
    sample at 1 added if missing), its Taylor data measured unless given."""
    eta = np.asarray(eta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if eta[0] > 1.0:
        eta = np.concatenate([[1.0], eta])
        phi = np.concatenate([[0.0], phi])
    if abs(eta[0] - 1.0) > 1e-14 or abs(phi[0]) > 1e-12:
        raise ParameterError("candidate must satisfy phi(1) = 0")
    x = eta - 1.0
    return eta, x, phi, measure_taylor(1.0 + x, phi, eta0) if taylor is None else taylor


def _calibration(grid: _Grid, phi, taylor: TaylorData, n: int):
    """(Jfull, lam): Jfull = int_1^eta g at each sample, with g the regular
    part of (s+1)/phi, and lam = 2 * target(n) * (eta0 - 1) * exp(J),
    J = Jfull[-1] = int_1^eta0 g.

    exp(J) beyond the float range means the candidate has no calibration
    constant: NoConvergence, naming J.
    """
    Jfull = grid.simpson(_g_integrand(grid, phi, taylor))
    J = float(Jfull[-1])
    try:
        return Jfull, 2.0 * calibration_target(n) * (grid.eta0 - 1.0) * math.exp(J)
    except OverflowError:
        raise NoConvergence(
            f"calibration constant overflows: exp(J) with J = {J:.6g}") from None


def calibrate_lambda(eta, phi, n: int, eta0: float) -> float:
    """Calibration constant lam(phi, eta0) of a sampled candidate.

    lam = 2 * target(n) * (eta0 - 1) * exp(int_1^eta0 g), where g is the
    regular part of (s+1)/phi, with the Taylor data measured from the
    samples.  SingularityMismatch unless the slope phi'(1) is about 2:
    the regular part of (s+1)/phi is bounded only for the slope 2.
    """
    eta, x, phi, taylor = _prepare_grid(eta, phi, eta0, None)
    if abs(taylor.d1 - 2.0) > 2e-2:
        raise SingularityMismatch(
            f"phi'(1) = {taylor.d1:.6f} != 2; the regular remainder is unbounded")
    return _calibration(_Grid(x, eta, eta0), phi, taylor, n)[1]


def _map_once(grid: _MapGrid, phi, taylor: TaylorData):
    """One application of the mapping; returns (zeta, lam, F = zeta')."""
    Jfull, lam = _calibration(grid, phi, taylor, grid.n)
    J = Jfull - Jfull[-1]                       # int_{eta0}^eta g
    ratio = grid.x_over_zeta(phi, taylor)       # (eta-1)/phi
    exp_I_over_phi = ratio * np.exp(J) / (grid.eta0 - 1.0)
    F = ((grid.theta + 1) * phi / grid.eta + grid.A
         + grid.neq * ratio + (lam * grid.eta_sq) * exp_I_over_phi)
    return grid.simpson(F), lam, F


# ---------------------------------------------------------------------------
# candidate-family band conditions


@dataclass
class GammaSetSpec:
    """Band conditions defining the candidate family on [1, eta0].

    Membership requires phi(1) = 0, phi'(1) = 2, phi in [0, 1],
    phi' in [2 -/+ sigma], phi'' in [alpha -/+ sigma] (sigma = _SIGMA),
    phi''' in a band around beta, and the third-derivative difference
    quotient in [gamma - 1, gamma + 1].  The quotient band forces
    |phi''' - beta| <= (|gamma| + 1)(eta0 - 1), so the effective
    third-derivative half-width must be at least that; sigma_d3 below
    widens sigma accordingly when eta0 - 1 is not small enough.
    """

    eta0: float
    alpha: float
    beta: float
    gamma: float

    def sigma_d3(self) -> float:
        return max(_SIGMA, 1.05 * (abs(self.gamma) + 1.0) * (self.eta0 - 1.0))

    def check(self, eta, phi, taylor: TaylorData | None = None) -> dict:
        eta, x, phi, taylor = _prepare_grid(eta, phi, self.eta0, taylor)
        # windowed quartic fits: robust derivative estimates on the part of
        # the window away from 1; the eta -> 1 limits are the fitted Taylor
        # data itself, checked through `taylor`.
        span = self.eta0 - 1.0
        centers = np.linspace(0.12 * span, 0.88 * span, 24)
        d1c, d2c, d3c = local_derivatives(x, phi, centers, window=0.2 * span)
        d1 = np.concatenate([[taylor.d1], d1c])
        d2 = np.concatenate([[taylor.alpha], d2c])
        d3 = np.concatenate([[taylor.beta], d3c])
        quot = np.concatenate([[taylor.gamma],
                               (d3c - taylor.beta) / centers])
        s3 = self.sigma_d3()
        conds = {
            "endpoint": abs(phi[0]) < 1e-12 and abs(taylor.d1 - 2.0) < 1e-3,
            "range_phi": bool(np.all(phi >= -1e-12) and np.all(phi <= 1.0 + 1e-9)),
            "band_d1": bool(np.all(np.abs(d1 - 2.0) <= _SIGMA + _FD_SLACK)),
            "band_d2": bool(np.all(np.abs(d2 - self.alpha) <= _SIGMA + _FD_SLACK)),
            "band_d3": bool(np.all(np.abs(d3 - self.beta) <= s3 + _FD_SLACK)),
            "band_quotient": bool(np.all(np.abs(quot - self.gamma) <= 1.0 + _FD_SLACK)),
        }
        return {
            "conditions": conds,
            "pass": all(conds.values()),
            "sigma": _SIGMA,
            "sigma_d3_effective": s3,
            "measured": {"d1": taylor.d1, "alpha": taylor.alpha,
                         "beta": taylor.beta, "gamma": taylor.gamma},
        }


# ---------------------------------------------------------------------------
# the damped Picard iteration


@dataclass
class LocalSolve:
    """Converged local curve with its calibration constant; iterations and
    contraction_history count every sweep, those before restarts included."""

    curve: PhaseCurve
    lambda_cal: float
    iterations: int
    contraction_history: list
    taylor_measured: TaylorData
    taylor_formula: TaylorData
    membership: dict = field(default_factory=dict)


_TOL = 1e-10              # sup-norm change at which the iteration has converged
_MAX_SWEEPS = 200         # sweeps of one solve, restarts included
_DAMPING_FLOOR = 1 / 64   # the smallest damping a restart tries
# the largest |measured - exact| gamma of a consistent solve: at n = 2 and
# theta in [0.505, 0.655] the fit of measure_taylor misses gamma by up to
# 1.7e-4 at eta0 1.02 to 1.1, and 9.5e-4 at 1.01
_GAMMA_GAP = 2e-3


def fixed_point_solve(n: int, theta: float, eta0: float,
                      grid_points: int = 2000) -> LocalSolve:
    """Damped Picard iteration phi <- (1-d) phi + d T(phi) from the seed
    x (2 + x R(x)) of the exact Taylor data taylor_coeffs(n, theta).

    Every sweep maps with those data; taylor_measured is fitted once, to
    the final iterate.  phi lives on x = 0 and grid_points nodes geometric
    in x = eta - 1 from 1e-10 to eta0 - 1.  At n = 2, theta 0.505, 0.55,
    0.6 and 0.655 and eta0 1.01, 1.02, 1.05 and 1.1, lambda_cal on the
    default grid is within 2.5e-13 relative of a 24000-node solve, with
    the same sweep count; TestFixedPoint.test_lambda_cal_converged_in_grid_points
    bounds it by 1e-11 against 12000 nodes.

    d starts at 1/2 and halves, the iteration restarting from the seed,
    whenever the sup-norm change grows or an image after the first is not
    finite (a calibration overflow included).  NoConvergence at a
    non-finite first image (no d changes it), at growth at _DAMPING_FLOOR,
    or with no change below _TOL in _MAX_SWEEPS sweeps in all;
    MembershipViolation if the final iterate fails the band conditions of
    GammaSetSpec (e.g. for n >= 3: the calibrated slope at 1+ is 6 - 2n).
    """
    ModelParams(n=n, theta=theta, eta0=eta0).require_negative_pair()
    at = f"n = {n}, theta = {theta}, eta0 = {eta0}"
    formula = taylor_coeffs(n, theta)
    x = np.concatenate([[0.0], np.geomspace(1e-10, eta0 - 1.0, grid_points)])
    eta = 1.0 + x
    with np.errstate(all="ignore"):     # images are checked for finiteness; log(0) = -inf
        grid = _MapGrid(x, eta, eta0, n, theta)
        # the first image does not depend on the damping: made once, it
        # opens every restart, counted as a sweep each time
        seed = formula.seed(x)
        try:
            first = _map_once(grid, seed, formula)[0]
        except NoConvergence as exc:        # the calibration constant overflows: final
            raise NoConvergence(f"{exc} (sweep 1, {at})") from None
        first_change = float(np.max(np.abs(first - seed)))
        phi, last, damping, history = seed, math.inf, 0.5, []
        for its in range(1, _MAX_SWEEPS + 1):
            if last == math.inf:
                zeta, change = first, first_change
            else:
                try:
                    zeta = _map_once(grid, phi, formula)[0]
                    change = float(np.max(np.abs(zeta - phi)))
                except NoConvergence:       # the calibration constant overflows
                    change = math.inf
            history.append(change)
            if not (change < _TOL or math.isfinite(change) and change <= last):
                # last is inf only at the first image, which no damping changes
                if last == math.inf or damping <= _DAMPING_FLOOR:
                    why = (f"grew the sup-norm change to {change:.3e}"
                           if math.isfinite(change) else "gave a non-finite image")
                    raise NoConvergence(f"sweep {its} {why} at damping {damping} ({at})")
                phi, last, damping = seed, math.inf, damping / 2
                continue
            phi = (1.0 - damping) * phi + damping * zeta
            last = change
            if change < _TOL:
                break
        else:
            raise NoConvergence(f"sup-norm change {change:.3e} after {_MAX_SWEEPS} "
                                f"sweeps (tol {_TOL}; {at})")
        if np.any(phi[1:] <= 0):
            raise PositivityLoss("converged curve not positive on (1, eta0]")
        # final lambda and exponential integral of the fixed point itself
        Jfull, lam = _calibration(grid, phi, formula, n)
        I = (Jfull - Jfull[-1]) + np.where(x > 0, np.log(x / (eta0 - 1.0)), -np.inf)
    taylor = measure_taylor(eta, phi, eta0)
    bands = GammaSetSpec(eta0=eta0, alpha=formula.alpha, beta=formula.beta,
                         gamma=formula.gamma)
    membership = bands.check(eta, phi, taylor)
    membership["gamma_formula"] = formula.gamma
    membership["gamma_formula_consistent"] = bool(
        abs(taylor.gamma - formula.gamma) <= _GAMMA_GAP)
    membership["zeta_dd_positive"] = bool(taylor.alpha > 0)
    if not membership["pass"]:
        bad = [k for k, v in membership["conditions"].items() if not v]
        raise MembershipViolation(
            f"converged iterate violates band conditions {bad}; measured "
            f"d1={taylor.d1:.4f}, alpha={taylor.alpha:.4f}")
    cparams = ModelParams(n=n, theta=theta, lambda3=-lam, eta0=eta0)
    curve = PhaseCurve(params=cparams, taylor=taylor,
                       eta=eta[1:], zeta=phi[1:], I=I[1:])
    return LocalSolve(curve=curve, lambda_cal=lam, iterations=its,
                      contraction_history=history, taylor_measured=taylor,
                      taylor_formula=formula, membership=membership)


# ---------------------------------------------------------------------------
# global extension, growth bounds, blow-up time


def extend_global(local: LocalSolve, eta_max: float,
                  rtol: float = 1e-11, atol: float = 1e-13) -> PhaseCurve:
    """Continue (zeta, I) from eta0 to a finite eta_max > eta0.

    Positivity of zeta is monitored; hitting zero raises PositivityLoss
    (reported, never clamped).  The samples added are geometric in eta,
    max(4000, 3000 log10(eta_max/eta0 + 1)) of them counting eta0.

    The DOP853 solver (affmax.dop853, bit-equal to scipy's) steps the
    field phase_field(params) here, with solve_ivp's terminal event
    rule: g = zeta - 1e-12 is checked at eta0 and after every accepted
    step, and a step with g_old >= 0 >= g_new is a hit, reported by its
    ends (no root is sought inside it).  The samples are then read from
    the dense outputs in one pass (dense_values).
    """
    params = local.curve.params
    params.require_negative_pair()
    if not params.eta0 < eta_max < math.inf:
        raise ParameterError(
            f"eta_max = {eta_max} must exceed eta0 = {params.eta0} and be finite")
    eta0 = params.eta0
    z0 = float(local.curve.zeta[-1])
    steps = []
    g = z0 - 1e-12
    # an overflowing field ends in the failures below; numpy's warnings
    # on the rejected non-finite stages on the way add nothing to them
    with np.errstate(all="ignore"):
        solver = DOP853(phase_field(params), float(eta0), (z0, 0.0), float(eta_max),
                        rtol=rtol, atol=atol)
        while solver.status == "running":
            message = solver.step()
            if solver.status == "failed":
                # a step-size collapse with zeta near zero is the same failure:
                # the forcing terms are singular at zeta = 0
                if solver.y[0] < 1e-3 * z0:
                    raise PositivityLoss(
                        f"zeta collapsed to {solver.y[0]:.3e} near eta = {solver.t:.6g}")
                raise StepFailure(f"extension failed: {message}")
            g_new = solver.y[0] - 1e-12
            if g >= 0 and g_new <= 0:
                raise PositivityLoss(f"zeta reached 0 between eta = "
                                     f"{float(solver.t_old)} and {float(solver.t)}")
            g = g_new
            steps.append(solver.dense_output())
    n_samples = max(4000, int(3000 * math.log10(eta_max / eta0 + 1)))
    ee = np.geomspace(eta0, eta_max, n_samples)[1:]
    zz, II = dense_values(steps, ee)
    eta = np.concatenate([local.curve.eta, ee])
    zeta = np.concatenate([local.curve.zeta, zz])
    I = np.concatenate([local.curve.I, II])
    return PhaseCurve(params=params, taylor=local.curve.taylor,
                      eta=eta, zeta=zeta, I=I)


def growth_bounds_check(curve: PhaseCurve) -> dict:
    """Scan-and-shrink witnesses for the three growth bounds.

    * linear barrier: largest rho with zeta >= rho (eta - 1) on all samples;
    * quadratic lower bound: eps0, eta1 such that zeta > eps0 eta^2 for
      eta >= eta1 on the scanned range (eps0 includes the safety factor
      _SAFETY that the blow-up tail also uses);
    * quadratic upper bound zeta <= eta^2 beyond eta2, claimed only where
      upper_bound_claimed(n, theta).  The curve approaches eta^2 in a damped
      spiral, so the bound is certified between sign changes; crossings
      found in the scan are reported.
    """
    n, theta = curve.params.n, curve.params.theta
    eta, zeta = curve.eta, curve.zeta
    rho = float(np.min(zeta / (eta - 1.0)))
    q = zeta / eta**2
    # quadratic lower bound: running minimum from the right
    suffix_min = np.minimum.accumulate(q[::-1])[::-1]
    best = float(np.max(suffix_min))
    j1 = int(np.argmax(suffix_min >= 0.98 * best))
    eta1 = float(eta[j1])
    eps0 = _SAFETY * float(suffix_min[j1])
    lower_ok = bool(np.all(zeta[eta >= eta1] > eps0 * eta[eta >= eta1] ** 2))
    # quadratic upper bound
    d = zeta - eta**2
    sign_change = np.where(np.sign(d[:-1]) != np.sign(d[1:]))[0]
    crossings = [float(eta[i + 1]) for i in sign_change]
    if d[-1] <= 0:
        # last down-crossing opens the certified window
        above = np.where(d > 0)[0]
        j2 = int(above[-1] + 1) if len(above) else 0
        eta2 = float(eta[j2])
        tail = slice(j2, None)
        margin = float(np.max(q[tail]))
        upper_holds = bool(np.all(d[tail] <= 0))
    else:
        eta2 = None
        margin = float(np.max(q))
        upper_holds = False
    return {
        "rho": rho,
        "rho_holds": bool(np.all(zeta >= rho * (eta - 1.0) - 1e-15)),
        "eps0": eps0, "eta1": eta1, "lower_quadratic_holds": lower_ok,
        "upper_claimed": upper_bound_claimed(n, theta),
        "eta2": eta2, "upper_holds": upper_holds,
        "upper_margin_max_q": margin,
        "crossings": crossings,
        "scan_range": [float(eta[0]), float(eta[-1])],
        "oscillates_about_eta_sq": len(crossings) >= 2,
    }


def blowup_time(curve: PhaseCurve) -> tuple:
    """(T_inf, tail_bound): T_inf = int_{eta0}^{eta_max} ds/zeta + tail.

    The tail uses the certified quadratic lower bound on the last decade
    of the scan: int_{eta_max}^inf ds/(eps0 s^2) = 1/(eps0 eta_max), eps0
    being _SAFETY times the least zeta/eta^2 there.  Raises TailUnbounded
    when no such bound is certifiable (zeta/eta^2 decaying toward zero
    at the right end).
    """
    eta0 = curve.params.eta0
    sel = curve.eta >= eta0 * (1 - 1e-12)
    eta, zeta = curve.eta[sel], curve.zeta[sel]
    if len(eta) < 16:
        raise ParameterError("curve carries too few samples above eta0")
    eta_max = eta[-1]
    tail_sel = eta >= eta_max / 10.0
    qtail = zeta[tail_sel] / eta[tail_sel] ** 2
    q_end = qtail[-1]
    q_mid = float(np.interp(eta_max / 2.0, eta, zeta / eta**2))
    if np.min(qtail) < 1e-6 or q_end < 0.7 * q_mid:
        raise TailUnbounded(
            "no quadratic lower bound on the tail; 1/zeta may not be integrable")
    eps_tail = _SAFETY * float(np.min(qtail))
    main = float(cumulative_simpson(1.0 / zeta, eta)[-1])
    tail_bound = 1.0 / (eps_tail * eta_max)
    return main + tail_bound, tail_bound


def solve_negative(n: int, theta: float, eta0: float, eta_max: float) -> tuple:
    """(curve, report, failed): the local solve's curve extended to
    eta_max, its solve-negative report, and the keys of the growth bounds
    it fails: rho_holds, lower_quadratic_holds, and upper_holds where the
    upper bound is claimed.  An empty list certifies the construction."""
    local = fixed_point_solve(n, theta, eta0)
    curve = extend_global(local, eta_max=eta_max)
    bounds_rep = growth_bounds_check(curve)
    # the blow-up estimate uses the full integration range: the curve (and
    # any profile rebuilt from it) reaches within ~1/(q eta_max) of the
    # boundary, so T_inf must be at least that accurate
    T_inf, tail = blowup_time(curve)
    report = {
        "n": curve.params.n, "theta": curve.params.theta, "eta0": curve.params.eta0,
        **{key: {c: getattr(taylor, c) for c in ("alpha", "beta", "gamma")}
           for key, taylor in (("taylor", local.taylor_formula),
                               ("taylor_measured", local.taylor_measured))},
        "lambda_cal": local.lambda_cal,
        "iterations": local.iterations,
        "bounds": {k: bounds_rep[k] for k in ("rho", "eps0", "eta1", "eta2")},
        "bounds_detail": bounds_rep,
        "T_inf": T_inf, "tail_bound": tail, "R_inf": math.exp(T_inf),
        "upper_bound_claimed": bounds_rep["upper_claimed"],
    }
    upper = ["upper_holds"] if bounds_rep["upper_claimed"] else []
    checked = ["rho_holds", "lower_quadratic_holds", *upper]
    return curve, report, [key for key in checked if not bounds_rep[key]]
