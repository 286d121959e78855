"""Rebuild the radial profile (etabar(r), v(r), u(r)) from a phase curve.

All reconstruction integrals are taken in eta with the singular parts
split off analytically.  With x = eta - 1, d1 = zeta'(1) and anchor
r0 = 1 at eta0 (so t(eta0) = 0, t = log r):

    t(eta) = (1/d1) log(x/x0) + tau(eta),   tau' = 1/zeta - 1/(d1 x)
    log v  = log v0 + t + W(eta),           W'   = (eta-1)/zeta  (regular)
    u(eta) = int_1^eta  e^(W + 2 tau) (x/x0)^(2/d1) * [x/zeta] / x  deta

so r ~ x^(1/d1), v ~ e^(W(1)) r near the origin, and every integrand is
regular at the singular endpoint.  Derivatives of the rebuilt profile
come from the exact chain

    v' = v etabar / r,
    v'' = v (etabar^2 + zeta - etabar) / r^2,
    v''' = v [ (etabar-2) G + zeta (2 etabar + zeta' - 1) ] / r^3,
           G = etabar^2 + zeta - etabar,  zeta' = d(log zeta)/dt,

rather than finite differences.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import (CumulativeSimpson, PhaseCurve, ProfileEvaluator,
                   RadialProfile, SwitchSplit)
from .errors import ParameterError
from .spline import interp_spline

__all__ = ["t_of_eta", "rebuild_profile", "written_curve", "large_condition_check",
           "PhaseProfileEvaluator"]

U_CEILING = 1e6   # the value of u whose radius the completeness checks report
# verify samples the radius of psi's factor up to this fraction of its last one
BOX_FRACTION = 0.95
# written_curve keeps every row until the radius passes the box edge by this
# fraction of the last radius, then every FAR_STRIDE-th row
WRITE_MARGIN = 0.02
FAR_STRIDE = 8
# rows a rebuilt profile keeps, as many as phi's at solve-positive's default
# --nodes; only its first, last and anchor rows reach the certificate
PROFILE_ROWS = 201


def _tau_integrand(split: SwitchSplit, zeta, taylor):
    """1/zeta - 1/(d1 x), regular at x = 0: -R/(d1 (d1 + x R)) below X_SWITCH."""
    d, k, xs = taylor.d1, split.k, split.xs
    out = np.empty_like(split.x)
    R = taylor.remainder(xs)
    out[:k] = -R / (d * (d + xs * R))
    out[k:] = 1.0 / zeta[k:] - 1.0 / (d * split.xl)
    return out


def _t_table(curve: PhaseCurve):
    """t = log r on the curve grid, anchored at eta0 (t = 0), and the
    parts of it _tables reuses: tau, the grid's Simpson rule and split."""
    eta, zeta = curve.eta, curve.zeta
    x = eta - 1.0
    i0 = int(np.argmin(np.abs(eta - curve.params.eta0)))
    if abs(eta[i0] - curve.params.eta0) > 1e-9 * curve.params.eta0:
        raise ParameterError("curve grid must contain eta0 (the anchor)")
    tay = curve.taylor
    simpson, split = CumulativeSimpson(eta), SwitchSplit(x)
    ctau = simpson(_tau_integrand(split, zeta, tay))
    tau = ctau - ctau[i0]
    t = tau + np.log(x / (curve.params.eta0 - 1.0)) / tay.d1
    return {"eta": eta, "x": x, "zeta": zeta, "t": t, "tau": tau, "i0": i0,
            "d1": tay.d1, "simpson": simpson, "split": split}


def _tables(curve: PhaseCurve, v0: float):
    """Cumulative t, log v, u on the curve grid, anchored at eta0 (r = 1)."""
    tab = _t_table(curve)
    x, tau, i0, d1, simpson = (tab[k] for k in ("x", "tau", "i0", "d1", "simpson"))
    ratio = tab["split"].x_over_zeta(tab["zeta"], curve.taylor)   # x/zeta, stable
    cW = simpson(ratio)
    W = cW - cW[i0]
    x0 = curve.params.eta0 - 1.0
    u_int = np.exp(W + 2.0 * tau) * np.power(x / x0, 2.0 / d1) * ratio / x
    u = simpson(u_int) * v0
    u += v0 * u_int[0] * x[0] * (d1 / 2.0)           # analytic piece over (1, eta[0])
    tab["logv"] = math.log(v0) + W + tab["t"]
    tab["u"] = u
    return tab


def t_of_eta(curve: PhaseCurve):
    """Sampled t(eta) = int_{eta0}^eta ds/zeta on the curve grid.

    t(eta0) = 0; t -> -inf logarithmically at eta -> 1+ and increases
    toward the blow-up time as eta grows.
    """
    tab = _t_table(curve)
    return tab["eta"], tab["t"]


class PhaseProfileEvaluator(ProfileEvaluator):
    """Evaluation of the rebuilt profile through quintic splines in t = log r.

    Below the table (r < r_min) the profile and its derivatives continue
    with the origin asymptotics v ~ vp0 r and etabar - 1 ~ r^d1; its last
    radius r_max is the table edge.
    """

    def __init__(self, tab):
        t = tab["t"]
        self.t_min, self.t_max = float(t[0]), float(t[-1])
        # np.exp gives the profile's first and last radii (math.exp may differ)
        self.r_min, self.r_max = float(np.exp(t[0])), float(np.exp(t[-1]))
        self.d1 = tab["d1"]
        # slope of v at the origin: v ~ vp0 * r below the grid
        self.vp0 = math.exp(float(tab["logv"][0]) - self.t_min)
        self._x_min = float(tab["x"][0])
        # the columns _cols interpolates, held until the first evaluation
        self._table = (t, tab["x"], tab["zeta"], tab["logv"], tab["u"])

    @functools.cached_property
    def _cols(self):
        """One spline with the columns (log x, log zeta, log v, u) in t.

        The collocation matrix is factored once and one call evaluates all
        four.  It is fitted on first use, so a profile written from the
        table columns alone never pays for it.
        """
        t, x, zeta, logv, u = self._table
        cols = interp_spline(
            t, np.stack([np.log(x), np.log(zeta), logv, u]).T)
        del self._table
        return cols

    @functools.cached_property
    def _dcols(self):
        return self._cols.derivative()

    def _t(self, a):
        """log a, t_min below the table; the clip undoes log(exp(t_max)) > t_max."""
        return np.clip(np.log(np.maximum(a, self.r_min)), self.t_min, self.t_max)

    def _state(self, a):
        """(t, etabar, zeta, log v) at radii inside the table."""
        t = self._t(a)
        c = self._cols(t, slice(0, 3))
        return t, 1.0 + np.exp(c[..., 0]), np.exp(c[..., 1]), c[..., 2]

    def etabar(self, r):
        return self._evaluate(r, False, self._etabar)    # r v'/v is even

    def _etabar(self, a):
        # etabar - 1 ~ r^d1 below the table
        below = 1.0 + self._x_min * (np.minimum(a, self.r_min) / self.r_min) ** self.d1
        return np.where(a < self.r_min, below, self._state(a)[1])

    def _v(self, a):
        return np.where(a < self.r_min, self.vp0 * a, np.exp(self._cols(self._t(a), 2)))

    def _u(self, a):
        return np.where(a < self.r_min, 0.5 * self.vp0 * a * a, self._cols(self._t(a), 3))

    def _deriv(self, a, k):
        rs = np.maximum(a, self.r_min)
        t, etab, zeta, logv = self._state(rs)
        vv, G = np.exp(logv), etab * etab + zeta - etab
        if k == 1:
            out = vv * etab / rs
        elif k == 2:
            out = vv * G / (rs * rs)
        else:
            zp = self._dcols(t, 1)
            out = vv * ((etab - 2.0) * G + zeta * (2.0 * etab + zp - 1.0)) / rs**3
        # below the table, d^k/dr^k of v = vp0 (r + c r^(d1+1) / d1), etabar - 1 =
        # c r^d1; d1 is 2 only up to rounding, so r^(d1-2) needs r > 0
        d1, ra = self.d1, np.clip(a, np.finfo(float).tiny, self.r_min)
        c = math.prod(d1 + 1 - i for i in range(k)) * self._x_min / self.r_min ** d1 / d1
        return np.where(a < self.r_min, self.vp0 * ((k == 1) + c * ra ** (d1 + 1 - k)), out)


def _kept_rows(rows: int, i0: int) -> np.ndarray:
    """Ascending indices of the table rows a profile keeps: min(rows,
    PROFILE_ROWS) of them evenly spaced from 0 to rows - 1, and i0."""
    k = min(rows, PROFILE_ROWS)
    idx = np.arange(k) * (rows - 1) // (k - 1)      # k >= 3: _tables needs 3 rows
    j = int(np.searchsorted(idx, i0))
    if idx[j] == i0:
        return idx
    return np.concatenate([idx[:j], [i0], idx[j:]])


def rebuild_profile(curve: PhaseCurve, v0: float) -> RadialProfile:
    """RadialProfile of the factor whose phase curve is given.

    v0 = v(1) at the anchor r = 1 sets the one free scale; u(0) = 0.
    The returned profile holds PROFILE_ROWS rows of the table, evenly
    spaced in curve index from the first row to the last, plus the
    anchor row (r = 1) when it falls between them; a shorter table is
    kept whole.  It carries an evaluator with the exact derivative
    chain, fitted on every row and valid on radii covered by the curve.
    """
    if not 0 < v0 < math.inf:
        raise ParameterError(f"v0 must be positive and finite, got {v0}")
    tab = _tables(curve, v0=v0)
    ev = PhaseProfileEvaluator(tab)
    r_all = np.exp(tab["t"])
    idx = _kept_rows(len(r_all), tab["i0"])
    return RadialProfile(r=r_all[idx], v=np.exp(tab["logv"])[idx], u=tab["u"][idx],
                         n=curve.params.n, evaluator=ev)


def written_curve(curve: PhaseCurve) -> PhaseCurve:
    """The rows of curve that solve-negative writes.

    Every row with eta <= eta0 (the local solve, whose rows near eta = 1
    give the measured Taylor data) and every row until the radius
    r = exp t_of_eta first reaches BOX_FRACTION + WRITE_MARGIN of its last
    value, a margin past the edge of the box verify samples; beyond that,
    every FAR_STRIDE-th row and the last.  The rows are taken as they are;
    I, which no later stage reads, is left out.
    """
    eta, t = t_of_eta(curve)
    rows = len(eta)
    # t, not exp(t), so a far radius that overflows still compares
    cut = max(int(np.searchsorted(eta, curve.params.eta0, side="right")) - 1,
              int(np.argmax(t >= t[-1] + math.log(BOX_FRACTION + WRITE_MARGIN))))
    idx = np.concatenate([np.arange(min(cut + 1, rows - 1)),
                          np.arange(cut + FAR_STRIDE, rows - 1, FAR_STRIDE), [rows - 1]])
    return PhaseCurve(params=curve.params, taylor=curve.taylor, eta=eta[idx],
                      zeta=curve.zeta[idx])


def large_condition_check(profile: RadialProfile, R_inf: float) -> dict:
    """Does u blow up at the finite boundary radius R_inf = e^(T_inf)?

    Two diagnostics: the scan of the curvature lower bound
    v >= v0 (T - log r0)/(T - log r), and a fit of v against the
    1/(T - log r) law plus a fit of u against -log(T - log r) whose
    divergence (positive slope, finite radius at which the
    extrapolation exceeds U_CEILING) certifies the large condition.
    An infinite R_inf (entire factor) passes vacuously.
    """
    if not np.isfinite(R_inf):
        return {"pass": True, "finite_boundary": False,
                "witness": "no finite boundary"}
    T = math.log(R_inf)
    ev = profile.evaluator
    r_max = float(profile.r[-1])
    if r_max >= R_inf:
        raise ParameterError("profile extends past the claimed boundary radius")
    v0 = float(np.interp(1.0, profile.r, profile.v))
    t_hi = math.log(r_max)
    # full scan of the classical curvature lower bound on r > r0
    t_all = np.linspace(1e-3, t_hi, 400)
    v_all = ev.v(np.append(np.exp(t_all[:-1]), r_max))   # exp(t_hi) may pass r_max
    bound = v0 * T / (T - t_all)
    ok = v_all >= bound * (1 - 1e-12)
    holds_all = bool(np.all(ok))
    if holds_all:
        interval = [float(math.exp(t_all[0])), float(math.exp(t_all[-1]))]
        fail_interval = None
    else:
        bad = np.where(~ok)[0]
        fail_interval = [float(math.exp(t_all[bad[0]])), float(math.exp(t_all[bad[-1]]))]
        good_tail = np.where(ok[bad[-1]:])[0]
        interval = ([float(math.exp(t_all[bad[-1] + good_tail[0]])),
                     float(math.exp(t_all[-1]))] if len(good_tail) else None)
    # divergence-law fits, restricted to the near-boundary regime where
    # T - log r is small compared to T
    gap_hi = min(0.05 * T, 30.0 * (T - t_hi))
    gap_lo = 1.02 * (T - t_hi)
    if gap_hi <= gap_lo:
        gap_hi = 3.0 * gap_lo
    t_tail = T - np.geomspace(gap_hi, gap_lo, 200)
    r_tail = np.exp(t_tail)
    v_tail = ev.v(r_tail)
    u_tail = ev.u(r_tail)
    law = v_tail * (T - t_tail)
    law_c = float(np.mean(law))
    law_spread = float((np.max(law) - np.min(law)) / law_c)
    s = -np.log(T - t_tail)
    A = np.vstack([s, np.ones_like(s)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, u_tail, rcond=None)
    resid = float(np.max(np.abs(u_tail - A @ [slope, intercept]))
                  / max(np.max(u_tail) - np.min(u_tail), 1e-300))
    # extrapolated radius at which u reaches the ceiling
    s_ceiling = (U_CEILING - intercept) / slope if slope > 0 else math.inf
    diverges = slope > 0 and resid < 0.05
    return {
        "pass": bool(diverges),
        "finite_boundary": True,
        "T_inf": T,
        "v_lower_bound_holds_everywhere": holds_all,
        "v_lower_bound_holds_on": interval,
        "v_lower_bound_fails_on": fail_interval,
        "v_law_constant": law_c,
        "v_law_spread": law_spread,
        "u_log_slope": float(slope),
        "u_fit_residual": resid,
        "u_reaches_ceiling_at_T_minus_logr": float(math.exp(-s_ceiling))
        if np.isfinite(s_ceiling) else None,
    }
