import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmax import negative_pair
from affmax.core import ModelParams, PhaseCurve, TaylorData
from affmax.errors import (AffmaxError, GridTooCoarse, NoConvergence,
                           ParameterError, PositivityLoss, SingularityMismatch,
                           TailUnbounded)
from affmax.negative_pair import (GammaSetSpec, blowup_time,
                                  calibrate_lambda, calibration_target,
                                  extend_global, fixed_point_solve,
                                  growth_bounds_check, taylor_coeffs)
from affmax.phase_plane import phase_residual

from conftest import ETA0, N, THETA, restrict
from oracles import origin_compatibility


def apply_T(eta, phi, n, theta, eta0, taylor=None):
    """One application of the calibrated mapping to a sampled candidate.

    Returns (zeta samples on the same grid, lam); the Taylor data is
    measured from the samples unless given.
    """
    eta, x, phi, taylor = negative_pair._prepare_grid(eta, phi, eta0, taylor)
    grid = negative_pair._MapGrid(x, eta, eta0, n, theta)
    zeta, lam, _ = negative_pair._map_once(grid, phi, taylor)
    return zeta, lam


def lambda_bounds(local, sigma=0.5):
    """Two-sided a-priori bounds on local.lambda_cal (evaluated at alpha + sigma)."""
    n = local.curve.params.n
    eta0 = local.curve.params.eta0
    aps = local.taylor_formula.alpha + sigma
    lo = (32 + 4 * n * (n - 2)) / aps * (eta0 - 1) / (eta0 - 1 + 4 / aps)
    hi = ((eta0 - 1) * calibration_target(n) * (2 + aps / 2 * (eta0 - 1))
          * math.exp((eta0 - 1) / 2))
    return lo, hi


class TestTaylorCoeffs:
    def test_alpha_frozen_values(self):
        assert taylor_coeffs(2, 0.75).alpha == pytest.approx(14.0 / 3.0, abs=1e-13)
        assert taylor_coeffs(2, 0.55).alpha == pytest.approx(4.13333333333333, abs=1e-12)

    def test_beta_n2_reduction(self):
        # at n = 2 the closed form collapses to 5.5 + 0.75 a^2 - 4.5 a
        for theta in (0.55, 0.6, 0.75):
            td = taylor_coeffs(2, theta)
            expected = 5.5 + 0.75 * td.alpha**2 - 4.5 * td.alpha
            assert td.beta == pytest.approx(expected, rel=1e-13)
        assert taylor_coeffs(2, 0.55).beta == pytest.approx(-0.2866666666, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(theta=st.floats(0.505, 0.655), eta0=st.sampled_from([1.02, 1.05]))
    def test_exact_data_match_the_converged_curve(self, theta, eta0):
        # the Taylor data measured from the converged iterate against the
        # exact ones; at 61 theta the worst gaps are alpha 1.3e-10, beta
        # 2.0e-7 and gamma 1.7e-4, the fit's own error
        exact = taylor_coeffs(2, theta)
        local = fixed_point_solve(2, theta, eta0)
        got = local.taylor_measured
        assert got.alpha == pytest.approx(exact.alpha, rel=0, abs=1e-9)
        assert got.beta == pytest.approx(exact.beta, rel=0, abs=1e-6)
        assert got.gamma == pytest.approx(exact.gamma, rel=0, abs=2e-3)
        assert local.membership["gamma_formula_consistent"]

    def test_d1_is_two(self):
        assert taylor_coeffs(3, 1.0).d1 == 2.0

    def test_dimension_guard(self):
        for n in (1, 6):
            with pytest.raises(ParameterError):
                taylor_coeffs(n, 0.55)


class TestCalibration:
    def test_linear_candidate_closed_form(self):
        # phi = 2(eta-1), eta0 = 1.1, n = 2: lam = 8 (eta0-1) e^((eta0-1)/2)
        eta = np.linspace(1.0, 1.1, 4001)
        phi = 2.0 * (eta - 1.0)
        lam = calibrate_lambda(eta, phi, n=2, eta0=1.1)
        assert lam == pytest.approx(0.8 * math.exp(0.05), abs=1e-8)

    def test_linear_candidate_n3(self):
        eta = np.linspace(1.0, 1.1, 4001)
        phi = 2.0 * (eta - 1.0)
        lam = calibrate_lambda(eta, phi, n=3, eta0=1.1)
        assert lam == pytest.approx(2 * 5.5 * 0.1 * math.exp(0.05), abs=1e-8)

    @pytest.mark.parametrize("n,target", [(2, 4.0), (3, 5.5)])
    def test_limiting_product(self, n, target):
        # lam * exp(I)/phi -> 4 + n(n-2)/2 as eta -> 1+, measured through
        # an independent high-precision quadrature of (s+1)/phi
        assert calibration_target(n) == target
        eta0 = 1.1
        eta = np.linspace(1.0, eta0, 4001)
        lam = calibrate_lambda(eta, 2.0 * (eta - 1.0), n=n, eta0=eta0)
        phi_mp = lambda s: 2 * (s - 1)
        xs, vals = [1e-4, 1e-5, 1e-6], []
        for x in xs:
            e = 1 + x
            I = mpmath.quad(lambda s: (s + 1) / phi_mp(s), [eta0, e])
            vals.append(float(lam * mpmath.e**I / phi_mp(e)))
        # the product approaches its limit linearly in eta - 1; extrapolate
        limit = vals[-1] - (vals[-2] - vals[-1]) * xs[-1] / (xs[-2] - xs[-1])
        assert limit == pytest.approx(target, abs=1e-6)

    def test_wrong_slope_raises(self):
        eta = np.linspace(1.0, 1.1, 2001)
        with pytest.raises(SingularityMismatch):
            calibrate_lambda(eta, 3.0 * (eta - 1.0), n=2, eta0=1.1)


class TestApplyT:
    def test_fixed_point_property(self, local_solve):
        curve = local_solve.curve
        zeta, lam = apply_T(curve.eta, curve.zeta, N, THETA, ETA0,
                            taylor=local_solve.taylor_measured)
        assert np.max(np.abs(zeta[1:] - curve.zeta)) < 1e-9
        assert lam == pytest.approx(local_solve.lambda_cal, rel=1e-10)

    def test_image_slope_and_curvature(self):
        # one sweep from the seed already has the limit derivatives
        td = taylor_coeffs(N, THETA)
        eta = 1.0 + np.concatenate([[0.0], np.geomspace(1e-10, ETA0 - 1, 4000)])
        phi = td.seed(eta - 1.0)
        zeta, _ = apply_T(eta, phi, N, THETA, ETA0, taylor=td)
        from affmax.core import measure_taylor
        meas = measure_taylor(eta[1:], zeta[1:], ETA0)
        assert meas.d1 == pytest.approx(2.0, abs=1e-4)
        assert meas.alpha == pytest.approx(td.alpha, abs=5e-2 * (ETA0 - 1))

    def test_blowup_inside_window(self):
        # over a wide window the image leaves the admissible band [0, 1]
        eta = np.linspace(1.0, 2.0, 4001)
        zeta, _ = apply_T(eta, 2.0 * (eta - 1.0), 2, 0.55, 2.0)
        assert np.any(zeta < -1e-12) or np.any(zeta > 1.0 + 1e-9)


class TestFixedPoint:
    def test_convergence_and_taylor(self, local_solve):
        assert local_solve.iterations <= 200
        assert local_solve.contraction_history[-1] < 1e-8
        td = taylor_coeffs(N, THETA)
        assert local_solve.taylor_measured.d1 == pytest.approx(2.0, abs=1e-4)
        assert local_solve.taylor_measured.alpha == pytest.approx(td.alpha, abs=1e-2)
        assert local_solve.taylor_measured.beta == pytest.approx(td.beta, abs=1e-2)

    def test_phase_residual_along_curve(self, local_solve):
        c = local_solve.curve
        dz = np.gradient(c.zeta, c.eta, edge_order=2)
        res = phase_residual(c.eta, c.zeta, dz, c.I, c.params)
        lam3 = c.params.lambda3
        scale = (1.0 + np.abs(c.zeta * dz) + np.abs(lam3) * c.eta**2 * np.exp(c.I))
        rel = np.abs(res / scale)[5:-5]
        assert np.max(rel) < 1e-6

    def test_lambda_within_two_sided_bounds(self, local_solve):
        lo, hi = lambda_bounds(local_solve, sigma=0.5)
        assert lo <= local_solve.lambda_cal <= hi

    def test_membership(self, local_solve):
        m = local_solve.membership
        assert m["pass"]
        assert m["zeta_dd_positive"]
        # the exact gamma is the band centre, and the measured one is
        # within the consistency bound of it
        assert m["gamma_formula_consistent"]
        gap = abs(local_solve.taylor_measured.gamma - local_solve.taylor_formula.gamma)
        assert gap <= negative_pair._GAMMA_GAP

    def test_membership_bands_on_small_window(self):
        # eta0 - 1 small enough that the plain sigma bands are feasible
        sol = fixed_point_solve(2, 0.55, 1.015)
        spec = GammaSetSpec(eta0=1.015, alpha=sol.taylor_formula.alpha,
                            beta=sol.taylor_formula.beta,
                            gamma=sol.taylor_measured.gamma)
        assert spec.sigma_d3() == 0.5
        eta = np.concatenate([[1.0], sol.curve.eta])
        phi = np.concatenate([[0.0], sol.curve.zeta])
        assert spec.check(eta, phi, sol.taylor_measured)["pass"]

    def test_monotone_in_eta0(self, local_solve):
        # shrinking eta0 shrinks the calibration constant; on the shared
        # local window the curves coincide to leading orders (same Taylor
        # data), so the pointwise ordering is tested after extension
        smaller = fixed_point_solve(2, 0.55, 1.025)
        assert smaller.lambda_cal < local_solve.lambda_cal
        e = np.linspace(1.003, 1.024, 50)
        z_small = np.interp(e, smaller.curve.eta, smaller.curve.zeta)
        z_big = np.interp(e, local_solve.curve.eta, local_solve.curve.zeta)
        assert np.max(np.abs(z_small / z_big - 1.0)) < 1e-6

    @pytest.mark.parametrize("eta0", [1.02, 1.05])
    @pytest.mark.parametrize("theta", [0.505, 0.55, 0.6, 0.655])
    def test_lambda_cal_converged_in_grid_points(self, theta, eta0):
        # the default grid's lambda_cal against a six times finer solve:
        # measured at most 3e-13 apart, in the same number of sweeps.  The
        # measured Taylor data moves more: beta at most 1.2e-6 relative and
        # gamma 4.9e-5 absolute, next to GammaSetSpec's band half-width 1
        default = fixed_point_solve(2, theta, eta0)
        fine = fixed_point_solve(2, theta, eta0, grid_points=12000)
        assert default.lambda_cal == pytest.approx(fine.lambda_cal, rel=1e-11, abs=0)
        assert default.iterations == fine.iterations
        got, ref = default.taylor_measured, fine.taylor_measured
        assert got.beta == pytest.approx(ref.beta, rel=5e-6, abs=0)
        assert got.gamma == pytest.approx(ref.gamma, rel=0, abs=1e-4)

    def test_n3_fails_honestly(self):
        # with this calibration constant the slope at 1+ is 6 - 2n,
        # so no admissible fixed point exists for n >= 3
        with pytest.raises(AffmaxError):
            fixed_point_solve(3, 1.0, 1.05)

    @pytest.mark.parametrize("theta, eta0, sweeps", [(1000.0, 1.05, 49),
                                                     (0.55, 1e300, 1)])
    def test_non_finite_sweep_stops_the_iteration(self, theta, eta0, sweeps):
        # theta = 1000 grows at every damping; eta0 = 1e300 overflows on
        # sweep 1, which is final.  Neither runs on to the 200-sweep cap,
        # nor warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence) as info:
                fixed_point_solve(2, theta, eta0)
        msg = str(info.value)
        assert int(msg.split("sweep ")[1].split()[0]) <= sweeps
        for name in ("n = 2", f"theta = {theta}", f"eta0 = {eta0}"):
            assert name in msg

    def test_parameter_guards(self):
        with pytest.raises(ParameterError):
            fixed_point_solve(6, 0.55, 1.05)


class TestDampingRule:
    @pytest.mark.parametrize("eta0", [1.02, 1.05])
    def test_change_falls_at_every_sweep_for_n2(self, eta0):
        # the rule never fires at n = 2: one attempt at damping 1/2
        for theta in np.linspace(0.505, 0.66, 35):
            hist = fixed_point_solve(2, float(theta), eta0).contraction_history
            assert all(b < a for a, b in zip(hist, hist[1:])), theta

    def test_flagship_sweep_count(self, local_solve):
        assert local_solve.iterations == len(local_solve.contraction_history) == 5

    @staticmethod
    def slope_consistent_solve(monkeypatch, n, theta, eta0):
        """(local solve, images made, measure_taylor calls) with the limit
        n(n+2)/2 that the slope 2 needs (ROADMAP item 1)."""
        images, measured = [], []
        real_map, real_measure = negative_pair._map_once, negative_pair.measure_taylor

        def counted_map(*args):
            images.append(args)
            return real_map(*args)

        def counted_measure(*args):
            measured.append(args)
            return real_measure(*args)

        monkeypatch.setattr(negative_pair, "calibration_target",
                            lambda n: n * (n + 2) / 2)
        monkeypatch.setattr(negative_pair, "_map_once", counted_map)
        monkeypatch.setattr(negative_pair, "measure_taylor", counted_measure)
        local = fixed_point_solve(n, theta, eta0)
        assert local.membership["pass"]
        assert local.contraction_history[-1] < 1e-10
        assert local.iterations == len(local.contraction_history) <= 200
        return local, len(images), len(measured)

    @pytest.mark.parametrize("n, theta", [(3, 0.70), (5, 0.80)])
    def test_slope_consistent_limit_converges_with_no_setting(self, monkeypatch,
                                                              n, theta):
        # n >= 3 converges from the exact Taylor data with no restart: one
        # image a sweep.  Its measured Taylor data are the table's: alpha,
        # beta and gamma 1.4e-10, 2.9e-7 and 2.4e-4 apart at n = 3, and
        # 9.9e-10, 8.4e-7 and 1.6e-4 at n = 5
        local, images, _ = self.slope_consistent_solve(monkeypatch, n, theta, 1.02)
        assert images == local.iterations
        got, exact = local.taylor_measured, local.taylor_formula
        assert got.alpha == pytest.approx(exact.alpha, rel=0, abs=1e-8)
        assert got.beta == pytest.approx(exact.beta, rel=0, abs=1e-5)
        assert got.gamma == pytest.approx(exact.gamma, rel=0, abs=1e-3)

    def test_slope_consistent_limit_converges_after_a_restart(self, monkeypatch):
        # the change grows once at damping 1/2, and the solve restarts at 1/4
        # opening with the first image; the Taylor data are measured once
        local, images, measured = self.slope_consistent_solve(monkeypatch, 5, 0.80, 1.05)
        assert images == local.iterations - 1
        assert measured == 1

    @pytest.mark.parametrize("n, theta, eta0", [(3, 0.70, 1.02), (4, 0.55, 1.05)])
    def test_growth_at_every_damping_stops_at_the_floor(self, monkeypatch,
                                                        n, theta, eta0):
        # with today's limit n >= 3 grows at every damping; at n = 4 the
        # calibration overflows on sweep 2, which restarts the solve too
        images, overflows = [], []
        real = negative_pair._map_once

        def counted(*args):
            images.append(args)
            try:
                return real(*args)
            except NoConvergence:
                overflows.append(len(images))
                raise

        monkeypatch.setattr(negative_pair, "_map_once", counted)
        with pytest.raises(NoConvergence) as info:
            fixed_point_solve(n, theta, eta0)
        assert overflows == ([2] if n == 4 else [])
        msg = str(info.value)
        # each of the five restarts (dampings 1/4 to 1/64) opens with the
        # first image, counted as a sweep but not made again
        assert msg.startswith(f"sweep {len(images) + 5} ")
        assert f"damping {1 / 64}" in msg
        for name in (f"n = {n}", f"theta = {theta}", f"eta0 = {eta0}"):
            assert name in msg

    def test_restarts_reuse_the_first_image(self, monkeypatch):
        # 17 sweeps, 5 of them restarts opening with the first image: 12
        # images made, and the message counts every sweep as before
        images = []
        real = negative_pair._map_once

        def counted(*args):
            images.append(args)
            return real(*args)

        monkeypatch.setattr(negative_pair, "_map_once", counted)
        with pytest.raises(NoConvergence) as info:
            fixed_point_solve(3, 0.6, 1.2)
        assert len(images) == 12
        assert str(info.value) == ("sweep 17 grew the sup-norm change to 8.434e-02 "
                                   "at damping 0.015625 (n = 3, theta = 0.6, eta0 = 1.2)")


class TestExtension:
    def test_positive_and_long(self, curve_1e3):
        assert curve_1e3.eta_max == pytest.approx(1e3)
        assert np.all(curve_1e3.zeta > 0)

    def test_I_consistency(self, curve_1e3):
        # stored I equals an independent quadrature of (s+1)/zeta, and is
        # monotone (positive integrand), negative below eta0
        from scipy.integrate import cumulative_simpson
        assert np.all(np.diff(curve_1e3.I) > 0)
        assert curve_1e3.I[0] < 0 < curve_1e3.I[-1]
        sel = curve_1e3.eta >= ETA0
        eta, zeta, I = (curve_1e3.eta[sel], curve_1e3.zeta[sel], curve_1e3.I[sel])
        I_quad = cumulative_simpson((eta + 1) / zeta, x=eta, initial=0.0)
        assert np.max(np.abs(I_quad - I)) / np.max(np.abs(I)) < 1e-8

    def test_phase_residual_on_extension(self, curve_1e3):
        # |residual| < 1e-6 (1 + |terms|) with zeta' from finite differences
        sel = (curve_1e3.eta > ETA0 * 1.01) & (curve_1e3.eta < 990)
        eta, zeta, I = (curve_1e3.eta[sel], curve_1e3.zeta[sel], curve_1e3.I[sel])
        dz = np.gradient(zeta, eta, edge_order=2)
        res = phase_residual(eta, zeta, dz, I, curve_1e3.params)
        theta = curve_1e3.params.theta
        terms = (np.abs(zeta * dz) + (theta + 1) * zeta**2 / eta
                 + np.abs(curve_1e3.params.lambda3) * eta**2 * np.exp(I))
        assert np.max(np.abs(res) / (1.0 + terms)) < 1e-6

    def test_monotone_family_pointwise(self, curve_1e3):
        smaller = extend_global(fixed_point_solve(2, 0.55, 1.025), eta_max=50.0)
        e = np.geomspace(1.2, 45.0, 60)
        z_small = np.interp(e, smaller.eta, smaller.zeta)
        z_big = np.interp(e, curve_1e3.eta, curve_1e3.zeta)
        assert np.all(z_small <= z_big * (1 + 1e-6))

    def test_positivity_loss_detected(self):
        # a synthetic local state in a regime where the zero-order term
        # drags the curve down to zero
        params = ModelParams(n=3, theta=0.4, lambda3=-1e-6, eta0=1.05)
        taylor = TaylorData(d1=2.0, alpha=0.0, beta=0.0, gamma=0.0)
        eta = np.linspace(1.0001, 1.05, 200)
        curve = PhaseCurve(params=params, taylor=taylor, eta=eta,
                           zeta=0.1 * np.ones_like(eta),
                           I=np.zeros_like(eta))
        from affmax.negative_pair import LocalSolve
        stub = LocalSolve(curve=curve, lambda_cal=1e-6, iterations=0,
                          contraction_history=[], taylor_measured=taylor,
                          taylor_formula=taylor)
        with pytest.raises(PositivityLoss):
            extend_global(stub, eta_max=100.0)


class TestGrowthBounds:
    def test_flagship_bounds(self, curve_1e5):
        rep = growth_bounds_check(curve_1e5)
        assert rep["rho"] == pytest.approx(2.0, abs=1e-3)
        assert rep["rho_holds"]
        assert rep["lower_quadratic_holds"] and rep["eps0"] > 0.5
        assert rep["upper_claimed"]
        assert rep["upper_holds"] and rep["eta2"] is not None
        assert 1e3 < rep["eta2"] < 1e4
        assert rep["oscillates_about_eta_sq"]

    def test_positive_margins(self, curve_1e5):
        rep = growth_bounds_check(curve_1e5)
        eta, zeta = curve_1e5.eta, curve_1e5.zeta
        assert np.min(zeta - 0.999 * rep["rho"] * (eta - 1.0)) > 0
        sel = eta >= rep["eta1"]
        assert np.min(zeta[sel] - rep["eps0"] * eta[sel] ** 2) > 0
        sel2 = eta >= rep["eta2"]
        assert np.max(zeta[sel2] / eta[sel2] ** 2) < 1.0

    def test_upper_bound_not_claimed_outside_range(self, curve_1e5):
        clone = PhaseCurve(params=ModelParams(n=2, theta=0.7, lambda3=-0.1,
                                              eta0=ETA0),
                           taylor=curve_1e5.taylor, eta=curve_1e5.eta,
                           zeta=curve_1e5.zeta, I=curve_1e5.I)
        rep = growth_bounds_check(clone)
        assert not rep["upper_claimed"]  # theta = 0.7 >= n/(n+1)

    def test_degenerate_linear_curve(self):
        # zeta = 2(eta-1): rho = 2 but no quadratic lower bound
        eta = np.geomspace(1.05, 1e4, 4000)
        curve = PhaseCurve(
            params=ModelParams(n=2, theta=0.55, eta0=1.05),
            taylor=TaylorData(2.0, 0.0, 0.0, 0.0),
            eta=eta, zeta=2.0 * (eta - 1.0), I=np.zeros_like(eta))
        rep = growth_bounds_check(curve)
        assert rep["rho"] == pytest.approx(2.0, rel=1e-6)
        assert rep["eps0"] < 1e-3  # quadratic lower bound has no real content


class TestBlowupTime:
    def test_synthetic_quadratic(self):
        # zeta = eta^2 from eta0 = 2 to 1e4: the scanned integral is
        # 1/2 - 1e-4, and the tail bound takes 0.9 of zeta/eta^2 = 1
        eta = np.geomspace(2.0, 1e4, 60000)
        curve = PhaseCurve(params=ModelParams(n=2, theta=0.55, eta0=2.0),
                           taylor=TaylorData(2.0, 0, 0, 0),
                           eta=eta, zeta=eta**2, I=np.zeros_like(eta))
        T, tail = blowup_time(curve)
        assert tail == pytest.approx(1.0 / (0.9 * 1e4), rel=1e-6)
        assert T == pytest.approx(0.5 - 1e-4 + tail, abs=1e-6)

    def test_log_divergent_curve_raises(self):
        eta = np.geomspace(1.05, 1e4, 4000)
        curve = PhaseCurve(params=ModelParams(n=2, theta=0.55, eta0=1.05),
                           taylor=TaylorData(2.0, 0, 0, 0),
                           eta=eta, zeta=2.0 * (eta - 1.0), I=np.zeros_like(eta))
        with pytest.raises(TailUnbounded):
            blowup_time(curve)

    def test_flagship_tail(self, curve_1e3, curve_2e3):
        T1, tail1 = blowup_time(restrict(curve_1e3, 1e3))
        assert tail1 < 1e-3 * T1
        T2, _ = blowup_time(restrict(curve_2e3, 2e3))
        assert abs(T2 - T1) < tail1


# ---------------------------------------------------------------------------
# batched windowed fits against the per-window lstsq loop they replaced


def lstsq_local_derivatives(x, y, centers, window):
    d1 = np.empty(len(centers))
    d2 = np.empty(len(centers))
    d3 = np.empty(len(centers))
    for i, c in enumerate(centers):
        sel = np.abs(x - c) <= window / 2
        xs, ys = x[sel] - c, y[sel]
        cols = np.vstack([np.ones_like(xs), xs, xs**2, xs**3, xs**4]).T
        norm = np.linalg.norm(cols, axis=0)
        coef, *_ = np.linalg.lstsq(cols / norm, ys, rcond=None)
        coef /= norm
        d1[i], d2[i], d3[i] = coef[1], 2.0 * coef[2], 6.0 * coef[3]
    return d1, d2, d3


def test_sparse_window_is_grid_too_coarse():
    # 41 samples over [0, 0.05]: the windows of width 0.01 hold 7 to 9,
    # except the one at 0.03 in the gap cut below, which holds none
    x = np.linspace(0.0, 0.05, 41)
    x = x[(x < 0.0249) | (x > 0.0351)]
    centers = [0.01, 0.02, 0.03, 0.04]
    with pytest.raises(GridTooCoarse, match=r"window centred at x = 0\.03 holds 0 of"):
        negative_pair.local_derivatives(x, x**2, centers, window=0.01)
    # three samples a window are two short of a quartic, five are enough
    x = np.linspace(0.0, 0.05, 21)
    with pytest.raises(GridTooCoarse, match=r"window centred at x = 0\.01 holds 3 of"):
        negative_pair.local_derivatives(x, x**2, centers, window=0.006)
    d1, d2, d3 = negative_pair.local_derivatives(x, x**2, centers, window=0.012)
    assert np.allclose(d1, 2 * np.array(centers)) and np.allclose(d2, 2.0)


def test_band_check_on_a_sparse_grid_is_grid_too_coarse(local_solve):
    # every 100th sample: the Taylor fit has its samples, the outer windows not
    eta = np.concatenate([[1.0], local_solve.curve.eta])[::100]
    phi = np.concatenate([[0.0], local_solve.curve.zeta])[::100]
    spec = GammaSetSpec(eta0=ETA0, alpha=1.0, beta=0.0, gamma=0.0)
    with pytest.raises(GridTooCoarse, match="window centred at x = "):
        spec.check(eta, phi, local_solve.taylor_measured)


@pytest.mark.parametrize("theta", [THETA] + np.linspace(0.51, 0.65, 16).tolist())
def test_batched_local_derivatives_match_lstsq_loop(monkeypatch, theta):
    batched = negative_pair.local_derivatives
    pairs = []

    def compared(x, y, centers, window):
        got = batched(x, y, centers, window)
        pairs.append((got, lstsq_local_derivatives(x, y, centers, window)))
        return got

    sol = fixed_point_solve(N, theta, ETA0)
    spec = GammaSetSpec(eta0=ETA0, alpha=sol.taylor_formula.alpha,
                        beta=sol.taylor_formula.beta, gamma=sol.taylor_measured.gamma)
    eta = np.concatenate([[1.0], sol.curve.eta])
    phi = np.concatenate([[0.0], sol.curve.zeta])
    verdicts = []
    for impl in (compared, lstsq_local_derivatives):
        monkeypatch.setattr(negative_pair, "local_derivatives", impl)
        origin = origin_compatibility(sol.curve)
        verdicts.append((spec.check(eta, phi, sol.taylor_measured)["conditions"],
                         {k: v for k, v in origin.items() if isinstance(v, bool)},
                         origin["zeta_ddd_sign"]))
    assert verdicts[0] == verdicts[1]
    assert len(pairs) == 2
    for (d1, d2, d3), (r1, r2, r3) in pairs:
        np.testing.assert_allclose(d1, r1, rtol=1e-9, atol=0)
        np.testing.assert_allclose(d2, r2, rtol=1e-9, atol=0)
        # d3 weighs a term about 1e-7 of y in each window: the lstsq loop's
        # own d3 is a few 1e-9 off a 50-digit solve of the same windows
        np.testing.assert_allclose(d3, r3, rtol=0, atol=1e-7)
