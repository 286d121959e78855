import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affmax.core import effective_lambda_fit
from affmax.errors import DomainError, NoConvergence, ParameterError
from affmax.fd import one_sided_derivative
from affmax.positive_pair import (PositivePairConfig, _curvature_table,
                                  _table_range, build_phi, phi_grid)

from oracles import (integrate_direct, negative_pair_blowup_1d,
                     quadrature_r_of_v, v_of_r)

CFG = PositivePairConfig(v0=1.0, lam=0.05, theta=0.55)  # a = 1
# (v0, lambda, theta, rmax) of the curvature table's fixed cases
TABLE_CASES = [(1.0, 1.0, 0.55, 10.0), (0.3, 2.5, 0.62, 40.0), (4.0, 0.2, 1.3, 3.0)]


def lower_bound_v(r, config: PositivePairConfig):
    """Curvature lower bound 4 / (2/sqrt(v0) + sqrt(a) r)^2."""
    r = np.asarray(r, dtype=float)
    return 4.0 / (2.0 / math.sqrt(config.v0) + math.sqrt(config.a) * r) ** 2


def midpoint_oracle_r_of_v(v, cfg, panels=10**6):
    """Independent brute-force panel quadrature for r(v).

    Midpoint rule on the endpoint-desingularised variable s = v0(1-t^2),
    written without reusing any package helpers.
    """
    t_up = math.sqrt(1.0 - v / cfg.v0)
    t = (np.arange(panels) + 0.5) * (t_up / panels)
    z = 1.0 - t * t
    h = -np.expm1((2 * cfg.theta - 1.0) * np.log1p(-t * t)) / (t * t)
    f = 2.0 / (math.sqrt(cfg.v0) * z**1.5 * np.sqrt(h))
    return float(np.sum(f)) * (t_up / panels) / math.sqrt(cfg.a)


def closed_form(config, piece, x):
    """(r, u') of phi at a row of its curvature table, from the closed form

        r  = 2 sqrt(z) 2F1(1 + 1/(2p), 1/2; 3/2; z) / (p sqrt(a v0)),
        u' = sqrt(v0/a) / p * B(z; 1/2, 1/(2p)),

    with p = 2 theta - 1 and z = 1 - (v/v0)^p, in mpmath.  The row is
    piece "t" at x = t, v = v0 (1 - t^2), or piece "y" at x = y = -log v.
    z comes from x, not from v: at t = 1e-8 the rounding of v alone would
    put an error of 17 % on r.
    """
    p = 2 * config.theta - 1.0
    log_w = p * (math.log1p(-x * x) if piece == "t" else -x - math.log(config.v0))
    # enough digits that (v/v0)^p = 1 - z keeps 25 of them
    with mpmath.workdps(25 + int(-log_w / math.log(10))):
        x, v0, p = mpmath.mpf(x), mpmath.mpf(config.v0), 2 * mpmath.mpf(config.theta) - 1
        a = 2 * mpmath.mpf(config.lam) / p
        z = -mpmath.expm1(p * (mpmath.log1p(-x * x) if piece == "t"
                               else -x - mpmath.log(v0)))
        r = 2 * mpmath.sqrt(z) * mpmath.hyp2f1(1 + 1 / (2 * p), 0.5, 1.5, z) / (
            p * mpmath.sqrt(a * v0))
        up = mpmath.sqrt(v0 / a) / p * mpmath.betainc(0.5, 1 / (2 * p), 0, z)
        return float(r), float(up)


class TestConfig:
    def test_derived_a(self):
        assert CFG.a == pytest.approx(1.0)
        assert PositivePairConfig(1.0, 1.0, 0.55).a == pytest.approx(20.0)

    def test_theta_guard(self):
        with pytest.raises(ParameterError):
            PositivePairConfig(v0=1.0, lam=1.0, theta=0.5)

    def test_radicand_vanishes_at_v0(self):
        assert CFG.radicand(CFG.v0) == pytest.approx(0.0, abs=1e-15)


class TestQuadrature:
    def test_r_to_zero_as_v_to_v0(self):
        assert quadrature_r_of_v(CFG.v0 * (1 - 1e-12), CFG) < 1e-5

    def test_r_diverges_as_v_to_zero(self):
        # the full integral diverges; small v already gives large r
        assert quadrature_r_of_v(1e-8, CFG) > 1e3

    def test_against_midpoint_oracle(self):
        r = quadrature_r_of_v(0.5, CFG)
        oracle = midpoint_oracle_r_of_v(0.5, CFG)
        assert abs(r - oracle) < 1e-8

    def test_domain_error(self):
        with pytest.raises(DomainError):
            quadrature_r_of_v(1.5, CFG)
        with pytest.raises(DomainError):
            quadrature_r_of_v(0.0, CFG)


class TestInversion:
    def test_v_at_zero(self):
        assert v_of_r(0.0, CFG) == CFG.v0

    def test_round_trip(self):
        for r in (0.1, 1.0, 10.0):
            tol = 1e-10
            v = v_of_r(r, CFG, tol=tol)
            assert abs(quadrature_r_of_v(v, CFG) - r) < 2 * tol

    def test_strictly_decreasing(self):
        vals = [v_of_r(r, CFG) for r in (0.0, 0.1, 1.0, 10.0, 30.0)]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))

    def test_lower_bound(self):
        for r in (0.1, 1.0, 5.0, 20.0):
            assert v_of_r(r, CFG) > lower_bound_v(r, CFG)

    def test_iteration_cap(self):
        with pytest.raises(NoConvergence):
            v_of_r(1.0, CFG, tol=1e-14, max_iter=3)


class TestDirectIntegration:
    def test_start_is_degenerate(self):
        # v'(0) = 0 exactly: the radicand vanishes at v = v0
        assert CFG.vpp_prime(CFG.v0) == pytest.approx(0.0, abs=1e-12)

    def test_initial_curvature_formula(self):
        # v''(0) = a v0^2 (1/2 - theta) < 0 for theta > 1/2
        v2 = CFG.vpp_second(CFG.v0)
        assert v2 == pytest.approx(CFG.a * CFG.v0**2 * (0.5 - CFG.theta), rel=1e-12)
        assert v2 < 0

    def test_cross_method_agreement(self):
        cfg = PositivePairConfig(v0=1.0, lam=0.05, theta=0.55)
        oracle, vpp_direct = integrate_direct(cfg, 10.0)
        vpp_quad = np.array([v_of_r(r, cfg, tol=1e-11) if r > 0 else cfg.v0
                             for r in oracle.r[::100]])
        assert np.max(np.abs(vpp_quad - vpp_direct[::100])) < 1e-6


@pytest.fixture(scope="module")
def phi():
    return build_phi(PositivePairConfig(1.0, 1.0, 0.55),
                     np.linspace(0.0, 10.0, 501))


class TestBuildPhi:

    def test_origin_normalisation(self, phi):
        assert phi.v_at(0.0) == pytest.approx(0.0, abs=1e-12)  # u'(0)
        assert phi.u[0] == 0.0

    def test_odd_derivatives_vanish(self, phi):
        # u'(0) and u'''(0) = v''(0) of the curvature chain
        u1 = one_sided_derivative(phi.evaluator.u, 0.0, 1, h=1e-3)
        u3 = one_sided_derivative(lambda r: phi.v_deriv_at(r, 1), 0.0, 1, h=1e-3)
        assert abs(u1) < 1e-6
        assert abs(u3) < 1e-6

    def test_u_grows_without_bound(self, phi):
        # the large condition: u increases, with positive slope at the edge
        u = phi.evaluator.u
        assert u(10.0) > u(5.0) > u(2.5) > 0
        assert (u(10.0) - u(9.0)) > 0
        # u/r is increasing toward its (finite) limit u'(inf)
        assert u(10.0) / 10.0 > u(5.0) / 5.0

    def test_eigenvalue_round_trip(self, phi):
        lam, spread = effective_lambda_fit(phi, 0.55, 1,
                                           nodes=np.linspace(0.5, 6.0, 9))
        assert abs(lam - 1.0) < 1e-4
        assert spread < 1e-6

    def test_radial_residual_vanishes(self, phi):
        from affmax.core import radial_residual
        res = radial_residual(phi, 0.55, 1, 1.0, nodes=np.linspace(0.5, 6.0, 9))
        scale = 1.0 + np.abs([phi.v_deriv_at(r, 1)**2 for r in np.linspace(0.5, 6, 9)])
        assert np.max(np.abs(res) / scale) < 1e-5

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ParameterError):
            build_phi(CFG, np.linspace(0.1, 5.0, 50))

    @pytest.mark.parametrize("rmax", [math.inf, -1.0, 0.0, math.nan])
    def test_rmax_must_be_positive_and_finite(self, rmax):
        with pytest.raises(ParameterError, match="rmax"):
            phi_grid(rmax, 11)

    @pytest.mark.parametrize("v0, lam, theta, r_max", TABLE_CASES)
    def test_spline_columns_agree(self, v0, lam, theta, r_max):
        # d(u')/dr = u'' and du/dr = u' between the evaluator's columns
        # (log u'', u', u), which all come from the table's quadrature rule
        ev = build_phi(PositivePairConfig(v0, lam, theta), phi_grid(r_max, 201)).evaluator
        r = np.linspace(0.01, 0.8 * r_max, 200_001)
        d_dr = ev._cols.derivative()(np.log1p(r)) / (1.0 + r)[:, None]
        assert np.max(np.abs(d_dr[:, 1] / ev.deriv(r, 1) - 1.0)) < 5e-10
        assert np.max(np.abs(d_dr[:, 2] / ev.v(r) - 1.0)) < 5e-10


class TestCurvatureTable:
    """The table's r and u' against phi's closed form."""

    # v0 and lambda over four decades, rmax over three, theta over the
    # paper's range (1/2, 1) and beyond.  The rule's error, measured at
    # most 6.8e-13 here, grows as the 6th power of the step: in y with
    # log(rmax sqrt(v0 a)) (2e-11 at rmax sqrt(v0 a) = 1e20), and in t as
    # t_first falls below 1e-8 (rmax sqrt(v0 lambda / 2) < 1e-2).
    @settings(max_examples=25, deadline=None)
    @example(*TABLE_CASES[0])
    @example(*TABLE_CASES[1])
    @example(*TABLE_CASES[2])
    @given(v0=st.floats(-2, 2).map(lambda e: 10.0 ** e),
           lam=st.floats(-2, 2).map(lambda e: 10.0 ** e),
           theta=st.floats(0.501, 1.3), r_max=st.floats(0, 3).map(lambda e: 10.0 ** e))
    def test_matches_closed_form(self, v0, lam, theta, r_max):
        config = PositivePairConfig(v0, lam, theta)
        r, vpp, v_up, u = _curvature_table(config, r_max)
        t, y = _table_range(config, r_max)
        assert len(r) == len(t) + len(y) - 1 <= 4000
        assert r[0] == v_up[0] == u[0] == 0.0 and r[-1] >= r_max
        assert np.all(np.diff(np.log1p(r)) > 0)       # the spline's sites
        assert np.array_equal(vpp, np.concatenate([v0 * (1 - t * t), np.exp(-y[1:])]))
        for piece, x, first in (("t", t, 0), ("y", y, len(t) - 1)):
            for i in np.unique(np.linspace(1, len(x) - 1, 120).astype(int)):
                want = closed_form(config, piece, float(x[i]))
                got = r[first + i], v_up[first + i]
                assert abs(got[0] / want[0] - 1.0) <= 1e-12
                assert abs(got[1] / want[1] - 1.0) <= 1e-12


class TestNegativePair1D:
    def test_finite_boundary_and_bounded_u(self):
        out = negative_pair_blowup_1d(1.0, 0.55, 1.0)
        assert np.isfinite(out["R"]) and out["R"] > 0
        assert np.isfinite(out["u_at_R"])

    def test_truncation_stability(self):
        # pushing the truncation out moves the estimates by less than the
        # reported tail bounds
        a = negative_pair_blowup_1d(1.0, 0.55, 1.0, vmax_factor=1e8)
        b = negative_pair_blowup_1d(1.0, 0.55, 1.0, vmax_factor=1e10)
        assert abs(a["R"] - b["R"]) < a["tail_r"]
        assert abs(a["u_at_R"] - b["u_at_R"]) < a["tail_u"]

    def test_theta_guard(self):
        with pytest.raises(ParameterError):
            negative_pair_blowup_1d(1.0, 0.5, 1.0)
