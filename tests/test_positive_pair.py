import math

import numpy as np
import pytest

from affmax.core import effective_lambda_fit
from affmax.errors import DomainError, NoConvergence, ParameterError
from affmax.fd import one_sided_derivative
from affmax.positive_pair import PositivePairConfig, build_phi, phi_grid

from oracles import (integrate_direct, negative_pair_blowup_1d,
                     quadrature_r_of_v, v_of_r)

CFG = PositivePairConfig(v0=1.0, lam=0.05, theta=0.55)  # a = 1


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
