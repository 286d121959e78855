import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmax.core import AnalyticEvaluator, ModelParams, RadialProfile, radial_residual
from affmax.errors import ParameterError
from affmax.phase_plane import (bernstein_radial_check, coef_linear, coef_zero,
                                phase_field, phase_residual,
                                power_solution_residual)


def brute_force_field(eta, zeta, n, theta):
    """zeta' from the unforced phase equation, evaluated term by term."""
    A = (2 * n * theta - (2 * n - 1)) * eta - (2 * n * theta - 1)
    B = n * eta * (eta - 1) * ((n * theta - (n - 1)) * eta - (n * theta - 1))
    return ((theta + 1) * zeta**2 / eta + zeta * A + B) / zeta


def ref_phase_field(eta, zeta, I, params):
    """The field as one expression of the coefficient functions, the
    form the closure phase_field(params) replaced."""
    n, theta = params.n, params.theta
    return ((theta + 1) * zeta / eta + coef_linear(eta, n, theta)
            + coef_zero(eta, n, theta) / zeta
            - params.lambda3 * eta * eta * math.exp(I) / zeta,
            (eta + 1) / zeta)


def stationary_eta(n: int, theta: float) -> set:
    """Stationary values of eta: always 1, plus the root of coef_q.

    The second value (n th - 1)/(n th - (n-1)) corresponds to the power
    profile u ~ r^(eta*+1); it is returned when defined and positive.
    """
    out = {1.0}
    den = n * theta - (n - 1)
    if den != 0:
        root = (n * theta - 1) / den
        if root > 0:
            out.add(float(root))
    return out


class TestPhaseRHS:
    def test_frozen_value(self):
        # n = 2, theta = 3/4 at (eta, zeta) = (2, 1): dzeta/deta = 7/8
        p = ModelParams(n=2, theta=0.75, lambda3=0.0)
        dz, dI = phase_field(p)(2.0, 1.0, 0.0)
        assert dz == pytest.approx(7.0 / 8.0, abs=1e-14)
        assert dI == pytest.approx(3.0, abs=1e-14)

    def test_unforced_reduction_identity(self):
        # lambda3 = 0 reproduces the source field at every sampled point
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5):
            for theta in (0.55, 0.75, 1.0, 1.6):
                field = phase_field(ModelParams(n=n, theta=theta, lambda3=0.0))
                for _ in range(20):
                    eta = 1.0 + 3.0 * rng.random()
                    zeta = 0.05 + 2.0 * rng.random()
                    dz, _ = field(eta, zeta, rng.normal())
                    assert dz == pytest.approx(
                        brute_force_field(eta, zeta, n, theta), rel=1e-14)

    def test_eta_one_kills_cubic_term(self):
        # the zero-order term carries an (eta - 1) factor
        for n in (2, 3, 4):
            assert coef_zero(1.0, n, 0.66) == 0.0

    def test_forcing_term_sign(self):
        # negative lambda3 pushes the field up by |lambda3| eta^2 e^I / zeta
        base = ModelParams(n=2, theta=0.55, lambda3=0.0)
        forced = ModelParams(n=2, theta=0.55, lambda3=-0.5)
        dz0, _ = phase_field(base)(1.5, 0.8, 0.2)
        dz1, _ = phase_field(forced)(1.5, 0.8, 0.2)
        assert dz1 - dz0 == pytest.approx(0.5 * 1.5**2 * np.exp(0.2) / 0.8, rel=1e-14)

    @settings(max_examples=200)
    @given(eta=st.floats(1.0, 1e6, exclude_min=True), n=st.integers(1, 5),
           theta=st.floats(0.5, 1.6, exclude_min=True, exclude_max=True))
    def test_scalar_coefficients_match_array_ones(self, eta, n, theta):
        # the Bernstein check calls these on floats; the fixed-point map
        # and phase_residual call them on arrays: the two must agree bit
        # for bit
        arr = np.array([eta])
        for coef in (coef_linear, coef_zero):
            got, want = coef(eta, n, theta), coef(arr, n, theta)[0]
            assert np.float64(got).tobytes() == want.tobytes()

    @settings(max_examples=300)
    @given(n=st.integers(1, 7),
           theta=st.floats(0.5, 1.6, exclude_min=True, exclude_max=True),
           lambda3=st.one_of(st.just(0.0), st.floats(-50.0, 50.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_closure_equals_reference_bitwise(self, n, theta, lambda3, seed):
        # the closure forms A's and q's coefficients and theta + 1 once;
        # every value must still be the reference expression's, bit for bit
        p = ModelParams(n=n, theta=theta, lambda3=lambda3)
        field = phase_field(p)
        rng = np.random.default_rng(seed)
        for _ in range(50):
            eta = 10.0 ** rng.uniform(-3.0, 6.0)
            zeta = (1.0 if rng.random() < 0.5 else -1.0) * 10.0 ** rng.uniform(-8.0, 12.0)
            I = rng.uniform(-30.0, 30.0)
            got, want = field(eta, zeta, I), ref_phase_field(eta, zeta, I, p)
            assert [float.hex(v) for v in got] == [float.hex(v) for v in want]

    def test_residual_form_consistency(self):
        p = ModelParams(n=2, theta=0.55, lambda3=-0.4)
        dz, _ = phase_field(p)(1.7, 0.6, -0.3)
        assert phase_residual(1.7, 0.6, dz, -0.3, p) == pytest.approx(0.0, abs=1e-13)


class TestStationaryEta:
    def test_power_value(self):
        vals = sorted(stationary_eta(4, 5.0 / 6.0))
        assert vals == pytest.approx([1.0, 7.0], abs=1e-12)

    def test_coincident_roots(self):
        assert stationary_eta(2, 0.75) == {1.0}

    def test_n1_degenerate(self):
        for theta in (0.5, 0.75, 1.0):
            assert stationary_eta(1, theta) == {1.0}

    def test_zero_order_term_vanishes_at_stationary_points(self):
        for n in (2, 3, 4, 5):
            for theta in (0.6, 5.0 / 6.0, 1.2):
                for star in stationary_eta(n, theta):
                    assert abs(coef_zero(star, n, theta)) < 1e-12 * max(1.0, star**3)


class TestBernsteinRadial:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("theta", [0.6, 0.75, 1.0, 1.5])
    def test_lattice_passes(self, n, theta):
        rep = bernstein_radial_check(n, theta, (1.0001, 1.05), samples=50)
        assert rep["pass"]
        assert all(w["forced_sign"] == "-" for w in rep["witnesses"])

    def test_below_one_branch(self):
        rep = bernstein_radial_check(3, 0.6, (0.95, 0.9999), samples=40)
        assert rep["pass"]
        assert all(w["forced_sign"] == "+" for w in rep["witnesses"])

    def test_stationary_crossing_reported(self):
        rep = bernstein_radial_check(4, 5.0 / 6.0, (6.9, 7.1), samples=30)
        assert rep["stationary_crossings"]  # eta* = 7 sits inside the window
        assert rep["pass"]

    def test_dimension_guard(self):
        with pytest.raises(ParameterError):
            bernstein_radial_check(2, 1.0, (1.001, 1.05))

    def test_window_must_exclude_one(self):
        with pytest.raises(ParameterError):
            bernstein_radial_check(3, 1.0, (0.99, 1.01))

    def test_report_is_json_ready(self):
        import json
        rep = bernstein_radial_check(3, 1.0, (1.001, 1.05), samples=10)
        json.dumps(rep)


class TestPowerSolutions:
    def test_k2(self):
        res = power_solution_residual(2, 5.0 / 6.0, 1.0, [0.5, 1.0, 2.0])
        assert np.max(np.abs(res)) < 1e-6

    def test_k3_scaled(self):
        res = power_solution_residual(3, 7.0 / 8.0, 2.0, [1.0])
        assert np.max(np.abs(res)) < 1e-6

    def test_theta_guard(self):
        with pytest.raises(ParameterError):
            power_solution_residual(2, 5.0 / 6.0 + 1e-2, 1.0, [1.0])

    def test_perturbed_theta_residual_nonzero(self):
        # same power profile, evaluated off the self-similar exponent
        p = 8

        def mono(j):
            c = 1.0
            for i in range(j):
                c *= (p - 1 - i)
            return lambda r, c=c, q=p - 1 - j: p * c * r**q

        ev = AnalyticEvaluator(mono(0), [mono(1), mono(2), mono(3)])
        r = np.linspace(0.25, 4.0, 17)
        prof = RadialProfile(r=r, v=mono(0)(r), u=r**p, n=4, evaluator=ev)
        res = radial_residual(prof, 5.0 / 6.0 + 1e-2, 4, 0.0, nodes=[1.0])
        assert abs(res[0]) > 0.1

    def test_origin_excluded(self):
        with pytest.raises(ParameterError):
            power_solution_residual(2, 5.0 / 6.0, 1.0, [0.0, 1.0])
