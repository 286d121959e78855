import io

import numpy as np
import pytest

from affmax.core import (AnalyticEvaluator, ModelParams, RadialProfile,
                         TaylorData, VerificationReport, effective_lambda_fit,
                         eigenvalue_from_lambda_prime, profile_to_phase,
                         radial_residual, read_columns, upper_bound_claimed)
from affmax.errors import (DegenerateProfile, InconsistentProfile,
                           NonConvexProfile, ParameterError)


def quadratic_profile(C=1.0, n=2, rmax=3.0):
    ev = AnalyticEvaluator(lambda r: 2 * C * r,
                           [lambda r: 2 * C, lambda r: 0.0, lambda r: 0.0])
    r = np.linspace(0.0, rmax, 31)
    return RadialProfile(r=r, v=2 * C * r, u=C * r**2, n=n, evaluator=ev)


def poly_profile(rmax=2.0):
    # u = r^2 + 0.1 r^4  ->  v = 2r + 0.4 r^3
    ev = AnalyticEvaluator(lambda r: 2 * r + 0.4 * r**3,
                           [lambda r: 2 + 1.2 * r**2,
                            lambda r: 2.4 * r,
                            lambda r: 2.4 + 0 * r])
    r = np.linspace(0.0, rmax, 41)
    return RadialProfile(r=r, v=2 * r + 0.4 * r**3, u=r**2 + 0.1 * r**4,
                         n=2, evaluator=ev)


def limit_check(curve) -> bool:
    """zeta -> 0 and zeta/(eta-1) -> d1 as eta -> 1+, to 1e-2 on the first samples."""
    k = min(8, len(curve.eta))
    ratio = curve.zeta[:k] / (curve.eta[:k] - 1.0)
    return bool(curve.zeta[0] < 1e-2 and np.all(np.abs(ratio - curve.taylor.d1)
                                                 < 1e-2 * max(1.0, curve.taylor.d1)))


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ModelParams(n=0, theta=0.5)
        with pytest.raises(ParameterError):
            ModelParams(n=2, theta=-1.0)
        with pytest.raises(ParameterError):
            ModelParams(n=2, theta=0.5, eta0=1.0)

    def test_negative_pair_hypotheses(self):
        ModelParams(n=2, theta=0.55).require_negative_pair()
        assert upper_bound_claimed(2, 0.55)
        with pytest.raises(ParameterError):
            ModelParams(n=6, theta=0.55).require_negative_pair()
        # theta outside [1/n, n/(n+1)) for the upper bound
        assert not upper_bound_claimed(2, 0.7)


class TestRadialResidual:
    def test_quadratic_is_exact_zero(self):
        # every term of the operator vanishes separately on u = C r^2
        for C in (0.5, 1.0, 3.0):
            for n in (1, 2, 4):
                for theta in (0.55, 0.75, 1.5):
                    res = radial_residual(quadratic_profile(C, n), theta, n, 0.0,
                                          nodes=[0.5, 1.0, 2.0])
                    assert np.max(np.abs(res)) < 1e-12

    def test_power_profile_r8(self):
        # u = r^8 solves the source equation in dimension 4 at theta = 5/6
        p = 8

        def mono(j):
            c = 1.0
            for i in range(j):
                c *= (p - 1 - i)
            return lambda r, c=c, q=p - 1 - j: p * c * r**q

        ev = AnalyticEvaluator(mono(0), [mono(1), mono(2), mono(3)])
        r = np.linspace(0.25, 4.0, 31)
        prof = RadialProfile(r=r, v=mono(0)(r), u=r**p, n=4, evaluator=ev)
        res = radial_residual(prof, 5.0 / 6.0, 4, 0.0, nodes=[0.5, 1.0, 2.0])
        assert np.max(np.abs(res)) < 1e-6

    def test_poly_value_against_independent_oracle(self):
        # residual of u = r^2 + 0.1 r^4 at r = 1, theta = 3/4, n = 2:
        # independently recomputed from the exact polynomial derivatives
        u1, u2, u3, u4 = 2.4, 3.2, 2.4, 2.4
        theta, n, r = 0.75, 2, 1.0
        oracle = (-u4 + (theta + 1) * u3**2 / u2
                  + 2 * (n - 1) * u3 * ((theta - 1) * u2 / u1 - theta / r)
                  + (n - 1) * u2 * (u2 / u1 - 1 / r)
                  * (((n - 1) * theta - (n - 2)) * u2 / u1 - ((n - 1) * theta - 1) / r))
        assert abs(oracle - (-187.0 / 60.0)) < 1e-12
        res = radial_residual(poly_profile(), theta, n, 0.0, nodes=[1.0])
        assert abs(res[0] - oracle) < 1e-6
        assert abs(res[0]) > 1.0  # nonzero residual, far from machine zero

    def test_values_only_profile_raises(self):
        # strip the derivative chain: with only v values there is no rule for v'
        base = poly_profile()
        ev = AnalyticEvaluator(base.evaluator.v)
        prof = RadialProfile(r=base.r, v=base.v, u=base.u, n=2, evaluator=ev)
        with pytest.raises(ParameterError, match="no rule for v'$"):
            radial_residual(prof, 0.75, 2, 0.0, nodes=[1.0])
        for k in (0, 4):
            with pytest.raises(ParameterError, match="order must be 1, 2 or 3"):
                base.v_deriv_at(1.0, k)

    def test_nonconvex_raises(self):
        # v = r - r^3 has u'' = 1 - 3 r^2 < 0 at r = 1
        ev = AnalyticEvaluator(lambda r: r - r**3,
                               [lambda r: 1 - 3 * r**2, lambda r: -6 * r,
                                lambda r: -6.0])
        r = np.linspace(0.0, 1.2, 13)
        prof = RadialProfile(r=r, v=r - r**3, u=r**2 / 2 - r**4 / 4, n=2,
                             evaluator=ev)
        with pytest.raises(NonConvexProfile):
            radial_residual(prof, 0.75, 2, 0.0, nodes=[1.0])


class TestProfileToPhase:
    def test_quadratic_degenerate_branch(self):
        eta, zeta = profile_to_phase(quadratic_profile())
        assert np.max(np.abs(eta - 1.0)) < 1e-9
        assert np.max(np.abs(zeta)) < 1e-7

    def test_power_profile_stationary(self):
        # v = 8 r^7: eta = 7 and zeta = 0; matches the stationary value
        # (n theta - 1)/(n theta - (n-1)) = 7 at n = 4, theta = 5/6
        ev = AnalyticEvaluator(lambda r: 8 * r**7, [lambda r: 56 * r**6])
        r = np.linspace(0.0, 2.0, 41)
        prof = RadialProfile(r=r, v=8 * r**7, u=r**8, n=4, evaluator=ev)
        eta, zeta = profile_to_phase(prof)
        n, theta = 4, 5.0 / 6.0
        stat = (n * theta - 1) / (n * theta - (n - 1))
        assert abs(stat - 7.0) < 1e-12
        assert np.max(np.abs(eta - 7.0)) < 1e-8
        assert np.max(np.abs(zeta)) < 1e-5

    def test_exponential_closed_form(self):
        # v = r e^r: eta(r) = 1 + r, zeta(eta) = eta - 1
        ev = AnalyticEvaluator(lambda r: r * np.exp(r))
        r = np.linspace(0.0, 2.0, 41)
        prof = RadialProfile(r=r, v=r * np.exp(r), u=(r - 1) * np.exp(r) + 1,
                             n=1, evaluator=ev)
        eta, zeta = profile_to_phase(prof)
        nodes = prof.r[prof.r >= 1e-3]
        assert np.max(np.abs(eta - (1 + nodes))) < 1e-8
        assert np.max(np.abs(zeta - (eta - 1))) < 1e-5

    def test_r_floor_exclusion(self):
        prof = quadratic_profile()
        eta, _ = profile_to_phase(prof, r_floor=1.0)
        assert len(eta) == np.sum(prof.r >= 1.0)

    def test_degenerate_profile_raises(self):
        r = np.linspace(0.5, 1.5, 11)
        v = r * (1 - r)  # vanishes at r = 1 (interior node)
        prof = RadialProfile(r=r, v=v, u=np.zeros_like(r), n=2,
                             evaluator=AnalyticEvaluator(lambda x: x * (1 - x)))
        with pytest.raises(DegenerateProfile):
            profile_to_phase(prof, r_floor=0.1)


class TestEffectiveLambdaFit:
    def test_quadratic_zero(self):
        lam, spread = effective_lambda_fit(quadratic_profile(), 0.75, 2,
                                           nodes=[0.5, 1.0, 2.0])
        assert lam == pytest.approx(0.0, abs=1e-13)
        assert spread < 1e-12

    def test_inconsistent_profile_raises(self):
        with pytest.raises(InconsistentProfile):
            effective_lambda_fit(poly_profile(), 0.75, 2,
                                 nodes=np.linspace(0.5, 1.5, 7))

    def test_eigenvalue_conversion(self):
        assert eigenvalue_from_lambda_prime(2.0, 0.55) == pytest.approx(1.1)


class TestSerialization:
    def test_profile_requires_an_evaluator(self):
        with pytest.raises(TypeError):
            RadialProfile(r=[0.0, 1.0], v=[0.0, 2.0], u=[0.0, 1.0], n=1)

    def test_profile_csv_round_trip(self):
        prof = poly_profile()
        buf = io.StringIO()
        prof.to_csv(buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "r,v,u"
        _, (r, v, u) = read_columns(io.StringIO(text), header=["r", "v", "u"])
        assert np.array_equal(r, prof.r)
        assert np.array_equal(v, prof.v)
        assert np.array_equal(u, prof.u)

    def test_curve_csv_round_trip(self, curve_1e3):
        from affmax.core import PhaseCurve
        buf = io.StringIO()
        curve_1e3.to_csv(buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "eta,zeta,I"
        back = PhaseCurve.from_csv(io.StringIO(text))
        assert np.array_equal(back.eta, curve_1e3.eta)
        assert np.array_equal(back.zeta, curve_1e3.zeta)
        assert back.params.eta0 == pytest.approx(1.05, abs=1e-12)
        assert back.taylor.d1 == pytest.approx(2.0, abs=1e-6)

    def test_report_rejects_negative_stats(self):
        with pytest.raises(ParameterError):
            VerificationReport(residual_max=-1.0, residual_mean=0.0,
                               convexity_margin=1.0, blowup={},
                               effective_lambda={}, residuals=[])


class TestPhaseCurveType:
    def test_limit_check(self, local_solve):
        assert limit_check(local_solve.curve)

    @pytest.mark.parametrize("cut", ["zeta", "I"])
    def test_unequal_columns_rejected(self, curve_1e3, cut):
        from affmax.core import PhaseCurve
        cols = {"eta": curve_1e3.eta, "zeta": curve_1e3.zeta, "I": curve_1e3.I}
        cols[cut] = cols[cut][:-5]
        lengths = [len(cols[k]) for k in ("eta", "zeta", "I")]
        message = "hold {}, {}, {} values".format(*lengths)
        with pytest.raises(ParameterError, match=message):
            PhaseCurve(params=curve_1e3.params, taylor=curve_1e3.taylor, **cols)
        with pytest.raises(ParameterError, match=message):
            PhaseCurve.from_columns(**cols, n=2, theta=0.55)

    @pytest.mark.parametrize("keep", ["before", "after"])
    def test_curve_without_its_anchor_row_is_refused(self, curve_1e3, keep):
        # np.interp clamped eta0 to an end row of a curve cut short of it
        from affmax.core import PhaseCurve
        sel = curve_1e3.I < 0 if keep == "before" else curve_1e3.I > 0
        cols = {k: getattr(curve_1e3, k)[sel] for k in ("eta", "zeta", "I")}
        with pytest.raises(ParameterError, match="I is 0 at 0 rows, not at one eta0"):
            PhaseCurve.from_columns(**cols, n=2, theta=0.55)
        whole = PhaseCurve.from_columns(curve_1e3.eta, curve_1e3.zeta, curve_1e3.I)
        assert whole.params.eta0 == 1.05

    def test_monotone_eta_required(self):
        with pytest.raises(ParameterError):
            from affmax.core import PhaseCurve
            PhaseCurve(params=ModelParams(n=2, theta=0.55),
                       taylor=TaylorData(2, 0, 0, 0),
                       eta=np.array([1.2, 1.1]), zeta=np.array([1.0, 1.0]),
                       I=np.zeros(2))
