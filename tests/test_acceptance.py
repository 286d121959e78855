"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` for one PASS line per
criterion.
"""

import math

import mpmath
import numpy as np

from affmax import (blowup_time, calibrate_lambda, effective_lambda_fit,
                    growth_bounds_check, rebuild_profile, taylor_coeffs)
from affmax.core import AnalyticEvaluator, RadialProfile, profile_to_phase
from affmax.phase_plane import (bernstein_radial_check, phase_residual,
                                power_solution_residual)
from affmax.reconstruct import t_of_eta
from affmax.verify import (assemble, bernstein_1d_check, completeness_check,
                           full_residual, residual_at)

from conftest import N, THETA, restrict
from oracles import integrate_direct


def _ok(k, text):
    print(f"\nACCEPTANCE {k}: PASS  ({text})")


def test_criterion_1_taylor_constant():
    a1 = taylor_coeffs(2, 0.75).alpha
    assert abs(a1 - 14.0 / 3.0) < 1e-12
    a2 = taylor_coeffs(2, 0.55).alpha
    assert abs(a2 - 62.0 / 15.0) < 1e-12
    _ok(1, f"alpha(2, 3/4) = {a1:.15g}, alpha(2, 0.55) = {a2:.15g}")


def test_criterion_2_calibration_limit():
    eta0 = 1.1
    eta = np.linspace(1.0, eta0, 4001)
    phi = 2.0 * (eta - 1.0)
    lam = calibrate_lambda(eta, phi, n=2, eta0=eta0)
    closed = 8.0 * (eta0 - 1.0) * math.exp((eta0 - 1.0) / 2.0)
    assert abs(lam - closed) < 1e-8
    products = {}
    for n, target in ((2, 4.0), (3, 5.5)):
        lam_n = calibrate_lambda(eta, phi, n=n, eta0=eta0)
        xs, vals = [1e-4, 1e-5, 1e-6], []
        for x in xs:
            I = mpmath.quad(lambda s: (s + 1) / (2 * (s - 1)), [eta0, 1 + x])
            vals.append(float(lam_n * mpmath.e**I / (2 * x)))
        limit = vals[-1] - (vals[-2] - vals[-1]) * xs[-1] / (xs[-2] - xs[-1])
        assert abs(limit - target) < 1e-6
        products[n] = limit
    _ok(2, f"lambda = {lam:.10g} (closed form {closed:.10g}); "
           f"limiting products {products}")


def test_criterion_3_fixed_point(local_solve):
    assert local_solve.iterations <= 200
    assert local_solve.contraction_history[-1] < 1e-8
    c = local_solve.curve
    dz = np.gradient(c.zeta, c.eta, edge_order=2)
    res = phase_residual(c.eta, c.zeta, dz, c.I, c.params)
    scale = (1.0 + np.abs(c.zeta * dz)
             + np.abs(c.params.lambda3) * c.eta**2 * np.exp(c.I))
    rel = float(np.max(np.abs(res / scale)[5:-5]))
    assert rel < 1e-6
    d1 = local_solve.taylor_measured.d1
    alpha = local_solve.taylor_measured.alpha
    alpha0 = taylor_coeffs(N, THETA).alpha
    assert abs(d1 - 2.0) < 1e-4
    assert abs(alpha - alpha0) < 1e-2
    _ok(3, f"{local_solve.iterations} iterations, residual {rel:.2e}, "
           f"zeta'(1+) = {d1:.6f}, zeta''(1+) = {alpha:.6f}")


def test_criterion_4_global_bounds(curve_1e5):
    rep = growth_bounds_check(curve_1e5)
    eta, zeta = curve_1e5.eta, curve_1e5.zeta
    m_rho = float(np.min(zeta - 0.999 * rep["rho"] * (eta - 1.0)))
    assert m_rho > 0
    sel1 = eta >= rep["eta1"]
    m_eps = float(np.min(zeta[sel1] - rep["eps0"] * eta[sel1] ** 2))
    assert m_eps > 0
    assert rep["upper_claimed"] and rep["upper_holds"]
    sel2 = eta >= rep["eta2"]
    m_up = float(np.min(eta[sel2] ** 2 - zeta[sel2]))
    assert m_up > 0
    _ok(4, f"rho = {rep['rho']:.4f}, eps0 = {rep['eps0']:.4f} "
           f"(eta1 = {rep['eta1']:.3f}), eta2 = {rep['eta2']:.1f}; "
           f"margins {m_rho:.2e}/{m_eps:.2e}/{m_up:.2e}")


def test_criterion_5_blowup(curve_1e3, curve_2e3):
    T1, tail1 = blowup_time(restrict(curve_1e3, 1e3))
    assert math.isfinite(T1)
    assert tail1 < 1e-3 * T1
    T2, _ = blowup_time(restrict(curve_2e3, 2e3))
    assert abs(T2 - T1) < tail1
    _ok(5, f"T_inf = {T1:.6f}, tail = {tail1:.2e}, "
           f"|T(2e3) - T(1e3)| = {abs(T2 - T1):.2e}")


def test_criterion_6_positive_pair(phi_config, phi_profile):
    oracle, vpp = integrate_direct(phi_config, 10.0)
    diff = max(abs(phi_profile.v_deriv_at(r, 1) - v)
               for r, v in zip(oracle.r[::50], vpp[::50]))
    assert diff < 1e-6
    from affmax.fd import one_sided_derivative
    u1 = phi_profile.v_at(0.0)
    u3 = one_sided_derivative(lambda r: phi_profile.v_deriv_at(r, 1), 0.0, 1,
                              h=1e-3)
    assert abs(u1) < 1e-6 and abs(u3) < 1e-6
    lam, _ = effective_lambda_fit(phi_profile, THETA, 1,
                                  nodes=np.linspace(0.5, 6.0, 9))
    assert abs(lam - phi_config.lam) < 1e-4 * phi_config.lam
    _ok(6, f"quadrature vs direct {diff:.2e}; u'(0) = {u1:.1e}, "
           f"u'''(0) = {u3:.1e}; lambda fit {lam:.8f}")


def test_criterion_7_counterexample_end_to_end(solution, psi_profile):
    rep = full_residual(solution, n_points=1000, seed=0)
    assert rep.residual_max < 1e-4
    assert rep.convexity_margin > 0
    comp = completeness_check(solution)
    assert comp["pass"]
    psi3 = abs(psi_profile.v_deriv_at(1.0, 2))   # third radial derivative
    assert psi3 > 1e-3
    _ok(7, f"N = {solution.N}, theta = {solution.theta}: residual max "
           f"{rep.residual_max:.2e} (1000 pts), min Hessian eig "
           f"{rep.convexity_margin:.3f}, completeness pass, "
           f"|psi'''(1)| = {psi3:.3f}")


def test_criterion_8_positive_results():
    for n in (3, 4, 5):
        for theta in (0.6, 0.75, 1.0, 1.5):
            assert bernstein_radial_check(n, theta, (1.0001, 1.05))["pass"]
    r2 = float(np.max(np.abs(power_solution_residual(2, 5 / 6, 1.0, [0.5, 1, 2]))))
    r3 = float(np.max(np.abs(power_solution_residual(3, 7 / 8, 2.0, [1.0]))))
    assert r2 < 1e-6 and r3 < 1e-6
    for theta in (0.6, 1.0, 2.0):
        assert bernstein_1d_check(theta)["pass"]
    _ok(8, f"radial uniqueness lattice 3x4 pass; power residuals "
           f"{r2:.1e}/{r3:.1e}; 1-D uniqueness pass")


def test_criterion_9_round_trips(curve_1e3, psi_profile, phi_profile, solution):
    # phase -> profile -> phase on the converged curve
    stripped = RadialProfile(r=psi_profile.r, v=psi_profile.v, u=psi_profile.u,
                             n=2, evaluator=AnalyticEvaluator(psi_profile.evaluator.v))
    targets = np.geomspace(1.1, curve_1e3.eta_max / 2.0, 25)
    eta_c, t_c = t_of_eta(curve_1e3)
    r_nodes = np.exp(np.interp(targets, eta_c, t_c))
    eta_hat, zeta_hat = profile_to_phase(stripped, nodes=r_nodes)
    zeta_ref = np.interp(eta_hat, curve_1e3.eta, curve_1e3.zeta)
    e1 = float(np.max(np.abs(eta_hat - targets) / targets))
    e2 = float(np.max(np.abs(zeta_hat - zeta_ref) / zeta_ref))
    assert e1 < 1e-5 and e2 < 1e-5
    # scaling covariance: doubling v0 doubles v and u, leaves etabar fixed
    b = rebuild_profile(curve_1e3, v0=2.0)
    r_probe = np.geomspace(0.05, 3.0, 15)
    assert np.allclose([b.v_at(r) for r in r_probe],
                       [2 * psi_profile.v_at(r) for r in r_probe], rtol=1e-10)
    assert np.allclose([b.evaluator.etabar(r) for r in r_probe],
                       [psi_profile.evaluator.etabar(r) for r in r_probe],
                       rtol=1e-12)
    # cylinder invariance: a flat factor changes nothing
    sol1 = assemble(phi_profile, psi_profile, m_cylinder=1, theta=THETA)
    assert abs(sol1.kappa - solution.kappa) < 1e-10 * solution.kappa
    p0, p1 = np.array([0.9, 0.7, 1.1]), np.array([0.9, 0.7, 1.1, 0.4])
    d = abs(residual_at(solution, p0) - residual_at(sol1, p1))
    assert d < 1e-8
    _ok(9, f"round-trip rel errors {e1:.2e}/{e2:.2e}; scaling covariance "
           f"and cylinder invariance within {d:.1e}")
