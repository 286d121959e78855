import dataclasses
import json
import math

import numpy as np
import pytest

from affmax.core import AnalyticEvaluator, RadialProfile, SeparableSolution
from affmax.errors import NearSingular, ParameterError, SignError
from affmax.reconstruct import BOX_FRACTION, PROFILE_ROWS, _tables
from affmax.verify import (_H_REL, MAX_CYLINDER, RESIDUAL_TOL, _det_parts,
                           _least_eigenvalue, _residuals, _sample_points, assemble,
                           bernstein_1d_check, check_assembly, completeness_check,
                           full_residual, residual_at, verify_solution)

from conftest import THETA
from oracles import negative_pair_blowup_1d


def factor_residual_phi(sol: SeparableSolution, xq: float) -> float:
    """phi^{ij} D_ij w_phi = w_phi''/(kappa phi'') at a 1-D factor point."""
    h = 1e-4

    def w_phi(x):
        return (sol.kappa * sol.phi.v_deriv_at(x, 1)) ** (-sol.theta)
    d2 = (w_phi(xq + h) - 2 * w_phi(xq) + w_phi(xq - h)) / h**2
    return d2 / (sol.kappa * sol.phi.v_deriv_at(xq, 1))


def factor_residual_psi(sol: SeparableSolution, rho: float) -> float:
    """psi^{ij} D_ij w_psi via the radial operator (r/v)[(v/(r v')) d2 + (n-1)/r d1]."""
    n, h = sol.psi.n, 1e-4

    def w_psi(r):
        v1 = sol.psi.v_at(r)
        v2 = sol.psi.v_deriv_at(r, 1)
        return (v2 * (v1 / r) ** (n - 1)) ** (-sol.theta)

    d1 = (w_psi(rho + h) - w_psi(rho - h)) / (2 * h)
    d2 = (w_psi(rho + h) - 2 * w_psi(rho) + w_psi(rho - h)) / h**2
    v1 = sol.psi.v_at(rho)
    v2 = sol.psi.v_deriv_at(rho, 1)
    return (rho / v1) * ((v1 / (rho * v2)) * d2 + (n - 1) / rho * d1)


def quadratic_factor(n, rmax=4.0, C=0.5):
    ev = AnalyticEvaluator(lambda r: 2 * C * r,
                           [lambda r: 2 * C + 0 * r, lambda r: 0.0 * r,
                            lambda r: 0.0 * r],
                           u_fn=lambda r: C * r * r)
    r = np.linspace(0.0, rmax, 41)
    return RadialProfile(r=r, v=2 * C * r, u=C * r**2, n=n, evaluator=ev)


def paraboloid_solution(m=0, n=2):
    return SeparableSolution(phi=quadratic_factor(1), psi=quadratic_factor(n),
                             kappa=1.0, theta=0.75, R_inf=math.inf,
                             m_cylinder=m)


class TestAssemble:
    def test_flagship(self, solution):
        assert solution.kappa > 0
        assert solution.lambda_phi == pytest.approx(-solution.lambda_psi, rel=1e-6)
        assert solution.lambda_phi > 0 > solution.lambda_psi
        assert solution.N == 3

    def test_keeps_its_factors(self, phi_profile, psi_profile, solution):
        # kappa is held as a number; verify applies it where it forms u
        assert solution.phi is phi_profile and solution.psi is psi_profile

    def test_scaling_law(self, phi_profile):
        # rescaling u by kappa = 2 halves the fitted eigenvalue
        from affmax.core import effective_lambda_fit
        nodes = np.linspace(0.5, 6.0, 9)
        lam1, _ = effective_lambda_fit(phi_profile, THETA, 1, nodes=nodes)
        ev = phi_profile.evaluator
        doubled = AnalyticEvaluator(lambda a: 2.0 * ev.v(a),
                                    [lambda a, k=k: 2.0 * ev.deriv(a, k) for k in (1, 2, 3)])
        lam2, _ = effective_lambda_fit(
            dataclasses.replace(phi_profile, evaluator=doubled), THETA, 1, nodes=nodes)
        assert lam2 == pytest.approx(lam1 / 2.0, rel=1e-10)
        assert lam1 == pytest.approx(1.0, abs=1e-4)

    def test_sign_error_on_same_sign_factors(self, phi_profile):
        phi_as_psi = RadialProfile(r=phi_profile.r, v=phi_profile.v,
                                   u=phi_profile.u, n=1,
                                   evaluator=phi_profile.evaluator)
        with pytest.raises((SignError, ParameterError)):
            # identical positive-eigenvalue factors cannot pair; the
            # dimension gate also rejects n = 1
            assemble(phi_profile, phi_as_psi, theta=THETA)

    def test_sign_error_without_opposite_pair(self, phi_profile):
        # a flat factor has eigenvalue zero: no opposite pair exists
        with pytest.raises(SignError):
            assemble(phi_profile, quadratic_factor(2), theta=THETA)

    def test_theta_gate(self, phi_profile, psi_profile):
        with pytest.raises(ParameterError):
            assemble(phi_profile, psi_profile, theta=0.7)  # >= n/(n+1)

    @pytest.mark.parametrize("n", [-2, -1, 0, 1, 6])
    def test_dimension_gate(self, phi_profile, psi_profile, n):
        # n = -1 divided by zero in the theta range, and -2 and 6 passed it
        with pytest.raises(ParameterError, match="2 <= n <= 5"):
            check_assembly(0.6, n, 0)
        with pytest.raises(ParameterError, match="2 <= n <= 5"):
            assemble(phi_profile, dataclasses.replace(psi_profile, n=n), theta=0.6)

    @pytest.mark.parametrize("m", [-1, 1.5, MAX_CYLINDER + 1])
    def test_cylinder_gate(self, phi_profile, psi_profile, m):
        with pytest.raises(ParameterError, match="m_cylinder"):
            assemble(phi_profile, psi_profile, m_cylinder=m, theta=THETA)


class TestFullResidual:
    def test_paraboloid_machine_zero(self):
        sol = paraboloid_solution()
        pts = np.array([[0.5, 0.3, 0.4], [-1.0, 0.8, -0.2], [2.0, 1.0, 1.0]])
        res = [residual_at(sol, p) for p in pts]
        assert np.max(np.abs(res)) < 1e-10

    def test_flagship_statistics(self, solution):
        rep = full_residual(solution, n_points=200, seed=3)
        assert rep.residual_max < 1e-4
        assert rep.residual_mean <= rep.residual_max
        assert rep.convexity_margin > 0

    def test_mismatched_kappa_detected(self, solution):
        bad = SeparableSolution(phi=solution.phi, psi=solution.psi,
                                kappa=1.1 * solution.kappa, theta=solution.theta,
                                R_inf=solution.R_inf)
        rng = np.random.default_rng(5)
        pts = np.column_stack([rng.uniform(0.5, 3, 20),
                               rng.uniform(0.5, 2, 20),
                               rng.uniform(0.5, 2, 20)])
        res = np.array([residual_at(bad, p) for p in pts])
        assert np.min(np.abs(res)) > 1e-3  # bounded away from zero

    def test_separation_identity(self, solution):
        # residual splits into w_psi * (phi part) + w_phi * (psi part)
        for (x, y1, y2) in [(0.7, 0.9, 1.1), (-1.2, 0.4, 1.3), (2.0, 1.5, 0.5)]:
            p = np.array([x, y1, y2])
            rho = math.hypot(y1, y2)
            w_phi = (solution.kappa * solution.phi.v_deriv_at(x, 1)) ** (-solution.theta)
            v1 = solution.psi.v_at(rho)
            v2 = solution.psi.v_deriv_at(rho, 1)
            w_psi = (v2 * (v1 / rho)) ** (-solution.theta)
            lhs = residual_at(solution, p)
            rhs = (w_psi * factor_residual_phi(solution, x)
                   + w_phi * factor_residual_psi(solution, rho))
            assert abs(lhs - rhs) < 1e-6 * (1 + abs(lhs))

    def test_cylinder_invariance(self, phi_profile, psi_profile, solution):
        sol1 = assemble(phi_profile, psi_profile, m_cylinder=1, theta=THETA)
        assert sol1.kappa == pytest.approx(solution.kappa, rel=1e-12)
        assert sol1.N == 4
        rep0 = full_residual(solution, n_points=60, seed=11)
        rep1 = full_residual(sol1, n_points=60, seed=11)
        assert rep1.residual_max < 1e-4
        assert abs(rep1.residual_max - rep0.residual_max) < 1e-4
        # the flat block contributes nothing: identical points give
        # identical residuals up to FD noise
        p0 = np.array([0.9, 0.7, 1.1])
        p1 = np.array([0.9, 0.7, 1.1, 0.4])
        assert residual_at(solution, p0) == pytest.approx(
            residual_at(sol1, p1), abs=1e-8)

    def test_near_singular_guard(self):
        # power-law factor is flat at the origin: det D^2 u collapses
        p = 8

        def mono(j):
            c = 1.0
            for i in range(j):
                c *= (p - 1 - i)
            return lambda r, c=c, q=p - 1 - j: p * c * r**q

        ev = AnalyticEvaluator(mono(0), [mono(1), mono(2), mono(3)],
                               u_fn=lambda r: r**p)
        r = np.linspace(0.0, 2.0, 21)
        power = RadialProfile(r=r, v=mono(0)(r), u=r**p, n=2, evaluator=ev)
        sol = SeparableSolution(phi=quadratic_factor(1), psi=power, kappa=1.0,
                                theta=5.0 / 6.0, R_inf=math.inf)
        with pytest.raises(NearSingular):
            residual_at(sol, np.array([0.5, 1e-3, 1e-3]))


    def test_psi_rows_do_not_reach_the_payload(self, phi_profile, psi_profile,
                                                psi_R_inf, solution, curve_1e3):
        # psi with every reconstruction table row, against the PROFILE_ROWS
        # rows rebuild_profile keeps: only the first, last and anchor rows
        # reach the certificate, and both profiles hold them
        tab = _tables(curve_1e3, v0=1.0)
        full = RadialProfile(r=np.exp(tab["t"]), v=np.exp(tab["logv"]), u=tab["u"],
                             n=psi_profile.n, evaluator=psi_profile.evaluator)
        assert len(psi_profile.r) <= PROFILE_ROWS + 1 < len(full.r)
        sol_full = assemble(phi_profile, full, m_cylinder=0, theta=THETA,
                            R_inf=psi_R_inf)
        assert (json.dumps(verify_solution(sol_full, 200, 3), sort_keys=True)
                == json.dumps(verify_solution(solution, 200, 3), sort_keys=True))


class TestSamplePoints:
    def test_a_seed_gives_its_points_bit_for_bit(self):
        sol = paraboloid_solution(m=2)
        pts = _sample_points(sol, 100, 7)
        assert pts.tobytes() == _sample_points(sol, 100, 7).tobytes()
        assert not np.any(pts == _sample_points(sol, 100, 8))

    @pytest.mark.parametrize("m", [0, 2])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_points_lie_in_the_box_with_isotropic_directions(self, n, m):
        sol = paraboloid_solution(m, n)            # phi and psi tables end at 4
        pts = _sample_points(sol, 2000, n + m)
        assert pts.shape == (2000, 1 + n + m) and np.isfinite(pts).all()
        assert np.all(np.abs(pts[:, 0]) < 0.8 * 4.0)
        rho = np.linalg.norm(pts[:, 1:1 + n], axis=1)
        assert rho.min() >= 10.0 * _H_REL * (1 - 1e-15)
        assert rho.max() < BOX_FRACTION * 4.0 * (1 + 1e-15)
        assert np.all(np.abs(pts[:, 1 + n:]) <= 1.0)
        # each direction coordinate has mean 0 and mean square 1/n, within
        # four standard errors
        dirs = pts[:, 1:1 + n] / rho[:, None]
        assert np.abs(dirs.mean(axis=0)).max() < 0.07
        assert np.abs((dirs**2).mean(axis=0) - 1.0 / n).max() < 0.03


class TestConvexity:
    @pytest.mark.parametrize("m", [0, 2])
    def test_paraboloid_unit_least_eigenvalue(self, m):
        sol = paraboloid_solution(m)
        least = _residuals(sol, np.array([[1.0, 0.5, 0.5, 0.3, -0.2][:3 + m]]))[1]
        assert np.allclose(least, 1.0)

    def test_flagship_positive(self, solution):
        assert _residuals(solution, _sample_points(solution, 150, 2))[1].min() > 0

    def test_power_solution_degenerate_at_origin(self):
        p = 8

        def mono(j):
            c = 1.0
            for i in range(j):
                c *= (p - 1 - i)
            return lambda r, c=c, q=p - 1 - j: p * c * r**q

        ev = AnalyticEvaluator(mono(0), [mono(1)])
        r = np.linspace(0.0, 2.0, 21)
        power = RadialProfile(r=r, v=mono(0)(r), u=r**p, n=2, evaluator=ev)
        sol = SeparableSolution(phi=quadratic_factor(1), psi=power, kappa=1.0,
                                theta=5.0 / 6.0, R_inf=math.inf)
        x, rho = np.array([1.0]), np.array([math.hypot(1e-4, 1e-4)])
        least = _least_eigenvalue(_det_parts(sol, x, rho), rho, 0)
        assert least.min() < 1e-12  # convexity degenerates at the origin


class TestCompleteness:
    def test_flagship(self, solution):
        rep = completeness_check(solution)
        assert rep["pass"]
        assert rep["phi"]["increasing"]
        assert np.isfinite(rep["phi"]["u_reaches_ceiling_at"])

    def test_one_dimensional_bounded_factor_fails(self):
        # the opposite-sign 1-D construction: curvature blows up at finite
        # R but u stays bounded, so no large condition
        out = negative_pair_blowup_1d(1.0, 0.55, 1.0, return_profile=True)
        prof = out["profile"]
        from affmax.reconstruct import large_condition_check
        rep = large_condition_check(prof, out["R"])
        assert not rep["pass"]

    def test_paraboloid_vacuous(self):
        rep = completeness_check(paraboloid_solution())
        assert rep["pass"]
        assert not rep["psi"]["finite_boundary"]

    def test_phi_without_u_rule_raises(self):
        sol = paraboloid_solution()
        sol.phi.evaluator = AnalyticEvaluator(sol.phi.evaluator.v)
        with pytest.raises(ParameterError):
            completeness_check(sol)


class TestVerdict:
    @pytest.mark.parametrize("case", ["flagship", "R_inf-beyond-the-profile",
                                      "phi-u-decreasing"])
    def test_each_bound_holds_as_its_check_says(self, solution, case):
        sol = solution
        if case == "R_inf-beyond-the-profile":   # u stays bounded short of R_inf
            sol = dataclasses.replace(solution, R_inf=2.0 * solution.R_inf)
        elif case == "phi-u-decreasing":
            sol = paraboloid_solution()
            ev = sol.phi.evaluator
            sol.phi.evaluator = AnalyticEvaluator(
                ev.v, [lambda a, k=k: ev.deriv(a, k) for k in (1, 2, 3)],
                u_fn=lambda a: -ev.u(a))
        payload = verify_solution(sol, n_points=40, seed=0)
        rep, comp = full_residual(sol, n_points=40, seed=0), completeness_check(sol)
        holds = [rep.convexity_margin > 0, comp["psi"]["pass"],
                 comp["phi"]["increasing"] and comp["phi"]["slope"] > 0]
        assert [b["holds"] for b in payload["bounds"]] == holds
        assert payload["residual_max"] == rep.residual_max < RESIDUAL_TOL
        assert payload["pass"] is (holds[0] and comp["pass"])
        assert payload["pass"] is (case == "flagship")


class TestBernstein1D:
    @pytest.mark.parametrize("theta", [0.6, 1.0, 2.0])
    def test_lattice(self, theta):
        rep = bernstein_1d_check(theta)
        assert rep["pass"]

    def test_quadratic_survives(self):
        rep = bernstein_1d_check(1.0, c2_values=(0.0,), c3_values=(1.0,))
        line = [c for c in rep["cases"] if c["domain"] == "line"][0]
        assert line["convex"] and not line["excluded"]

    def test_halfline_convex_but_not_large(self):
        # C2 < 0, C3 > 0 on [0, inf): convex, bounded near 0 -> fails
        rep = bernstein_1d_check(1.0, c2_values=(-1.0,), c3_values=(1.0,))
        half = [c for c in rep["cases"] if c["domain"] == "halfline"][0]
        assert half["convex"] and not half["large"] and half["excluded"]

    def test_line_needs_c2_zero(self):
        rep = bernstein_1d_check(0.6, c2_values=(0.5,), c3_values=(1.0,))
        line = [c for c in rep["cases"] if c["domain"] == "line"][0]
        assert not line["convex"] and line["excluded"]


# ---------------------------------------------------------------------------
# the case analysis before its constant branches were folded, kept as the
# reference for every report


def reference_bernstein_1d_check(theta: float,
                                 c2_values=(-2.0, -0.5, 0.5, 2.0),
                                 c3_values=(0.0, 0.7, 1.5)) -> dict:
    if not 0 < theta < math.inf:
        raise ParameterError(f"theta must be positive and finite, got {theta}")
    cases = []

    def boundary_large(pb: float) -> bool:
        # u'' ~ p^(-1/theta); at a boundary point with p(b) > 0 the
        # integral is finite.  With p(b) = 0 it diverges only for
        # theta <= 1/2 (u' ~ (b-x)^(1-1/theta) otherwise integrable).
        if pb > 0:
            return False
        return theta <= 0.5

    for C2 in c2_values:
        for C3 in c3_values:
            p0, p1 = C3, C3 - theta * C2

            # the line: p must be positive everywhere
            convex_line = C2 == 0 and C3 > 0
            cases.append({"C2": C2, "C3": C3, "domain": "line",
                          "convex": convex_line, "large": None,
                          "excluded": not convex_line,
                          "reason": "linear p changes sign on the line"})

            # the unit interval [0, 1]
            convex_int = (min(p0, p1) > 0) or (p0 == 0 and p1 > 0) or (p1 == 0 and p0 > 0)
            large_int = convex_int and boundary_large(p0) and boundary_large(p1)
            cases.append({"C2": C2, "C3": C3, "domain": "interval",
                          "convex": bool(convex_int), "large": bool(large_int),
                          "excluded": not (convex_int and large_int),
                          "reason": "u finite at an endpoint with p > 0"})

            # the half-line [0, inf)
            slope = -theta * C2
            convex_half = (slope > 0 and p0 >= 0 and (p0 > 0 or slope > 0)) or \
                          (slope == 0 and p0 > 0) or (slope >= 0 and p0 > 0)
            large_half = bool(convex_half) and boundary_large(p0)
            cases.append({"C2": C2, "C3": C3, "domain": "halfline",
                          "convex": bool(convex_half), "large": bool(large_half),
                          "excluded": not (convex_half and large_half),
                          "reason": "u finite at x = 0"})

    nonquad = [c for c in cases if c["C2"] != 0]
    all_excluded = all(c["excluded"] for c in nonquad)
    quad_ok = True  # C2 = 0, C3 > 0 is convex and entire on the line
    return {"theta": theta, "pass": bool(all_excluded and quad_ok), "cases": cases}


@pytest.mark.parametrize("c3_values", [None, (0.0, -1.0, 1.0, 2.0)], ids=["c3-grid", "c3-edges"])
@pytest.mark.parametrize("c2_values", [None, (0.0, 1.0, -1.0, 0.5, -3.0)],
                         ids=["c2-grid", "c2-edges"])
@pytest.mark.parametrize("theta", [1e-9, 0.1, 0.3, 0.5, 0.50001, 0.55, 0.6, 1.0, 2.0,
                                   7.5, 1e9])
def test_bernstein_1d_matches_reference(theta, c2_values, c3_values):
    grids = {k: v for k, v in (("c2_values", c2_values), ("c3_values", c3_values))
             if v is not None}
    got = bernstein_1d_check(theta, **grids)
    assert (json.dumps(got, sort_keys=True)
            == json.dumps(reference_bernstein_1d_check(theta, **grids), sort_keys=True))
