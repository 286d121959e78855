import io
import json
import math

import numpy as np
import pytest

from affmax import blowup_time, extend_global, fixed_point_solve
from affmax.core import (AnalyticEvaluator, ModelParams, PhaseCurve,
                         RadialProfile, TaylorData, profile_to_phase, radial_lhs)
from affmax.errors import ParameterError, PositivityLoss
from affmax.fd import one_sided_derivative
from affmax.reconstruct import (BOX_FRACTION, FAR_STRIDE, PROFILE_ROWS, WRITE_MARGIN,
                                _tables, large_condition_check, rebuild_profile,
                                t_of_eta, written_curve)
from affmax.verify import assemble_solution, solution_from_payload, verify_solution

from conftest import ETA0
from oracles import origin_compatibility, paraboloid_profile


def etabar_of_r(curve: PhaseCurve, r_grid):
    """etabar(r) with etabar(1) = eta0, plus near-origin bound witnesses.

    The flow d etabar/dr = zeta(etabar)/r is integrated via the
    monotone time change t = log r (both directions from r0 = 1).
    Asserts 0 < etabar - 1.  On the radii r <= 0.1 it reports the
    scan-extracted constants of etabar - 1 <= C r^2 and of the weaker
    etabar - 1 <= C_a r^(2a), a < 1, and whether (etabar - 1)/r^(2a) is
    smaller at the window's smallest radius than at its largest.
    """
    r_grid = np.atleast_1d(np.asarray(r_grid, dtype=float))
    ev = rebuild_profile(curve, v0=1.0).evaluator
    if np.any(r_grid < ev.r_min) or np.any(r_grid > ev.r_max):
        raise ParameterError(
            f"r grid must lie in [{ev.r_min:.3g}, {ev.r_max:.3g}] covered by the curve")
    etab = ev.etabar(r_grid)
    if np.any(etab <= 1.0):
        raise PositivityLoss("etabar dropped to 1 at positive radius")
    small = r_grid <= 0.1
    report = {}
    if np.any(small):
        r_s = r_grid[small]
        ratio2 = (etab[small] - 1.0) / r_s ** 2
        alpha_p = 0.9
        ratio_a = (etab[small] - 1.0) / r_s ** (2 * alpha_p)
        report = {
            "C_quadratic": float(np.max(ratio2)),
            "C_alpha": float(np.max(ratio_a)),
            "alpha_prime": alpha_p,
            "ratio_vanishes_at_0": bool(ratio_a[np.argmin(r_s)]
                                        < ratio_a[np.argmax(r_s)]),
        }
    return etab, report


def linear_curve(eta0=1.2, lo=1.0 + 1e-9, hi=3.0, m=6000, d1=2.0):
    """zeta = d1 (eta - 1): t and etabar have closed forms."""
    eta = np.concatenate([np.geomspace(lo, eta0, m // 2),
                          np.geomspace(eta0, hi, m // 2)[1:]])
    eta = np.unique(1.0 + (eta - 1.0))
    zeta = d1 * (eta - 1.0)
    I = ((eta - eta0) + 2.0 * np.log((eta - 1.0) / (eta0 - 1.0))) / d1
    return PhaseCurve(params=ModelParams(n=2, theta=0.55, eta0=eta0),
                      taylor=TaylorData(d1, 0.0, 0.0, 0.0),
                      eta=eta, zeta=zeta, I=I)


def cubic_curve(m=6000):
    """zeta = (eta-1)(3-eta), the phase curve of v = 2r + r^3 (eta0 = 5/3)."""
    x = np.geomspace(1e-9, 2.0 / 3.0, m)
    extra = np.geomspace(2.0 / 3.0, 1.9, m // 2)[1:]
    x = np.concatenate([x, extra])
    eta = 1.0 + x
    zeta = x * (2.0 - x)
    eta0 = 5.0 / 3.0
    # I = int (s+1)/((s-1)(3-s)) ds = log[(s-1)/(3-s)^2] anchored at eta0
    F = np.log((eta - 1.0) / (3.0 - eta) ** 2)
    I = F - math.log((eta0 - 1.0) / (3.0 - eta0) ** 2)
    return PhaseCurve(params=ModelParams(n=1, theta=0.75, eta0=eta0),
                      taylor=TaylorData(2.0, -2.0, 0.0, 0.0),
                      eta=eta, zeta=zeta, I=I)


def curve_of_rows(rows, anchor):
    """A zeta = 2 (eta - 1) curve of exactly rows points, eta0 on point anchor."""
    eta = 1.0 + np.geomspace(1e-9, 2.0, rows)
    return PhaseCurve(params=ModelParams(n=2, theta=0.55, eta0=float(eta[anchor])),
                      taylor=TaylorData(2.0, 0.0, 0.0, 0.0),
                      eta=eta, zeta=2.0 * (eta - 1.0), I=np.zeros(rows))


def full_table(curve):
    """(r, v, u) of every row of the v0 = 1 reconstruction table, and the anchor row."""
    tab = _tables(curve, v0=1.0)
    return np.exp(tab["t"]), np.exp(tab["logv"]), tab["u"], tab["i0"]


class TestTOfEta:
    def test_anchor(self, curve_1e3):
        eta, t = t_of_eta(curve_1e3)
        i0 = np.argmin(np.abs(eta - ETA0))
        assert abs(t[i0]) < 1e-12

    def test_linear_closed_form(self):
        c = linear_curve()
        eta, t = t_of_eta(c)
        expected = 0.5 * np.log((eta - 1.0) / (c.params.eta0 - 1.0))
        assert np.max(np.abs(t - expected)) < 1e-9

    def test_tail_approaches_blowup_time(self, curve_1e3):
        # t <= T_inf - (1/q_max)(1/eta - 1/eta_max): the classical form with
        # q_max = 1 presumes zeta <= s^2 everywhere, which oscillates; the
        # measured excess of zeta/eta^2 supplies the honest constant
        from affmax.negative_pair import blowup_time
        T, _ = blowup_time(curve_1e3)
        eta, t = t_of_eta(curve_1e3)
        q_max = np.max(curve_1e3.zeta / curve_1e3.eta**2)
        sel = eta > 100.0
        gap = (1.0 / eta[sel] - 1.0 / curve_1e3.eta_max) / q_max
        assert np.all(t[sel] <= T - gap)


class TestEtabar:
    def test_anchor_value(self, curve_1e3):
        etab, _ = etabar_of_r(curve_1e3, [1.0])
        assert etab[0] == pytest.approx(ETA0, rel=1e-9)

    def test_linear_closed_form(self):
        # zeta = 2(eta-1): etabar(r) = 1 + (eta0-1) r^2
        c = linear_curve()
        r = np.geomspace(0.05, 1.0, 40)
        etab, rep = etabar_of_r(c, r)
        assert np.max(np.abs(etab - (1.0 + 0.2 * r**2))) < 1e-8
        assert rep["C_quadratic"] == pytest.approx(0.2, rel=1e-6)

    def test_quadratic_bound_near_origin(self, curve_1e3):
        r = np.geomspace(0.01, 0.1, 30)
        etab, rep = etabar_of_r(curve_1e3, r)
        assert np.all(etab > 1.0)
        assert np.all(etab - 1.0 <= rep["C_quadratic"] * r**2 * (1 + 1e-12))
        # d1 = 2: (etabar - 1)/r^1.8 grows like r^0.2
        assert rep["ratio_vanishes_at_0"]

    def test_ratio_growing_toward_origin_fails(self):
        # zeta = 1.5 (eta - 1): etabar - 1 = 0.2 r^1.5, so
        # (etabar - 1)/r^1.8 = 0.2 r^-0.3 grows as r falls
        r = np.geomspace(0.01, 0.1, 30)
        _, rep = etabar_of_r(linear_curve(d1=1.5), r)
        assert not rep["ratio_vanishes_at_0"]
        assert rep["C_alpha"] == pytest.approx(0.2 * 0.01 ** -0.3, rel=1e-6)

    def test_out_of_range_raises(self, curve_1e3):
        with pytest.raises(ParameterError):
            etabar_of_r(curve_1e3, [1e-9])


class TestRebuild:
    def test_origin_derivatives(self, psi_profile):
        # v(0) = 0, v'(0) > 0, v''(0) = 0, v''''(0) = 0 by one-sided stencils
        v = psi_profile.v_at
        assert abs(v(psi_profile.evaluator.r_min)) < 1e-4
        v1 = one_sided_derivative(v, 0.0, 1, h=2e-3)
        v2 = one_sided_derivative(v, 0.0, 2, h=5e-3)
        v3 = one_sided_derivative(v, 0.0, 3, h=1e-2)
        v4 = one_sided_derivative(v, 0.0, 4, h=2e-2)
        assert v1 > 0.9
        assert abs(v2) < 1e-6
        assert abs(v3) > 0.05          # genuinely non-quadratic
        assert abs(v4) < 1e-4

    def test_derivatives_continue_across_the_table_start(self, psi_profile):
        # below r_min the second and third derivatives were 0, not the
        # values the exact chain tends to at r_min (6.4e-6 and 0.139 here)
        ev = psi_profile.evaluator
        below = np.nextafter(ev.r_min, 0.0)
        for k in (1, 2, 3):
            at = ev.deriv(ev.r_min, k)
            assert abs(ev.deriv(below, k) - at) <= 1e-3 * abs(at)

    def test_cubic_profile_round_trip(self):
        # full analytic loop: v = 2r + r^3 -> phase curve -> rebuilt profile
        c = cubic_curve()
        prof = rebuild_profile(c, v0=3.0)   # v(1) = 3
        r = np.geomspace(0.02, 1.6, 60)
        v_exact = 2.0 * r + r**3
        v_got = np.array([prof.v_at(x) for x in r])
        assert np.max(np.abs(v_got / v_exact - 1.0)) < 1e-6
        u_exact = r**2 + r**4 / 4.0
        u_got = np.array([prof.evaluator.u(x) for x in r])
        assert np.max(np.abs(u_got / u_exact - 1.0)) < 1e-6

    def test_full_circle_from_analytic_profile(self):
        # analytic convex v -> sampled phase curve -> rebuilt profile,
        # recovered up to the one free scale to better than 1e-6
        ev = AnalyticEvaluator(lambda r: 2 * r + r**3,
                               [lambda r: 2 + 3 * r**2, lambda r: 6 * r,
                                lambda r: 6.0 + 0 * r])
        r = np.unique(np.concatenate([np.geomspace(0.01, 1.9, 2000), [1.0]]))
        prof = RadialProfile(r=r, v=2 * r + r**3, u=r**2 + r**4 / 4, n=1,
                             evaluator=ev)
        eta, zeta = profile_to_phase(prof, r_floor=0.005)
        i0 = int(np.argmin(np.abs(r - 1.0)))
        eta0 = float(eta[i0])
        assert abs(eta0 - 5.0 / 3.0) < 1e-8
        # exact I for zeta = (eta-1)(3-eta), unused by the rebuild
        F = np.log((eta - 1.0) / (3.0 - eta) ** 2)
        I = F - math.log((eta0 - 1.0) / (3.0 - eta0) ** 2)
        curve = PhaseCurve(params=ModelParams(n=1, theta=0.75, eta0=eta0),
                           taylor=TaylorData(2.0, -2.0, 0.0, 0.0),
                           eta=eta, zeta=zeta, I=I)
        rebuilt = rebuild_profile(curve, v0=3.0)  # v(1) = 3
        probe = np.geomspace(0.05, 1.5, 40)
        got = np.array([rebuilt.v_at(x) for x in probe])
        exact = 2 * probe + probe**3
        assert np.max(np.abs(got / exact - 1.0)) < 1e-6

    def test_round_trip_with_core_transform(self, curve_1e3, psi_profile):
        # profile -> (eta, zeta) by finite differences on v only, compared
        # with the source curve on eta in [1.1, eta_max/2]
        ev_values_only = AnalyticEvaluator(psi_profile.evaluator.v)
        stripped = RadialProfile(r=psi_profile.r, v=psi_profile.v,
                                 u=psi_profile.u, n=2, evaluator=ev_values_only)
        targets = np.geomspace(1.1, curve_1e3.eta_max / 2.0, 25)
        eta_c, t_c = t_of_eta(curve_1e3)
        r_nodes = np.exp(np.interp(targets, eta_c, t_c))
        eta_hat, zeta_hat = profile_to_phase(stripped, nodes=r_nodes)
        zeta_ref = np.interp(eta_hat, curve_1e3.eta, curve_1e3.zeta)
        assert np.max(np.abs(eta_hat - targets) / targets) < 1e-5
        assert np.max(np.abs(zeta_hat - zeta_ref) / zeta_ref) < 1e-5

    def test_convexity_of_rebuilt_profile(self, psi_profile):
        r = np.geomspace(5e-3, 0.98 * psi_profile.evaluator.r_max, 200)
        u_rr = np.array([psi_profile.v_deriv_at(x, 1) for x in r])
        assert np.all(u_rr > 0)

    def test_scaling_covariance(self, curve_1e3):
        a = rebuild_profile(curve_1e3, v0=1.0)
        b = rebuild_profile(curve_1e3, v0=2.0)
        r = np.geomspace(0.05, 3.0, 20)
        va = np.array([a.v_at(x) for x in r])
        vb = np.array([b.v_at(x) for x in r])
        assert np.allclose(vb, 2.0 * va, rtol=1e-12)
        ua = np.array([a.evaluator.u(x) for x in r])
        ub = np.array([b.evaluator.u(x) for x in r])
        assert np.allclose(ub, 2.0 * ua, rtol=1e-10)
        ea = np.array([a.evaluator.etabar(x) for x in r])
        eb = np.array([b.evaluator.etabar(x) for x in r])
        assert np.allclose(ea, eb, rtol=1e-13)

    def test_paraboloid_branch(self):
        prof = paraboloid_profile(2.0, 1.0, np.linspace(0, 3, 31))
        assert np.allclose(prof.v, 2.0 * prof.r)
        assert np.allclose(prof.u, prof.r**2)

    def test_eigenvalue_sign_of_rebuilt_factor(self, curve_1e3, psi_profile):
        # the fitted radial coefficient equals lambda3/v0 (< 0 here);
        # the value is recorded by this test, not assumed beforehand
        from affmax.core import effective_lambda_fit
        lam, spread = effective_lambda_fit(psi_profile, 0.55, 2,
                                           nodes=np.linspace(0.3, 2.5, 9))
        assert spread < 1e-6
        assert lam == pytest.approx(curve_1e3.params.lambda3, rel=1e-6)
        assert lam < 0


class TestProfileRows:
    # off: whether the anchor falls between the evenly spaced rows.  A
    # stride of rows // 6000 kept 11999 rows of 11999 and 6000 of 12000
    @pytest.mark.parametrize("rows, anchor, off", [
        (200, 70, False), (202, 67, False), (2001, 2000, False),
        (11999, 3999, True), (12000, 5999, False), (20935, 5999, True)])
    def test_rows_are_kept_evenly_with_the_anchor(self, rows, anchor, off):
        curve = curve_of_rows(rows, anchor)
        prof = rebuild_profile(curve, v0=1.0)
        r, v, u, i0 = full_table(curve)
        assert i0 == anchor
        assert np.all(np.diff(prof.r) > 0)
        idx = np.searchsorted(r, prof.r)
        # every kept row is the full table's row, bit for bit
        for kept, full in ((prof.r, r), (prof.v, v), (prof.u, u)):
            assert kept.tobytes() == full[idx].tobytes()
        assert idx[0] == 0 and idx[-1] == rows - 1 and anchor in idx
        assert prof.r[idx == anchor][0] == 1.0
        k = min(rows, PROFILE_ROWS)
        lattice = idx[idx != anchor] if off else idx
        assert len(lattice) == k and len(idx) == k + off
        assert np.ptp(np.diff(lattice)) <= 1         # evenly spaced, no stride jump

    def test_flagship_profile_ends_and_anchor(self, curve_1e3, psi_profile):
        r, v, _, i0 = full_table(curve_1e3)
        assert len(r) > PROFILE_ROWS
        assert len(psi_profile.r) in (PROFILE_ROWS, PROFILE_ROWS + 1)
        assert (psi_profile.r[0], psi_profile.r[-1]) == (r[0], r[-1])
        assert r[i0] == 1.0 and np.interp(1.0, psi_profile.r, psi_profile.v) == v[i0]

    @pytest.mark.parametrize("i", [13, 15])
    def test_first_row_is_the_table_start(self, i):
        # at these grid theta math.exp(t[0]) is 1 ulp above r[0]: with it,
        # the first row would take the origin model and the others the table
        theta = float(np.linspace(0.51, 0.65, 16)[i])
        p = rebuild_profile(extend_global(fixed_point_solve(2, theta, ETA0), 1e3), v0=1.0)
        assert p.r[0] == p.evaluator.r_min


def in_box_meter(curve, theta, n):
    """Largest relative deviation from its median of the rebuilt psi's
    lambda' ratio L[u]/(u'')^2, on 20,000 radii geometric from 0.01 to
    the edge BOX_FRACTION r_max of the box verify samples."""
    psi = rebuild_profile(curve, v0=1.0)
    r = np.geomspace(0.01, BOX_FRACTION * psi.r[-1], 20000)
    u1, u2, u3, u4 = [psi.v_at(r)] + [psi.v_deriv_at(r, k) for k in (1, 2, 3)]
    ratio = radial_lhs(r, u1, u2, u3, u4, theta, n) / (u2 * u2)
    return float(np.max(np.abs(ratio / np.median(ratio) - 1.0)))


@pytest.fixture(scope="module")
def curves_by_theta(curve_1e5):
    """The full flagship-range curves (eta_max 1e5) at two theta."""
    return {0.55: curve_1e5,
            0.60: extend_global(fixed_point_solve(2, 0.60, ETA0), eta_max=1e5)}


def first_row_reaching(curve, fraction):
    """Index of the first row whose radius reaches fraction of the last."""
    _, t = t_of_eta(curve)
    return int(np.argmax(t >= t[-1] + math.log(fraction)))


class TestWrittenCurve:
    """solve-negative writes the local solve and the rows to a margin past
    verify's box edge whole, and every FAR_STRIDE-th row beyond."""

    @pytest.mark.parametrize("theta", [0.55, 0.60])
    def test_rows_readers_use_are_kept(self, curves_by_theta, theta):
        full = curves_by_theta[theta]
        out = written_curve(full)
        idx = np.searchsorted(full.eta, out.eta)
        # every written row is a row of the full curve, bit for bit; I is not written
        for col in ("eta", "zeta"):
            assert getattr(out, col).tobytes() == getattr(full, col)[idx].tobytes()
        assert out.I is None
        assert (out.params, out.taylor) == (full.params, full.taylor)
        assert idx[0] == 0 and idx[-1] == len(full.eta) - 1
        # every row to the margin past the box edge, the local solve's among them
        margin = first_row_reaching(full, BOX_FRACTION + WRITE_MARGIN)
        local = int(np.searchsorted(full.eta, full.params.eta0, side="right"))
        assert local < margin
        assert np.array_equal(idx[:margin + 1], np.arange(margin + 1))
        assert np.all(np.diff(idx[margin:-1]) == FAR_STRIDE)
        assert len(out.eta) < 0.6 * len(full.eta)
        assert in_box_meter(out, theta, 2) < 1e-8

    def test_written_file_holds_what_the_rebuild_reads(self, curve_1e5):
        # psi, and the solution verify builds, are the same bits whether the
        # written curve is used in memory or read back from its CSV and JSON
        mem = written_curve(curve_1e5)
        buf = io.StringIO()
        mem.to_csv(buf)
        back = PhaseCurve.from_csv(io.StringIO(buf.getvalue()))
        assert back.I is None and back.params.eta0 == mem.params.eta0
        a, b = rebuild_profile(mem, v0=1.0), rebuild_profile(back, v0=1.0)
        for col in ("r", "v", "u"):
            assert getattr(a, col).tobytes() == getattr(b, col).tobytes()
        r = np.linspace(0.0, a.evaluator.r_max, 202)[1:-1]
        assert a.evaluator.v(r).tobytes() == b.evaluator.v(r).tobytes()
        for k in (1, 2, 3):
            assert a.evaluator.deriv(r, k).tobytes() == b.evaluator.deriv(r, k).tobytes()
        phi_ctor = {"kind": "positive-pair", "v0": 1.0, "lambda": 1.0, "rmax": 10.0,
                    "nodes": 2001}
        psi_ctor = {"kind": "phase-reconstruction", "v0": 1.0}
        R_inf = math.exp(blowup_time(curve_1e5)[0])
        sol, _ = assemble_solution(phi_ctor, psi_ctor, mem, 0, R_inf)
        _, payload = assemble_solution(phi_ctor, psi_ctor, back, 0, R_inf)
        read = solution_from_payload(json.loads(json.dumps(payload)), "solution.json")
        assert verify_solution(read, 200, 0) == verify_solution(sol, 200, 0)

    def test_box_edges_lie_at_different_eta(self, curves_by_theta):
        # the rule finds the edge from each curve, not from a fixed eta
        edges = [c.eta[first_row_reaching(c, BOX_FRACTION)]
                 for c in curves_by_theta.values()]
        assert edges[0] > edges[1] + 1.0

    def test_local_rows_kept_when_the_box_edge_lies_below_eta0(self):
        # zeta = 2 (eta - 1) gives r = ((eta - 1)/(eta0 - 1))^(1/2), so r_max
        # = (1.55/1.5)^(1/2) and the margin lies at eta - 1 = 1.46 < eta0 - 1:
        # every row to eta0 stays, and the rows beyond it thin out
        eta0 = 2.5
        eta = np.concatenate([np.geomspace(1e-6, eta0 - 1, 3000),
                              np.geomspace(eta0 - 1, 1.55, 2000)[1:]]) + 1.0
        curve = PhaseCurve(params=ModelParams(n=2, theta=0.55, eta0=eta0),
                           taylor=TaylorData(2.0, 0.0, 0.0, 0.0),
                           eta=eta, zeta=2.0 * (eta - 1.0), I=np.zeros(len(eta)))
        out = written_curve(curve)
        idx = np.searchsorted(curve.eta, out.eta)
        assert np.array_equal(idx[:3000], np.arange(3000))
        assert np.all(np.diff(idx[2999:-1]) == FAR_STRIDE) and idx[-1] == len(eta) - 1


class TestOriginCompatibility:
    def test_flagship_conditions(self, curve_1e3):
        rep = origin_compatibility(curve_1e3)
        assert rep["first_condition_monotone_slope"]
        assert rep["second_condition_dd_positive"]
        assert rep["ambiguous_sign_set"]


class TestLargeCondition:
    def test_flagship_passes(self, psi_profile, psi_R_inf):
        rep = large_condition_check(psi_profile, psi_R_inf)
        assert rep["pass"]
        assert rep["u_log_slope"] > 0
        # the classical curvature bound fails on part of the range (it
        # presumes zeta <= eta^2 globally, which oscillates); record that
        assert not rep["v_lower_bound_holds_everywhere"]
        assert rep["v_lower_bound_fails_on"] is not None

    def test_synthetic_divergence_law(self):
        # v = 1/(T - log r): u diverges like -log(T - log r)
        T = 1.0
        v_fn = lambda r: 1.0 / (T - np.log(r))

        from affmax.core import AnalyticEvaluator

        @np.vectorize
        def u_fn(r):
            from scipy.integrate import quad
            return quad(v_fn, 1e-6, r)[0]

        r = np.geomspace(1e-3, math.exp(T) * (1 - 1e-4), 400)
        prof = RadialProfile(r=r, v=np.array([v_fn(x) for x in r]),
                             u=np.array([u_fn(x) for x in r]), n=2,
                             evaluator=AnalyticEvaluator(v_fn, u_fn=u_fn))
        rep = large_condition_check(prof, math.exp(T))
        assert rep["pass"]
        assert rep["v_law_spread"] < 1e-9           # exact law
        # du/d(-log(T - log r)) = r -> R_inf, so the fitted slope
        # approaches e^T and the residual is the decaying correction
        assert rep["u_log_slope"] == pytest.approx(math.exp(T), rel=5e-3)
        assert rep["u_fit_residual"] < 5e-3

    def test_paraboloid_vacuous(self):
        prof = paraboloid_profile(1.0, 1.0, np.linspace(0, 5, 51))
        rep = large_condition_check(prof, math.inf)
        assert rep["pass"] and not rep["finite_boundary"]
