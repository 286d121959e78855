"""The batched verify kernel against the scalar per-point loop it replaced.

The reference below evaluates w at one stencil point per call and builds
each Hessian with Python loops, exactly as verify did before its
residuals came from one batched stencil pass.  numpy's array exp/log/
power differ from their scalar counterparts by about 1 ulp on a few
percent of inputs, so w is compared in ulps and each residual against
the rounding error the h^-2 stencil can amplify that into.

The same bound holds the residuals of the numpy splines to those of the
scipy splines they replaced (make_interp_spline; the fits differ in their
last bits, see test_spline.py).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.interpolate import make_interp_spline

from affmax import build_phi, positive_pair, reconstruct, rebuild_profile
from affmax.core import (AnalyticEvaluator, ProfileEvaluator, RadialProfile,
                         SeparableSolution)
from affmax.errors import NearSingular
from affmax import verify
from affmax.verify import (_det_parts, _distinct, _inverse_hessian, _residuals,
                           _sample_points, _stencil, _w, assemble, full_residual,
                           residual_at)

import full_size
from conftest import THETA

EPS = np.finfo(float).eps
H_REL = 1e-3


# ---------------------------------------------------------------------------
# scalar reference: one point, one stencil value per call


def ref_det_parts(sol, xq, rho):
    return (sol.kappa * sol.phi.v_deriv_at(xq, 1), sol.psi.v_at(rho),
            sol.psi.v_deriv_at(rho, 1))


def ref_w_value(sol, xq, rho):
    phi2, psi1, psi2 = ref_det_parts(sol, xq, rho)
    det = phi2 * psi2 * (psi1 / rho) ** (sol.psi.n - 1)
    if det < 1e-12:
        raise NearSingular(f"det D^2 u = {det:.3e} at (x={xq:.3g}, rho={rho:.3g})")
    return det ** (-sol.theta)


def ref_hessian_fd(f, p, h):
    N = len(p)
    H = np.empty((N, N))
    f0 = f(p)
    for i in range(N):
        ei = np.zeros(N); ei[i] = h[i]
        H[i, i] = (f(p + ei) - 2.0 * f0 + f(p - ei)) / h[i] ** 2
        for j in range(i):
            ej = np.zeros(N); ej[j] = h[j]
            H[i, j] = H[j, i] = (f(p + ei + ej) - f(p + ei - ej)
                                 - f(p - ei + ej) + f(p - ei - ej)) / (4 * h[i] * h[j])
    return H


def ref_inverse_hessian(sol, xq, y):
    n, m = sol.psi.n, sol.m_cylinder
    rho = float(np.linalg.norm(y))
    phi2, psi1, psi2 = ref_det_parts(sol, xq, rho)
    inv = np.zeros((1 + n + m, 1 + n + m))
    inv[0, 0] = 1.0 / phi2
    inv[1:1 + n, 1:1 + n] = (rho / psi1) * (
        np.eye(n) - (rho * psi2 - psi1) / (rho**3 * psi2) * np.outer(y, y))
    for k in range(m):
        inv[1 + n + k, 1 + n + k] = 1.0
    return inv


def ref_residual(sol, p, h_rel=H_REL):
    n = sol.psi.n

    def w_of(q):
        return ref_w_value(sol, float(q[0]), float(np.linalg.norm(q[1:1 + n])))

    h = h_rel * np.maximum(np.abs(p), 1.0)
    H = ref_hessian_fd(w_of, p, h)
    H = (4.0 * ref_hessian_fd(w_of, p, h / 2.0) - H) / 3.0
    inv = ref_inverse_hessian(sol, float(p[0]), p[1:1 + n])
    return float(np.sum(inv * H)), inv, h


def ref_eigenvalues(sol, p):
    n, m = sol.psi.n, sol.m_cylinder
    y = p[1:1 + n]
    rho = float(np.linalg.norm(y))
    phi2, psi1, psi2 = ref_det_parts(sol, float(p[0]), rho)
    hess = np.zeros((1 + n + m, 1 + n + m))
    hess[0, 0] = phi2
    hess[1:1 + n, 1:1 + n] = (psi1 / rho) * np.eye(n) \
        + (psi2 - psi1 / rho) * np.outer(y, y) / rho**2
    for k in range(m):
        hess[1 + n + k, 1 + n + k] = 1.0
    return np.linalg.eigvalsh(hess)


class ScipySpline:
    """A make_interp_spline fit behind the interface of affmax's Spline."""

    def __init__(self, spl):
        self.spl = spl

    def __call__(self, x, columns=slice(None)):
        y = self.spl(x)
        return y if self.spl.c.ndim == 1 else y[..., columns]

    def derivative(self):
        return ScipySpline(self.spl.derivative())


def scipy_fit(x, y):
    return ScipySpline(make_interp_spline(x, y, k=5))


# ---------------------------------------------------------------------------
# interior points of the flagship solution and its cylinder extensions


@pytest.fixture(scope="module")
def solutions(solution, phi_profile, psi_profile, psi_R_inf):
    return {0: solution,
            **{m: assemble(phi_profile, psi_profile, m_cylinder=m, theta=THETA,
                           R_inf=psi_R_inf) for m in (1, 2, 8)}}


@pytest.fixture(scope="module")
def scipy_solutions(phi_config, curve_1e3, psi_R_inf):
    """The solutions of the solutions fixture, built on scipy's splines."""
    with pytest.MonkeyPatch.context() as mp:
        for mod in (positive_pair, reconstruct):
            mp.setattr(mod, "interp_spline", scipy_fit)
        phi = build_phi(phi_config, np.linspace(0.0, 10.0, 1001))
        psi = rebuild_profile(curve_1e3, v0=1.0)
        psi.evaluator._dcols          # fitted on first use: fit them here
        return {m: assemble(phi, psi, m_cylinder=m, theta=THETA, R_inf=psi_R_inf)
                for m in (0, 1, 2)}


def rounding_gaps(sol, ref, pts):
    """|residual - reference residual| / E_p at each point, E_p the bound
    of test_batched_residual_matches_scalar_loop."""
    y = pts[:, 1:1 + sol.psi.n]
    rho = np.linalg.norm(y, axis=1)
    h = H_REL * np.maximum(np.abs(pts), 1.0)
    w_p, parts = _w(ref, pts[:, 0], rho)
    inv = _inverse_hessian(parts, rho, y, ref.m_cylinder)
    E_p = EPS * np.abs(w_p) * np.abs(inv).sum(axis=(1, 2)) / (h.min(axis=1) / 2.0) ** 2
    return np.abs(_residuals(sol, pts)[0] - _residuals(ref, pts)[0]) / E_p


unit = st.floats(0.0, 1.0)
raw_points = st.lists(st.tuples(unit, unit, unit, unit, unit), min_size=1,
                      max_size=5)


def interior_points(sol, raw):
    """Map unit tuples onto the region verify samples (as in _sample_points)."""
    n, m = sol.psi.n, sol.m_cylinder
    x_max = 0.8 * float(sol.phi.r[-1])
    r_lo = max(10.0 * H_REL, 20.0 * (sol.psi.r[0] + 1e-9))
    r_hi = 0.95 * float(sol.psi.r[-1])
    pts = []
    for a, b, c, d, e in raw:
        rho = math.exp(math.log(r_lo) + b * (math.log(r_hi) - math.log(r_lo)))
        ang = 2.0 * math.pi * c
        z = [2.0 * d - 1.0, 2.0 * e - 1.0][:m]
        pts.append([x_max * (2.0 * a - 1.0), rho * math.cos(ang),
                    rho * math.sin(ang), *z])
    return np.array(pts)


@pytest.mark.parametrize("m", [0, 1, 2])
@settings(max_examples=15)
@given(raw=raw_points)
def test_batched_w_matches_scalar(solutions, m, raw):
    sol = solutions[m]
    pts = interior_points(sol, raw)
    # the points and their +-h neighbours along every axis
    h = H_REL * np.maximum(np.abs(pts), 1.0)
    q = np.concatenate([pts] + [pts + s * h * e for e in np.eye(pts.shape[1])
                                for s in (1.0, -1.0)])
    x, rho = q[:, 0], np.linalg.norm(q[:, 1:1 + sol.psi.n], axis=1)
    got = _w(sol, x, rho)[0]
    want = np.array([ref_w_value(sol, float(a), float(b)) for a, b in zip(x, rho)])
    assert np.all(np.abs(got - want) <= 64 * EPS * np.abs(want))


@pytest.mark.parametrize("m", [0, 1, 2])
@settings(max_examples=15)
@given(raw=raw_points)
def test_distinct_radius_parts_bitwise(solutions, m, raw):
    # one evaluation per distinct radius, gathered back, equals the
    # direct evaluation on (2, P, S) stencil arrays, here those of the
    # full-size reference stencil (a superset of the points _residuals reads)
    sol = solutions[m]
    pts = interior_points(sol, raw)
    h = H_REL * np.maximum(np.abs(pts), 1.0)
    off = full_size._stencil(pts.shape[1])
    q = np.stack([pts[:, None, :] + off * hk[:, None, :] for hk in (h, h / 2.0)])
    x, rho = q[..., 0].copy(), np.linalg.norm(q[..., 1:1 + sol.psi.n], axis=-1)
    x.flat[0], x.flat[x.size // 2], x.flat[-1] = 0.0, -0.0, -0.0   # signed zeros
    got = _det_parts(sol, x, rho)
    want = ref_det_parts(sol, x, rho)
    for g, w in zip(got, want):
        assert g.shape == w.shape == x.shape
        assert g.tobytes() == np.asarray(w, dtype=float).tobytes()


@settings(max_examples=50)
@given(vals=st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-3, 0.5, 1.0, 2.5, 7.0]),
                     min_size=0, max_size=60),
       shape=st.sampled_from([None, (2, -1)]))
def test_distinct_is_np_unique_bitwise(vals, shape):
    # the same values, the same signed zero among them, and the same inverse
    r = np.array(vals)
    if shape and len(vals) % 2 == 0:
        r = r.reshape(shape)
    got, inv = _distinct(r)
    want, want_inv = np.unique(r, return_inverse=True)
    assert got.tobytes() == want.tobytes()
    assert inv.shape == r.shape and np.array_equal(inv, want_inv.reshape(r.shape))


@pytest.mark.parametrize("m", [0, 1, 2])
@settings(max_examples=15)
@given(raw=raw_points)
def test_batched_residual_matches_scalar_loop(solutions, m, raw):
    sol = solutions[m]
    pts = interior_points(sol, raw)
    got = _residuals(sol, pts)[0]
    for p, r in zip(pts, got):
        want, inv, h = ref_residual(sol, p)
        n = sol.psi.n
        w_p = ref_w_value(sol, float(p[0]), float(np.linalg.norm(p[1:1 + n])))
        E_p = EPS * abs(w_p) * np.sum(np.abs(inv)) / (h.min() / 2.0) ** 2
        assert abs(r - want) <= 64 * E_p
        assert residual_at(sol, p) == r       # one point is a batch of one


def test_verify_points_within_rounding_of_scipy_splines(solutions, scipy_solutions):
    # the 1000 points verify samples by default (max measured: 22 E_p)
    pts = _sample_points(solutions[0], 1000, 0)
    assert rounding_gaps(solutions[0], scipy_solutions[0], pts).max() <= 64


@pytest.mark.parametrize("m", [0, 1, 2])
@settings(max_examples=15)
@given(raw=raw_points)
def test_residuals_within_rounding_of_scipy_splines(solutions, scipy_solutions,
                                                    m, raw):
    pts = interior_points(solutions[m], raw)
    assert rounding_gaps(solutions[m], scipy_solutions[m], pts).max() <= 64


@pytest.mark.parametrize("m", [0, 1, 2])
@settings(max_examples=15)
@given(raw=raw_points)
def test_closed_form_eigenvalues_match_eigvalsh(solutions, m, raw):
    # the least eigenvalue _residuals reads at each point's stencil centre
    sol = solutions[m]
    pts = interior_points(sol, raw)
    got = _residuals(sol, pts)[1]
    for p, g in zip(pts, got):
        want = ref_eigenvalues(sol, p).min()
        np.testing.assert_allclose(g, want, rtol=1e-12, atol=0.0)


def test_batched_path_raises_near_singular():
    # the power-law factor is flat at the origin; one degenerate point
    # in a batch of regular ones makes the whole batch raise
    p = 8

    def mono(j):
        c = 1.0
        for i in range(j):
            c *= (p - 1 - i)
        return lambda r, c=c, q=p - 1 - j: p * c * r**q

    flat = AnalyticEvaluator(lambda r: r, [lambda r: 1.0, lambda r: 0.0,
                                           lambda r: 0.0])
    r = np.linspace(0.0, 2.0, 21)
    phi = RadialProfile(r=r, v=r, u=r * r / 2, n=1, evaluator=flat)
    ev = AnalyticEvaluator(mono(0), [mono(1), mono(2), mono(3)])
    power = RadialProfile(r=r, v=mono(0)(r), u=r**p, n=2, evaluator=ev)
    sol = SeparableSolution(phi=phi, psi=power, kappa=1.0,
                            theta=5.0 / 6.0, R_inf=math.inf)
    pts = np.array([[0.5, 1.0, 0.5], [0.5, 1e-3, 1e-3], [1.0, 0.7, -0.3]])
    with pytest.raises(NearSingular):
        ref_residual(sol, pts[1])
    assert np.isfinite(_residuals(sol, pts[[0, 2]])[0]).all()
    with pytest.raises(NearSingular):
        _residuals(sol, pts)


# ---------------------------------------------------------------------------
# blocks of points against the full-size pass, bit for bit


def block_bytes(sol, points):
    """The _BLOCK_BYTES that makes blocks of the given number of points."""
    return points * 16 * len(_stencil(sol.psi.n))


# (P, points per block): one block, a block of one point, P not a multiple
# of the block, and blocks that start off a multiple of 4
BLOCKINGS = [(1, 1), (2, 1), (5, 2), (9, 3), (65, 7), (129, 64), (256, 128),
             (300, 250), (431, 13), (599, 128), (600, 250), (600, None)]


@pytest.mark.parametrize("m", [0, 1, 2, 8])
def test_blocked_residuals_equal_full_size_pass(solutions, monkeypatch, m):
    sol = solutions[m]
    pts = _sample_points(sol, 600, 7)
    for P, block in BLOCKINGS:
        if block is not None:
            monkeypatch.setattr(verify, "_BLOCK_BYTES", block_bytes(sol, block))
        got, want = _residuals(sol, pts[:P]), full_size.residuals(sol, pts[:P])
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("m", [0, 1, 2])
@settings(max_examples=10)
@given(data=st.data())
def test_blocked_residuals_equal_full_size_pass_drawn(solutions, m, data):
    sol = solutions[m]
    P = data.draw(st.integers(1, 600))
    block = data.draw(st.integers(max(1, P // 16), 600))
    pts = _sample_points(sol, P, data.draw(st.integers(0, 2**32 - 1)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_BLOCK_BYTES", block_bytes(sol, block))
        got = _residuals(sol, pts)
    want = full_size.residuals(sol, pts)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_one_factor_evaluation_per_block(solution, monkeypatch):
    # kappa phi'', psi' and psi'' once over each block's stencil points,
    # which hold the points themselves: 3 blocks of 1000 points at n = 2
    full_residual(solution, 2, 0)       # fits the factors' splines
    calls = []
    for name in ("v", "deriv"):
        def count(self, *args, _call=getattr(ProfileEvaluator, name)):
            calls.append(args)
            return _call(self, *args)
        monkeypatch.setattr(ProfileEvaluator, name, count)
    full_residual(solution, 1000, 0)
    block = verify._BLOCK_BYTES // (16 * len(_stencil(solution.psi.n)))
    assert -(-1000 // block) == 3 and len(calls) == 9


def test_near_singular_names_the_first_bad_point_of_the_first_bad_block(
        monkeypatch):
    # psi = |y|^2/2 gives det = 1 but at a stencil point on rho = 0 (NaN):
    # with h = 1e-3, (0.25, 5e-4, 0) reaches it only at step h/2 and
    # (0.75, 1e-3, 0) at step h.  Within a block step h comes first, as in
    # the full-size pass; blocks are checked in order
    ev = AnalyticEvaluator(lambda r: r, [lambda r: 1.0, lambda r: 0.0,
                                         lambda r: 0.0], u_fn=lambda r: r * r / 2)
    r = np.linspace(0.0, 4.0, 41)

    def factor(n):
        return RadialProfile(r=r, v=r, u=r * r / 2, n=n, evaluator=ev)

    sol = SeparableSolution(phi=factor(1), psi=factor(2), kappa=1.0,
                            theta=0.75, R_inf=math.inf)
    pts = np.array([[0.1, 0.5, 0.5], [0.25, 5e-4, 0.0], [0.2, 0.3, -0.4],
                    [0.3, 0.6, 0.1], [0.4, 0.7, 0.2], [0.75, 1e-3, 0.0]])
    with pytest.raises(NearSingular, match="x=0.75") as ref:
        full_size.residuals(sol, pts)
    for block, named in ((1, "x=0.25"), (6, "x=0.75")):
        monkeypatch.setattr(verify, "_BLOCK_BYTES", block_bytes(sol, block))
        with pytest.raises(NearSingular, match=named) as err:
            _residuals(sol, pts)
    assert str(err.value) == str(ref.value)
    with pytest.raises(NearSingular, match="x=0.25"):
        _residuals(sol, pts[:5])


def test_stencil_holds_only_the_points_the_residual_reads():
    # 1 + 2(1+n) + 2n(n-1) rows in (x, y), whatever m_cylinder
    for n in range(2, 6):
        off = _stencil(n)
        assert off.shape == (1 + 2 * (1 + n) + 2 * n * (n - 1), 1 + n)
        assert len(np.unique(off, axis=0)) == len(off)
        assert not np.any(off[:, 0] * np.abs(off[:, 1:]).sum(axis=1))   # no x-y corner
