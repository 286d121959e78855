"""The stepped DOP853 extension, the DOP853 port, the cumulative-Simpson
port, the local solve's mapping and its one Taylor fit against the scipy
calls and formulas they replaced.

extend_global steps affmax.dop853.DOP853, a port of scipy's class, and
reads its dense output in one gather, dop853.dense_values; the reference
below is the solve_ivp version it replaced, so every quantity the gather
reads (each step's ends, F, y_old and h) is checked against OdeSolution,
and the port is checked step by step against scipy's class.  Every
operation is meant to be the same, so every comparison is bit for bit:
no tolerance.
"""

import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853 as ScipyDOP853
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from affmax import dop853, negative_pair, reconstruct
from affmax.core import (X_SWITCH, CumulativeSimpson, ModelParams, PhaseCurve,
                         TaylorData, cumulative_simpson, measure_taylor)
from affmax.errors import ParameterError, PositivityLoss, StepFailure
from affmax.negative_pair import (LocalSolve, calibration_target, extend_global,
                                  fixed_point_solve, taylor_coeffs)
from affmax.phase_plane import coef_linear, coef_q, coef_zero, phase_field

from conftest import ETA0, N, THETA

# the local solve's default node count, read from its signature
GRID_POINTS = inspect.signature(fixed_point_solve).parameters["grid_points"].default


# ---------------------------------------------------------------------------
# references: the solve_ivp extension and the per-call Taylor fit


def extension_rhs(local):
    """The right-hand side (zeta, I)' that extend_global integrates."""
    params = local.curve.params
    n, theta, lam3 = params.n, params.theta, params.lambda3

    def rhs(e, y):
        z, I = y
        return [(theta + 1) * z / e + coef_linear(e, n, theta)
                + coef_zero(e, n, theta) / z
                - lam3 * e * e * math.exp(I) / z,
                (e + 1) / z]
    return rhs


def ref_extend_global(local, eta_max=1e3, rtol=1e-11, atol=1e-13):
    eta0 = local.curve.params.eta0
    z0 = float(local.curve.zeta[-1])
    rhs = extension_rhs(local)

    def hit_zero(e, y):
        return y[0] - 1e-12
    hit_zero.terminal = True
    hit_zero.direction = -1

    sol = solve_ivp(rhs, (eta0, eta_max), [z0, 0.0], method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True, events=hit_zero)
    if sol.status == 1:
        # the event root lies in the last step, which extend_global names
        step = sol.sol.interpolants[-1]
        assert step.t_old <= sol.t_events[0][0] <= step.t
        raise PositivityLoss(f"zeta reached 0 between eta = "
                             f"{float(step.t_old)} and {float(step.t)}")
    if not sol.success:
        if len(sol.y[0]) and sol.y[0][-1] < 1e-3 * z0:
            raise PositivityLoss(
                f"zeta collapsed to {sol.y[0][-1]:.3e} near eta = {sol.t[-1]:.6g}")
        raise StepFailure(f"extension failed: {sol.message}")
    n_samples = max(4000, int(3000 * math.log10(eta_max / eta0 + 1)))
    ee = np.geomspace(eta0, eta_max, n_samples)[1:]
    zz, II = sol.sol(ee)
    return (np.concatenate([local.curve.eta, ee]),
            np.concatenate([local.curve.zeta, zz]),
            np.concatenate([local.curve.I, II]))


def ref_measure_taylor(eta, zeta, eta0):
    x = np.asarray(eta, dtype=float) - 1.0
    w = min(1e-2, (eta0 - 1.0) / 2.0)
    sel = (x > 0) & (x <= w)
    xs = x[sel]
    cols = np.vstack([xs ** (k + 1) / math.factorial(k + 1) for k in range(5)]).T
    norm = np.linalg.norm(cols, axis=0)
    c, *_ = np.linalg.lstsq(cols / norm, zeta[sel] - 0.0, rcond=None)
    c = c / norm
    return TaylorData(d1=float(c[0]), alpha=float(c[1]), beta=float(c[2]),
                      gamma=float(c[3]))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def taylor_bits(t):
    return [float.hex(v) for v in (t.d1, t.alpha, t.beta, t.gamma)]


# ---------------------------------------------------------------------------
# extend_global


@settings(max_examples=20)
@given(theta=st.floats(0.51, 0.66, exclude_min=True, exclude_max=True),
       eta0=st.sampled_from([1.02, 1.05]),
       eta_max=st.sampled_from([50.0, 1e3, 1e5]))
def test_extension_matches_solve_ivp(theta, eta0, eta_max):
    local = fixed_point_solve(2, theta, eta0)
    got = extend_global(local, eta_max=eta_max)
    eta, zeta, I = ref_extend_global(local, eta_max=eta_max)
    assert np.array_equal(got.eta, eta)
    assert np.array_equal(got.zeta, zeta)
    assert np.array_equal(got.I, I)


def test_gather_matches_ode_solution_at_step_ends():
    # samples on the step ends, between them and at both ends of the range
    sol = solve_ivp(lambda e, y: [y[1] / e, -y[0] / e], (ETA0, 40.0), [1.0, 0.5],
                    method="DOP853", rtol=1e-9, atol=1e-12, dense_output=True)
    ts = sol.sol.ts
    ee = np.sort(np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:]),
                                 np.geomspace(ETA0, 40.0, 301)]))
    assert same_bits(dop853.dense_values(sol.sol.interpolants, ee), sol.sol(ee))


def stub_local(n, theta, lambda3, z):
    """A local solve whose curve is constant z on [1.0001, 1.05]."""
    params = ModelParams(n=n, theta=theta, lambda3=lambda3, eta0=1.05)
    taylor = TaylorData(d1=2.0, alpha=0.0, beta=0.0, gamma=0.0)
    eta = np.linspace(1.0001, 1.05, 200)
    curve = PhaseCurve(params=params, taylor=taylor, eta=eta,
                       zeta=z * np.ones_like(eta), I=np.zeros_like(eta))
    return LocalSolve(curve=curve, lambda_cal=-lambda3, iterations=0,
                      contraction_history=[], taylor_measured=taylor,
                      taylor_formula=taylor)


@pytest.mark.parametrize("stub,tols,kind,start", [
    # the stub of test_positivity_loss_detected: zeta collapses
    ((3, 0.4, -1e-6, 0.1), {}, PositivityLoss, "zeta collapsed to "),
    # coarse tolerances: zeta steps through zero, the terminal event fires
    ((3, 0.4, -1e-6, 0.1), {"rtol": 1e-3, "atol": 1e-6}, PositivityLoss,
     "zeta reached 0 between "),
    ((2, 0.55, 1.0, 0.05), {"rtol": 1e-2, "atol": 1e-4}, PositivityLoss,
     "zeta reached 0 between "),
    # an overflowing forcing term: the step size underflows, zeta stays up
    ((2, 0.55, -1e308, 0.1), {}, StepFailure, "extension failed: "),
], ids=["collapse", "event", "event-coarse", "step-failure"])
def test_failures_match_solve_ivp(stub, tols, kind, start):
    local = stub_local(*stub)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(kind) as got:
            extend_global(local, eta_max=100.0, **tols)
        with pytest.raises(kind) as want:
            ref_extend_global(local, eta_max=100.0, **tols)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(start)


def test_extension_needs_eta_max_above_eta0(local_solve):
    for eta_max in (ETA0, 1.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="must exceed eta0"):
            extend_global(local_solve, eta_max=eta_max)


# ---------------------------------------------------------------------------
# the DOP853 port against scipy's


def test_tableau_equals_scipy():
    ref = dop853_coefficients
    assert (dop853.N_STAGES, dop853.N_STAGES_EXTENDED, dop853.INTERPOLATOR_POWER) \
        == (ref.N_STAGES, ref.N_STAGES_EXTENDED, ref.INTERPOLATOR_POWER)
    for name in ("A", "B", "C", "E3", "E5", "D"):
        assert np.array_equal(getattr(dop853, "_" + name), getattr(ref, name)), name


@pytest.mark.parametrize("theta, eta_max", [(THETA, 1e5), (0.52, 1e3), (0.58, 1e3),
                                            (0.64, 1e3), (0.51, 1e5), (0.655, 1e5)])
def test_dop853_steps_equal_scipy_bitwise(theta, eta_max):
    # the flagship, a theta grid in (1/2, 2/3) and the ends of the sweep
    # benchmark's grid: every accepted step and every dense output of the
    # port equals scipy's class stepping a (t, y) wrapper of the same field
    local = fixed_point_solve(N, theta, ETA0)
    field = phase_field(local.curve.params)
    y0 = (float(local.curve.zeta[-1]), 0.0)
    ours = dop853.DOP853(field, ETA0, y0, eta_max, rtol=1e-11, atol=1e-13)
    ref = ScipyDOP853(lambda e, y: field(e, *y.tolist()), ETA0, y0, eta_max,
                      rtol=1e-11, atol=1e-13)
    assert same_bits(ours.h_abs, ref.h_abs)
    steps = 0
    while ref.status == "running":
        assert ours.step() == ref.step()
        assert ours.status == ref.status
        for name in ("t", "t_old", "h_abs", "y", "f"):
            assert same_bits(getattr(ours, name), getattr(ref, name)), name
        got, want = ours.dense_output(), ref.dense_output()
        for name in ("t_old", "t", "h", "y_old", "F"):
            assert same_bits(getattr(got, name), getattr(want, name)), name
        mid = 0.5 * (ref.t_old + ref.t)
        assert same_bits(dop853.dense_values([got], np.array([mid]))[:, 0], want(mid))
        steps += 1
    assert ours.status == "finished" and steps > 50


def test_error_norm_equals_scipy_bitwise():
    # random stages, scales and steps: the norms' squares are the C
    # library's pow, as numpy's scalar power is, which x * x is not always
    ours = dop853.DOP853(lambda e, z, I: (z, I), 1.0, (1.0, 1.0), 2.0,
                         rtol=1e-11, atol=1e-13)
    ref = ScipyDOP853(lambda e, y: y, 1.0, [1.0, 1.0], 2.0, rtol=1e-11, atol=1e-13)
    rng = np.random.default_rng(0)
    for _ in range(10000):
        K = rng.standard_normal((13, 2)) * 10.0 ** rng.uniform(-8.0, 8.0, (13, 1))
        scale = 10.0 ** rng.uniform(-13.0, 0.0, 2)
        h = 10.0 ** rng.uniform(-6.0, 0.0)
        ours.K[:] = K
        want = ref._estimate_error_norm(K, h, scale)
        assert same_bits(ours._error_norm(h, *scale.tolist()), want)


# ---------------------------------------------------------------------------
# cumulative_simpson


def simpson_inputs(n, seed):
    """Increasing x and signed y, both with magnitudes from 1e-10 to 1e10."""
    rng = np.random.default_rng(seed)
    x = np.sort(10.0 ** rng.uniform(-10.0, 10.0, n))
    y = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-10.0, 10.0, n)
    return x, y


@settings(max_examples=300)
@given(n=st.one_of(st.integers(3, 50), st.just(6001)),
       seed=st.integers(0, 2**32 - 1))
def test_cumulative_simpson_matches_scipy(n, seed):
    x, y = simpson_inputs(n, seed)
    assume(np.all(np.diff(x) > 0))     # two magnitudes may round to one float
    assert same_bits(cumulative_simpson(y, x),
                     scipy_cumulative_simpson(y, x=x, initial=0.0))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 6001, 6002])
def test_cumulative_simpson_odd_and_even_counts(n):
    x, y = simpson_inputs(n, n)
    assert same_bits(cumulative_simpson(y, x),
                     scipy_cumulative_simpson(y, x=x, initial=0.0))
    # a zero integrand: scipy's initial=0.0 turns every -0.0 into 0.0
    z = -np.zeros(n)
    assert same_bits(cumulative_simpson(z, x),
                     scipy_cumulative_simpson(z, x=x, initial=0.0))


def test_cumulative_simpson_signed_zero():
    # the first interval integrates to -0.0; scipy's initial=0.0 adds +0.0
    y, x = np.array([-0.0, -0.0, 0.0]), np.array([0.0, 1.0, 2.0])
    got = cumulative_simpson(y, x)
    assert same_bits(got, scipy_cumulative_simpson(y, x=x, initial=0.0))
    assert math.copysign(1.0, got[1]) == 1.0


@pytest.mark.parametrize("x", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0],
                               [3.0, 2.0, 1.0, 0.0], [0.0, 1.0]],
                         ids=["repeated", "decreasing-step", "decreasing",
                              "two-samples"])
def test_cumulative_simpson_rejects(x):
    with pytest.raises(ValueError):
        cumulative_simpson(np.ones(len(x)), np.array(x))


def test_one_grid_integrates_many_integrands_as_scipy():
    # the weights formed once serve every integrand on the grid
    x, _ = simpson_inputs(6001, 7)
    simpson = CumulativeSimpson(x)
    rng = np.random.default_rng(8)
    for y in [np.sin(x), -np.zeros_like(x)] + [
            rng.standard_normal(len(x)) * 10.0 ** rng.uniform(-10.0, 10.0)
            for _ in range(5)]:
        assert same_bits(simpson(y), scipy_cumulative_simpson(y, x=x, initial=0.0))


def test_one_grid_rejects_another_length():
    with pytest.raises(ValueError):
        CumulativeSimpson(np.arange(5.0))(np.ones(4))


# ---------------------------------------------------------------------------
# the mapping of the local solve, its grid arrays formed once, against the
# per-call expression it replaced


def ref_remainder(taylor, x):
    """R(x) with zeta = x (d1 + x R(x)) to fourth order."""
    return taylor.alpha / 2 + x * (taylor.beta / 6 + x * (taylor.gamma / 24))


def ref_x_over_zeta(x, zeta, taylor):
    out = np.empty_like(x)
    small = x < X_SWITCH
    xs = x[small]
    out[small] = 1.0 / (taylor.d1 + xs * ref_remainder(taylor, xs))
    out[~small] = x[~small] / zeta[~small]
    return out


def ref_g_integrand(x, eta, phi, taylor):
    out = np.empty_like(x)
    small = x < X_SWITCH
    xs = x[small]
    R = ref_remainder(taylor, xs)
    out[small] = (1 - R) / (2.0 + xs * R)
    xl = x[~small]
    out[~small] = ((eta[~small] ** 2 - 1.0) - phi[~small]) / (phi[~small] * xl)
    return out


def ref_map_once(x, eta, phi, taylor, n, theta, eta0):
    g = ref_g_integrand(x, eta, phi, taylor)
    Jfull = scipy_cumulative_simpson(g, x=eta, initial=0.0)
    lam = 2.0 * calibration_target(n) * (eta0 - 1.0) * math.exp(float(Jfull[-1]))
    J = Jfull - Jfull[-1]
    ratio = ref_x_over_zeta(x, phi, taylor)
    exp_I_over_phi = ratio * np.exp(J) / (eta0 - 1.0)
    q = coef_q(eta, n, theta)
    F = ((theta + 1) * phi / eta + coef_linear(eta, n, theta)
         + n * eta * q * ratio + lam * eta**2 * exp_I_over_phi)
    zeta = scipy_cumulative_simpson(F, x=eta, initial=0.0)
    return zeta, lam, F


@settings(max_examples=12)
@given(theta=st.floats(0.51, 0.655), eta0=st.sampled_from([1.02, 1.05]))
def test_map_once_matches_per_call_expression(theta, eta0):
    # the seed, as in the first sweep, and the converged iterate, both
    # mapped with the exact Taylor data as every sweep is
    local = fixed_point_solve(N, theta, eta0)
    x = np.concatenate([[0.0], np.geomspace(1e-10, eta0 - 1.0, GRID_POINTS)])
    eta = 1.0 + x
    formula = taylor_coeffs(N, theta)
    seed = x * (2.0 + x * ref_remainder(formula, x))
    assert same_bits(formula.seed(x), seed)
    grid = negative_pair._MapGrid(x, eta, eta0, N, theta)
    for phi in (seed, np.concatenate([[0.0], local.curve.zeta])):
        got = negative_pair._map_once(grid, phi, formula)
        want = ref_map_once(x, eta, phi, formula, N, theta, eta0)
        assert same_bits(got[0], want[0]) and same_bits(got[2], want[2])
        assert float.hex(got[1]) == float.hex(want[1])


def ref_tables(curve, v0):
    """reconstruct._tables with a per-call split and scipy's quadrature."""
    eta, zeta, tay = curve.eta, curve.zeta, curve.taylor
    x = eta - 1.0
    x0 = curve.params.eta0 - 1.0
    i0 = int(np.argmin(np.abs(eta - curve.params.eta0)))
    d = tay.d1
    tau_i = np.empty_like(x)
    small = x < X_SWITCH
    xs = x[small]
    R = ref_remainder(tay, xs)
    tau_i[small] = -R / (d * (d + xs * R))
    tau_i[~small] = 1.0 / zeta[~small] - 1.0 / (d * x[~small])
    ratio = ref_x_over_zeta(x, zeta, tay)
    ctau = scipy_cumulative_simpson(tau_i, x=eta, initial=0.0)
    tau = ctau - ctau[i0]
    cW = scipy_cumulative_simpson(ratio, x=eta, initial=0.0)
    W = cW - cW[i0]
    t = tau + np.log(x / x0) / d
    u_int = np.exp(W + 2.0 * tau) * np.power(x / x0, 2.0 / d) * ratio / x
    u = scipy_cumulative_simpson(u_int, x=eta, initial=0.0) * v0
    u += v0 * u_int[0] * x[0] * (d / 2.0)
    return {"t": t, "logv": math.log(v0) + W + t, "u": u}


def test_reconstruct_tables_match_per_call_expression(curve_1e3):
    got = reconstruct._tables(curve_1e3, 2.0)
    for key, want in ref_tables(curve_1e3, 2.0).items():
        assert same_bits(got[key], want), key


# ---------------------------------------------------------------------------
# the one Taylor fit of the Picard loop


def test_taylor_data_measured_once_on_the_final_iterate(monkeypatch):
    calls = []

    def recording(eta, zeta, eta0):
        out = measure_taylor(eta, zeta, eta0)
        calls.append((eta, zeta.copy(), eta0, out))
        return out

    monkeypatch.setattr(negative_pair, "measure_taylor", recording)
    local = fixed_point_solve(N, THETA, ETA0)
    assert len(calls) == 1 < local.iterations
    # the fit reads 1.0 + x, the solve's grid, and the converged iterate
    eta, zeta, eta0, got = calls[0]
    x = np.concatenate([[0.0], np.geomspace(1e-10, ETA0 - 1.0, GRID_POINTS)])
    assert same_bits(eta, 1.0 + x) and eta0 == ETA0
    assert same_bits(zeta, np.concatenate([[0.0], local.curve.zeta]))
    assert taylor_bits(got) == taylor_bits(ref_measure_taylor(eta, zeta, eta0))
    assert taylor_bits(local.taylor_measured) == taylor_bits(got)
