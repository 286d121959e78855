"""The numpy spline against scipy's make_interp_spline and BSpline.

interp_spline replaces make_interp_spline(x, y, k=5) (not-a-knot
quintics).  Its basis and its sum over the nonzero terms follow scipy's
B-spline evaluation operation for operation, so on the same knots and
coefficients every value and derivative is bit-equal to BSpline's.  The
fit is not: make_interp_spline solves the collocation system with
LAPACK's pivoted band LU, interp_spline by cyclic reduction, so the
coefficients agree to a bound in ulps of each column's largest
coefficient.  That bound is measured on the flagship tables and on
graded random grids and pinned below.  On wild grids the interpolation
problem itself is ill conditioned, so no two solvers agree in ulps;
there the fit is held to what LAPACK's solve guarantees, a normwise
backward error of a few eps.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline, make_interp_spline

from affmax import spline
from affmax.errors import DomainError, ParameterError
from affmax.positive_pair import PositivePairConfig, _curvature_table
from affmax.reconstruct import _tables
from affmax.spline import Spline, interp_spline

import full_size
from conftest import THETA

EPS = np.finfo(float).eps

# largest differences from make_interp_spline, in ulps of each column's
# largest magnitude, for coefficients / values / derivative values
# (measured: 63 / 8 / 4.0e4 on the flagship tables; 222 / 132 / 57 over
# 3000 random grids of the graded family below)
FLAGSHIP_ULPS = {"c": 128, "v": 16, "d": 8e4}
GRADED_ULPS = {"c": 512, "v": 256, "d": 128}


def ulps(got, want):
    """max |got - want| per column, in ulps of the column's largest |want|."""
    got = np.asarray(got).reshape(len(got), -1)
    want = np.asarray(want).reshape(len(want), -1)
    return float(np.max(np.max(np.abs(got - want), axis=0)
                        / np.spacing(np.max(np.abs(want), axis=0))))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def backward_error(x, y, c):
    """Normwise ||A c - y|| / (||A|| ||c|| + ||y||) per column, in eps."""
    t = make_interp_spline(x, np.zeros(len(x)), k=5).t   # only its knots
    A = BSpline.design_matrix(x, t, 5)                    # sparse
    c, y = c.reshape(len(x), -1), y.reshape(len(x), -1)
    r = np.max(np.abs(A @ c - y), axis=0)
    return r / (np.max(abs(A).sum(axis=1)) * np.max(np.abs(c), axis=0)
                + np.max(np.abs(y), axis=0)) / EPS


# ---------------------------------------------------------------------------
# grids


@st.composite
def graded_grids(draw, max_n=300):
    """Sites whose neighbouring spacings differ by at most a factor 2."""
    n = draw(st.integers(6, max_n))
    steps = draw(st.lists(st.floats(-math.log(2), math.log(2)),
                          min_size=n - 1, max_size=n - 1))
    h = np.exp(np.clip(np.cumsum(steps), -math.log(100), math.log(100)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    x0 = draw(st.floats(-10.0, 10.0))
    return x0 + scale * np.concatenate([[0.0], np.cumsum(h)])


@st.composite
def wild_grids(draw):
    """Sites whose neighbouring spacings differ by up to e^10."""
    n = draw(st.integers(24, 300))
    s = draw(st.floats(0.0, 5.0))
    logh = draw(st.lists(st.floats(-s, s), min_size=n - 1, max_size=n - 1))
    return np.concatenate([[0.0], np.cumsum(np.exp(logh))])


def columns(draw, n):
    m = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).normal(size=(n, m))


# ---------------------------------------------------------------------------
# evaluation: bit-equal to BSpline on the same coefficients


@settings(max_examples=60)
@given(x=graded_grids(max_n=80), data=st.data())
def test_evaluation_equals_bspline_bitwise(x, data):
    k = 5
    c = columns(data.draw, len(x))
    t = make_interp_spline(x, c, k=k).t
    ours, ref = Spline(t, c, k), BSpline(t, c, k)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    q = np.concatenate([x, t[k:len(c) + 1], rng.uniform(x[0], x[-1], 40)])
    assert same_bits(ours(q), ref(q))
    for j in range(c.shape[1]):
        assert same_bits(ours(q, j), ref(q)[:, j])
    d, dref = ours.derivative(), ref.derivative()
    assert same_bits(d.t, dref.t) and same_bits(d.c, dref.c[:len(d.c)])
    assert same_bits(d(q), dref(q))
    # a 1-D coefficient vector, scalars and stencil-shaped arrays
    one = Spline(t, c[:, 0], k)
    assert same_bits(one(q.reshape(2, -1)), BSpline(t, c[:, 0], k)(q).reshape(2, -1))
    assert same_bits(one(q[3]), BSpline(t, c[:, 0], k)(q[3]))


def test_evaluation_outside_the_base_interval_raises():
    x = np.linspace(0.0, 1.0, 30)
    sp = interp_spline(x, np.sin(x))
    assert sp.domain == (0.0, 1.0)
    sp(np.array([0.0, 1.0]))
    for bad in (np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0), -3.0, 7.0):
        with pytest.raises(DomainError):
            sp(np.array([0.5, bad]))
    with pytest.raises(DomainError):
        sp.derivative()(1.5)
    assert np.isnan(sp(np.array([np.nan]))[0])


def test_repeated_points_reuse_the_basis():
    x = np.linspace(0.0, 1.0, 40)
    y = np.stack([np.sin(x), np.cos(x)], axis=-1)
    sp = interp_spline(x, y)
    q = np.linspace(0.1, 0.9, 17)
    first = sp(q, 0)
    q[3] = 0.5                       # the caller's array changes in place
    assert same_bits(sp(q, 1), interp_spline(x, y)(q, 1))
    assert not same_bits(sp(q, 0), first)


# ---------------------------------------------------------------------------
# the fit against make_interp_spline


def flagship_tables(curve):
    config = PositivePairConfig(v0=1.0, lam=1.0, theta=THETA)
    r, vpp, v_up, u = _curvature_table(config, 10.0)
    tab = _tables(curve, v0=1.0)
    return {"phi": (np.log1p(r), np.stack([np.log(vpp), v_up, u], axis=-1)),
            "phase": (tab["t"], np.stack([np.log(tab["x"]), np.log(tab["zeta"]),
                                          tab["logv"], tab["u"]], axis=-1))}


@pytest.mark.parametrize("name", ["phi", "phase"])
def test_fit_matches_scipy_on_flagship_tables(curve_1e5, name):
    x, y = flagship_tables(curve_1e5)[name]
    ours, ref = interp_spline(x, y), make_interp_spline(x, y, k=5)
    assert same_bits(ours.t, ref.t)
    q = np.sort(np.random.default_rng(0).uniform(x[0], x[-1], 5000))
    assert ulps(ours.c, ref.c) <= FLAGSHIP_ULPS["c"]
    assert ulps(ours(q), ref(q)) <= FLAGSHIP_ULPS["v"]
    assert ulps(ours.derivative()(q), ref.derivative()(q)) <= FLAGSHIP_ULPS["d"]
    assert np.all(backward_error(x, y, ours.c) <= 4)


@settings(max_examples=150)
@given(x=graded_grids(), data=st.data())
def test_fit_matches_scipy_on_graded_grids(x, data):
    y = columns(data.draw, len(x))
    ours, ref = interp_spline(x, y), make_interp_spline(x, y, k=5)
    assert same_bits(ours.t, ref.t)
    q = np.concatenate([x, np.random.default_rng(1).uniform(x[0], x[-1], 50)])
    assert ulps(ours.c, ref.c) <= GRADED_ULPS["c"]
    assert ulps(ours(q), ref(q)) <= GRADED_ULPS["v"]
    assert ulps(ours.derivative()(q), ref.derivative()(q)) <= GRADED_ULPS["d"]


@settings(max_examples=150)
@given(x=wild_grids(), data=st.data())
def test_fit_is_backward_stable_on_wild_grids(x, data):
    y = columns(data.draw, len(x))
    assert np.all(backward_error(x, y, interp_spline(x, y).c) <= 4)


def test_refinement_restores_backward_stability():
    # a wild grid on which cyclic reduction alone leaves 60 eps
    rng = np.random.default_rng(4)
    x = np.concatenate([[0.0], np.cumsum(np.exp(rng.uniform(-5.0, 5.0, 199)))])
    y = rng.normal(size=(200, 2))
    k, n = 5, len(x)
    t = make_interp_spline(x, y, k=k).t
    start = np.clip(np.arange(n) + 3, k, n - 1) - k
    rows = BSpline.design_matrix(x, t, k).toarray()[np.arange(n)[:, None],
                                                    start[:, None] + np.arange(k + 1)].T
    unrefined = spline._solve_banded(rows, start, np.ascontiguousarray(y.T)).T
    assert np.all(backward_error(x, y, unrefined) > 30)
    assert np.all(backward_error(x, y, interp_spline(x, y).c) <= 4)


@settings(max_examples=80)
@given(x=st.one_of(graded_grids(), wild_grids()), data=st.data())
def test_joint_fit_equals_per_column_fits(x, data):
    y = columns(data.draw, len(x))
    joint = interp_spline(x, y)
    for j in range(y.shape[1]):
        assert same_bits(joint.c[:, j], interp_spline(x, y[:, j]).c)


@pytest.mark.parametrize("x, y", [
    (np.linspace(0, 1, 5), np.zeros(5)),
    (np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0]), np.zeros(7)),
    (np.linspace(0, 1, 10), np.zeros(9)),
    (np.linspace(0, 1, 10), np.zeros((10, 2, 2))),
], ids=["five-sites", "repeated-site", "short-y", "3-d-y"])
def test_rejects_what_it_cannot_fit(x, y):
    with pytest.raises(ParameterError):
        interp_spline(x, y)


# ---------------------------------------------------------------------------
# the collocation solve against its full-size reference, bit for bit


def collocation(x, y):
    """interp_spline's collocation system on the sites x: (rows, start, Y)."""
    n, k, e = len(x), 5, 3
    t = np.concatenate([np.full(k + 1, x[0]), x[e:n - e], np.full(k + 1, x[-1])])
    start = np.clip(np.arange(n) + e - k, 0, n - 1 - k)
    return (spline._basis(t, k, x, start + k), start,
            np.ascontiguousarray(y.reshape(n, -1).T))


def assert_solve_and_fit_match_full_size(monkeypatch, x, y):
    if len(x) >= spline._DENSE_BELOW:        # smaller systems are solved dense
        rows, start, Y = collocation(x, y)
        assert same_bits(spline._solve_banded(rows, start, Y),
                         full_size.solve_banded(rows, start, Y))
    fit = interp_spline(x, y)
    with monkeypatch.context() as mp:
        mp.setattr(spline, "_solve_banded", full_size.solve_banded)
        assert same_bits(fit.c, interp_spline(x, y).c)


@pytest.mark.parametrize("name, interior", [("phi", 1994), ("phase", 16929)])
def test_fit_equals_full_size_solve_on_flagship_tables(monkeypatch, curve_1e5,
                                                       name, interior):
    # one interior size of each parity: an odd one gets an identity row
    x, y = flagship_tables(curve_1e5)[name]
    assert len(x) - 6 == interior
    assert_solve_and_fit_match_full_size(monkeypatch, x, y)


@settings(max_examples=150)
@given(x=st.one_of(graded_grids(), wild_grids()), data=st.data())
def test_fit_equals_full_size_solve(x, data):
    y = columns(data.draw, len(x))
    if data.draw(st.booleans()):
        y[:, 0] = 0.0                  # exact zeros keep their signs too
    with pytest.MonkeyPatch.context() as mp:
        assert_solve_and_fit_match_full_size(mp, x, y)
