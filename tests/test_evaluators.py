"""The joint-spline evaluators against the per-column evaluators they replaced.

Each table-backed evaluator fits one multi-column quintic spline and
reads its columns from one evaluation.  The references below fit one
spline per column with the same interp_spline, as the evaluators did
before.  The collocation matrix depends only on the sites and knots, and
interp_spline gives each column the same operations whatever the other
columns are, so the joint fit must give the same coefficients and every
value must agree bit for bit: no tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from affmax import positive_pair, reconstruct
from affmax.cli import main
from affmax.core import AnalyticEvaluator, profile_to_phase
from affmax.errors import DomainError, ParameterError
from affmax.positive_pair import (PositivePairConfig, PositivePairEvaluator,
                                  _curvature_table)
from affmax.reconstruct import PhaseProfileEvaluator, _tables
from affmax.spline import interp_spline

from conftest import THETA
from oracles import negative_pair_blowup_1d, paraboloid_profile


# ---------------------------------------------------------------------------
# per-column references: one interp_spline call per column


def shaped_like(r, val):
    """val as floats in the shape of r: a float for a scalar r, else an array."""
    val = np.asarray(val, dtype=float)
    if val.shape != np.shape(r):
        val = np.broadcast_to(val, np.shape(r)).copy()
    return val if val.ndim else float(val)


class RefPhaseProfileEvaluator:
    def __init__(self, tab):
        t = tab["t"]
        self.t_min, self.t_max = float(t[0]), float(t[-1])
        self.r_min, self.r_max = math.exp(self.t_min), math.exp(self.t_max)
        self.d1 = tab["d1"]
        self._LX = interp_spline(t, np.log(tab["x"]))
        self._LZ = interp_spline(t, np.log(tab["zeta"]))
        self._LV = interp_spline(t, tab["logv"])
        self._U = interp_spline(t, tab["u"])
        self._dLZ = self._LZ.derivative()
        self.vp0 = math.exp(float(tab["logv"][0]) - self.t_min)
        self._x_min = float(tab["x"][0])

    def _t(self, r):
        return np.clip(np.log(np.maximum(r, self.r_min)), self.t_min, self.t_max)

    def _state(self, r):
        t = self._t(r)
        return t, 1.0 + np.exp(self._LX(t)), np.exp(self._LZ(t))

    def etabar(self, r):
        below = 1.0 + self._x_min * (np.minimum(r, self.r_min) / self.r_min) ** self.d1
        return shaped_like(r, np.where(r < self.r_min, below, self._state(r)[1]))

    def v(self, r):
        r = np.abs(r)
        return shaped_like(r, np.where(r < self.r_min, self.vp0 * r,
                                       np.exp(self._LV(self._t(r)))))

    def u(self, r):
        r = np.abs(r)
        return shaped_like(r, np.where(r < self.r_min, 0.5 * self.vp0 * r * r,
                                       self._U(self._t(r))))

    def deriv(self, r, k):
        if not 1 <= k <= 3:
            return None
        r = np.abs(r)
        rs = np.maximum(r, self.r_min)
        t, etab, zeta = self._state(rs)
        vv = np.exp(self._LV(t))
        if k == 1:
            out = vv * etab / rs
        else:
            G = etab * etab + zeta - etab
            if k == 2:
                out = vv * G / (rs * rs)
            else:
                zp = self._dLZ(t)
                out = vv * ((etab - 2.0) * G + zeta * (2.0 * etab + zp - 1.0)) / rs**3
        # below the table: d^k/dr^k of v = vp0 (r + c r^(d1+1) / d1)
        d1, ra = self.d1, np.clip(r, np.finfo(float).tiny, self.r_min)
        c = math.prod(d1 + 1 - i for i in range(k)) * self._x_min / self.r_min ** d1 / d1
        below = self.vp0 * ((k == 1) + c * ra ** (d1 + 1 - k))
        return shaped_like(r, np.where(r < self.r_min, below, out))


class RefPositivePairEvaluator:
    def __init__(self, config, r, vpp, v_up, u):
        self.config = config
        self.r_max = float(r[-1])
        s = np.log1p(r)
        self._logvpp = interp_spline(s, np.log(vpp))
        self._vup = interp_spline(s, v_up)
        self._u = interp_spline(s, u)

    def _s(self, r):
        return np.log1p(np.minimum(np.abs(r), self.r_max))

    def _vpp(self, r):
        return np.exp(self._logvpp(self._s(r)))

    def v(self, r):
        return np.sign(r) * self._vup(self._s(r))

    def u(self, r):
        return self._u(self._s(r))

    def deriv(self, r, k):
        vpp = self._vpp(r)
        if k == 1:
            return vpp
        if k == 2:
            return self.config.vpp_prime(vpp) * np.sign(r)
        if k == 3:
            return self.config.vpp_second(vpp)
        return None


# ---------------------------------------------------------------------------
# the evaluators under test, each with its reference and its table range


@pytest.fixture(scope="module")
def pairs(curve_1e3):
    """name -> (evaluator, reference, smallest table radius, largest)."""
    tab = _tables(curve_1e3, v0=1.3)
    phase = PhaseProfileEvaluator(tab)
    config = PositivePairConfig(v0=1.0, lam=1.0, theta=THETA)
    table = _curvature_table(config, 10.0)
    out = {
        "phase": (phase, RefPhaseProfileEvaluator(tab), phase.r_min, phase.r_max),
        "positive": (PositivePairEvaluator(config, *table),
                     RefPositivePairEvaluator(config, *table), 0.0, float(table[0][-1])),
    }
    return out


def radii(lo, hi):
    """Negative radii, 0, radii below the table and inside it, up to its edge."""
    parts = [st.floats(-hi, 0.0), st.just(0.0), st.floats(lo, hi), st.just(hi)]
    if lo > 0:
        parts.append(st.floats(0.0, lo))
    return st.one_of(parts)


@st.composite
def queries(draw, lo, hi):
    """A float, a (k,) array or a (2, P, S) stencil-shaped array of radii."""
    shape = draw(st.one_of(
        st.just(()), st.tuples(st.integers(1, 9)),
        st.tuples(st.just(2), st.integers(1, 4), st.integers(1, 5))))
    if shape == ():
        return float(draw(radii(lo, hi)))
    return draw(hnp.arrays(np.float64, shape, elements=radii(lo, hi)))


def assert_same(got, want, r):
    """Bitwise equal, in r's shape; a float for a float."""
    if np.ndim(r) == 0:
        assert type(got) is float
    else:
        assert isinstance(got, np.ndarray) and got.shape == np.shape(r)
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["phase", "positive"])
def test_joint_spline_matches_per_column_fits(pairs, name):
    ev, ref, lo, hi = pairs[name]
    for k in (0, 4):
        with pytest.raises(ParameterError, match="order must be 1, 2 or 3"):
            ev.deriv(1.0, k)

    def odd(val, r):
        """A reference value at |r| with the parity of v or v''."""
        return np.sign(r) * np.asarray(val)

    @settings(max_examples=60)
    @given(r=queries(lo, hi))
    def check(r):
        a = np.abs(r)
        assert_same(ev.v(r), odd(ref.v(a), r), r)
        assert_same(ev.u(r), ref.u(a), r)
        for k in (1, 3):
            assert_same(ev.deriv(r, k), ref.deriv(a, k), r)
        assert_same(ev.deriv(r, 2), odd(ref.deriv(a, 2), r), r)
        if name == "phase":
            assert_same(ev.etabar(np.abs(r)), ref.etabar(np.abs(r)), r)

    check()


def test_joint_fit_coefficients_equal_per_column_fits(pairs):
    ev, ref, _, _ = pairs["phase"]
    cols = (ref._LX, ref._LZ, ref._LV, ref._U)
    for j, spl in enumerate(cols):
        assert ev._cols.c[:, j].tobytes() == spl.c.tobytes()
    assert np.array_equal(ev._cols.t, ref._LX.t)


def count_fits(monkeypatch):
    """The list every interp_spline call of the package appends to."""
    calls = []
    for mod in (reconstruct, positive_pair):
        def counted(*args, _fit=mod.interp_spline, **kw):
            calls.append(1)
            return _fit(*args, **kw)
        monkeypatch.setattr(mod, "interp_spline", counted)
    return calls


def test_one_fit_per_evaluator(monkeypatch, curve_1e3):
    calls = count_fits(monkeypatch)
    config = PositivePairConfig(v0=1.0, lam=1.0, theta=THETA)
    table = _curvature_table(config, 10.0)
    PositivePairEvaluator(config, *table)
    assert len(calls) == 1
    # the phase evaluator fits on its first evaluation, and only then
    calls.clear()
    ev = PhaseProfileEvaluator(_tables(curve_1e3, v0=1.0))
    assert len(calls) == 0
    r = np.geomspace(ev.r_min / 2, ev.r_max, 9)
    ev.v(r)
    ev.u(r)
    ev.etabar(r)
    for k in (1, 2, 3):
        ev.deriv(r, k)
    assert len(calls) == 1


def test_reconstruct_command_fits_no_spline(monkeypatch, tmp_path, curve_1e3):
    curve_1e3.to_csv(tmp_path / "curve.csv")
    calls = count_fits(monkeypatch)
    rc = main(["reconstruct", "--curve", str(tmp_path / "curve.csv"),
               "--out", str(tmp_path / "psi.csv")])
    assert rc == 0 and (tmp_path / "psi.csv").exists()
    assert len(calls) == 0


# ---------------------------------------------------------------------------
# the evaluator contract, for every evaluator the package builds


def power_evaluator(p=8, C=1.0):
    """v = C p r^(p-1) with its derivative chain, as power_solution_residual
    builds it, plus the rule u = C r^p."""
    def mono(j):
        coef = C * p
        for i in range(j):
            coef *= (p - 1 - i)
        return lambda r, c=coef, q=p - 1 - j: c * r**q

    return AnalyticEvaluator(mono(0), [mono(1), mono(2), mono(3)],
                             u_fn=lambda r: C * r**p)


@pytest.fixture(scope="module")
def built(phi_profile, psi_profile):
    """name -> (evaluator, smallest radius, largest radius) to query."""
    grid = np.linspace(0.0, 3.0, 31)
    blowup = negative_pair_blowup_1d(1.0, THETA, 1.0, return_profile=True)["profile"]
    return {
        "build_phi": (phi_profile.evaluator, 0.0, float(phi_profile.r[-1])),
        "rebuild_profile": (psi_profile.evaluator, float(psi_profile.r[0]),
                            float(psi_profile.r[-1])),
        "paraboloid": (paraboloid_profile(2.0, 1.0, grid).evaluator, 0.0, 3.0),
        "blowup_1d": (blowup.evaluator, 0.0, float(blowup.r[-1])),
        "analytic": (power_evaluator(), 0.25, 4.0),
    }


@pytest.mark.parametrize("name", ["build_phi", "rebuild_profile", "paraboloid",
                                  "analytic"])
def test_every_evaluator_keeps_the_contract(built, name):
    ev, lo, hi = built[name]
    rng = np.random.default_rng(7)
    for r in (0.5 * (lo + hi), rng.uniform(lo, hi, 7), rng.uniform(lo, hi, (2, 3, 5))):
        for val in (ev.v(r), ev.u(r), *(ev.deriv(r, k) for k in (1, 2, 3))):
            if np.ndim(r) == 0:
                assert type(val) is float
            else:
                assert isinstance(val, np.ndarray) and val.shape == r.shape
            assert np.all(np.isfinite(val))
    for k in (0, 4):
        with pytest.raises(ParameterError, match="order must be 1, 2 or 3"):
            ev.deriv(1.0, k)


@pytest.mark.parametrize("name", ["build_phi", "rebuild_profile", "paraboloid",
                                  "blowup_1d", "analytic"])
def test_every_evaluator_has_the_parity_of_an_even_u(built, name):
    """v and v'' odd; u, v' and v''' even: bit for bit at -r and r."""
    ev, lo, hi = built[name]
    r = np.random.default_rng(11).uniform(lo, hi, 9)
    rules = [(ev.v, True), (ev.u, False)]
    if name != "blowup_1d":                 # its profile gives v and u alone
        rules += [(lambda x, k=k: ev.deriv(x, k), k == 2) for k in (1, 2, 3)]
    for rule, odd in rules:
        at_r = rule(r)
        assert rule(-r).tobytes() == (-at_r if odd else at_r).tobytes()


@pytest.mark.parametrize("name", ["build_phi", "rebuild_profile"])
def test_table_backed_evaluators_raise_beyond_the_table(built, name):
    ev = built[name][0]
    edge = ev.r_max
    assert math.isfinite(edge)
    rules = [ev.v, ev.u] + [lambda x, k=k: ev.deriv(x, k) for k in (1, 2, 3)]
    for rule in rules:
        assert np.all(np.isfinite(rule(np.array([-edge, edge]))))
        for r in (np.nextafter(edge, np.inf), -2.0 * edge, np.array([1.0, 2.0 * edge])):
            with pytest.raises(DomainError, match="beyond its table edge"):
                rule(r)


def test_profile_to_phase_of_psi_keeps_its_stencils_in_the_table(psi_profile):
    """The default nodes stop below the table edge, so zeta = r deta/dr
    is positive at every node, the last one included."""
    eta, zeta = profile_to_phase(psi_profile)
    assert np.all(zeta > 0)
    assert len(zeta) == np.count_nonzero(psi_profile.r >= 1e-3) - 1
