"""Shared fixtures: the flagship (n, theta) = (2, 0.55) construction."""

import multiprocessing

import numpy as np
import pytest
from hypothesis import settings

from affmax import (PositivePairConfig, assemble, blowup_time, build_phi,
                    extend_global, fixed_point_solve, rebuild_profile)
from affmax.core import PhaseCurve

N, THETA, ETA0 = 2, 0.55, 1.05

# one hypothesis profile for the suite: reproducible draws, and no
# per-example deadline (some examples run a whole negative-pair solve)
settings.register_profile("affmax", deadline=None, derandomize=True)
settings.load_profile("affmax")


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    # a sweep joins every process it forks, whatever it raises
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="session")
def local_solve():
    return fixed_point_solve(N, THETA, ETA0)


@pytest.fixture(scope="session")
def curve_1e3(local_solve):
    return extend_global(local_solve, eta_max=1e3)


@pytest.fixture(scope="session")
def curve_1e5(local_solve):
    return extend_global(local_solve, eta_max=1e5)


@pytest.fixture(scope="session")
def curve_2e3(local_solve):
    return extend_global(local_solve, eta_max=2e3)


@pytest.fixture(scope="session")
def psi_profile(curve_1e3):
    return rebuild_profile(curve_1e3, v0=1.0)


@pytest.fixture(scope="session")
def psi_R_inf(curve_1e3):
    """The boundary radius exp(T_inf) of the psi factor."""
    return float(np.exp(blowup_time(curve_1e3)[0]))


@pytest.fixture(scope="session")
def phi_config():
    return PositivePairConfig(v0=1.0, lam=1.0, theta=THETA)


@pytest.fixture(scope="session")
def phi_profile(phi_config):
    return build_phi(phi_config, np.linspace(0.0, 10.0, 1001))


@pytest.fixture(scope="session")
def solution(phi_profile, psi_profile, psi_R_inf):
    return assemble(phi_profile, psi_profile, m_cylinder=0, theta=THETA,
                    R_inf=psi_R_inf)


def restrict(curve: PhaseCurve, eta_max: float) -> PhaseCurve:
    sel = curve.eta <= eta_max
    return PhaseCurve(params=curve.params, taylor=curve.taylor,
                      eta=curve.eta[sel], zeta=curve.zeta[sel], I=curve.I[sel])
