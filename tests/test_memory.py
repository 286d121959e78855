"""Memory ceilings: the traced peaks of the spline fit and of verify.

Each ceiling is a little above the figure measured with numpy 2.4 on
Python 3.11, and well below the figure of the full-size kernels in
tests/full_size.py (given next to it), so a change that brings back a
full-size copy or a stencil array over every sample fails here.
"""

import contextlib
import io

import numpy as np
import pytest

from affmax import cli, spline
from affmax.reconstruct import _tables
from affmax.verify import assemble, full_residual

from conftest import THETA
from memtrace import traced_peak_mb

PSI_FIT_MB = 5.0          # measured 4.36; full-size solve 9.55
RESIDUAL_M8_MB = 4.0      # measured 3.50; one stencil pass over every point 85.82
VERIFY_STAGE_MB = 9.0     # measured 7.49; full-size kernels 15.53


def test_psi_fit_peak(curve_1e5):
    tab = _tables(curve_1e5, v0=1.0)
    # the columns laid out as the profile's evaluator stacks them
    y = np.stack([np.log(tab["x"]), np.log(tab["zeta"]), tab["logv"], tab["u"]]).T
    assert y.shape == (16935, 4)             # the flagship psi table
    _, peak = traced_peak_mb(spline.interp_spline, tab["t"], y)
    assert peak <= PSI_FIT_MB


def test_full_residual_peak_at_eight_cylinder_factors(phi_profile, psi_profile,
                                                     psi_R_inf):
    sol = assemble(phi_profile, psi_profile, m_cylinder=8, theta=THETA,
                   R_inf=psi_R_inf)
    full_residual(sol, n_points=2, seed=0)   # fits the factors' splines
    rep, peak = traced_peak_mb(full_residual, sol, n_points=1000, seed=0)
    assert len(rep.residuals) == 1000 and sol.N == 11
    assert peak <= RESIDUAL_M8_MB


@pytest.fixture(scope="module")
def flagship_dir(tmp_path_factory):
    """The flagship artifacts up to solution.json, from the CLI defaults."""
    d = tmp_path_factory.mktemp("flagship")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["solve-positive", "--out", "phi.csv"],
                     ["solve-negative", "--out", "curve.csv", "--report", "report.json"],
                     ["reconstruct", "--curve", "curve.csv", "--out", "psi.csv"],
                     ["assemble", "--phi", "phi.csv", "--psi", "psi.csv",
                      "--curve", "curve.csv", "--report", "report.json",
                      "--out", "solution.json"]):
            assert cli.main([argv[0]] + [str(d / a) if a.endswith((".csv", ".json"))
                                         else a for a in argv[1:]]) == 0
    return d


def test_flagship_verify_stage_peak(flagship_dir):
    argv = ["verify", "--solution", str(flagship_dir / "solution.json"),
            "--points", "1000", "--seed", "0",
            "--report", str(flagship_dir / "verify.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0           # imports and first-call set-up
        rc, peak = traced_peak_mb(cli.main, argv)
    assert rc == 0
    assert peak <= VERIFY_STAGE_MB
