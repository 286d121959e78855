"""Separable solutions of the affine maximal type equation.

Builds the two radial factors (an entire 1-D factor from a closed-form
curvature quadrature, and a bounded n-dimensional factor from a
calibrated phase-plane fixed point), reconstructs profiles, assembles
u(x, y) = kappa*phi + psi on R x B_{R_inf}, and verifies the equation,
convexity, growth bounds, blow-up radius and completeness numerically.
"""

import os
import sys

# One BLAS thread, set before the first import that loads numpy: every
# BLAS product here is a few dozen entries, and OpenBLAS's helper thread
# costs tens of milliseconds at load and again after every fork (the
# sweep workers).  Parallelism is `sweep --jobs`.  A value the caller set
# is kept, and a program that loaded numpy first keeps its threads and
# its environment.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
SCHEMA_VERSION = 3

from .core import (ModelParams, PhaseCurve, RadialProfile, SeparableSolution,
                   TaylorData, VerificationReport, effective_lambda_fit,
                   profile_to_phase, radial_residual)
from .negative_pair import (LocalSolve, blowup_time, calibrate_lambda,
                            extend_global, fixed_point_solve,
                            growth_bounds_check, taylor_coeffs)
from .phase_plane import bernstein_radial_check, power_solution_residual
from .positive_pair import PositivePairConfig, build_phi
from .reconstruct import large_condition_check, rebuild_profile, t_of_eta
from .verify import (assemble, bernstein_1d_check, completeness_check,
                     full_residual)

__all__ = [
    "__version__", "SCHEMA_VERSION",
    "ModelParams", "TaylorData", "PhaseCurve", "RadialProfile",
    "SeparableSolution", "VerificationReport",
    "radial_residual", "profile_to_phase", "effective_lambda_fit",
    "bernstein_radial_check", "power_solution_residual",
    "PositivePairConfig", "build_phi",
    "taylor_coeffs", "calibrate_lambda", "fixed_point_solve", "LocalSolve",
    "extend_global", "growth_bounds_check", "blowup_time",
    "t_of_eta", "rebuild_profile", "large_condition_check",
    "assemble", "full_residual", "completeness_check",
    "bernstein_1d_check",
]
