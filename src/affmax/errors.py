"""Exception types raised by the solvers and checkers."""


class AffmaxError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(AffmaxError):
    """Parameters outside the range a construction or theorem requires."""


class DomainError(AffmaxError):
    """Evaluation requested outside the mathematical domain of an operation."""


class GridTooCoarse(AffmaxError):
    """Too few usable nodes for the requested finite-difference stencil."""


class NonConvexProfile(AffmaxError):
    """u'' <= 0 at a node where the radial operator needs strict convexity."""


class DegenerateProfile(AffmaxError):
    """v vanishes at an interior node; the phase transform is undefined there."""


class InconsistentProfile(AffmaxError):
    """Per-node eigenvalue ratios spread beyond the configured tolerance."""


class StepFailure(AffmaxError):
    """Adaptive integration failed (step-size underflow or solver abort)."""


class SingularityMismatch(AffmaxError):
    """Candidate slope at the singular endpoint is not the required value 2."""


class NoConvergence(AffmaxError):
    """An iteration (fixed point or bisection) did not converge within its cap."""


class MembershipViolation(AffmaxError):
    """Converged iterate violates the candidate-family band conditions."""


class PositivityLoss(AffmaxError):
    """zeta (or etabar - 1) hit zero where positivity is asserted."""


class TailUnbounded(AffmaxError):
    """No certified quadratic lower bound; the tail integral may diverge."""


class NearSingular(AffmaxError):
    """det D^2 u below threshold at a sample point."""


class SignError(AffmaxError):
    """Factor eigenvalues share a sign; no opposite-pair assembly exists."""
