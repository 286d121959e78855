"""The autonomous phase-plane ODE and the radial Bernstein-type checks.

In phase variables (eta = r v'/v as a function of t = log r, and
zeta(eta) = eta') the radial equation becomes first order:

    -zeta zeta' + (th+1) zeta^2/eta + zeta * A(eta) + B(eta)
        = lambda3 * eta^2 * exp(I),      I = int_{eta0}^eta (s+1)/zeta ds,

with A(eta) = [2n th - (2n-1)] eta - [2n th - 1] (coef_linear),
B(eta) = n eta (eta-1) q(eta) (coef_zero) and
q(eta) = [n th - (n-1)] eta - [n th - 1] (coef_q).
lambda3 = 0 is the source (non-eigenvalue) equation.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ModelParams, RadialProfile, AnalyticEvaluator, radial_residual
from .errors import ParameterError

__all__ = [
    "coef_linear", "coef_q", "coef_zero", "phase_field", "phase_residual",
    "bernstein_radial_check", "power_solution_residual",
]


def coef_linear(eta, n: int, theta: float):
    """A(eta), the coefficient of zeta in the phase equation."""
    return (2 * n * theta - (2 * n - 1)) * eta - (2 * n * theta - 1)


def coef_q(eta, n: int, theta: float):
    """q(eta) = [n th-(n-1)] eta - [n th-1], the linear factor of B(eta)."""
    return (n * theta - (n - 1)) * eta - (n * theta - 1)


def coef_zero(eta, n: int, theta: float):
    """Zero-order term B(eta) = n eta (eta-1) q(eta)."""
    return n * eta * (eta - 1) * coef_q(eta, n, theta)


def phase_field(params: ModelParams):
    """The field of params: (eta, zeta, I) -> (dzeta/deta, dI/deta) on
    floats, with no domain checks.

    Solving the phase equation for zeta' places the exponential term at
    -lambda3 * eta^2 * e^I / zeta, so a negative lambda3 pushes the
    curve upward.  The coefficients of A(eta) and q(eta) and theta + 1
    are formed once; each call then makes the operations of
    coef_linear and coef_zero in their order.
    """
    n, theta, lambda3 = params.n, params.theta, params.lambda3
    theta1 = theta + 1
    a1, a0 = 2 * n * theta - (2 * n - 1), 2 * n * theta - 1     # A = a1 eta - a0
    q1, q0 = n * theta - (n - 1), n * theta - 1                 # q = q1 eta - q0
    exp = math.exp

    def field(eta, zeta, I):
        return (theta1 * zeta / eta + (a1 * eta - a0)
                + n * eta * (eta - 1) * (q1 * eta - q0) / zeta
                - lambda3 * eta * eta * exp(I) / zeta,
                (eta + 1) / zeta)
    return field


def phase_residual(eta, zeta, dzeta, I, params: ModelParams):
    """Residual of the phase equation given samples of zeta' and I."""
    n, theta = params.n, params.theta
    eta = np.asarray(eta, dtype=float)
    return (-zeta * dzeta + (theta + 1) * zeta**2 / eta
            + zeta * coef_linear(eta, n, theta) + coef_zero(eta, n, theta)
            - params.lambda3 * eta**2 * np.exp(I))


def bernstein_radial_check(n: int, theta: float, eta_window, samples: int = 50) -> dict:
    """Sign check behind the radial uniqueness theorem (dimension >= 3).

    With phi = eta^(-2(th+1)) zeta^2, the lambda3 = 0 phase equation
    forces   phi' = 2 sqrt(phi) eta^(-(th+1)) A(eta)
                    + 2 n eta^(-(2 th+1)) (eta-1) q(eta)
    on the zeta > 0 branch (eta > 1), and the same with the sqrt term
    negated on the zeta < 0 branch (eta < 1).  Near eta = 1 both
    coefficients are negative (resp. force phi' > 0 below 1), which
    contradicts phi >= 0 vanishing at the window edge; any non-trivial
    solution family is therefore excluded.  theta and the window ends
    must be finite, theta positive.  The forced sign is checked at
    the trial values phi = 0, 1e-6, 1e-3 and 0.1 on each of samples (>= 1)
    points.  Samples where the zero-order coefficient changes sign (a
    stationary crossing) are reported separately, not as failures.
    """
    if n < 3:
        raise ParameterError(f"radial uniqueness check requires n >= 3, got {n}")
    if not 0 < theta < math.inf:
        raise ParameterError(f"theta must be positive and finite, got {theta}")
    if not samples >= 1:
        raise ParameterError(f"samples must be at least 1, got {samples}")
    lo, hi = float(eta_window[0]), float(eta_window[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError(f"window ends must be finite, got ({lo}, {hi})")
    if not lo < hi:
        raise ParameterError("empty window")
    if lo < 1.0 < hi:
        raise ParameterError("window must not contain eta = 1")
    above = lo > 1.0
    etas = np.linspace(lo, hi, samples)
    etas = etas[np.abs(etas - 1.0) > 1e-12]
    witnesses = []
    crossings = []
    all_contradict = True
    want = -1 if above else +1
    for e in etas:
        c_sqrt = 2.0 * e ** (-(theta + 1)) * float(coef_linear(e, n, theta))
        if not above:
            c_sqrt = -c_sqrt
        term0 = 2.0 * n * e ** (-(2 * theta + 1)) * (e - 1) * coef_q(e, n, theta)
        forced = [c_sqrt * math.sqrt(p) + term0 for p in (0.0, 1e-6, 1e-3, 1e-1)]
        sign = want if all(want * f > 0 for f in forced) else -want
        # zero-order coefficient changing sign marks a stationary value inside
        if term0 * want < 0 or (term0 == 0 and c_sqrt == 0):
            crossings.append(float(e))
            continue
        if sign != want:
            all_contradict = False
        witnesses.append({"eta": float(e), "forced_sign": "-" if sign < 0 else "+"})
    return {
        "n": n, "theta": theta, "window": [lo, hi], "samples": samples,
        "pass": bool(all_contradict and witnesses),
        "witnesses": witnesses, "stationary_crossings": crossings,
    }


def power_solution_residual(k: int, theta: float, C: float, nodes):
    """Residual of u = C r^(2 k^2) at the self-similar exponent.

    These power profiles solve the source equation in dimension N = 2k
    exactly when theta = (N+1)/(N+2); the parameter check enforces that.
    """
    if k < 2:
        raise ParameterError(f"power solutions need k >= 2, got {k}")
    N = 2 * k
    theta_star = (N + 1) / (N + 2)
    if abs(theta - theta_star) > 1e-12:
        raise ParameterError(
            f"theta must equal (N+1)/(N+2) = {theta_star!r} for N = {N}, got {theta}")
    p = 2 * k * k
    nodes = np.atleast_1d(np.asarray(nodes, dtype=float))
    if np.any(nodes <= 0):
        raise ParameterError("nodes must exclude the origin")

    def mono(j):
        # d^j/dr^j of C p r^(p-1)  (v = u')
        coef = C * p
        for i in range(j):
            coef *= (p - 1 - i)
        return lambda r, c=coef, q=p - 1 - j: c * r**q

    ev = AnalyticEvaluator(mono(0), [mono(1), mono(2), mono(3)])
    r = np.linspace(min(nodes) / 2, max(nodes) * 2, 16)
    prof = RadialProfile(r=r, v=mono(0)(r), u=C * r**p, n=N, evaluator=ev)
    return radial_residual(prof, theta, N, 0.0, nodes=nodes)
