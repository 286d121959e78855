"""Finite-difference derivative estimation.

Centered and one-sided high-order stencils on callables, with weights
from Fornberg's recursion.  The caller gives every step: roundoff grows
like eps*|f|/h^k while truncation falls with a power of h, so the
balanced step depends on the order, the stencil and the scale of f.
"""

from __future__ import annotations

import numpy as np


def fornberg_weights(z: float, x: np.ndarray, m: int) -> np.ndarray:
    """Weights of derivatives 0..m at z from nodes x (Fornberg's recursion).

    Returns array of shape (m+1, len(x)); row k gives the weights whose
    dot product with f(x) approximates f^(k)(z).
    """
    x = np.asarray(x, dtype=float)
    nd = len(x)
    if nd < m + 1:
        raise ValueError("need at least m+1 nodes")
    c = np.zeros((m + 1, nd))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, nd):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[k, i] = c1 * (k * c[k - 1, i - 1] - c5 * c[k, i - 1]) / c2
                c[0, i] = -c1 * c5 * c[0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[k, j] = (c4 * c[k, j] - k * c[k - 1, j]) / c3
            c[0, j] = c4 * c[0, j] / c3
        c1 = c2
    return c


def derivative_from_callable(f, x0, order: int, h):
    """Centered 9-point stencil estimate of f^(order) at x0, nodes spaced h.

    x0 and h are floats or arrays that broadcast together; f is called
    once, on the array of every stencil node (shape x0.shape + (9,)),
    and must return values of that shape.  The result has the shape of
    x0 (a float for a float).
    """
    x0 = np.asarray(x0, dtype=float)
    h = np.asarray(h, dtype=float)
    offsets = np.arange(-4, 5, dtype=float)
    w = fornberg_weights(0.0, offsets, order)[order]
    vals = np.asarray(f(x0[..., None] + h[..., None] * offsets), dtype=float)
    out = (vals @ w) / h ** order
    return out if out.ndim else float(out)


def one_sided_derivative(f, x0: float, order: int, h: float) -> float:
    """One-sided estimate of f^(order)(x0) from the order + 4 nodes x0,
    x0+h, ... (right side).

    f is called once, on the array of nodes.
    """
    nodes = x0 + h * np.arange(order + 4)
    w = fornberg_weights(x0, nodes, order)[order]
    vals = np.asarray(f(nodes), dtype=float)
    return float(w @ vals)

