"""Full-size references for the bounded-memory kernels of spline and verify.

solve_banded is the collocation solve that copies the whole right-hand
side, concatenates an identity row onto the band and right-hand side of
an odd interior, and allocates every temporary at full size.  residuals
gives the verify residuals and least Hessian eigenvalues: w from one
stencil pass over every point and both steps, on a stencil over every
coordinate and every pair of coordinates, and u^{ij} and the eigenvalues
from the factors evaluated at the points themselves.  The kernels in src
must return the same bits as these, whatever their block sizes.
"""

import numpy as np

from affmax.spline import _dot, _inv, _solve_columns
from affmax.verify import _det_parts, _inverse_hessian, _least_eigenvalue, _w


def solve_banded(rows, start, Y):
    n, k, e = len(start), 5, 3
    band = rows[:5, e:n - e].copy()
    Y = Y.copy()
    G, g, band[:, :e - 1] = _eliminate_end(rows, start, Y, e, k)
    Gb, gb, band[::-1, ::-1][:, :e - 1] = _eliminate_end(
        rows[::-1, ::-1], (n - 1 - k - start)[::-1], Y[:, ::-1], e, k)
    C = np.empty_like(Y)
    C[:, e:n - e] = _cyclic_reduction(band, Y[:, e:n - e])
    C[:, :e] = g - _dot(G, C[:, e:k + 1])
    Cb = C[:, ::-1]
    Cb[:, :e] = gb - _dot(Gb, Cb[:, e:k + 1])
    return C


def _eliminate_end(rows, start, Y, e, k):
    r = 2 * e - 1
    cols = start[:r, None] + np.arange(k + 1)
    corner = np.zeros((r, max(cols.max(), r + 1) + 1))
    corner[np.arange(r)[:, None], cols] = rows[:, :r].T
    G = _solve_columns(corner[:e, :e], corner[:e, e:k + 1].T).T
    g = _solve_columns(corner[:e, :e], Y[:, :e])
    L = corner[e:, :e]
    corner[e:, e:k + 1] -= L @ G
    Y[:, e:r] -= _dot(L, g)
    L[:] = 0.0
    i = np.arange(e, r)[:, None]
    return G, g, corner[i, i + np.arange(-2, 3)].T


def _cyclic_reduction(band, rhs):
    m, N = rhs.shape
    if N % 2:
        band = np.concatenate([band, [[0.0], [0.0], [1.0], [0.0], [0.0]]], axis=1)
        rhs = np.concatenate([rhs, np.zeros((m, 1))], axis=1)
    M = (N + 1) // 2
    ev, od = band[:, 0::2], band[:, 1::2]
    B = np.array([[ev[2], ev[3]], [od[1], od[2]]])
    W = np.empty((2, 4 + m, M))
    W[0, 0], W[0, 1], W[1, 1] = -ev[0], -ev[1], -od[0]
    W[0, 2], W[1, 2], W[1, 3] = -ev[4], -od[3], -od[4]
    W[1, 0] = W[0, 3] = 0.0
    W[:, 4:] = rhs.reshape(m, M, 2).transpose(2, 0, 1)
    levels = []
    while M > 1:
        Me, Mo = (M + 1) // 2, M // 2
        E = _mul(_inv(B[..., 0::2]), W[..., 0::2])
        levels.append(E)
        Wo = W[..., 1::2]
        Y = _mul(Wo[:, 2:4, :Me - 1], E[..., 1:])
        W = _mul(Wo[:, 0:2], E[..., :Mo])
        B = B[..., 1::2] - W[:, 2:4]
        B[..., :Me - 1] -= Y[:, 0:2]
        W[:, 2:4] = 0.0
        W[:, 2:4, :Me - 1] = Y[:, 2:4]
        W[:, 4:] += Wo[:, 4:]
        W[:, 4:, :Me - 1] += Y[:, 4:]
        M = Mo
    z = _mul(_inv(B), W[:, 4:])
    for E in reversed(levels):
        Me, Mo = E.shape[-1], z.shape[-1]
        full = np.empty((2, m, Me + Mo))
        ze = full[..., 0::2]
        ze[...] = E[:, 4:]
        ze[..., 1:] += _mul(E[:, 0:2, 1:], z[..., :Me - 1])
        ze[..., :Mo] += _mul(E[:, 2:4, :Mo], z)
        full[..., 1::2] = z
        z = full
    return z.transpose(1, 2, 0).reshape(m, -1)[:, :N]


def _mul(a, b):
    out = a[:, :1] * b[0]
    out += a[:, 1:] * b[1]
    return out


def _stencil(N):
    """Unit offsets of the Hessian stencil, shape (S, N), S = 1 + 2N + 2N(N-1).

    Rows: the centre; +e_i, -e_i for each i; then e_i+e_j, e_i-e_j,
    -e_i+e_j, -e_i-e_j for each j < i.
    """
    e = np.eye(N)
    rows = [np.zeros(N)]
    for i in range(N):
        rows += [e[i], -e[i]]
    for i in range(N):
        for j in range(i):
            rows += [e[i] + e[j], e[i] - e[j], -e[i] + e[j], -e[i] - e[j]]
    return np.array(rows)


def _hessian_from_stencil(f, h):
    P, N = h.shape
    H = np.empty((P, N, N))
    f0 = f[:, 0]
    for i in range(N):
        H[:, i, i] = (f[:, 1 + 2 * i] - 2.0 * f0 + f[:, 2 + 2 * i]) / h[:, i] ** 2
    k = 1 + 2 * N
    for i in range(N):
        for j in range(i):
            H[:, i, j] = H[:, j, i] = (f[:, k] - f[:, k + 1] - f[:, k + 2]
                                       + f[:, k + 3]) / (4 * h[:, i] * h[:, j])
            k += 4
    return H


def residuals(sol, pts, h_rel=1e-3):
    n = sol.psi.n
    h = h_rel * np.maximum(np.abs(pts), 1.0)
    steps = [h, h / 2.0]
    off = _stencil(pts.shape[1])
    q = np.stack([pts[:, None, :] + off * hk[:, None, :] for hk in steps])
    x, rho = q[..., 0], np.linalg.norm(q[..., 1:1 + n], axis=-1)
    wv = _w(sol, x, rho)[0]
    H = _hessian_from_stencil(wv[0], steps[0])
    H = (4.0 * _hessian_from_stencil(wv[1], steps[1]) - H) / 3.0
    y, m = pts[:, 1:1 + n], sol.m_cylinder
    rho_p = np.linalg.norm(y, axis=1)
    parts = _det_parts(sol, pts[:, 0], rho_p)
    return (np.einsum("pij,pij->p", _inverse_hessian(parts, rho_p, y, m), H),
            _least_eigenvalue(parts, rho_p, m))
