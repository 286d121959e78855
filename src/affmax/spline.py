"""Not-a-knot interpolating quintic B-splines, in numpy alone.

interp_spline(x, y) fits one quintic (k = 5) per column of y through the
sites x with de Boor's not-a-knot knots (the sites are the interior
knots, less 3 at each end), and Spline evaluates a spline of any degree.

The basis is de Boor's recurrence in the order of scipy's ``_deBoor_D``
and a spline's value is the sum over its k+1 nonzero terms in order, so
given the same coefficients every value equals scipy's ``BSpline`` bit
for bit.  The fit does not: LAPACK's banded solve is replaced by the
elimination below, so coefficients differ from ``make_interp_spline`` in
their last bits.

The collocation matrix is totally positive (de Boor, *A Practical Guide
to Splines*, ch. XIII), and because the sites are the knots, interior row
i is nonzero only in columns i-2 .. i+2, and only the three rows at
each end are wider.  The unknowns of those end rows are eliminated with
a small dense solve, and the pentadiagonal interior is solved by cyclic
reduction on 2x2 blocks, without pivoting.  Total positivity makes
elimination in the natural order stable, not the odd-even order of
cyclic reduction: on grids whose neighbouring spacings differ by 1e3 or
more its backward error grows, and iterative refinement brings it back
to a few eps.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ParameterError

__all__ = ["Spline", "interp_spline"]

_K = 5                # the degree interp_spline fits
_E = (_K + 1) // 2    # end rows wider than the band, at each end
_DENSE_BELOW = 24     # systems of fewer rows are solved dense
_BLOCK = 4096         # points per block of the basis recurrence
_REFINE_ABOVE = 4 * np.finfo(float).eps    # normwise backward error that gets refined


class Spline:
    """sum_j c[j] B_{j,k}(x) on the knots t; c has shape (n, m) or (n,)."""

    def __init__(self, t, c, k: int):
        self.t, self.c, self.k = t, c, k
        self._rows = np.ascontiguousarray(c.reshape(len(c), -1).T)  # a row per column
        # (x, first coefficient index, basis) of the last evaluation: the
        # evaluators read different columns at the same points in separate
        # calls, and the basis is most of the cost of an evaluation
        self._last = None

    @property
    def domain(self) -> tuple:
        """The base interval [t[k], t[n]]; evaluation outside it raises."""
        return float(self.t[self.k]), float(self.t[len(self.c)])

    def __call__(self, x, columns=slice(None)):
        """Values at x of the given columns of c: shape x.shape for one
        column (an int, or any call on a 1-D c), else x.shape + (columns,)."""
        x = np.asarray(x, dtype=float)
        q = x.ravel()
        lo, hi = self.domain
        if np.any(q < lo) or np.any(q > hi):
            raise DomainError(f"spline evaluated outside its base interval "
                              f"[{lo!r}, {hi!r}]")
        t, k, n = self.t, self.k, len(self.c)
        last = self._last
        if last is not None and last[0].shape == q.shape and np.array_equal(last[0], q):
            start, h = last[1], last[2]
        else:
            last = self._last = None      # freed before the next basis is formed
            # ell with t[ell] <= x < t[ell+1]; x = t[n] takes the last interval
            ell = k + np.searchsorted(t[k + 1:n], q, side="right")
            h = _basis(t, k, q, ell)
            start = ell - k
            self._last = (q.copy(), start, h)

        def column(cj):
            y = cj[start] * h[0]
            for a in range(1, k + 1):
                y += cj[start + a] * h[a]
            return y.reshape(x.shape)

        if self.c.ndim == 1 or isinstance(columns, (int, np.integer)):
            return column(self._rows[0 if self.c.ndim == 1 else columns])
        return np.stack([column(cj) for cj in self._rows[columns]], axis=-1)

    def derivative(self) -> "Spline":
        """The first derivative, a spline of degree k - 1 (as scipy's splder)."""
        t, c, k = self.t, self.c, self.k
        n = len(c)
        dt = (t[k + 1:n + k] - t[1:n]).reshape((-1,) + (1,) * (c.ndim - 1))
        return Spline(t[1:-1], (c[1:] - c[:-1]) * k / dt, k - 1)


def interp_spline(x, y) -> Spline:
    """The not-a-knot quintic spline through (x[i], y[i]).

    x is strictly increasing; y has shape (len(x),) or (len(x), m), and
    every column is fitted on the one collocation matrix.  The fit works on
    the columns as rows, so a y whose columns are contiguous, such as
    np.stack(columns).T, is not copied.
    """
    k, e = _K, _E
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if x.ndim != 1 or n < k + 1:
        raise ParameterError(f"need at least {k + 1} sites in a 1-D array")
    if y.ndim not in (1, 2) or len(y) != n:
        raise ParameterError(f"y must have shape ({n},) or ({n}, m)")
    if not np.all(x[1:] > x[:-1]):
        raise ParameterError("sites must be strictly increasing")
    t = np.concatenate([np.full(k + 1, x[0]), x[e:n - e], np.full(k + 1, x[-1])])
    # site i lies in [t[ell], t[ell+1]), ell = start + k: the sites are the knots t[i+e]
    start = np.clip(np.arange(n) + e - k, 0, n - 1 - k)
    rows = _basis(t, k, x, start + k)        # row i is nonzero in start_i .. start_i+k
    Y = np.ascontiguousarray(y.reshape(n, -1).T)     # one row per column of y
    if n < _DENSE_BELOW:
        A = np.zeros((n, n))
        A[np.arange(n)[:, None], start[:, None] + np.arange(k + 1)] = rows.T
        C = _solve_columns(A, Y)
    else:
        C = _solve_banded(rows, start, Y)
        # A column whose normwise backward error max|r| / (max|c| + max|y|)
        # exceeds _REFINE_ABOVE gets a step of iterative refinement (at most
        # two); the rows are nonnegative and sum to 1, so ||A||_inf = 1 and
        # max|c| >= max|y|, and max|c| is taken only for a column whose
        # residual exceeds the bound that 2 max|y| gives.
        y_max = np.max(np.abs(Y), axis=1)
        for _ in range(2):
            R = Y - _matvec(rows, start, C)
            r_max = np.max(np.abs(R), axis=1)
            bad = np.flatnonzero(r_max > _REFINE_ABOVE * 2 * y_max)
            bad = bad[r_max[bad] > _REFINE_ABOVE * (np.max(np.abs(C[bad]), axis=1)
                                                    + y_max[bad])]
            if not len(bad):
                break
            C[bad] += _solve_banded(rows, start, R[bad])
    return Spline(t, C.T.reshape(y.shape), k)


def _basis(t, k, x, ell):
    """The k+1 degree-k B-splines nonzero on [t[ell], t[ell+1]) at x, (k+1, q).

    Level j holds B_{ell-j..ell, j}(x); each is built from level j-1 as
    in de Boor's BSPLVB, with the same operations on the same operands
    as scipy's _deBoor_D.  The points go in blocks of _BLOCK, whose work
    arrays stay in cache and are reused from one block to the next.
    """
    q = len(x)
    h = np.empty((k + 1, q))
    offsets = np.arange(1 - k, k + 1)[:, None]
    for lo in range(0, q, _BLOCK):
        xb, hb = x[lo:lo + _BLOCK], h[:, lo:lo + _BLOCK]
        knots = t[ell[lo:lo + _BLOCK] + offsets]            # t[ell+1-k .. ell+k]
        right = knots[k:] - xb                              # t[ell+n] - x
        left = xb - knots[:k]                               # x - t[ell+1-k+i]
        w, tmp = np.empty((2, k, len(xb)))
        hb[0] = 1.0
        for j in range(1, k + 1):
            wj = np.subtract(knots[k:k + j], knots[k - j:k], out=w[:j])
            np.divide(hb[:j], wj, out=wj)
            np.multiply(wj, right[:j], out=hb[:j])
            np.multiply(wj[j - 1], left[k - 1], out=hb[j])
            np.multiply(wj[:j - 1], left[k - j:k - 1], out=tmp[:j - 1])
            hb[1:j] += tmp[:j - 1]
    return h


def _matvec(rows, start, C):
    """The collocation matrix times each row of C, (m, n).

    Interior row i (e <= i < n-e) starts at column i-e+1 and its last
    entry is zero, so its terms are slices of C; the e rows at each end
    are summed one by one.
    """
    n, k, e = C.shape[1], _K, _E
    out = np.empty_like(C)
    inner = slice(e, n - e)
    out[:, inner] = rows[0, inner] * C[:, 1:n - 2 * e + 1]
    for a in range(1, 2 * e - 1):
        out[:, inner] += rows[a, inner] * C[:, 1 + a:n - 2 * e + 1 + a]
    for i in (*range(e), *range(n - e, n)):
        out[:, i] = _dot(rows[None, :, i], C[:, start[i]:start[i] + k + 1])[:, 0]
    return out


def _solve_banded(rows, start, Y):
    """Solve the collocation system whose row i is rows[:, i] at columns
    start[i] .. start[i]+k, for each row of Y.

    The first and last e = (k+1)/2 unknowns are eliminated by a dense solve
    of their own rows (a Schur complement on the interior rows coupled to
    them); the remaining pentadiagonal system is solved by cyclic
    reduction.  Y is not written to.
    """
    n, k, e = len(start), _K, _E
    G, g, head = _eliminate_end(rows, start, Y)
    # the last rows are the first of the reversed system
    Gb, gb, tail = _eliminate_end(rows[::-1, ::-1], (n - 1 - k - start)[::-1],
                                  Y[:, ::-1])
    # interior row i holds offsets -2..3 in rows[0..5]; offset 3 is zero
    inner = _cyclic_reduction(rows[:2 * e - 1, e:n - e], Y[:, e:n - e], head, tail)
    C = np.empty_like(Y)                     # not held through the reduction
    C[:, e:n - e] = inner
    C[:, :e] = g - _dot(G, C[:, e:k + 1])
    Cb = C[:, ::-1]
    Cb[:, :e] = gb - _dot(Gb, Cb[:, e:k + 1])
    return C


def _eliminate_end(rows, start, Y):
    """Eliminate unknowns 0..e-1 with rows 0..e-1 (columns 0..k).

    Returns (G, g, (band, d)) with C[:, :e] = g - C[:, e:k+1] G^T.  The
    interior rows e..2e-2 reach columns below e; they get the
    Schur-complement update, which stays within two diagonals of theirs,
    and lose those columns: band holds their diagonals -2..2, and d their
    updated right-hand sides, in place of Y[:, e:2e-1].
    """
    k, e = _K, _E
    r = 2 * e - 1
    cols = start[:r, None] + np.arange(k + 1)
    corner = np.zeros((r, max(cols.max(), r + 1) + 1))   # through column r+1
    corner[np.arange(r)[:, None], cols] = rows[:, :r].T
    G = _solve_columns(corner[:e, :e], corner[:e, e:k + 1].T).T
    g = _solve_columns(corner[:e, :e], Y[:, :e])
    L = corner[e:, :e]
    corner[e:, e:k + 1] -= L @ G
    d = Y[:, e:r] - _dot(L, g)
    L[:] = 0.0
    i = np.arange(e, r)[:, None]
    return G, g, (corner[i, i + np.arange(-2, 3)].T, d)


def _cyclic_reduction(diags, rhs, head, tail):
    """Solve the pentadiagonal system with diagonals -2..2 diags (5, N),
    for each row of rhs (m, N), but for its first and last two rows:
    head = (band (5, 2), d (m, 2)) gives their diagonals and right-hand
    sides, and tail those of the last rows, reversed in both axes.
    Entries outside the matrix are zero.

    Pairs of unknowns form 2x2 blocks z_b of a block-tridiagonal system,
    written B_b z_b = d_b + A_b z_{b-1} + C_b z_{b+1}; an odd N gets one
    identity row.  Each level eliminates the even blocks,
    z_e = E_d + E_A z_left + E_C z_right with E = B_e^-1 [A | C | d], and
    keeps the odd ones; back substitution then fills the even blocks
    level by level.  Blocks are (2, w, M) arrays, so each 2x2 operation
    is a few whole-array operations over the last axis.
    """
    m, N = rhs.shape
    band = diags.copy()
    band[:, :2], band[::-1, ::-1][:, :2] = head[0], tail[0]
    M, Mo = (N + 1) // 2, N // 2             # blocks, and rows 2p+1
    ev, od = band[:, 0::2], band[:, 1::2]    # rows 2p and 2p+1
    B = np.zeros((2, 2, M))
    B[0, 0], B[0, 1], B[1, 0, :Mo], B[1, 1, :Mo] = ev[2], ev[3], od[1], od[2]
    B[1, 1, Mo:] = 1.0
    W = np.empty((2, 4 + m, M))              # [A | C | d]
    W[1, 1:4, Mo:] = -0.0                    # the identity row's, negated as the band's
    W[0, 0], W[0, 1], W[0, 2] = -ev[0], -ev[1], -ev[4]
    W[1, 1, :Mo], W[1, 2, :Mo], W[1, 3, :Mo] = -od[0], -od[3], -od[4]
    W[1, 0] = W[0, 3] = 0.0
    del band, ev, od                         # B and W hold all of it
    W[0, 4:], W[1, 4:, :Mo], W[1, 4:, Mo:] = rhs[:, 0::2], rhs[:, 1::2], 0.0
    ends = (0, 1, N - 1, N - 2)
    for i, d in zip(ends, (*head[1].T, *tail[1].T)):
        W[i % 2, 4:, i // 2] = d
    levels = []
    while M > 1:
        Me, Mo = (M + 1) // 2, M // 2        # even blocks, odd blocks
        E = _mul(_inv(B[..., 0::2]), W[..., 0::2])
        levels.append(E)
        # each level frees what it no longer needs before allocating: the
        # even blocks of W once E is formed, and its own temporaries
        Wo = W[..., 1::2].copy()
        del W
        W = _mul(Wo[:, 0:2], E[..., :Mo])               # A_o E_left
        # C_o E_right enters B and W one part at a time, never whole
        Co, Er = Wo[:, 2:4, :Me - 1], E[..., 1:]
        B = B[..., 1::2] - W[:, 2:4]
        B[..., :Me - 1] -= _mul(Co, Er[:, 0:2])
        W[:, 2:4] = 0.0
        W[:, 2:4, :Me - 1] = _mul(Co, Er[:, 2:4])
        W[:, 4:] += Wo[:, 4:]
        W[:, 4:, :Me - 1] += _mul(Co, Er[:, 4:])
        del Wo, Co
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
    out = np.empty((m, N))
    out[:, 0::2], out[:, 1::2] = z[0], z[1, :, :N // 2]
    return out


def _solve_columns(A, B):
    """A^-1 b for each row b of B, one LAPACK solve per row.

    Every row then gets the same operations whatever the other rows are,
    so a joint fit equals the fits of its columns bit for bit (a solve
    with several right-hand sides may block them differently).
    """
    return np.linalg.solve(np.broadcast_to(A, (len(B),) + A.shape),
                           B[..., None])[..., 0]


def _dot(a, b):
    """b @ a.T for a small matrix a, (m, p) from b (m, r): each row of b
    summed term by term in order, so it depends on that row alone."""
    out = b[:, :1] * a[:, 0]
    for i in range(1, a.shape[1]):
        out += b[:, i:i + 1] * a[:, i]
    return out


def _mul(a, b):
    """Blockwise product of (2, 2, M) blocks a with (2, w, M) blocks b."""
    out = a[:, :1] * b[0]
    for r in range(2):                   # a temporary of half the size of out
        out[r] += a[r, 1] * b[1]
    return out


def _inv(b):
    """Blockwise inverse of (2, 2, M) blocks."""
    det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    return np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]]) / det
