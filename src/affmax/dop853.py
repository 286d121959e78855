"""The DOP853 integrator that extend_global steps, ported from scipy.

DOP853 is the explicit Runge-Kutta method of order 8(5, 3) with a
7th-order dense output (Hairer, Norsett and Wanner, *Solving Ordinary
Differential Equations I*, sec. II.10; the tableau is Hairer's).  The
class below is scipy's ``scipy.integrate.DOP853`` stepped by hand for a
two-component system (zeta, I): the same tableau, initial step, step
control, error norm and dense-output coefficients F, so every accepted
step and every dense output is bit-equal to scipy's.

The sums of products stay numpy's BLAS calls, as in scipy: each stage's
``np.dot(K[:s].T, A[s, :s])``, the ``B``, ``E5`` and ``E3`` products,
the ``x.dot(x)`` inside ``np.linalg.norm`` and ``np.dot(D, K)``.  BLAS
sums in its own order (and may fuse a multiply and an add), so a plain
Python sum would round differently.  Everything between those products
is elementwise: ``y + dy * h``, the error scale, the divisions of the
error norm and the step-size factors.  Each of those is one correctly
rounded IEEE operation per component, the same on a Python float as on
a numpy array entry, so it is done on the two components as Python
floats, which costs a fraction of a numpy call on a 2-element array.
For the same reason the floats cross into and out of the arrays through
memoryviews: each stage's derivative pair is stored into K through a
flat view of it, and each product of K is taken as
``np.dot(..., out=)`` into one reused 2-vector and read back through
its view (the same BLAS call on the same operands as without ``out``).
The squares of the error norm stay ``** 2``: numpy's scalar power and
Python's both call the C library's ``pow``, which differs from
``x * x`` in the last bit for some inputs (337 of 400,000 random square
roots with glibc 2.36).

The module holds what extend_global uses: forward steps from finite
data, and one evaluator of the dense outputs, dense_values, which reads
many samples at once exactly as scipy's OdeSolution does.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["DOP853", "dense_values"]

SAFETY = 0.9         # multiplies the step size the error estimate asks for
MIN_FACTOR = 0.2     # the smallest step-size decrease
MAX_FACTOR = 10.0    # the largest step-size increase
N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

# the tableau: nodes C, stages A (row i holds A[i, :i]), error weights E3
# and E5, and the dense-output weights D of stages 0..15

_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778,
])
_A_ROWS = [
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
    [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259],
    [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298],
    [0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325],
    [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
]
_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0,
])
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0,
])
_D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])

_A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
for _i, _row in enumerate(_A_ROWS):
    _A[_i, :_i] = _row
_B = _A[N_STAGES, :N_STAGES]
del _i, _row


_RMS_DIV = 2 ** 0.5   # sqrt of the component count, as scipy's rms norm forms it


class DenseStep:
    """The degree-7 interpolant of one accepted step on [t_old, t]: the
    coefficient rows F of the polynomial in x = (t - t_old)/h that
    dense_values evaluates, and its value y_old at x = 0."""

    def __init__(self, t_old, t, y_old, F):
        self.t_old, self.t = t_old, t
        self.h = t - t_old
        self.y_old = y_old
        self.F = F


def dense_values(steps, ee):
    """The piecewise dense output of consecutive steps at the increasing
    samples ee, one row per component.

    Bit for bit what scipy's OdeSolution returns at ee: the step of each
    sample is searchsorted(ts, ee, "left") - 1 over the step ends ts,
    clipped to the valid range, and its polynomial in x = (e - t_old)/h
    is evaluated from the highest row of F down, alternately times x and
    1 - x, for every sample at once, one coefficient row at a time: row
    k of every step is stacked contiguously and gathered with take (a
    (P, 7, 2) block gather would be a 1.6 MB temporary).
    """
    ts = np.array([s.t_old for s in steps] + [steps[-1].t])
    seg = np.clip(np.searchsorted(ts, ee, "left") - 1, 0, len(steps) - 1)
    rows = np.stack([s.F for s in steps], axis=1)   # rows[k] is F[k] of every step
    x = ((ee - ts[seg]) / np.array([s.h for s in steps])[seg])[:, None]
    one_minus_x = 1 - x
    y = np.zeros((len(ee), rows.shape[2]))
    for i, row in enumerate(rows[::-1]):
        y += row.take(seg, axis=0)
        y *= x if i % 2 == 0 else one_minus_x
    y += np.array([s.y_old for s in steps]).take(seg, axis=0)
    return y.T


class DOP853:
    """Adaptive DOP853 steps of (zeta, I)' = fun(t, zeta, I) from t0 up
    to t_bound > t0.

    fun returns the two derivatives as a pair of floats; y and f are
    pairs of floats too.  step() takes one accepted step while status is
    "running", or sets it to "failed" and returns the message; status
    becomes "finished" at t_bound.  dense_output() is the interpolant of
    the last accepted step.  The caller passes a finite pair y0,
    rtol >= 100 eps and a scalar atol > 0.
    """

    def __init__(self, fun, t0, y0, t_bound, rtol, atol):
        self.fun = fun
        self.t, self.y = t0, tuple(y0)
        self.t_bound = t_bound
        self.rtol, self.atol = rtol, atol
        self.status = "running"
        self._sq = np.empty(2)          # the vector whose BLAS x.dot(x) _norm takes
        self._sqv = memoryview(self._sq)
        self.f = fun(t0, *self.y)
        self.h_abs = self._initial_step()
        self.K_extended = K = np.empty((N_STAGES_EXTENDED, 2))
        self.K = K[:N_STAGES + 1]
        self._Kf = memoryview(K.reshape(-1))   # K flat: stage s at 2s and 2s + 1
        self._dot = np.empty(2)                # every stage product lands here,
        self._dotv = memoryview(self._dot)     # and is read back as floats here
        # stage s reads K[:s].T @ A[s, :s], the new y K[:-1].T @ B (stage 12:
        # B is A[12, :12]) and the error estimates K.T @ E5 and K.T @ E3;
        # the views and the step's and dense output's lists are made once
        stages = [(2 * s, K[:s].T, _A[s, :s], float(_C[s]))
                  for s in range(N_STAGES_EXTENDED)]
        self._step_stages, self._dense_stages = stages[1:N_STAGES], stages[N_STAGES + 1:]
        self._KB, self._KE = K[:N_STAGES].T, self.K.T

    def _norm(self, a, b):
        """The 2-norm of (a, b) as np.linalg.norm forms it: the square
        root of BLAS's x.dot(x)."""
        x, xv = self._sq, self._sqv
        xv[0], xv[1] = a, b
        return math.sqrt(x.dot(x))

    def _initial_step(self):
        """Hairer, Norsett and Wanner's starting step (sec. II.4), as scipy's."""
        t0, (z0, I0), (fz0, fI0) = self.t, self.y, self.f
        rtol, atol = self.rtol, self.atol
        interval_length = self.t_bound - t0
        sz, sI = atol + abs(z0) * rtol, atol + abs(I0) * rtol
        d0 = self._norm(z0 / sz, I0 / sI) / _RMS_DIV
        d1 = self._norm(fz0 / sz, fI0 / sI) / _RMS_DIV
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        if h0 == 0:     # f0 infinite or huge: scipy's min(100 * h0, ...) is 0
            return 0.0
        fz1, fI1 = self.fun(t0 + h0, z0 + h0 * fz0, I0 + h0 * fI0)
        d2 = self._norm((fz1 - fz0) / sz, (fI1 - fI0) / sI) / _RMS_DIV / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        return min(100 * h0, h1, interval_length)

    def _rk_step(self, t, z, I, h):
        """The new (zeta, I) and its f after a step h, with the stages in K."""
        Kf, d, dv, fun = self._Kf, self._dot, self._dotv, self.fun
        Kf[0], Kf[1] = self.f
        for i, Ks, a, c in self._step_stages:
            np.dot(Ks, a, out=d)
            dz, dI = dv
            Kf[i], Kf[i + 1] = fun(t + c * h, z + dz * h, I + dI * h)
        np.dot(self._KB, _B, out=d)
        dz, dI = dv
        z_new, I_new = z + h * dz, I + h * dI
        f_new = Kf[2 * N_STAGES], Kf[2 * N_STAGES + 1] = fun(t + h, z_new, I_new)
        return z_new, I_new, f_new

    def _error_norm(self, h, sz, sI):
        KE, d, dv = self._KE, self._dot, self._dotv
        np.dot(KE, _E5, out=d)
        ez, eI = dv
        err5_norm_2 = self._norm(ez / sz, eI / sI) ** 2
        np.dot(KE, _E3, out=d)
        ez, eI = dv
        err3_norm_2 = self._norm(ez / sz, eI / sI) ** 2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return abs(h) * err5_norm_2 / math.sqrt(denom * 2)

    def step(self):
        """One accepted step; the failure message, or None."""
        t, (z, I) = self.t, self.y
        rtol, atol = self.rtol, self.atol
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        step_rejected = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return "Required step size is less than spacing between numbers."
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = abs(h)
            z_new, I_new, f_new = self._rk_step(t, z, I, h)
            # the new value first: a NaN there gives a NaN scale, as
            # np.maximum would (the accepted y is never NaN)
            sz = atol + max(abs(z_new), abs(z)) * rtol
            sI = atol + max(abs(I_new), abs(I)) * rtol
            error_norm = self._error_norm(h, sz, sI)
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** (-1 / 8))
            step_rejected = True
        if error_norm == 0:
            factor = MAX_FACTOR
        else:
            factor = min(MAX_FACTOR, SAFETY * error_norm ** (-1 / 8))
        if step_rejected:
            factor = min(1, factor)
        self.y_old = self.y
        self.t_old, self.t = t, t_new
        self.y = (z_new, I_new)
        self.h_abs = h_abs * factor
        self.f = f_new
        if self.t >= self.t_bound:
            self.status = "finished"
        return None

    def dense_output(self) -> DenseStep:
        """The interpolant of the last accepted step (three more stages)."""
        K, Kf, d, dv, fun = self.K_extended, self._Kf, self._dot, self._dotv, self.fun
        t_old, (z_old, I_old) = self.t_old, self.y_old
        h = self.t - t_old
        for i, Ks, a, c in self._dense_stages:
            np.dot(Ks, a, out=d)
            dz, dI = dv
            Kf[i], Kf[i + 1] = fun(t_old + c * h, z_old + dz * h, I_old + dI * h)
        (fz_old, fI_old), (fz, fI) = (Kf[0], Kf[1]), self.f
        z, I = self.y
        dz, dI = z - z_old, I - I_old
        F = np.empty((INTERPOLATOR_POWER, 2))
        F[0] = dz, dI
        F[1] = h * fz_old - dz, h * fI_old - dI
        F[2] = 2 * dz - h * (fz + fz_old), 2 * dI - h * (fI + fI_old)
        F[3:] = h * np.dot(_D, K)
        return DenseStep(t_old, self.t, self.y_old, F)
