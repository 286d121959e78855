"""Print the exact Taylor data of the local solution at eta = 1.

The regular solution of the radial equation L[u] = lambda' (u'')^2
(core.radial_lhs) is v = u' = r (1 + c1 r^2 + c2 r^4 + ...), each c_k fixed
by the ones before it.  Its phase variables eta = r v'/v and
zeta = eta - eta^2 + r^2 v''/v give zeta as a series in x = eta - 1:

    zeta = d1 x + alpha x^2/2 + beta x^3/6 + gamma x^4/24 + ...

This script solves the series with sympy and prints d1, alpha, beta and
gamma as functions of theta for each n, factored; lambda' drops out of all
four.  negative_pair.taylor_coeffs holds its output for n = 2..5.  Run

    python tests/taylor_series.py [n ...]

(n = 2 3 4 5 by default; about 5 s a dimension).  It needs sympy, which
the package and its test suite do not, and is not part of the test suite.
"""

import argparse

import sympy as sp

ORDER = 4   # the last power of x kept: gamma's


def taylor_data(n: int):
    """(d1, alpha, beta, gamma) of dimension n as sympy expressions in theta."""
    r, s, x, theta, lam = sp.symbols("r s x theta lambda_p")
    c = sp.symbols(f"c1:{ORDER + 1}")
    v = r * (1 + sum(ck * r ** (2 * k) for k, ck in enumerate(c, start=1)))
    u1, u2, u3, u4 = v, sp.diff(v, r), sp.diff(v, r, 2), sp.diff(v, r, 3)
    a, b = (n - 1) * theta - (n - 2), (n - 1) * theta - 1
    # (L[u] - lambda' (u'')^2) times u'^2 u'' r^2: a polynomial in r
    P = sp.Poly(sp.expand(
        u1**2 * r**2 * (-u4 * u2 + (theta + 1) * u3**2 - lam * u2**3)
        + 2 * (n - 1) * u3 * u2 * u1 * r * ((theta - 1) * u2 * r - theta * u1)
        + (n - 1) * u2**2 * (u2 * r - u1) * (a * u2 * r - b * u1)), r)
    # the lowest power of r that holds c_k fixes it; the powers below vanish
    known = {}
    for ck in c:
        for (deg,) in sorted(P.monoms()):
            term = sp.expand(P.coeff_monomial(r**deg).subs(known))
            if term.has(ck):
                known[ck] = sp.solve(term, ck)[0]
                break
            assert term == 0, (n, deg, term)
    v = v.subs(known)
    eta = sp.series(r * sp.diff(v, r) / v, r, 0, 2 * ORDER + 2).removeO()
    zeta = sp.series(eta - eta**2 + r**2 * sp.diff(v, r, 2) / v,
                     r, 0, 2 * ORDER + 2).removeO()
    # x(s) and zeta(s) in s = r^2; invert x(s) to s(x) term by term
    x_of_s = sp.expand(eta - 1).subs(r, sp.sqrt(s))
    zeta_of_s = sp.expand(zeta).subs(r, sp.sqrt(s))
    S = sp.symbols(f"S1:{ORDER + 1}")
    s_of_x = sum(Sk * x**k for k, Sk in enumerate(S, start=1))
    eqs = sp.Poly(sp.expand(
        sp.series(x_of_s.subs(s, s_of_x), x, 0, ORDER + 1).removeO() - x), x)
    s_of_x = s_of_x.subs(sp.solve(eqs.coeffs(), S, dict=True)[0])
    zeta_of_x = sp.series(zeta_of_s.subs(s, s_of_x), x, 0, ORDER + 1).removeO()
    return [sp.factor(sp.simplify(zeta_of_x.coeff(x, k) * sp.factorial(k)))
            for k in range(1, ORDER + 1)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", nargs="*", type=int, default=[2, 3, 4, 5],
                    help="dimensions of the radial factor")
    for n in ap.parse_args(argv).n:
        for name, value in zip(("d1", "alpha", "beta", "gamma"), taylor_data(n)):
            print(f"n = {n}  {name} = {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
