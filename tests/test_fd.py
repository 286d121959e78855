import numpy as np
import pytest

from affmax.fd import (derivative_from_callable, fornberg_weights,
                       one_sided_derivative)


def test_classical_stencils():
    w2 = fornberg_weights(0.0, np.arange(-2.0, 3.0), 2)[2]
    assert np.allclose(w2, np.array([-1, 16, -30, 16, -1]) / 12.0)
    w4 = fornberg_weights(0.0, np.arange(-2.0, 3.0), 4)[4]
    assert np.allclose(w4, [1, -4, 6, -4, 1])


def test_interpolation_row_sums():
    # order-0 weights reproduce constants; higher orders kill them
    w = fornberg_weights(0.3, np.linspace(-1, 1, 7), 3)
    assert np.isclose(w[0].sum(), 1.0)
    for k in (1, 2, 3):
        assert abs(w[k].sum()) < 1e-10


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_derivative_from_callable_on_sin(order):
    # relative steps near the truncation/roundoff balance of a 9-point
    # stencil, scaled by max(|x|, 1)
    h_rel = {1: 5e-3, 2: 1e-2, 3: 1.7e-2, 4: 2.5e-2}[order]
    exact = [np.cos(1.0), -np.sin(1.0), -np.cos(1.0), np.sin(1.0)][order - 1]
    est = derivative_from_callable(np.sin, 1.0, order, h=h_rel * max(abs(1.0), 1.0))
    assert abs(est - exact) < 5e-8 * max(1, 10 ** (order - 2))


def test_one_sided_derivative_polynomial():
    f = lambda x: 2.0 + 3 * x + 0.5 * x**3
    assert abs(one_sided_derivative(f, 0.0, 1, 1e-2) - 3.0) < 1e-9
    assert abs(one_sided_derivative(f, 0.0, 2, 1e-2)) < 1e-7
    assert abs(one_sided_derivative(f, 0.0, 3, 1e-2) - 3.0) < 1e-4

