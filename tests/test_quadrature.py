import math

import numpy as np
import pytest

from lyaplab.quadrature import adaptive_quadrature, gauss_legendre_rule


def test_polynomial_is_exact():
    res = adaptive_quadrature(lambda x: 3 * x ** 2, 0.0, 2.0, tol=1e-12)
    assert abs(res.value - 8.0) < 1e-13


def test_weight_style_integral():
    f = lambda t: (1 - t * t) / (t ** 4 + 6 * t * t + 1)
    res = adaptive_quadrature(f, -1.0, 1.0, tol=1e-12)
    assert abs(res.value - math.pi / 4) < 1e-12
    assert res.error >= abs(res.value - math.pi / 4)


def test_kinked_integrand_error_estimate_is_honest():
    f = lambda x: np.sqrt(np.abs(x - 0.3))
    exact = ((1 - 0.3) ** 1.5 + (0.3 + 1) ** 1.5) * 2 / 3
    res = adaptive_quadrature(f, -1.0, 1.0, tol=1e-10, max_panels=2000)
    assert abs(res.value - exact) <= max(res.error, 2e-10)


def test_log_singularity():
    res = adaptive_quadrature(lambda x: np.log(np.abs(x) + 1e-300), 0.0, 1.0,
                              tol=1e-9, max_panels=2000)
    assert abs(res.value + 1.0) < 1e-7


def test_stderr_folding():
    f = lambda x: (np.ones_like(x), 0.01 * np.ones_like(x))
    res = adaptive_quadrature(f, 0.0, 1.0, tol=1e-10)
    assert abs(res.value - 1.0) < 1e-13
    # folded statistical error: integral of 0.01 over the interval
    assert abs(res.error - 0.01) < 1e-3


def test_rejects_empty_interval():
    with pytest.raises(ValueError):
        adaptive_quadrature(lambda x: x, 1.0, 1.0)


def test_gauss_legendre_constants_and_moments():
    x, w = gauss_legendre_rule(8, -0.3, 0.3)
    assert abs(w.sum() - 0.6) < 1e-14
    assert abs(np.dot(w, x ** 2) - 0.3 ** 3 * 2 / 3) < 1e-15

