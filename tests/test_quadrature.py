import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac_soliton.quadrature import (
    ABS_TOL_TARGET,
    gauss_panels_1d,
    monte_carlo_gaussian_3d,
    tensor_trapezoid_3d,
)


def test_trapezoid_gaussian_exact_value():
    # integral of e^{-|k|^2} over R^3 is pi^{3/2}
    res = tensor_trapezoid_3d(lambda k1, k2, k3: np.exp(-(k1**2 + k2**2 + k3**2)),
                              kmax=8.0, n=96)
    assert abs(float(res.value) - np.pi**1.5) < 1e-12
    assert res.error <= ABS_TOL_TARGET
    assert res.within_target()


def test_trapezoid_stacked_output():
    def f(k1, k2, k3):
        g = np.exp(-(k1**2 + k2**2 + k3**2))
        shape = np.broadcast_shapes(k1.shape, k2.shape, k3.shape)
        out = np.empty((2,) + shape)
        out[0] = g
        out[1] = k1**2 * g
        return out

    res = tensor_trapezoid_3d(f, kmax=8.0, n=64)
    assert res.value.shape == (2,)
    assert abs(res.value[0] - np.pi**1.5) < 1e-10
    # second moment of the unit Gaussian weight: pi^{3/2} / 2
    assert abs(res.value[1] - 0.5 * np.pi**1.5) < 1e-10


def test_trapezoid_rejects_bad_n():
    with pytest.raises(ValueError):
        tensor_trapezoid_3d(lambda k1, k2, k3: k1 * k2 * k3, kmax=1.0, n=30)


def test_gauss_panels_gaussian_tail():
    res = gauss_panels_1d(lambda x: np.exp(-(x**2)), 0.0, 10.0,
                          breakpoints=(1.0, 3.0))
    assert abs(float(res.value) - 0.5 * np.sqrt(np.pi)) < 1e-12
    assert res.error < 1e-10


@settings(derandomize=True, deadline=None)
@given(a=st.floats(-5.0, 5.0), width=st.floats(0.1, 5.0),
       cuts=st.lists(st.floats(0.01, 0.99), max_size=4),
       coeffs=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=21),
       order=st.integers(11, 40))
def test_gauss_panels_integrate_polynomials(a, width, cuts, coeffs, order):
    # p(x) = sum c_i (x - a)^i with c_i > 0 has degree <= 20 and no
    # cancellation on [a, b]; each panel rule of order >= 11 is exact for
    # it, so only rounding separates the result from the exact integral,
    # whatever the breakpoints
    b = a + width
    shifted = np.polynomial.Polynomial(coeffs)

    def p(x):
        return shifted(x - a)

    exact = sum(c * width ** (i + 1) / (i + 1) for i, c in enumerate(coeffs))
    split = gauss_panels_1d(p, a, b, breakpoints=[a + c * width
                                                  for c in cuts],
                            order=order)
    whole = gauss_panels_1d(p, a, b, order=order)
    assert abs(float(split.value) - exact) <= 1e-12 * exact
    assert abs(float(split.value) - float(whole.value)) <= 1e-12 * exact


def test_monte_carlo_constant_is_exact():
    sigma = 1.0
    est, err = monte_carlo_gaussian_3d(lambda k1, k2, k3: np.ones_like(k1),
                                       sigma, n_samples=1000, seed=0)
    assert abs(float(est) - (np.pi / sigma**2) ** 1.5) < 1e-12
    assert float(err) < 1e-12


def test_monte_carlo_second_moment():
    # integral e^{-sigma^2 k^2} k1^2 dk = (pi/sigma^2)^{3/2} / (2 sigma^2)
    sigma = 1.3
    exact = (np.pi / sigma**2) ** 1.5 / (2.0 * sigma**2)
    est, err = monte_carlo_gaussian_3d(lambda k1, k2, k3: k1**2, sigma,
                                       n_samples=200_000, seed=42)
    assert abs(float(est) - exact) < 5.0 * float(err)
