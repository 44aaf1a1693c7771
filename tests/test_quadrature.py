import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac_soliton import linearized_spectral, symplectic_geometry
from dirac_soliton.linearized_spectral import (matrix_H, matrix_H_on_axis,
                                               matrix_L)
from dirac_soliton.quadrature import (
    ABS_TOL_TARGET,
    gauss_panels_1d,
    k_outer_trapezoid_3d,
    tensor_trapezoid_3d,
)
from dirac_soliton.spinor_algebra import ChargeDensity
from dirac_soliton.symplectic_geometry import matrix_K
from oracles import (dense_trapezoid_3d, gauss_panels_per_interval,
                     monte_carlo_gaussian_3d)

RHO = ChargeDensity()


def _stacked_gaussian(k1, k2, k3):
    g = np.exp(-(k1**2 + k2**2 + k3**2))
    shape = np.broadcast_shapes(k1.shape, k2.shape, k3.shape)
    out = np.empty((2,) + shape)
    out[0] = g
    out[1] = k1**2 * g
    return out


def test_trapezoid_gaussian_exact_value():
    # integral of e^{-|k|^2} over R^3 is pi^{3/2}
    res = tensor_trapezoid_3d(lambda k1, k2, k3: np.exp(-(k1**2 + k2**2 + k3**2)),
                              kmax=8.0, n=96)
    assert abs(float(res.value) - np.pi**1.5) < 1e-12
    assert res.error <= ABS_TOL_TARGET
    assert res.within_target()


def test_trapezoid_stacked_output():
    res = tensor_trapezoid_3d(_stacked_gaussian, kmax=8.0, n=64)
    assert res.value.shape == (2,)
    assert abs(res.value[0] - np.pi**1.5) < 1e-10
    # second moment of the unit Gaussian weight: pi^{3/2} / 2
    assert abs(res.value[1] - 0.5 * np.pi**1.5) < 1e-10


def test_trapezoid_rejects_bad_n():
    with pytest.raises(ValueError):
        tensor_trapezoid_3d(lambda k1, k2, k3: k1 * k2 * k3, kmax=1.0, n=30)


def _outer_core(monkeypatch, module, call):
    """Run call() while recording the core that module hands to
    k_outer_trapezoid_3d; returns (result, the nine-entry k_i k_j core
    integrand, kmax, n)."""
    seen = []

    def record(core, kmax, n):
        seen.append((core, kmax, n))
        return k_outer_trapezoid_3d(core, kmax, n)

    monkeypatch.setattr(module, "k_outer_trapezoid_3d", record)
    res = call()
    (core, kmax, n), = seen

    def outer(*ks):
        c = core(*ks)
        return np.array([[ki * kj * c for kj in ks] for ki in ks])
    return res, outer, kmax, n


def _assert_matches_dense(res, f, kmax, n):
    value, error = dense_trapezoid_3d(f, kmax, n)
    assert res.value.shape == value.shape
    assert np.max(np.abs(res.value - value)) <= 2e-15 * np.max(np.abs(value))
    assert abs(res.error - error) <= 1e-3 * error


def test_slab_trapezoid_matches_the_dense_route_on_a_stack():
    # at n = 16 the embedded grids (spacing 2 and 4) still err well above
    # rounding, so the two routes' error estimates are comparable
    _assert_matches_dense(tensor_trapezoid_3d(_stacked_gaussian, 8.0, 16),
                          _stacked_gaussian, 8.0, 16)


@pytest.mark.parametrize("module, call", [
    (symplectic_geometry, lambda: matrix_K(np.array([0.3, -0.2, 0.4]), RHO)),
    (linearized_spectral, lambda: matrix_L(np.array([0.6, 0.0, 0.0]), RHO)),
], ids=["K", "L"])
def test_slab_trapezoid_matches_the_dense_route_on_k_and_l(monkeypatch,
                                                           module, call):
    _assert_matches_dense(*_outer_core(monkeypatch, module, call))


def test_k_outer_is_the_nine_entry_stack_mirrored_bit_for_bit():
    v = np.array([0.3, -0.2, 0.4])

    def core(k1, k2, k3):
        return np.exp(-(k1**2 + k2**2 + k3**2)) / (
            2.0 + (v[0] * k1 + v[1] * k2 + v[2] * k3) ** 2)

    def nine(*ks):
        c = core(*ks)
        out = np.empty((3, 3) + c.shape)
        for i, j in np.ndindex(3, 3):
            out[i, j] = ks[i] * ks[j] * c
        return out

    half = k_outer_trapezoid_3d(core, 8.0, 48)
    full = tensor_trapezoid_3d(nine, 8.0, 48)
    assert np.array_equal(half.value, full.value)
    assert np.array_equal(half.value, half.value.T)
    assert half.error == full.error


def test_trapezoid_holds_one_slab_not_the_grid():
    # one float64 field on the 97^3 grid is 7.3 MB; the whole-grid route
    # peaked near 139 MB on this call
    v = np.array([0.3, -0.2, 0.4])
    matrix_K(v, RHO)
    tracemalloc.start()
    try:
        matrix_K(v, RHO, n=96)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_gauss_panels_gaussian_tail():
    res = gauss_panels_1d(lambda x: np.exp(-(x**2)), 0.0, 10.0,
                          breakpoints=(1.0, 3.0))
    assert abs(float(res.value) - 0.5 * np.sqrt(np.pi)) < 1e-12
    assert res.error < 1e-10


def test_gauss_panels_coarse_pass_runs_only_when_error_is_read():
    nodes = []

    def f(x):
        nodes.append(x.size)
        return np.exp(-(x**2))

    res = gauss_panels_1d(f, 0.0, 10.0, breakpoints=(1.0, 3.0), order=20,
                          panels_per_interval=4)
    # one call per pass: the value alone is the fine pass, 8 panels of 20
    # nodes in each of the 3 intervals
    assert nodes == [480]
    first = res.error
    assert nodes == [480, 240]
    # the estimate is kept, not recomputed
    assert res.error == first
    assert len(nodes) == 2


def test_gauss_panels_count_a_repeated_breakpoint_once():
    # log|x| is integrable at 0 but infinite there: an empty [0, 0]
    # interval would put its nodes on it
    def f(x):
        return np.log(np.abs(x)) * np.exp(-(x**2))

    once = gauss_panels_1d(f, -3.0, 3.0, breakpoints=(0.0,))
    thrice = gauss_panels_1d(f, -3.0, 3.0, breakpoints=(0.0, 0.0, 0.0))
    assert np.isfinite(float(thrice.value))
    assert float(thrice.value) == float(once.value)


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


def _assert_equals_per_interval(args, kwargs):
    res = gauss_panels_1d(*args, **kwargs)
    value, error = gauss_panels_per_interval(*args, **kwargs)
    assert np.array_equal(res.value, value)
    assert res.error == error


@pytest.mark.parametrize("call", [
    lambda: matrix_H_on_axis(1.2, (0.6, 0.0, 0.0), RHO),
    lambda: matrix_H_on_axis(0.3, (0.6, 0.0, 0.0), RHO),
    lambda: matrix_H(0.06 + 1.2j, (0.6, 0.0, 0.0), RHO),
], ids=["on-cut", "below-cut", "off-axis"])
def test_gauss_panels_equal_the_per_interval_sum_on_h(monkeypatch, call):
    # one integrand call per pass, with the interval sums added in order,
    # is bit for bit the per-interval loop
    seen = []

    def record(*args, **kwargs):
        seen.append((args, kwargs))
        return gauss_panels_1d(*args, **kwargs)

    monkeypatch.setattr(linearized_spectral, "gauss_panels_1d", record)
    call()
    (args, kwargs), = seen
    _assert_equals_per_interval(args, kwargs)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(a=st.floats(-3.0, 0.0), width=st.floats(0.5, 5.0),
       cuts=st.lists(st.floats(-0.2, 1.2), max_size=5),
       repeat=st.integers(0, 3),
       order=st.integers(5, 24),
       panels=st.sampled_from([1, 2, 3, 5, 8]),
       c=st.floats(-1.0, 1.0), stacked=st.booleans())
def test_gauss_panels_equal_the_per_interval_sum(a, width, cuts, repeat,
                                                 order, panels, c, stacked):
    # breakpoints may repeat or fall outside [a, b]
    b = a + width
    breaks = [a + t * width for t in cuts] + [a + t * width
                                              for t in cuts[:repeat]]

    def f(x):
        y = np.exp(-c * x * x) * np.cos(3.0 * x) + np.log(np.abs(x - c))
        return np.stack([y, (x + 1j * c) ** 2]) if stacked else y

    _assert_equals_per_interval((f, a, b, breaks),
                                dict(order=order, panels_per_interval=panels))


def test_h_on_the_cut_holds_under_one_megabyte():
    # one integrand call per pass holds every node of a pass at once: 2,800
    # on the cut for the value and 1,400 for the estimate
    omega, v = 1.2, (0.6, 0.0, 0.0)
    matrix_H_on_axis(omega, v, RHO).error
    tracemalloc.start()
    try:
        matrix_H_on_axis(omega, v, RHO).error
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


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
