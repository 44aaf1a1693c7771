import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac_soliton.field_grid import (
    FOURIER,
    GridSpec,
    SpinorField,
    dirac_symbol,
    free_propagate,
    gaussian_packet,
    moving_frame_propagate,
    shift_field,
    spectral_derivative,
    weighted_norm,
    zero_field,
)
from dirac_soliton.spinor_algebra import build_dirac_matrices

GRID = GridSpec(L=20.0, N=32)


def _random_field(grid, seed=0, scale_k=1.0):
    # Band-limited random field: Gaussian-decaying random Fourier data.
    rng = np.random.default_rng(seed)
    shape = (4, grid.N, grid.N, grid.N)
    hat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    hat *= np.exp(-grid.k2 / (2.0 * scale_k**2))
    return SpinorField(grid, hat, FOURIER).to_position()


def test_roundtrip_identity():
    psi = _random_field(GRID, seed=1)
    back = psi.to_fourier().to_position()
    rel = np.max(np.abs(back.data - psi.data)) / np.max(np.abs(psi.data))
    assert rel < 1e-12


def test_parseval():
    psi = _random_field(GRID, seed=2)
    assert np.isclose(psi.norm(), psi.to_fourier().norm(), rtol=1e-12)


def test_transform_matches_analytic_gaussian():
    # e^{-|x|^2/(2 w^2)} -> w^3 e^{-w^2 |k|^2 / 2} under the pinned convention.
    w = 1.3
    psi = gaussian_packet(GRID, width=w)
    hat = psi.to_fourier()
    expected = w**3 * np.exp(-w**2 * GRID.k2 / 2.0)
    # Agreement is limited by sampling aliasing, ~e^{-w^2 k_max^2 / 2}.
    assert np.allclose(hat.data[0].real, expected, atol=5e-9)
    assert np.max(np.abs(hat.data[0].imag)) < 1e-12
    assert np.max(np.abs(hat.data[1:])) < 1e-14


def test_spectral_derivative_of_gaussian():
    w = 1.5
    psi = gaussian_packet(GRID, width=w)
    d1 = spectral_derivative(psi, 0).to_position()
    x = GRID.x1d
    expected = -(x[:, None, None] / w**2) * psi.data[0]
    assert np.max(np.abs(d1.data[0] - expected)) < 1e-9


def test_free_propagate_t0_identity():
    psi = _random_field(GRID, seed=3)
    out = free_propagate(psi, 0.0, m=1.0)
    assert np.allclose(out.data, psi.data, atol=1e-14)


def test_free_propagate_constant_spinor_phase():
    # k=0 mode with spinor (1,0,0,0): beta eigenvalue +1, phase e^{-i t}.
    data = np.zeros((4, GRID.N, GRID.N, GRID.N), dtype=complex)
    data[0] = 1.0
    psi = SpinorField(GRID, data)
    t = 0.7
    out = free_propagate(psi, t, m=1.0)
    assert np.allclose(out.data[0], np.exp(-1j * t), atol=1e-13)
    assert np.max(np.abs(out.data[1:])) < 1e-13


def test_unitarity():
    psi = _random_field(GRID, seed=4)
    n0 = psi.norm()
    for t in (0.1, 1.0, 10.0):
        assert abs(free_propagate(psi, t, 1.0).norm() - n0) <= 1e-12 * n0


def test_group_property():
    psi = _random_field(GRID, seed=5)
    a = free_propagate(psi, 0.4 + 0.9, 1.0)
    b = free_propagate(free_propagate(psi, 0.9, 1.0), 0.4, 1.0)
    assert np.max(np.abs(a.data - b.data)) < 1e-11


def test_time_reversibility():
    psi = _random_field(GRID, seed=6)
    back = free_propagate(free_propagate(psi, 2.3, 1.0), -2.3, 1.0)
    assert np.max(np.abs(back.data - psi.data)) < 1e-11


def test_moving_frame_v0_equals_free():
    psi = _random_field(GRID, seed=7)
    a = free_propagate(psi, 1.1, 1.0)
    b = moving_frame_propagate(psi, 1.1, (0, 0, 0), 1.0)
    assert np.allclose(a.data, b.data, atol=1e-14)


def test_moving_frame_norm_preserved():
    psi = _random_field(GRID, seed=8)
    out = moving_frame_propagate(psi, 2.0, (0.5, 0.1, 0.0), 1.0)
    assert abs(out.norm() - psi.norm()) <= 1e-12 * psi.norm()


def test_moving_frame_is_shifted_free_flow():
    # W_v(t) psi must equal W_0(t) psi translated by -v t (shift-theorem
    # oracle, exact for band-limited data).
    psi = gaussian_packet(GRID, width=1.2)
    t, v = 1.5, np.array([0.6, 0.0, 0.2])
    a = moving_frame_propagate(psi, t, v, 1.0)
    b = shift_field(free_propagate(psi, t, 1.0), -v * t)
    assert np.max(np.abs(a.data - b.data)) < 1e-10


def test_moving_frame_rejects_superluminal():
    psi = _random_field(GRID, seed=9)
    with pytest.raises(ValueError):
        moving_frame_propagate(psi, 1.0, (1.0, 0.0, 0.0), 1.0)


def test_weighted_norm_zero_field():
    assert weighted_norm(zero_field(GRID), 3.0) == 0.0


def test_weighted_norm_nu0_is_l2():
    psi = _random_field(GRID, seed=10)
    assert np.isclose(weighted_norm(psi, 0.0), psi.norm(), rtol=1e-12)


def test_weighted_norm_point_mass():
    data = np.zeros((4, GRID.N, GRID.N, GRID.N), dtype=complex)
    i = (3, 20, 9)
    data[(2,) + i] = 2.5
    psi = SpinorField(GRID, data)
    x = GRID.x1d
    r = np.sqrt(x[i[0]]**2 + x[i[1]]**2 + x[i[2]]**2)
    nu = 2.0
    expected = 2.5 * (1.0 + r)**nu * GRID.h**1.5
    assert np.isclose(weighted_norm(psi, nu), expected, rtol=1e-13)


def test_weighted_norm_monotone_in_nu():
    psi = _random_field(GRID, seed=11)
    vals = [weighted_norm(psi, nu) for nu in (0.0, 1.0, 2.0, 3.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_shift_field_matches_grid_roll():
    # Shifting by exactly one grid cell equals np.roll on sampled values.
    psi = gaussian_packet(GRID, width=1.4)
    shifted = shift_field(psi, (GRID.h, 0.0, 0.0))
    rolled = np.roll(psi.data, 1, axis=1)
    assert np.max(np.abs(shifted.data - rolled)) < 1e-11


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(L=-1.0, N=16)
    with pytest.raises(ValueError):
        GridSpec(L=10.0, N=15)


# ---------------------------------------------------------------------------
# Properties of the grid multipliers over random grids, masses and data.
# ---------------------------------------------------------------------------

GRIDS = st.builds(GridSpec, L=st.floats(1.0, 100.0),
                  N=st.sampled_from([2, 4, 6, 8]))
MASSES = st.floats(0.01, 10.0)
SEEDS = st.integers(0, 2**32 - 1)


def _spinor_data(grid, seed):
    rng = np.random.default_rng(seed)
    shape = (4, grid.N, grid.N, grid.N)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@settings(derandomize=True, deadline=None)
@given(grid=GRIDS, m=MASSES, seed=SEEDS)
def test_dirac_symbol_matches_dense_matrices(grid, m, seed):
    data = _spinor_data(grid, seed)
    d = build_dirac_matrices()
    dense = m * np.einsum("ab,bxyz->axyz", d.beta, data)
    for alpha, k in zip(d.alphas, grid.k_axes):
        dense -= k * np.einsum("ab,bxyz->axyz", alpha, data)
    err = np.linalg.norm(dirac_symbol(data, grid, m) - dense)
    assert err <= 1e-14 * np.linalg.norm(dense)


@settings(derandomize=True, deadline=None)
@given(grid=GRIDS, m=MASSES, seed=SEEDS)
def test_dirac_symbol_squares_to_k2_plus_m2(grid, m, seed):
    data = _spinor_data(grid, seed)
    twice = dirac_symbol(dirac_symbol(data, grid, m), grid, m)
    expected = (grid.k2 + m * m) * data
    assert np.linalg.norm(twice - expected) <= 1e-14 * np.linalg.norm(expected)


@settings(derandomize=True, deadline=None)
@given(grid=GRIDS, a=st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3))
def test_phase_shift_is_exp_of_k_dot(grid, a):
    assert np.array_equal(grid.phase_shift(a), np.exp(1j * grid.k_dot(a)))
