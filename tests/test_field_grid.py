import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac_soliton import field_grid
from dirac_soliton.field_grid import (
    FOURIER,
    POSITION,
    GridSpec,
    SeparableSource,
    SpinorField,
    _block_symbol,
    _free_multiplier,
    dirac_symbol,
    free_propagate,
    gaussian_packet,
    k_second_moments,
    moving_frame_propagate,
    shift_field,
    spectral_derivative,
    weighted_norm,
    zero_field,
)
from dirac_soliton.spinor_algebra import build_dirac_matrices
from oracles import (
    apply_alpha_dot_k,
    block_symbol_serial,
    source_flight_serial,
    to_fourier_allocating,
    to_position_allocating,
)

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


@settings(derandomize=True, deadline=None)
@given(grid=GRIDS, seed=SEEDS)
def test_k_moments_match_the_direct_triple_sum(grid, seed):
    w = _spinor_data(grid, seed)[0]
    direct = np.array([grid.dk**3 * np.sum(k * w) for k in grid.k_axes])
    scale = grid.dk**3 * np.sum(np.sqrt(grid.k2) * np.abs(w))
    assert np.max(np.abs(grid.k_moments(w) - direct)) <= 1e-14 * scale


@settings(derandomize=True, deadline=None)
@given(grid=GRIDS, seed=SEEDS)
def test_k_second_moments_match_the_direct_sum_and_are_symmetric(grid, seed):
    w = _spinor_data(grid, seed)[0].real
    ks = grid.k_axes
    direct = np.array([[grid.dk**3 * np.sum(kl * kj * w) for kj in ks]
                       for kl in ks])
    got = k_second_moments(w, grid)
    scale = grid.dk**3 * np.sum(grid.k2 * np.abs(w))
    assert np.max(np.abs(got - direct)) <= 1e-14 * scale
    assert np.array_equal(got, got.T)


# ---------------------------------------------------------------------------
# Properties of the free propagator and its memoized multiplier.
# ---------------------------------------------------------------------------

TIMES = st.floats(-10.0, 10.0)


def _fourier_field(grid, seed):
    return SpinorField(grid, _spinor_data(grid, seed), FOURIER)


@settings(derandomize=True, deadline=None)
@given(grid=GRIDS, m=MASSES, t=TIMES, seed=SEEDS)
def test_free_propagate_is_unitary(grid, m, t, seed):
    psi = _fourier_field(grid, seed)
    n0 = psi.norm()
    assert abs(free_propagate(psi, t, m).norm() - n0) <= 1e-12 * n0


@settings(derandomize=True, deadline=None)
@given(grid=GRIDS, m=MASSES, s=TIMES, t=TIMES, seed=SEEDS)
def test_free_propagate_group_law(grid, m, s, t, seed):
    psi = _fourier_field(grid, seed)
    once = free_propagate(psi, s + t, m)
    twice = free_propagate(free_propagate(psi, t, m), s, m)
    assert (twice - once).norm() <= 1e-12 * psi.norm()


@settings(derandomize=True, deadline=None)
@given(grid=GRIDS, m=MASSES, t=TIMES, seed=SEEDS)
def test_free_propagate_matches_the_dense_multiplier(grid, m, t, seed):
    # cos(w t) I - i sin(w t) (beta m - alpha.k) / w with dense 4x4 products
    psi = _fourier_field(grid, seed)
    w = np.sqrt(grid.k2 + m * m)
    beta = build_dirac_matrices().beta
    D = m * np.einsum("ab,bxyz->axyz", beta, psi.data) \
        - apply_alpha_dot_k(psi.data, grid)
    dense = np.cos(w * t) * psi.data - 1j * (np.sin(w * t) / w) * D
    err = np.linalg.norm(free_propagate(psi, t, m).data - dense)
    assert err <= 1e-14 * np.linalg.norm(dense)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(grid=GRIDS, m=MASSES, t=TIMES, t_other=TIMES, seed=SEEDS)
def test_free_multiplier_memo_is_exact_and_read_only(grid, m, t, t_other,
                                                     seed):
    psi = _fourier_field(grid, seed)
    _free_multiplier.cache_clear()
    cold = free_propagate(psi, t, m).data
    assert np.array_equal(free_propagate(psi, t, m).data, cold)
    assert _free_multiplier.cache_info().hits == 1
    free_propagate(psi, t_other, m)
    assert np.array_equal(free_propagate(psi, t, m).data, cold)
    for cached in _free_multiplier(grid, t, m):
        with pytest.raises(ValueError):
            cached[(0,) * 3] = 0.0


# ---------------------------------------------------------------------------
# The block kernel and the source flight on two threads: the one-thread
# oracle's bits, for every caller, after a failed call and after a fork.
# ---------------------------------------------------------------------------

KERNEL_GRIDS = st.builds(GridSpec, L=st.floats(1.0, 100.0),
                         N=st.sampled_from([2, 4, 8, 16]))


@settings(derandomize=True, deadline=None)
@given(grid=KERNEL_GRIDS, m=MASSES, t=TIMES, seed=SEEDS)
def test_block_kernel_equals_the_serial_oracle(grid, m, t, seed):
    # scalar coefficients as in dirac_symbol, arrays as in free_propagate
    data = _spinor_data(grid, seed)
    a_u, s = _free_multiplier(grid, t, m)
    for coefs in ((m, -m, 1j), (a_u, a_u.conj(), s)):
        assert np.array_equal(_block_symbol(data, grid, *coefs),
                              block_symbol_serial(data, grid, *coefs))


@settings(derandomize=True, deadline=None)
@given(grid=KERNEL_GRIDS, m=MASSES, t=TIMES, seed=SEEDS)
def test_source_flight_equals_the_serial_oracle(grid, m, t, seed):
    rng = np.random.default_rng(seed)
    src = SeparableSource(grid, tuple(
        rng.normal(size=grid.N) + 1j * rng.normal(size=grid.N)
        for _ in range(3)))
    base = _spinor_data(grid, seed)
    got = free_propagate(src, t, m,
                         add_to=SpinorField(grid, base.copy(), FOURIER))
    assert np.array_equal(got.data, source_flight_serial(src, t, m, base))


def test_concurrent_callers_each_get_the_serial_bits():
    # four callers, more than a two-core machine has cores, share the one
    # worker, with a short switch interval to interleave them finely
    grid, calls = GridSpec(20.0, 16), 40
    a_u, s = _free_multiplier(grid, 0.7, 1.0)
    cases = [_spinor_data(grid, seed) for seed in range(4)]
    wants = [block_symbol_serial(d, grid, a_u, a_u.conj(), s) for d in cases]
    equal = []

    def run(data, want):
        for _ in range(calls):
            equal.append(np.array_equal(
                _block_symbol(data, grid, a_u, a_u.conj(), s), want))

    threads = [threading.Thread(target=run, args=pair)
               for pair in zip(cases, wants)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(equal) == len(cases) * calls and all(equal)


class _RecordingWorker:
    def __init__(self, worker):
        self.worker, self.futures = worker, []

    def submit(self, *args):
        self.futures.append(self.worker.submit(*args))
        return self.futures[-1]


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_failed_half_raises_once_both_halves_stopped(monkeypatch, failing):
    # a coefficient of shape (3,) broadcasts against no k-grid; the lower
    # pair, a_d's, is the worker's half
    grid = GridSpec(20.0, 32)
    data = _spinor_data(grid, 1)
    a_u, s = _free_multiplier(grid, 0.3, 1.0)
    bad = np.ones(3)
    coefs = (a_u, bad) if failing == "worker" else (bad, a_u.conj())
    recording = _RecordingWorker(field_grid._worker)
    monkeypatch.setattr(field_grid, "_worker", recording)
    with pytest.raises(ValueError, match="broadcast"):
        _block_symbol(data, grid, *coefs, s)
    assert len(recording.futures) == 1 and recording.futures[0].done()
    assert np.array_equal(_block_symbol(data, grid, a_u, a_u.conj(), s),
                          block_symbol_serial(data, grid, a_u, a_u.conj(), s))


def test_a_forked_child_runs_the_kernel():
    # the child inherits the executor but not its running thread
    grid = GridSpec(20.0, 8)
    psi = _fourier_field(grid, 5)
    a_u, s = _free_multiplier(grid, 0.4, 1.0)
    want = block_symbol_serial(psi.data, grid, a_u, a_u.conj(), s)
    free_propagate(psi, 0.4, 1.0)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = int(not np.array_equal(free_propagate(psi, 0.4, 1.0).data,
                                          want))
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 \
            and time.monotonic() < deadline:
        time.sleep(0.02)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def _random_data(n, seed):
    rng = np.random.default_rng(seed)
    shape = (4, n, n, n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("seed", [0, 1])
def test_transforms_are_bit_identical_to_the_allocating_route(n, seed):
    grid = GridSpec(13.0, n)
    data = _random_data(n, seed)
    hat = SpinorField(grid, data, FOURIER)
    pos = SpinorField(grid, data, POSITION)
    assert np.array_equal(hat.to_position().data, to_position_allocating(hat))
    assert np.array_equal(pos.to_fourier().data, to_fourier_allocating(pos))
    # the input is left as it was
    assert np.array_equal(hat.data, data) and np.array_equal(pos.data, data)


def test_to_position_holds_one_field():
    # numpy's FFT runs in place in the result: the peak of one transform
    # is the field it returns, not the three arrays of the allocating route
    hat = SpinorField(GridSpec(20.0, 32), _random_data(32, 3), FOURIER)
    hat.to_position()                   # warm numpy's FFT plan cache
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        pos = hat.to_position()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * pos.data.nbytes
