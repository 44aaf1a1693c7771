"""The real-pair split of a Fourier field in k-space, against the numpy
FFT round trip, and the FFT-free orthogonality functionals it enables."""

import numpy as np
import pytest

from dirac_soliton.field_grid import (FOURIER, GridSpec, SpinorField,
                                     gaussian_packet)
from dirac_soliton.linearized_spectral import (
    _real_pair_hat,
    orthogonality_check,
    phi_lambda,
    phi_prime_zero,
)
from dirac_soliton.phase_space import PhaseState
from dirac_soliton.spinor_algebra import ChargeDensity
from oracles import real_pair_hat_fft

RHO = ChargeDensity()
V6 = np.array([0.6, 0.0, 0.0])


def _random_fourier_field(n, seed):
    rng = np.random.default_rng(seed)
    shape = (4, n, n, n)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpinorField(GridSpec(10.0, n), data, FOURIER)


def _phi_packet():
    # the packet of test_phi_functionals_match_the_dense_green_blocks
    return gaussian_packet(GridSpec(20.0, 32), width=1.4,
                           center=(0.8, -0.5, 0.3),
                           spinor=(0.6, 0.3j, -0.2, 0.4 - 0.1j),
                           k0=(0.4, 0.2, -0.3), amplitude=0.7)


def _assert_matches_round_trip(psi):
    for flip, trip in zip(_real_pair_hat(psi), real_pair_hat_fft(psi)):
        assert np.max(np.abs(flip - trip)) <= 1e-15 * np.max(np.abs(trip))


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("seed", [0, 1])
def test_real_pair_flip_matches_the_fft_round_trip(n, seed):
    # random data fills the Nyquist planes, where -k is k itself
    psi = _random_fourier_field(n, seed)
    _assert_matches_round_trip(psi)
    # each half is the transform of a real field: x(-k) = conj x(k), exactly
    for x in _real_pair_hat(psi):
        flipped = np.roll(np.flip(x, (1, 2, 3)), 1, (1, 2, 3)).conj()
        assert np.array_equal(flipped, x)


def test_real_pair_flip_matches_the_round_trip_on_the_phi_packet():
    psi = _phi_packet()
    _assert_matches_round_trip(psi)
    _assert_matches_round_trip(psi.to_fourier())


def test_functionals_run_no_fft_on_fourier_input(monkeypatch):
    psi = _random_fourier_field(16, 3)
    Z = PhaseState(psi, np.array([0.1, -0.2, 0.3]),
                   np.array([0.2, 0.0, -0.1]))
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name,
                            counting(name, getattr(np.fft, name)))
    phi_lambda(psi, 0.3 + 0.2j, V6, RHO)
    phi_prime_zero(psi, V6, RHO)
    orthogonality_check(Z, V6, RHO)
    orthogonality_check(Z, V6, RHO, b=np.array([0.5, -0.2, 0.1]))
    assert calls == []
    # the counter sees the transforms that a position-space input needs
    phi_lambda(psi.to_position(), 0.0, V6, RHO)
    assert calls == ["fftn", "ifftn"]
