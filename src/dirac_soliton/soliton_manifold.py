"""Soliton construction and the tangent-vector basis of the solitary
manifold, from the explicit Fourier formulas.

The traveling-wave ansatz psi(x,t) = psi_v(x - v t - b), q = v t + b,
p = p_v reduces the coupled system to the stationary equation whose
Fourier solution is

    psi_v_hat(k) = (v.k + alpha.k - beta m) rho_hat(k) / D(k),
    D(k) = |k|^2 + m^2 - (v.k)^2,

well defined for |v| < 1 since D >= m^2 (1 - v^2) > 0. All fields produced
here are functions of the moving coordinate y = x - b - v t; translation to
the lab frame is a k-space phase applied by the callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field_grid import FOURIER, GridSpec, SpinorField, dirac_symbol
from .phase_space import PhaseState
from .spinor_algebra import ChargeDensity


@dataclass(frozen=True)
class SolitonParams:
    """A point sigma = (b, v) of the solitary manifold, |v| < 1."""

    b: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).copy())
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float).copy())
        if self.b.shape != (3,) or self.v.shape != (3,):
            raise ValueError("b and v must be 3-vectors")
        if np.linalg.norm(self.v) >= 1.0:
            raise ValueError("|v| must be < 1")

    @property
    def p_v(self) -> np.ndarray:
        return soliton_momentum(self.v)


def soliton_momentum(v) -> np.ndarray:
    """p_v = v / sqrt(1 - v^2)."""
    v = np.asarray(v, dtype=float)
    v2 = float(v @ v)
    if v2 >= 1.0:
        raise ValueError("|v| must be < 1")
    return v / np.sqrt(1.0 - v2)


def velocity_from_momentum(p) -> np.ndarray:
    """Inverse map v(p) = p / sqrt(1 + p^2)."""
    p = np.asarray(p, dtype=float)
    return p / np.sqrt(1.0 + float(p @ p))


def momentum_jacobian(v) -> np.ndarray:
    """d p_v / d v = gamma E + gamma^3 v (x) v  (inverse of B_v)."""
    v = np.asarray(v, dtype=float)
    g = 1.0 / np.sqrt(1.0 - float(v @ v))
    return g * np.eye(3) + g**3 * np.outer(v, v)


def soliton_field_hat(v, rho: ChargeDensity, grid: GridSpec) -> np.ndarray:
    """psi_v_hat on the k-grid, shape (4, N, N, N). Since rho_hat e_0 has
    one component, ((v.k) - D(k)) rho_hat e_0 is written out:
    psi_v_hat = rho_hat / D * (v.k - m, 0, k_3, k_1 + i k_2)."""
    return _soliton_parts(v, rho, grid)[0]


def _soliton_parts(v, rho: ChargeDensity, grid: GridSpec):
    """(psi_v_hat, rho_hat, v.k, D) on the k-grid, for callers that reuse
    the per-v arrays behind the soliton."""
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) >= 1.0:
        raise ValueError("|v| must be < 1")
    m = rho.mass
    vk = grid.k_dot(v)
    rho_hat = rho.fourier(grid.k2)
    den = grid.k2 + m * m - vk**2
    r = rho_hat / den
    k1, k2_, k3 = grid.k_axes
    out = np.empty((4, grid.N, grid.N, grid.N), dtype=complex)
    out[0] = (vk - m) * r
    out[1] = 0.0
    out[2] = k3 * r
    out[3] = (k1 + 1j * k2_) * r
    return out, rho_hat, vk, den


@dataclass(frozen=True)
class TangentBasis:
    """The soliton and its six tangent vectors tau_1..tau_6 at a manifold
    point sigma = (b, v), field parts in Fourier representation as functions
    of the comoving coordinate y = x - b (that is, taken at b = 0).

    Every tangent field is a k_j multiple of one of two spinor fields:
    soliton_hat is psi_v_hat, and boost_hat is
    B = (rho_hat e_0 + 2 (v.k) psi_v_hat) / D. The field of tau_j for
    j=0,1,2 is the transform of -d_j psi_v, that is i k_j psi_v_hat; for
    j=3,4,5 it is d_{v_{j-3}} psi_v_hat = k_{j-3} B. phase_state(j) forms
    one of them on demand. q_parts[j] and p_parts[j] are the particle
    components: e_j and 0 for the translations, 0 and d_{v_j} p_v for the
    velocity directions. Omega rows against this basis take the state's
    field in the comoving frame of sigma, since
    Omega(Y, e^{ik.b} tau) = Omega(e^{-ik.b} Y, tau).
    """

    grid: GridSpec
    v: np.ndarray
    soliton_hat: np.ndarray    # (4, N, N, N) complex
    boost_hat: np.ndarray      # (4, N, N, N) complex
    q_parts: np.ndarray        # (6, 3)
    p_parts: np.ndarray        # (6, 3)

    def phase_state(self, j: int, b=None) -> PhaseState:
        """tau_j as a PhaseState, optionally translated to base point b."""
        if j < 3:
            data = 1j * self.grid.k_axes[j] * self.soliton_hat
        else:
            data = self.grid.k_axes[j - 3] * self.boost_hat
        if b is not None:
            data = self.grid.phase_shift(b) * data
        return PhaseState(SpinorField(self.grid, data, FOURIER),
                          self.q_parts[j], self.p_parts[j])


def tangent_basis(v, rho: ChargeDensity, grid: GridSpec) -> TangentBasis:
    v = np.asarray(v, dtype=float)
    psi_hat, rho_hat, vk, den = _soliton_parts(v, rho, grid)
    boost = 2.0 * vk * psi_hat
    boost[0] += rho_hat
    boost /= den
    return TangentBasis(grid, v, psi_hat, boost, *_particle_parts(v))


def _particle_parts(v) -> tuple[np.ndarray, np.ndarray]:
    """TangentBasis.q_parts and .p_parts at velocity v."""
    return (np.vstack([np.eye(3), np.zeros((3, 3))]),
            np.vstack([np.zeros((3, 3)), momentum_jacobian(v).T]))


def soliton_state(params: SolitonParams, rho: ChargeDensity,
                  grid: GridSpec) -> PhaseState:
    """The soliton state S(sigma) = (psi_v(. - b), b, p_v) in the lab frame."""
    hat = soliton_field_hat(params.v, rho, grid)
    hat = grid.phase_shift(params.b) * hat
    return PhaseState(SpinorField(grid, hat, FOURIER), params.b, params.p_v)


def force_balance(v, rho: ChargeDensity, grid: GridSpec) -> np.ndarray:
    """Re <psi_v, grad rho> on the grid; vanishes for the exact soliton."""
    # <psi, d_j rho> = Re sum conj(psi_hat_0) (-i k_j) rho_hat dk^3
    psi0 = soliton_field_hat(v, rho, grid)[0]
    return grid.k_moments(psi0.conj() * rho.fourier(grid.k2)).imag


def _stationary_residual(psi_hat: np.ndarray, v, rho: ChargeDensity,
                         grid: GridSpec) -> float:
    """||(-v.k - D(k)) psi_hat - rho_hat e_0|| / ||rho_hat|| on the k-grid."""
    rho_hat = rho.fourier(grid.k2)
    res = -grid.k_dot(v) * psi_hat - dirac_symbol(psi_hat, grid, rho.mass)
    res[0] -= rho_hat
    return float(np.sqrt(np.sum(np.abs(res) ** 2))
                 / np.sqrt(np.sum(np.abs(rho_hat) ** 2)))


def stationary_residual(v, rho: ChargeDensity, grid: GridSpec) -> float:
    """Discretization error of the grid soliton, measured non-trivially.

    The k-space construction solves the stationary equation exactly on the
    grid's own modes, so the honest residual is evaluated on the next finer
    grid: zero-pad psi_v_hat from N to 2N modes (same box), apply the
    stationary operator (v.k - alpha.k + beta m) spectrally there, subtract
    rho, and return the L2 norm relative to ||rho||. This equals the
    spectral truncation error of the source and decays with the Gaussian
    tail of rho_hat as N grows.
    """
    fine = GridSpec(grid.L, 2 * grid.N)
    psi_c = soliton_field_hat(v, rho, grid)

    # Zero-pad into the fine grid's FFT-ordered mode layout.
    psi_f = np.zeros((4, fine.N, fine.N, fine.N), dtype=complex)
    n = grid.N
    half = n // 2
    idx = np.concatenate([np.arange(half), np.arange(fine.N - half, fine.N)])
    psi_f[np.ix_(range(4), idx, idx, idx)] = psi_c
    return _stationary_residual(psi_f, v, rho, fine)
