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
from .spinor_algebra import ChargeDensity, build_dirac_matrices


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
    def gamma(self) -> float:
        return 1.0 / np.sqrt(1.0 - float(self.v @ self.v))

    @property
    def p_v(self) -> np.ndarray:
        return self.gamma * self.v


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


def _rho_spinor_hat(grid: GridSpec, rho: ChargeDensity) -> np.ndarray:
    """rho_hat as a (4,N,N,N) spinor array on the k-grid (component 1 only)."""
    out = np.zeros((4, grid.N, grid.N, grid.N), dtype=complex)
    out[0] = rho.fourier(grid.k2)
    return out


def soliton_field_hat(v, rho: ChargeDensity, grid: GridSpec) -> np.ndarray:
    """psi_v_hat on the k-grid, shape (4, N, N, N)."""
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) >= 1.0:
        raise ValueError("|v| must be < 1")
    m = rho.mass
    vk = grid.k_dot(v)
    den = grid.k2 + m * m - vk**2
    rs = _rho_spinor_hat(grid, rho)
    return (vk * rs - dirac_symbol(rs, grid, m)) / den


def soliton_field(v, rho: ChargeDensity, grid: GridSpec,
                  space: str = FOURIER) -> SpinorField:
    """The soliton psi_v as a SpinorField (function of y)."""
    out = SpinorField(grid, soliton_field_hat(v, rho, grid), FOURIER)
    return out if space == FOURIER else out.to_position()


def dv_soliton_field_hat(v, rho: ChargeDensity, grid: GridSpec,
                         j: int) -> np.ndarray:
    """d/dv_j of psi_v_hat, from the closed-form k-space derivative:

        d_{v_j} psi_v_hat = k_j rho_hat / D + 2 k_j (v.k) psi_v_hat / D.
    """
    v = np.asarray(v, dtype=float)
    m = rho.mass
    vk = grid.k_dot(v)
    D = grid.k2 + m * m - vk**2
    kj = grid.k_axes[j]
    rs = _rho_spinor_hat(grid, rho)
    return (kj * rs + 2.0 * kj * vk * soliton_field_hat(v, rho, grid)) / D


@dataclass(frozen=True)
class TangentBasis:
    """The six tangent vectors tau_1..tau_6 at a manifold point with
    velocity v, field parts in Fourier representation (functions of y).

    field_hat[j] for j=0,1,2 is the transform of -d_j psi_v (i.e.
    +i k_j psi_v_hat); for j=3,4,5 it is d_{v_{j-3}} psi_v_hat.
    q_parts[j] and p_parts[j] are the particle components: e_j and 0 for
    the translations, 0 and d_{v_j} p_v for the velocity directions.
    """

    grid: GridSpec
    v: np.ndarray
    field_hat: np.ndarray      # (6, 4, N, N, N) complex
    q_parts: np.ndarray        # (6, 3)
    p_parts: np.ndarray        # (6, 3)

    def phase_state(self, j: int, b=None) -> PhaseState:
        """tau_j as a PhaseState, optionally translated to base point b."""
        data = self.field_hat[j]
        if b is not None:
            data = self.grid.phase_shift(b) * data
        return PhaseState(SpinorField(self.grid, data.copy(), FOURIER),
                          self.q_parts[j], self.p_parts[j])


def tangent_basis(v, rho: ChargeDensity, grid: GridSpec) -> TangentBasis:
    v = np.asarray(v, dtype=float)
    N = grid.N
    fields = np.empty((6, 4, N, N, N), dtype=complex)
    psi_hat = soliton_field_hat(v, rho, grid)
    for j in range(3):
        fields[j] = 1j * grid.k_axes[j] * psi_hat
        fields[j + 3] = dv_soliton_field_hat(v, rho, grid, j)
    q_parts = np.zeros((6, 3))
    p_parts = np.zeros((6, 3))
    dpv = momentum_jacobian(v)
    for j in range(3):
        q_parts[j, j] = 1.0
        p_parts[j + 3] = dpv[:, j]
    return TangentBasis(grid, v, fields, q_parts, p_parts)


def soliton_state(params: SolitonParams, rho: ChargeDensity,
                  grid: GridSpec) -> PhaseState:
    """The soliton state S(sigma) = (psi_v(. - b), b, p_v) in the lab frame."""
    hat = soliton_field_hat(params.v, rho, grid)
    hat = grid.phase_shift(params.b) * hat
    return PhaseState(SpinorField(grid, hat, FOURIER), params.b, params.p_v)


def force_balance(v, rho: ChargeDensity, grid: GridSpec) -> np.ndarray:
    """Re <psi_v, grad rho> on the grid; vanishes for the exact soliton."""
    psi_hat = soliton_field_hat(v, rho, grid)
    rs = _rho_spinor_hat(grid, rho)
    out = np.empty(3)
    w = grid.dk**3
    for j in range(3):
        kj = grid.k_axes[j]
        # <psi, d_j rho> = sum conj(psi_hat) . (-i k_j) rho_hat * dk^3
        out[j] = w * np.sum(np.real(psi_hat.conj() * (-1j * kj) * rs))
    return out


def _stationary_residual(psi_hat: np.ndarray, v, rho: ChargeDensity,
                         grid: GridSpec) -> float:
    """||(-v.k - D(k)) psi_hat - rho_hat|| / ||rho_hat|| on the k-grid."""
    rs = _rho_spinor_hat(grid, rho)
    res = -grid.k_dot(v) * psi_hat - dirac_symbol(psi_hat, grid, rho.mass) - rs
    return float(np.sqrt(np.sum(np.abs(res) ** 2))
                 / np.sqrt(np.sum(np.abs(rs) ** 2)))


def stationary_residual_on_grid(v, rho: ChargeDensity, grid: GridSpec) -> float:
    """Residual of the stationary equation applied spectrally on the same
    grid the soliton was built on, relative to ||rho||. The construction
    inverts the operator exactly per mode, so this is a transcription
    identity and sits at rounding level; it catches sign or convention
    errors, not discretization error."""
    return _stationary_residual(soliton_field_hat(v, rho, grid), v, rho, grid)


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


def soliton_field_direct(points, v, rho: ChargeDensity,
                         n_r: int = 80, n_theta: int = 40,
                         n_phi: int = 40, r_max: float = 12.0) -> np.ndarray:
    """Independent position-space evaluation of psi_v at given points, via
    the Green-kernel representation (v = |v| e1 frame not required):

        psi_v = (i v.grad + i alpha.grad - beta m) u,
        u(x)  = integral G_v(x - y) rho1(y) dy,
        G_v(z) = gamma e^{-m |z~|} / (4 pi |z~|),  z~ = (gamma z_par, z_perp).

    The singularity is removed by the substitution z_par = zeta_par / gamma
    and spherical coordinates in zeta, where the Jacobian cancels 1/|zeta|.
    Derivatives are moved onto the Gaussian rho1. Used as a few-point oracle
    against the k-space construction; cost is O(n_r n_theta n_phi) per point.
    """
    from numpy.polynomial.legendre import leggauss

    v = np.asarray(v, dtype=float)
    m = rho.mass
    speed = np.linalg.norm(v)
    gamma = 1.0 / np.sqrt(1.0 - speed**2)
    e_par = v / speed if speed > 0 else np.array([1.0, 0.0, 0.0])

    # Gauss-Legendre in r on [0, r_max] and in cos(theta); uniform phi.
    xr, wr = leggauss(n_r)
    r = 0.5 * r_max * (xr + 1.0)
    wr = 0.5 * r_max * wr
    xc, wc = leggauss(n_theta)
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    wphi = 2.0 * np.pi / n_phi

    # Unit directions and quadrature weights on the zeta-sphere.
    st = np.sqrt(1.0 - xc**2)
    dirs = np.stack([
        np.outer(st, np.cos(phi)).ravel(),
        np.outer(st, np.sin(phi)).ravel(),
        np.outer(xc, np.ones(n_phi)).ravel(),
    ], axis=1)                                        # (n_theta*n_phi, 3)
    wang = (np.outer(wc, np.full(n_phi, wphi))).ravel()

    # zeta = r * dir; z = zeta_perp + (zeta_par / gamma) e_par.
    zeta = r[:, None, None] * dirs[None, :, :]        # (n_r, n_ang, 3)
    zpar = zeta @ e_par
    z = zeta + ((1.0 / gamma - 1.0) * zpar)[..., None] * e_par[None, None, :]
    wgt = (wr[:, None] * wang[None, :]) * (r[:, None]
                                           * np.exp(-m * r)[:, None]) / (4.0 * np.pi)

    d = build_dirac_matrices()
    out = np.empty((len(points), 4), dtype=complex)
    for i, x in enumerate(np.asarray(points, dtype=float)):
        y = x[None, None, :] + z
        r2 = np.sum(y * y, axis=-1)
        rho_val = rho.profile(r2)
        grad = -(y / rho.sigma**2) * rho_val[..., None]
        u = np.sum(wgt * rho_val)
        du = np.array([np.sum(wgt * grad[..., j]) for j in range(3)])
        spin_u = np.array([u, 0, 0, 0], dtype=complex)
        spin_du = [np.array([du[j], 0, 0, 0], dtype=complex) for j in range(3)]
        val = 1j * float(v @ du) * np.array([1, 0, 0, 0], dtype=complex)
        for j, aj in enumerate(d.alphas):
            val = val + 1j * (aj @ spin_du[j])
        val = val - m * (d.beta @ spin_u)
        out[i] = val
    return out
