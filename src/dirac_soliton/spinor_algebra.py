"""Exact finite-dimensional algebra: Dirac matrices in the standard
representation, the Gaussian charge-density model, and the Wiener
positivity function B(k).

Conventions: units with c=1; Fourier transform
    f_hat(k) = (2*pi)^{-3/2} * integral e^{+i k.x} f(x) dx,
so that d_j <-> -i k_j on transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Pauli matrices.
SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)

_ZERO2 = np.zeros((2, 2), dtype=complex)
_EYE2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class DiracMatrices:
    """The four 4x4 Dirac matrices in the standard 2x2-block representation.

    beta = diag(I2, -I2), alpha_j = [[0, sigma_j], [sigma_j, 0]].
    All four are Hermitian and satisfy the anticommutation relations
    alpha_j alpha_k + alpha_k alpha_j = 2 delta_jk I with alpha_0 = beta.
    """

    alpha1: np.ndarray
    alpha2: np.ndarray
    alpha3: np.ndarray
    beta: np.ndarray

    @property
    def alphas(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.alpha1, self.alpha2, self.alpha3)

    @property
    def alpha2_tilde(self) -> np.ndarray:
        """The real antisymmetric matrix -i*alpha2 used in the real split."""
        return (-1j * self.alpha2).real.astype(float)


def build_dirac_matrices() -> DiracMatrices:
    """Construct the standard-representation Dirac matrices."""
    def block(a, b, c, d):
        return np.block([[a, b], [c, d]])

    alpha1 = block(_ZERO2, SIGMA1, SIGMA1, _ZERO2)
    alpha2 = block(_ZERO2, SIGMA2, SIGMA2, _ZERO2)
    alpha3 = block(_ZERO2, SIGMA3, SIGMA3, _ZERO2)
    beta = block(_EYE2, _ZERO2, _ZERO2, -_EYE2)
    return DiracMatrices(alpha1, alpha2, alpha3, beta)


def real_orthogonality(psi: np.ndarray) -> tuple[float, float, float]:
    """For a real 4-vector psi return (beta psi . alpha1 psi,
    beta psi . alpha3 psi, alpha2 psi . psi).

    All three vanish identically for real psi: the products beta*alpha1 and
    beta*alpha3 are antisymmetric real matrices and alpha2 is itself
    antisymmetric (purely imaginary Hermitian), so the real quadratic forms
    are zero.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (4,):
        raise ValueError("psi must be a real 4-vector")
    d = build_dirac_matrices()
    r1 = float(np.real((d.beta @ psi) @ (d.alpha1 @ psi)))
    r3 = float(np.real((d.beta @ psi) @ (d.alpha3 @ psi)))
    r2 = float(np.real((d.alpha2 @ psi) @ psi))
    return (r1, r3, r2)


@dataclass(frozen=True)
class ChargeDensity:
    """Radial Gaussian charge density rho(x) = (rho1(x), 0, 0, 0) with
    rho1(x) = A * exp(-|x|^2 / (2 sigma^2)), plus the field mass m.

    Closed-form transform under the pinned convention:
        rho1_hat(k) = A * sigma^3 * exp(-sigma^2 |k|^2 / 2),
    real and strictly positive, so the Wiener condition holds:
        B(k) = m * rho1_hat(k)^2 > 0.
    """

    amplitude: float = 1.0
    sigma: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.mass <= 0:
            raise ValueError("mass must be positive")

    def profile(self, r2) -> np.ndarray:
        """rho1 as a function of |x|^2 (vectorized)."""
        return self.amplitude * np.exp(-np.asarray(r2) / (2.0 * self.sigma**2))

    def fourier(self, k2) -> np.ndarray:
        """rho1_hat as a function of |k|^2 (vectorized)."""
        return (self.amplitude * self.sigma**3
                * np.exp(-self.sigma**2 * np.asarray(k2) / 2.0))

    def l2_norm(self) -> float:
        """||rho||_{L^2} = A * (pi)^{3/4} * sigma^{3/2}."""
        return self.amplitude * np.pi**0.75 * self.sigma**1.5


def wiener_B(k: np.ndarray, rho: ChargeDensity) -> np.ndarray:
    """Wiener function B(k) = m * beta rho_hat(k) . rho_hat(k).

    For the single-component real Gaussian model this is
    m * rho1_hat(k)^2, strictly positive for every k. Accepts a single
    3-vector or an array whose last axis has length 3.
    """
    k = np.asarray(k, dtype=float)
    k2 = np.sum(k * k, axis=-1)
    return rho.mass * rho.fourier(k2) ** 2
