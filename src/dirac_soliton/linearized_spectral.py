"""Linearization at a soliton and the reduced matrix spectral theory.

Two layers live here. The grid layer is the block operator

    A_{v,w} (Psi, Q, P) = ( (-alpha.grad + w.grad - i beta m) Psi
                                + i (Q.grad) rho_1,
                            B_v P,
                            <Psi_1, grad rho_1> + <(Q.grad) psi_v1, grad rho_1> ),

acting on phase-space states with the complex field convention
Psi = Psi_1 + i Psi_2, together with the functionals Phi(lambda) and
Phi'(0) built from the 2x2-block Green multipliers

    G_lambda^11(k) = (-i alpha_1 k_1 - i alpha_3 k_3 - i v.k - lambda)/den,
    G_lambda^12(k) = (-beta m + alpha_2 k_2)/den,
    den = |k|^2 + m^2 + (i v.k + lambda)^2,

whose position-space scalar kernel is the closed form g_lambda below.

The matrix layer reduces the particle dynamics to 3x3 symbols: the static
matrix L, the dispersive matrix H(lambda) evaluated by a cylindrical
reduction to the exponential integral E1, and the 6x6 pencil

    M(lambda) = [[lambda E, -B_v], [L - H(lambda), lambda E]],

formed on the imaginary axis as M(i omega + 0), with its factorized
determinant and the explicit scaled inverse blocks. All matrix formulas
assume the aligned frame v = |v| e_1; use velocity_frame() to rotate a
general velocity and conjugate results back with R^T M R.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import exp1, expi

from .field_grid import (FOURIER, GridSpec, SpinorField, dirac_symbol,
                         k_second_moments)
from .phase_space import PhaseState
from .quadrature import QuadResult, gauss_panels_1d, k_outer_trapezoid_3d
from .soliton_manifold import momentum_jacobian, soliton_frame
from .spinor_algebra import ChargeDensity
from .symplectic_geometry import (K_QUAD_KMAX_SIGMAS, K_QUAD_NODES, _rows,
                                  _separable_phase, _state_pairings,
                                  matrix_K)

# Below this |omega| the pencil is inverted through the factorized block
# formulas instead of np.linalg.inv (the direct inverse loses all digits
# as det M ~ omega^6).
FACTORIZED_OMEGA = 1e-6

# Below this |omega| the ratio f = F/omega^2 is replaced by its limit
# diag(K): computing -L + H and dividing by omega^2 is catastrophic
# cancellation there, while the limit is exact to O(omega^2).
F_RATIO_OMEGA = 1e-3

# H's rule (see _h_frame): breakpoints at each log spike p of the E_1
# integrand and at p +- 30^-j, j = 0..7; 2 Gauss panels of 40 nodes between
H_QUAD_ORDER, H_QUAD_PANELS = 40, 1    # the error estimate uses 1 panel
H_SPIKE_OFFSETS = [0.0] + [s * 30.0**-j for s in (1, -1) for j in range(8)]


def velocity_frame(v) -> tuple[float, np.ndarray]:
    """Return (|v|, R) with R orthogonal and R v = |v| e_1.

    A frame matrix M_f computed for the aligned velocity corresponds to
    R^T M_f R for the original one. For v = 0 or v already along e_1 the
    rotation is the identity.
    """
    v = np.asarray(v, dtype=float)
    s = float(np.linalg.norm(v))
    if s >= 1.0:
        raise ValueError("|v| must be < 1")
    if s == 0.0 or (v[0] > 0 and abs(v[1]) == 0.0 and abs(v[2]) == 0.0):
        return s, np.eye(3)
    e1 = v / s
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(e1)))] = 1.0
    e2 = helper - (helper @ e1) * e1
    e2 /= np.linalg.norm(e2)
    e3 = np.cross(e1, e2)
    return s, np.vstack([e1, e2, e3])


def _frame_speed(v) -> float:
    """|v| for a velocity that is already aligned with e_1 (or a scalar)."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:
        s = float(v)
        if not 0.0 <= s < 1.0:
            raise ValueError("speed must satisfy 0 <= |v| < 1")
        return s
    if v.shape != (3,):
        raise ValueError("v must be a scalar speed or a 3-vector")
    if abs(v[1]) > 0.0 or abs(v[2]) > 0.0:
        raise ValueError("matrix formulas assume v = |v| e_1; rotate with "
                         "velocity_frame() first")
    return _frame_speed(v[0])


def boost_matrix(v) -> np.ndarray:
    """B_v = gamma^{-1} (E - v (x) v), the velocity map dv/dp at p_v."""
    v = np.asarray(v, dtype=float)
    v2 = float(v @ v)
    if v2 >= 1.0:
        raise ValueError("|v| must be < 1")
    g = 1.0 / np.sqrt(1.0 - v2)
    return (np.eye(3) - np.outer(v, v)) / g


# ---------------------------------------------------------------------------
# The linearized generator on the grid.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearizedOperator:
    """A_{v,w} with its grid-cached data.

    force_coupling[i, l] = <d_i psi_v1, d_l rho_1>, the (symmetric) matrix
    multiplying Q in the force row; on the k-grid it is the discrete
    counterpart of -L and keeps the tangency identities exact in floating
    point.
    """

    rho: ChargeDensity
    grid: GridSpec
    rho_hat: np.ndarray          # (N, N, N) real
    wk: np.ndarray               # w.k on the k-grid
    force_coupling: np.ndarray   # (3, 3)
    boost: np.ndarray            # B_v


def linearized_operator(v, w, rho: ChargeDensity,
                        grid: GridSpec) -> LinearizedOperator:
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != (3,) or w.shape != (3,):
        raise ValueError("v and w must be 3-vectors")
    f = soliton_frame(v, rho, grid)          # psi_v_hat_0 = (v.k - m) r
    coupling = k_second_moments(f.vkm * f.r * f.rho_hat, grid)
    return LinearizedOperator(rho, grid, f.rho_hat, grid.k_dot(w), coupling,
                              boost_matrix(v))


def apply_A(op: LinearizedOperator, Z: PhaseState) -> PhaseState:
    """Apply the generator to Z = (Psi, Q, P); the result reuses the
    PhaseState container for the tangent triple (Psi_dot, Q_dot, P_dot)."""
    if Z.grid != op.grid:
        raise ValueError("grid mismatch")
    Zk = Z.to_fourier()
    g = op.grid
    data = Zk.psi.data
    field = -1j * (dirac_symbol(data, g, op.rho.mass) + op.wk * data)
    field[0] += g.k_dot(Zk.q) * op.rho_hat
    lin = g.k_moments(data[0].conj() * op.rho_hat).imag
    newP = lin + op.force_coupling.T @ Zk.q
    return PhaseState(SpinorField(g, field, FOURIER), op.boost @ Zk.p, newP)


# ---------------------------------------------------------------------------
# Scaled exponential integral and the cylindrical reduction of H.
# ---------------------------------------------------------------------------

def _scaled_e1(z: np.ndarray) -> np.ndarray:
    """e^z E_1(z) on the principal branch, stable for large |z|: real in,
    real out. Below |z| = 40 it is the direct product with scipy's E_1
    (|e^z| <= e^40); a real z stays real there, with e^z E_1(z) for z >= 0
    and the principal value -e^z Ei(-z) (the real part of the boundary
    value on the cut) for z < 0. Beyond, where scipy's Ei loses digits, the
    asymptotic expansion e^z E_1(z) ~ (1/z) sum (-1)^n n! z^{-n} truncated
    at n = 25 errs by 26!/|z|^26 < 1e-15, and the cut discontinuity it
    ignores for Re z < 0 is of order e^{Re z} < e^{-40}.
    """
    z = np.atleast_1d(np.asarray(z))
    z = z.astype(np.result_type(z, np.float64), copy=False)
    real = z.dtype.kind == "f"
    out = np.empty_like(z)
    small = np.abs(z) < 40.0
    if real:
        pos, neg = small & (z >= 0.0), small & (z < 0.0)
        zp, zn = z[pos], z[neg]
        out[pos] = np.exp(zp) * exp1(zp)
        out[neg] = -np.exp(zn) * expi(-zn)
    elif np.any(small):
        zs = z[small]
        out[small] = np.exp(zs) * exp1(zs)
    if np.any(~small):
        zl = z[~small]
        acc = np.zeros_like(zl)
        for n in range(25, 0, -1):
            acc = n / zl * (1.0 - acc)
        out[~small] = (1.0 - acc) / zl
    return out


def cut_endpoints(omega: float, v, rho: ChargeDensity):
    """The k_1 interval where the symbol denominator vanishes on the cut:
    k_1(+-) = gamma^2 (|v| w -+/+ sqrt(w^2 - mu^2)), or None for |w| < mu."""
    s = _frame_speed(v)
    g2 = 1.0 / (1.0 - s * s)
    mu = rho.mass / np.sqrt(g2)
    if abs(omega) < mu:
        return None
    root = np.sqrt(omega * omega - mu * mu)
    return (g2 * (s * omega - root), g2 * (s * omega + root))


def _h_frame(lam: complex, speed: float, rho: ChargeDensity) -> QuadResult:
    """H(lambda) in the aligned frame by the E_1 reduction.

    Writing B(k) = C e^{-sigma^2 |k|^2} and c(k_1) = k_1^2 + m^2
    - (|v| k_1 - i lambda)^2, the transverse plane integrates exactly:

        H_11 = pi C     int k_1^2 e^{-sigma^2 k_1^2} I_0(c) dk_1,
        H_22 = H_33 = (pi C / 2) int e^{-sigma^2 k_1^2} I_1(c) dk_1,
        I_0 = e^{sigma^2 c} E_1(sigma^2 c),   I_1 = 1/sigma^2 - c I_0.

    On the imaginary axis, lambda = i w, c = k_1^2 + m^2 - (|v| k_1 + w)^2
    is real and I_0, I_1 take the real E_1. Below the cut (|w| < mu)
    c > 0. On the cut (|w| >= mu) the integrand is its limit from
    Re lambda > 0 (Sokhotski-Plemelj): Im c -> 0 with the sign of
    |v| k_1 + w, c = (1 - v^2)(k_1 - k_-)(k_1 - k_+) is factored at the cut
    endpoints k_-+ to keep its relative accuracy between close ones, and
    where x = sigma^2 c < 0, I_0 = e^x (-Ei(-x) - i pi sign(|v| k_1 + w)).
    Off the axis c is complex. The value is complex128 on every branch.

    I_0 has log spikes where c vanishes or nearly does: at the cut
    endpoints of Im lambda when they exist, on or off the axis, else at
    c's near-double root gamma^2 |v| Im lambda. Each spike p is a
    breakpoint, as is p +- 30^-j for j = 0..7, so the Gauss panels between
    them converge geometrically toward it, alike on every branch.
    """
    m = rho.mass
    s2 = rho.sigma**2
    C = rho.mass * rho.amplitude**2 * rho.sigma**6
    b = lam.imag
    ends = cut_endpoints(b, speed, rho)
    on_cut = ends is not None and lam.real == 0.0
    shift = b if lam.real == 0.0 else -1j * lam   # real c on the axis

    def integrand(k1):
        if on_cut:
            c = (1.0 - speed * speed) * (k1 - ends[0]) * (k1 - ends[1])
            x = s2 * c
            i0 = _scaled_e1(x).astype(complex)   # -e^x Ei(-x) where x < 0
            neg = x < 0.0
            i0[neg] -= 1j * np.pi * np.exp(x[neg]) * np.sign(
                speed * k1[neg] + b)
        else:
            c = k1**2 + m * m - (speed * k1 + shift) ** 2
            i0 = _scaled_e1(s2 * c)
        i1 = 1.0 / s2 - c * i0
        gauss = np.exp(-s2 * k1**2)
        return np.stack([np.pi * C * k1**2 * gauss * i0,
                         0.5 * np.pi * C * gauss * i1])

    gamma2 = 1.0 / (1.0 - speed * speed)
    kmax = K_QUAD_KMAX_SIGMAS / rho.sigma + abs(gamma2 * speed * b)
    spikes = ends if ends is not None else (gamma2 * speed * b,)
    breaks = [p + d for p in spikes for d in H_SPIKE_OFFSETS]
    res = gauss_panels_1d(integrand, -kmax, kmax, breakpoints=breaks,
                          order=H_QUAD_ORDER,
                          panels_per_interval=H_QUAD_PANELS)
    return QuadResult(np.diag(res.value[[0, 1, 1]].astype(complex)),
                      lambda: res.error)


def matrix_L(v, rho: ChargeDensity) -> QuadResult:
    """L_il = integral k_i k_l B(k) / (|k|^2 + m^2 - (|v| k_1)^2) dk by the
    pinned 3D tensor trapezoid (diagonal and positive definite)."""
    s = _frame_speed(v)
    m = rho.mass

    def core(k1, k2, k3):
        k2tot = k1**2 + k2**2 + k3**2
        B = rho.mass * rho.fourier(k2tot) ** 2
        return B / (k2tot + m * m - (s * k1) ** 2)

    return k_outer_trapezoid_3d(core, K_QUAD_KMAX_SIGMAS / rho.sigma,
                                K_QUAD_NODES)


def matrix_H(lam, v, rho: ChargeDensity) -> QuadResult:
    """H(lambda) for Re lambda > 0, or on the axis strictly between the
    branch points (|Im lambda| < mu). Exactly on the cut the boundary
    value needs a side prescription; use matrix_H_on_axis for that."""
    s = _frame_speed(v)
    lam = complex(lam)
    if lam.real < 0.0:
        raise ValueError("Re lambda must be >= 0")
    if lam.real == 0.0 and cut_endpoints(lam.imag, s, rho) is not None:
        raise ValueError("lambda lies on the spectral cut; use "
                         "matrix_H_on_axis for the limit from Re > 0")
    return _h_frame(lam, s, rho)


def matrix_H_on_axis(omega: float, v, rho: ChargeDensity) -> QuadResult:
    """The boundary value H(i omega + 0).

    Below the branch points the axis point is regular and is evaluated
    directly. On the cut (|omega| >= mu) one quadrature integrates the
    exact boundary value of the integrand (see _h_frame). The error
    estimate is the panel-doubling gap, computed when .error is read.
    """
    return _h_frame(1j * float(omega), _frame_speed(v), rho)


# ---------------------------------------------------------------------------
# The 6x6 pencil, its determinant and its scaled inverse blocks.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MInverseBlocks:
    """Scaled blocks of M^{-1}(i omega):

        M^{-1} = [[M11/omega, M12/omega^2], [M21, M22/omega]].

    All four stay bounded for omega -> 0 and omega -> infinity.
    """

    omega: float
    M11: np.ndarray
    M12: np.ndarray
    M21: np.ndarray
    M22: np.ndarray
    factorized: bool

    def inverse(self) -> np.ndarray:
        """The raw 6x6 inverse (undefined at omega = 0)."""
        w = self.omega
        if w == 0.0:
            raise ValueError("M(0) is singular; only the scaled blocks "
                             "have a limit")
        out = np.empty((6, 6), dtype=complex)
        out[:3, :3] = self.M11 / w
        out[:3, 3:] = self.M12 / w**2
        out[3:, :3] = self.M21
        out[3:, 3:] = self.M22 / w
        return out


@dataclass(frozen=True)
class SpectralMatrixSet:
    """The reduced theory at one velocity on the imaginary axis, in the
    aligned frame v = |v| e_1: from L and diag K it forms, per omega,
    F(omega) = -L + H(i omega + 0), the pencil M(i omega + 0), its
    determinant and its scaled inverse blocks. Off the axis use matrix_H.

    rotation maps lab coordinates to the frame; a frame matrix M_f
    corresponds to rotation.T @ M_f @ rotation in lab coordinates.
    """

    rho: ChargeDensity
    speed: float
    rotation: np.ndarray
    L: np.ndarray            # (3, 3) real, = H(0) by the same engine
    k_diag: np.ndarray       # (3,) diagonal of K, the omega -> 0 limit of f

    @property
    def gamma(self) -> float:
        return 1.0 / np.sqrt(1.0 - self.speed**2)

    @property
    def mu(self) -> float:
        """Branch points of H sit at lambda = +- i mu, mu = m / gamma."""
        return self.rho.mass / self.gamma

    @cached_property
    def Bv(self) -> np.ndarray:
        g = self.gamma
        return np.diag([1.0 / g**3, 1.0 / g, 1.0 / g])

    @cached_property
    def _gamma_powers(self) -> np.ndarray:
        g = self.gamma
        return np.array([g**3, g, g])

    @cached_property
    def _F_memo(self) -> list:
        return []

    def F(self, omega: float) -> np.ndarray:
        """F(omega) = -L + H(i omega + 0) as the (3,) diagonal.

        The last omega and its F are memoized, so F, both determinants
        and minv_blocks at one omega share one H(i omega + 0) quadrature.
        The memo holds one entry, not one per omega: a sweep asks for
        several quantities at one omega and then moves on, and a per-omega
        table would grow without bound and make a repeated sweep free.
        The returned array is read-only because it is shared.
        """
        key = float(omega)
        memo = self._F_memo
        if not memo or memo[0] != key:
            H = matrix_H_on_axis(key, self.speed, self.rho).value
            value = np.diag(H) - np.diag(self.L).astype(complex)
            value.flags.writeable = False
            memo[:] = [key, value]
        return memo[1]

    def f(self, omega: float) -> np.ndarray:
        """The regular ratio f = F / omega^2, with f(0) = diag K."""
        if abs(omega) <= F_RATIO_OMEGA:
            return self.k_diag.astype(complex)
        return self.F(omega) / omega**2

    def M_on_axis(self, omega: float) -> np.ndarray:
        """The pencil [[i omega E, -B_v], [-F(omega), i omega E]]."""
        out = np.zeros((6, 6), dtype=complex)
        out[:3, :3] = 1j * omega * np.eye(3)
        out[3:, 3:] = 1j * omega * np.eye(3)
        out[:3, 3:] = -self.Bv
        out[3:, :3] = -np.diag(self.F(omega))
        return out

    def det_M_direct(self, omega: float) -> complex:
        return complex(np.linalg.det(self.M_on_axis(omega)))

    def det_M_factorized(self, omega: float) -> complex:
        """det M(i omega) = -(w^2 + F_11/g^3)(w^2 + F_22/g)(w^2 + F_33/g)."""
        return -complex(np.prod(omega**2 + self.F(omega)
                                / self._gamma_powers))

    def minv_blocks(self, omega: float) -> MInverseBlocks:
        """Scaled inverse blocks; near omega = 0 the direct 6x6 inverse is
        replaced by the factorized diagonal formulas in f."""
        if abs(omega) < FACTORIZED_OMEGA:
            fj = self.f(omega)
            a = self._gamma_powers
            m11 = np.diag(-1j * a / (a + fj))
            return MInverseBlocks(omega, m11, np.diag(-1.0 / (a + fj)),
                                  np.diag(-a * fj / (a + fj)), m11, True)
        inv = np.linalg.inv(self.M_on_axis(omega))
        return MInverseBlocks(omega, omega * inv[:3, :3],
                              omega**2 * inv[:3, 3:], inv[3:, :3],
                              omega * inv[3:, 3:], False)


def spectral_matrices(v, rho: ChargeDensity) -> SpectralMatrixSet:
    """Build the SpectralMatrixSet for a general velocity, rotating it to
    the aligned frame internally. L = H(0) comes from the same E_1
    reduction as H on the axis, K from the pinned trapezoid of matrix_K."""
    speed, rotation = velocity_frame(v)
    L = _h_frame(complex(0.0), speed, rho)
    K = matrix_K(np.array([speed, 0.0, 0.0]), rho)
    return SpectralMatrixSet(rho, speed, rotation, L.value.real,
                             np.diag(K.value).copy())


@dataclass(frozen=True)
class FCurvatureChecks:
    """Finite-difference behaviour of F at omega = 0: the value, the odd
    first derivative, and the curvature against 2 K_jj."""

    f_zero: np.ndarray
    slope: np.ndarray
    curvature_fd: np.ndarray
    curvature_closed: np.ndarray

    def max_relative_curvature_error(self) -> float:
        return float(np.max(np.abs(self.curvature_fd - self.curvature_closed)
                            / np.abs(self.curvature_closed)))


def f_jj_checks(mats: SpectralMatrixSet) -> FCurvatureChecks:
    """F(0), F'(0) and F''(0) by central differences (Richardson over
    h = 0.04 and h/2), with the closed-form curvature 2 K_jj for comparison."""
    h = 0.04
    F0 = mats.F(0.0)
    Fp, Fm = mats.F(h), mats.F(-h)
    Fp2, Fm2 = mats.F(h / 2), mats.F(-h / 2)
    slope = (Fp - Fm) / (2 * h)
    d1 = (Fp - 2 * F0 + Fm) / h**2
    d2 = (Fp2 - 2 * F0 + Fm2) / (h / 2) ** 2
    curvature = (4.0 * d2 - d1) / 3.0
    return FCurvatureChecks(F0, slope, curvature.real,
                            2.0 * mats.k_diag)


def invertibility_scan(mats: SpectralMatrixSet):
    """min |det M(i omega + 0)| on 241 points of [-3, 3], outside the root
    at 0 (|omega| < 0.05); returns (omegas, dets, minimum)."""
    omegas = np.linspace(-3.0, 3.0, 241)
    omegas = omegas[np.abs(omegas) >= 0.05]
    dets = np.array([mats.det_M_factorized(w) for w in omegas])
    return omegas, dets, float(np.min(np.abs(dets)))


# ---------------------------------------------------------------------------
# The closed-form translated kernel.
# ---------------------------------------------------------------------------

def g_lambda(y, lam, v, m: float = 1.0) -> complex:
    """The scalar kernel of the inverse symbol,

        g_lambda(y) = gamma e^{-kappa |yt| - kappa_1 yt_1} / (4 pi |yt|),

    with yt = (gamma y_1, y_2, y_3) in the frame aligned with v,
    kappa = gamma sqrt(lambda^2 + mu^2) (principal root, Re kappa > 0),
    kappa_1 = gamma |v| lambda and mu = m / gamma. Defined for
    Re lambda > 0 and extends to the axis strictly between the branch
    points; at lambda = 0 it reduces to the stationary soliton kernel."""
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    if y.shape != (3,):
        raise ValueError("y must be a 3-vector")
    if not np.any(y):
        raise ValueError("the kernel is singular at y = 0")
    s = float(np.linalg.norm(v))
    if s >= 1.0:
        raise ValueError("|v| must be < 1")
    g = 1.0 / np.sqrt(1.0 - s * s)
    mu = m / g
    lam = complex(lam)
    if lam.real < 0.0 or (lam.real == 0.0 and abs(lam.imag) >= mu):
        raise ValueError("need Re lambda > 0, or |Im lambda| < mu on "
                         "the axis")
    if s > 0.0:
        y1 = float(v @ y) / s
    else:
        y1 = y[0]
    yperp2 = float(y @ y) - y1 * y1
    yt1 = g * y1
    r = np.sqrt(yt1 * yt1 + yperp2)
    kappa = g * np.sqrt(lam * lam + mu * mu)
    kappa1 = g * s * lam
    return complex(g * np.exp(-kappa * r - kappa1 * yt1) / (4.0 * np.pi * r))


# ---------------------------------------------------------------------------
# Orthogonality functionals Phi(lambda), Phi'(0) and the check.
# ---------------------------------------------------------------------------

def _real_pair_hat(psi: SpinorField) -> tuple[np.ndarray, np.ndarray]:
    """Transforms of the real pair (Re psi, Im psi), each conj-symmetric,
    taken in k-space: with R psi_hat(k) = conj psi_hat(-k) they are
    (psi_hat + R psi_hat) / 2 and (psi_hat - R psi_hat) / (2i). In FFT
    order -k sits at index -j mod N: flip each axis, then roll by one."""
    hat = psi.to_fourier().data
    r = np.roll(np.flip(hat, (1, 2, 3)), 1, (1, 2, 3)).conj()
    return 0.5 * (hat + r), -0.5j * (hat - r)


def _green_first_row(grid: GridSpec, v: np.ndarray, rho: ChargeDensity,
                     lam: complex, x1: np.ndarray, x2: np.ndarray):
    """The first component of G^11 x1 + G^12 x2, the only one that pairs
    with the single-component charge rho_1. With alpha_j = [[0, sigma_j],
    [sigma_j, 0]] in 2x2 blocks it is (-i (k_3 x1_2 + k_1 x1_3)
    - (i v.k + lambda) x1_0 - m x2_0 - i k_2 x2_3) / den."""
    k1, k2, k3 = grid.k_axes
    m = rho.mass
    shift = 1j * grid.k_dot(v) + lam
    return (-1j * (k3 * x1[2] + k1 * x1[3]) - shift * x1[0] - m * x2[0]
            - 1j * k2 * x2[3]) / (grid.k2 + m * m + shift**2)


def phi_lambda(Psi0: SpinorField, lam, v, rho: ChargeDensity) -> np.ndarray:
    """Phi(lambda)_j = <Psi~_1(Psi0), d_j rho_1> with the resolved field

        Psi~_1 = -G^11 Psi0_1 - G^12 Psi0_2,

    as a complex 3-vector of k-grid sums (the rho_2 term vanishes for the
    single-component charge). The real pair Psi0_1, Psi0_2 is split in
    k-space, so a Fourier-space Psi0 costs no FFT."""
    grid = Psi0.grid
    return _phi_of_row(grid, rho, _green_first_row(
        grid, np.asarray(v, dtype=float), rho, complex(lam),
        *_real_pair_hat(Psi0)))


def phi_prime_zero(Psi0: SpinorField, v, rho: ChargeDensity) -> np.ndarray:
    """d Phi / d lambda at lambda = 0, from the differentiated multiplier:

        Phi'(0)_j = -< [Psi0_1 + 2 i v.k (G0^11 Psi0_1 + G0^12 Psi0_2)]
                       / (|k|^2 + m^2 - (v.k)^2), i k_j rho_1 >.
    """
    x1, x2 = _real_pair_hat(Psi0)
    f = soliton_frame(v, rho, Psi0.grid)
    return _phi_prime_of_row(f, x1[0], _green_first_row(f.grid, f.v, rho,
                                                        complex(0.0), x1, x2))


def _phi_of_row(grid: GridSpec, rho: ChargeDensity, row: np.ndarray):
    """Phi(lambda) from the Green first row at lambda."""
    return 1j * grid.k_moments(-row * rho.fourier(grid.k2))


def _phi_prime_of_row(f, x1_0: np.ndarray, row0: np.ndarray):
    """Phi'(0) from the real pair's first component x1_0 and the Green
    first row at lambda = 0, both for the same field; f is the soliton
    frame at v."""
    return 1j * f.grid.k_moments((x1_0 + 2j * f.vk * row0) / f.den
                                 * f.rho_hat)


@dataclass(frozen=True)
class OrthogonalityCheck:
    """Both sides of the symplectic-orthogonality identities

        -Omega(Z0, tau_j)     = (Phi(0)  + P_0)_j,
        +Omega(Z0, tau_{j+3}) = (Phi'(0) + B_v^{-1} Q_0)_j.

    The functional residuals vanish exactly when Z0 is symplectically
    orthogonal to the tangent space."""

    functional_translations: np.ndarray   # Phi(0) + P0
    functional_boosts: np.ndarray         # Phi'(0) + Bv^{-1} Q0
    form_translations: np.ndarray         # -Omega(Z0, tau_j)
    form_boosts: np.ndarray               # +Omega(Z0, tau_{j+3})

    def max_residual(self) -> float:
        return float(max(np.max(np.abs(self.functional_translations)),
                         np.max(np.abs(self.functional_boosts))))

    def equivalence_gap(self) -> float:
        """Largest mismatch between the functional and form sides."""
        return float(max(
            np.max(np.abs(self.functional_translations
                          - self.form_translations)),
            np.max(np.abs(self.functional_boosts - self.form_boosts))))


def orthogonality_check(Z0: PhaseState, v, rho: ChargeDensity,
                        b=None) -> OrthogonalityCheck:
    """Evaluate both orthogonality formulations for Z0 at velocity v.

    The functionals are built around the soliton centered at the origin;
    a difference taken at manifold point (b, v) is recentered by passing
    b. The form side Omega(Z0, tau_j(b, v)) comes from the comoving
    pairings that project_to_manifold and symplectic_orthogonalize read.
    Phi(0) and Phi'(0) share one real-pair split, one Green row at
    lambda = 0 and the pairings' soliton frame."""
    Zk = Z0.to_fourier()
    b = np.zeros(3) if b is None else np.asarray(b, dtype=float)
    frame, e, pairings = _state_pairings(Zk, rho)(b, v)
    rows = _rows(frame, pairings, Zk.q, Zk.p)
    psi = SpinorField(Zk.grid, _separable_phase(e).conj() * Zk.psi.data,
                      FOURIER)                     # e^{-ik.b} psi_hat
    x1, x2 = _real_pair_hat(psi)
    row0 = _green_first_row(Zk.grid, frame.v, rho, complex(0.0), x1, x2)
    phi0 = _phi_of_row(Zk.grid, rho, row0)
    phi1 = _phi_prime_of_row(frame, x1[0], row0)
    return OrthogonalityCheck(phi0 + Zk.p, phi1 + momentum_jacobian(v) @ Zk.q,
                              -rows[:3], rows[3:])
