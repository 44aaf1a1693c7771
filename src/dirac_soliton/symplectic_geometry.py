"""The symplectic form Omega, the matrix Omega(v) with its quadrature K,
and the symplectic orthogonal projection onto the solitary manifold.

Omega(Y1, Y2) = <psi1_1, psi2_2> - <psi2_1, psi1_2> + q1.p2 - p1.q2 in the
real-pair notation; with the complex field convention used here this is
Im <psi_1, psi_2>_C + q1.p2 - p1.q2, and the field inner product is taken
in k-space through the exact discrete Parseval identity.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .field_grid import FOURIER, GridSpec, SpinorField, k_second_moments
from .phase_space import PhaseState
from .quadrature import QuadResult, k_outer_trapezoid_3d
from .soliton_manifold import (
    SolitonParams,
    TangentBasis,
    _particle_parts,
    soliton_momentum,
    tangent_basis,
    velocity_from_momentum,
)
from .spinor_algebra import ChargeDensity

K_QUAD_NODES = 96          # pinned trapezoid intervals per axis for K and L
K_QUAD_KMAX_SIGMAS = 8.0   # box half-width in units of 1/sigma


def omega(Y1: PhaseState, Y2: PhaseState) -> float:
    """The symplectic form; antisymmetric, grid-consistent."""
    if Y1.grid != Y2.grid:
        raise ValueError("grid mismatch")
    a = Y1.psi.to_fourier()
    b = Y2.psi.to_fourier()
    field_part = float(np.imag(np.sum(a.data.conj() * b.data))) * a.grid.dk**3
    return field_part + float(Y1.q @ Y2.p - Y1.p @ Y2.q)


# the tangent space at velocity v in scalar k-grid fields: vk = v.k,
# vkm = v.k - m, den = D and r = rho_hat / D, so psi_v_hat = r (vkm, 0, k_3,
# k_1 + i k_2) and B = (rho_hat e_0 + 2 vk psi_v_hat) / D; cP and cB are the
# spinor sums |psi_v_hat|^2 and conj(psi_v_hat).B, gram is Omega(tau_l, tau_j)
_Frame = namedtuple("_Frame", "grid v q_parts p_parts vk vkm den r cP cB gram")


def _frame(v, rho_hat: np.ndarray, grid: GridSpec, m: float) -> _Frame:
    vk = grid.k_dot(v)
    vkm = vk - m
    den = grid.k2 + m * m - vk**2
    r = rho_hat / den
    cP = r**2 * (vkm**2 + grid.k2)
    cB = (vkm * r * rho_hat + 2.0 * vk * cP) / den
    parts = _particle_parts(v)
    return _Frame(grid, v, *parts, vk, vkm, den, r, cP, cB,
                  _gram(k_second_moments(cB, grid), *parts))


def omega_matrix_grid(tb: TangentBasis) -> np.ndarray:
    """The 6x6 matrix with entries Omega(tau_l, tau_j) (l row, j column).
    Translation-translation and boost-boost field parts are
    Im sum k_l k_j |f|^2 = 0, so the field part is [[0, -C], [C, 0]] with
    C_lj = Re sum k_l k_j conj(psi_v).B dk^3, exactly antisymmetric."""
    return _gram(k_second_moments(
        np.sum(tb.soliton_hat.conj() * tb.boost_hat, axis=0).real, tb.grid),
        tb.q_parts, tb.p_parts)


def _gram(C, q_parts, p_parts) -> np.ndarray:
    """[[0, -C], [C, 0]] plus the particle part of Omega(tau_l, tau_j)."""
    out = np.block([[np.zeros((3, 3)), -C], [C, np.zeros((3, 3))]])
    out += q_parts @ p_parts.T - p_parts @ q_parts.T
    return out


def _rows(frame: _Frame, pairings, q, p) -> np.ndarray:
    """Omega(Y, tau_j) for all six j from Y's comoving pairings sP, sB
    with psi_v_hat and B: the field parts are Re sum k_j sP
    (translations) and Im sum k_j sB (boosts)."""
    sP, sB = pairings
    g = frame.grid
    field_part = np.concatenate([g.k_moments(sP).real, g.k_moments(sB).imag])
    return field_part + frame.p_parts @ q - frame.q_parts @ p


def _separable_phase(e: np.ndarray) -> np.ndarray:
    """e^{ik.b} on the k-grid from its (3, N) per-axis factors."""
    return (e[0][:, None] * e[1])[:, :, None] * e[2]


def _state_pairings(Yk: PhaseState, rho: ChargeDensity):
    """(b, v) -> (frame, e, pairings) for Yk in k-space: the spinor sums of
    conj(e^{-ik.b} psi_hat) with psi_v_hat and B, so Omega(Y, tau_j(b, v))
    = _rows(frame, pairings, q, p), and e, the (3, N) factors of e^{ik.b}.
    The spinor index of conj(psi_hat) is summed once, into u0 and u1."""
    grid, m, rho_hat = Yk.grid, rho.mass, rho.fourier(Yk.grid.k2)
    k1, k2, k3 = grid.k_axes
    u0 = Yk.psi.data[0].conj()
    u1 = (Yk.psi.data[2] * k3 + Yk.psi.data[3] * (k1 - 1j * k2)).conj()

    def at(b, v):
        f = _frame(v, rho_hat, grid, m)
        aP = (u0 * f.vkm + u1) * f.r
        aB = (u0 * rho_hat + 2.0 * f.vk * aP) / f.den
        e = np.exp(1j * np.multiply.outer(b, grid.k1d))
        phase = _separable_phase(e)
        return f, e, (np.multiply(phase, aP, out=aP),
                      np.multiply(phase, aB, out=aB))
    return at


def _comoving_sums(Yk: PhaseState, rho: ChargeDensity):
    """(b, v) -> (rows, (frame, sums, e)) of project_to_manifold for Yk in
    k-space: sums pair the comoving defect e^{-ik.b} psi_hat - psi_v_hat,
    the state's pairings less the soliton's own cP and cB."""
    pairings = _state_pairings(Yk, rho)

    def trial(b, v):
        f, e, (sP, sB) = pairings(b, v)
        sP -= f.cP
        sB -= f.cB
        return (_rows(f, (sP, sB), Yk.q - b, Yk.p - soliton_momentum(v)),
                (f, (sP, sB), e))
    return trial


def matrix_K(v, rho: ChargeDensity, n: int = K_QUAD_NODES) -> QuadResult:
    """K_jl = integral k_j k_l B(k) (k^2 + m^2 + 3 (v.k)^2) / D^3 dk with
    D = k^2 + m^2 - (v.k)^2, by the pinned tensor trapezoid."""
    v = np.asarray(v, dtype=float)
    m = rho.mass

    def core(k1, k2, k3):
        k2tot = k1**2 + k2**2 + k3**2
        B = rho.mass * rho.fourier(k2tot) ** 2
        vk = v[0] * k1 + v[1] * k2 + v[2] * k3
        D = k2tot + m * m - vk**2
        return B * (k2tot + m * m + 3.0 * vk**2) / D**3

    return k_outer_trapezoid_3d(core, K_QUAD_KMAX_SIGMAS / rho.sigma, n)


@dataclass(frozen=True)
class OmegaMatrix:
    """Closed-form Omega(v): the 3x3 block Omega^+ and the full 6x6 form."""

    block: np.ndarray
    quad_error: float

    @cached_property
    def full(self) -> np.ndarray:
        zero = np.zeros((3, 3))
        return np.block([[zero, self.block], [-self.block, zero]])

    def min_eigenvalue(self) -> float:
        return float(np.min(np.linalg.eigvalsh(self.block)))


def omega_plus(v, rho: ChargeDensity) -> OmegaMatrix:
    """Omega^+(v) = K + gamma E + gamma^3 v (x) v, symmetric positive
    definite for |v| < 1."""
    v = np.asarray(v, dtype=float)
    v2 = float(v @ v)
    if v2 >= 1.0:
        raise ValueError("|v| must be < 1")
    g = 1.0 / np.sqrt(1.0 - v2)
    K = matrix_K(v, rho)
    block = K.value + g * np.eye(3) + g**3 * np.outer(v, v)
    return OmegaMatrix(block=block, quad_error=K.error)


def omega_vs_direct(v, rho: ChargeDensity, grid: GridSpec) -> float:
    """Maximum relative discrepancy over the 36 entries between the
    grid-computed Omega(tau_l, tau_j) and the closed form (grid inner
    products versus momentum-space quadrature, two independent routes)."""
    tb = tangent_basis(v, rho, grid)
    grid_mat = omega_matrix_grid(tb)
    closed = omega_plus(v, rho).full
    scale = np.max(np.abs(closed))
    return float(np.max(np.abs(grid_mat - closed)) / scale)


@dataclass(frozen=True)
class ProjectionResult:
    params: SolitonParams
    Z: PhaseState
    residuals: np.ndarray
    iterations: int
    converged: bool


class ProjectionError(RuntimeError):
    """Raised when the Newton solve does not converge, or converges to a
    root that is not continued from the manifold (state left the
    neighborhood of the solitary manifold where the projection is
    defined)."""


def _jacobian_defect(frame: _Frame, sums, dq: np.ndarray) -> np.ndarray:
    """The exact Jacobian of project_to_manifold's residual at the point of
    frame minus the chord matrix -Omega(tau_l, tau_j)^T: the symmetric
    terms linear in the defect, from its pairings sP, sB and dq = q_Y - b.
    The boost-boost term uses d_{v_l}(k_j B) = k_j k_l (2 psi_v + 4 (v.k) B)
    / D and d_{v_l} M_v = gamma^3 v_l E + 3 gamma^5 v_l v (x) v
                          + gamma^3 (e_l (x) v + v (x) e_l)."""
    sP, sB = sums
    g, v = frame.grid, frame.v
    mP = k_second_moments(sP, g)
    mB = k_second_moments(sB, g).real
    mV = k_second_moments((2.0 * sP + 4.0 * frame.vk * sB) / frame.den,
                          g).imag
    gam, vd = 1.0 / np.sqrt(1.0 - float(v @ v)), float(v @ dq)
    slope = (gam**3 * (np.outer(dq, v) + np.outer(v, dq) + vd * np.eye(3))
             + 3.0 * gam**5 * vd * np.outer(v, v))
    return np.block([[-mP.imag, mB], [mB, mV + slope]])


def project_to_manifold(Y: PhaseState, rho: ChargeDensity,
                        sigma_guess: SolitonParams | None = None,
                        tol: float = 1e-10, max_iter: int = 50,
                        raise_on_failure: bool = True) -> ProjectionResult:
    """Symplectic orthogonal projection: find sigma = (b, v) with
    Omega(Y - S(sigma), tau_j(sigma)) = 0 for j = 1..6 and return sigma
    with the transversal component Z = Y - S(sigma).

    The rows are taken in the comoving frame of sigma, as Omega of
    (dpsi, q - b, p - p_v) against tau_j(0, v), dpsi = e^{-ik.b} psi_hat -
    psi_v_hat: r = (Re M1(sP) - (p - p_v), Im M1(sB) + M_v (q - b)), with
    sP, sB the spinor sums of conj(dpsi).psi_v_hat and conj(dpsi).B,
    M1 = GridSpec.k_moments and M_v = momentum_jacobian(v). They come from
    scalar comoving sums (_comoving_sums): the spinor index is summed once
    per projection, and no trial forms a tangent basis; each forms one N^3
    array, the phase _separable_phase(e), from 3N exponentials. Write
    D = k^2 + m^2 - (v.k)^2, M2 = k_second_moments and
    C = M2(Re sum conj(psi_v_hat).B).

    Damped Newton on sigma in R^6 with the exact Jacobian, rows r_j and
    columns (b, v):
        J[:3, :3] = -Im M2(sP)
        J[:3, 3:] =  Re M2(sB) - C + M_v
        J[3:, :3] =  Re M2(sB) + C - M_v
        J[3:, 3:] =  Im M2((2 sP + 4 (v.k) sB) / D)
                     + sum_i d_{v_l} (M_v)_{ji} (q - b)_i,
    formed from the sums the residual took at the current point; without
    the terms in sP, sB and q - b it is the chord matrix -Omega(tau_l,
    tau_j)^T. Convergence is quadratic near the root. The initial guess
    defaults to (q, v(p)) read off the state.

    A root counts as converged only if it is the projection continued from
    the manifold: J = chord (I - X) with X linear in Z, and the spectral
    radius of X must be below 1, so that the Jacobian stays invertible on
    the whole segment from S(sigma) to Y. Far from the manifold exact
    Newton can find roots that fail this.
    """
    Yk = Y.to_fourier()
    if sigma_guess is None:
        sigma_guess = SolitonParams(b=Yk.q, v=velocity_from_momentum(Yk.p))

    b = sigma_guess.b.copy()
    v = sigma_guess.v.copy()
    trial = _comoving_sums(Yk, rho)
    r, (frame, sums, e) = trial(b, v)
    scale = max(1.0, Yk.psi.norm())
    it = 0
    converged = bool(np.max(np.abs(r)) <= tol * scale)
    while not converged and it < max_iter:
        J = _jacobian_defect(frame, sums, Yk.q - b) - frame.gram.T
        try:
            delta = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            break
        step = 1.0
        for _ in range(12):
            b_new = b + step * delta[:3]
            v_new = v + step * delta[3:]
            if np.linalg.norm(v_new) < 1.0:
                r_new, point_new = trial(b_new, v_new)
                if np.max(np.abs(r_new)) < np.max(np.abs(r)):
                    break
            step *= 0.5
        else:
            break
        b, v, r, (frame, sums, e) = b_new, v_new, r_new, point_new
        it += 1
        converged = bool(np.max(np.abs(r)) <= tol * scale)

    if not converged:
        failure = (f"projection did not converge: max residual "
                   f"{np.max(np.abs(r)):.3e} after {it} iterations")
    else:
        # sigma stays a root along S(sigma) + t Z, where the Jacobian is
        # chord (I - t X); rho(X) < 1 keeps it invertible for t in [0, 1]
        X = np.linalg.solve(-frame.gram.T,
                            _jacobian_defect(frame, sums, Yk.q - b))
        radius = float(np.max(np.abs(np.linalg.eigvals(X))))
        converged = radius < 1.0
        failure = (f"the root is not continued from the manifold: the "
                   f"Jacobian's defect has spectral radius {radius:.3f} >= 1 "
                   f"relative to -Omega(tau_l, tau_j)^T")
    if not converged and raise_on_failure:
        raise ProjectionError(failure)
    params = SolitonParams(b, v)
    # Z = Yk - S(sigma) from the final trial's arrays: the soliton field
    # e^{ik.b} psi_v_hat is phase r (v.k - m, 0, k_3, k_1 + i k_2)
    z = _subtract_spinor(np.array(Yk.psi.data, dtype=complex),
                         _separable_phase(e) * frame.r, frame)
    Z = PhaseState(SpinorField(Yk.grid, z, FOURIER), Yk.q - b,
                   Yk.p - params.p_v)
    return ProjectionResult(params=params, Z=Z, residuals=r, iterations=it,
                            converged=converged)


def _subtract_spinor(z: np.ndarray, w: np.ndarray, f: _Frame) -> np.ndarray:
    """z -= w (v.k - m, 0, k_3, k_1 + i k_2) in place and return z: w times
    the spinor shape of psi_v_hat = r (v.k - m, 0, k_3, k_1 + i k_2)."""
    k1, k2, k3 = f.grid.k_axes
    z[0] -= w * f.vkm
    z[2] -= w * k3
    z[3] -= w * (k1 + 1j * k2)
    return z


def symplectic_orthogonalize(Z: PhaseState, v, rho: ChargeDensity,
                             b=None) -> PhaseState:
    """Remove the tangent components of Z at sigma = (b, v), b = 0 by
    default: returns Z - sum c_l tau_l(b, v) with Omega(result, tau_j) = 0
    for all j (used to build transversal data). The rows are Z's comoving
    pairings and the Gram matrix the same frame's; the removed field
    i (k.c_b) psi_v_hat + (k.c_v) B is written from scalars as phase r
    [(i k.c_b + 2 (v.k)(k.c_v) / D)(v.k - m, 0, k_3, k_1 + i k_2)
    + (k.c_v) e_0]."""
    Zk = Z.to_fourier()
    b = np.zeros(3) if b is None else np.asarray(b, dtype=float)
    f, e, pairings = _state_pairings(Zk, rho)(b, np.asarray(v, dtype=float))
    # gram.T[j, l] = Omega(tau_l, tau_j)
    c = np.linalg.solve(f.gram.T, _rows(f, pairings, Zk.q, Zk.p))
    kb, kv = f.grid.k_dot(c[:3]), f.grid.k_dot(c[3:])
    w = _separable_phase(e) * f.r
    z = _subtract_spinor(np.array(Zk.psi.data, dtype=complex),
                         w * (1j * kb + 2.0 * f.vk * kv / f.den), f)
    z[0] -= w * kv
    return PhaseState(SpinorField(f.grid, z, FOURIER), Zk.q - c @ f.q_parts,
                      Zk.p - c @ f.p_parts)
