"""Independent oracles for the tests, kept apart from the package's hot
path: a position-space soliton by Green-kernel quadrature, a Monte-Carlo
Gaussian integral, the dense alpha.k product, the grid-consistency form
of the stationary residual, the real pair by the FFT round trip, the
allocating transforms, the Omega rows against a full tangent basis, the
tensor trapezoid on the whole grid at once, the Gauss panel sum one
interval at a time, and the phi_+ estimates and
persistence errors taken after a run from its position-space snapshots."""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from dirac_soliton.field_grid import (FOURIER, POSITION, GridSpec,
                                      SpinorField, free_propagate)
from dirac_soliton.phase_space import PhaseState
from dirac_soliton.soliton_manifold import (SolitonParams, TangentBasis,
                                            _stationary_residual,
                                            soliton_field_hat, soliton_state)
from dirac_soliton.spinor_algebra import (ChargeDensity, DiracMatrices,
                                          build_dirac_matrices)
from dirac_soliton.symplectic_geometry import (ProjectionError,
                                               project_to_manifold)

_DIRAC = build_dirac_matrices()


def soliton_field(v, rho: ChargeDensity, grid: GridSpec,
                  space: str = FOURIER) -> SpinorField:
    """The soliton psi_v as a SpinorField (function of y)."""
    out = SpinorField(grid, soliton_field_hat(v, rho, grid), FOURIER)
    return out if space == FOURIER else out.to_position()


def stationary_residual_on_grid(v, rho: ChargeDensity, grid: GridSpec) -> float:
    """Residual of the stationary equation applied spectrally on the same
    grid the soliton was built on, relative to ||rho||. The construction
    inverts the operator exactly per mode, so this is a transcription
    identity and sits at rounding level; it catches sign or convention
    errors, not discretization error."""
    return _stationary_residual(soliton_field_hat(v, rho, grid), v, rho, grid)


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


def apply_alpha_dot_k(data: np.ndarray, grid: GridSpec,
                      d: DiracMatrices = _DIRAC) -> np.ndarray:
    """(alpha . k) f_hat, on shape-(4,N,N,N) Fourier data, by dense 4x4
    products. Kept as the test oracle for the block formulas; production
    code applies the Dirac symbol through dirac_symbol()."""
    k1, k2_, k3 = grid.k_axes
    out = np.tensordot(d.alpha1, data, axes=(1, 0)) * k1
    out += np.tensordot(d.alpha2, data, axes=(1, 0)) * k2_
    out += np.tensordot(d.alpha3, data, axes=(1, 0)) * k3
    return out


def monte_carlo_gaussian_3d(rest, sigma: float, n_samples: int,
                            seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo oracle for integrals of the form
        integral e^{-sigma^2 |k|^2} * rest(k1, k2, k3) dk
    by importance sampling with the Gaussian as the density.

    Returns (estimate, standard_error), each with rest's output shape.
    """
    rng = np.random.default_rng(seed)
    s = 1.0 / (np.sqrt(2.0) * sigma)
    k = rng.normal(scale=s, size=(3, n_samples))
    norm = (np.pi / sigma**2) ** 1.5  # integral of the Gaussian weight
    vals = norm * rest(k[0], k[1], k[2])
    est = np.mean(vals, axis=-1)
    stderr = np.std(vals, axis=-1, ddof=1) / np.sqrt(n_samples)
    return est, stderr


def dense_trapezoid_3d(f, kmax: float, n: int) -> tuple[np.ndarray, float]:
    """The (n+1)^3 tensor trapezoid on [-kmax, kmax]^3 evaluated all at
    once: f on the full grid, N^3 weight arrays, and the embedded-grid error
    estimate d1 * min(1, d1 / d2) of quadrature.tensor_trapezoid_3d.
    Returns (value, error)."""

    def weights(m):
        w = np.full(m + 1, 2.0 * kmax / m)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w[:, None, None] * w[None, :, None] * w[None, None, :]

    nodes = np.linspace(-kmax, kmax, n + 1)
    vals = f(nodes[:, None, None], nodes[None, :, None], nodes[None, None, :])
    fine, half, quarter = (
        np.sum(vals[..., ::s, ::s, ::s] * weights(n // s), axis=(-3, -2, -1))
        for s in (1, 2, 4))
    d1 = float(np.max(np.abs(fine - half)))
    d2 = float(np.max(np.abs(half - quarter)))
    return fine, (d1 if d2 == 0.0 else d1 * min(1.0, d1 / d2))


def gauss_panels_per_interval(f, a: float, b: float, breakpoints=(),
                              order: int = 40,
                              panels_per_interval: int = 8):
    """quadrature.gauss_panels_1d's rule one interval at a time: f runs
    once per interval on that interval's nodes, and the interval sums are
    added in order. Returns (value, error), the error being the gap to
    panels_per_interval panels per interval."""
    pts = [a] + sorted({float(x) for x in breakpoints if a < x < b}) + [b]
    xg, wg = leggauss(order)

    def edges_of(lo, hi, n):
        if n < 4:
            return np.linspace(lo, hi, n + 1)
        t = 0.5 * (1.0 - np.cos(np.pi * np.arange(n // 2 + 1) / (n // 2)))
        left = lo + 0.5 * (hi - lo) * t
        right = hi - 0.5 * (hi - lo) * t[::-1]
        return np.concatenate([left, right[1:]])

    def panel_sum(nper):
        total = None
        for lo, hi in zip(pts, pts[1:]):
            edges = edges_of(lo, hi, nper)
            mid = 0.5 * (edges[1:] + edges[:-1])
            half = 0.5 * (edges[1:] - edges[:-1])
            nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
            wts = (half[:, None] * wg[None, :]).ravel()
            contrib = np.sum(f(nodes) * wts, axis=-1)
            total = contrib if total is None else total + contrib
        return total

    fine = panel_sum(2 * panels_per_interval)
    return fine, float(np.max(np.abs(fine - panel_sum(panels_per_interval))))


def real_pair_hat_fft(psi: SpinorField) -> tuple[np.ndarray, np.ndarray]:
    """Transforms of the real pair (Re psi, Im psi) by the position-space
    round trip through numpy's FFT: 4 inverse and 8 forward N^3 FFTs."""
    pos = psi.to_position()
    g = psi.grid
    x1 = SpinorField(g, pos.data.real.astype(complex), POSITION)
    x2 = SpinorField(g, pos.data.imag.astype(complex), POSITION)
    return x1.to_fourier().data, x2.to_fourier().data


def to_position_allocating(psi: SpinorField) -> np.ndarray:
    """Position-space data of a Fourier field by the allocating route:
    centre phase, FFT and scale each form a new (4, N, N, N) array."""
    g = psi.grid
    amp = (2.0 * np.pi) ** -1.5 * g.dk**3
    return amp * np.fft.fftn(g._center_phase * psi.data, axes=(1, 2, 3))


def to_fourier_allocating(psi: SpinorField) -> np.ndarray:
    """Fourier data of a position-space field by the allocating route."""
    g = psi.grid
    amp = (2.0 * np.pi) ** -1.5 * g.h**3 * g.N**3
    return amp * g._center_phase * np.fft.ifftn(psi.data, axes=(1, 2, 3))


def pairings(tb: TangentBasis, psi_hat: np.ndarray):
    """sum conj(Y).psi_v and sum conj(Y).B over the spinor index, for Y
    given by raw k-space field data in the comoving frame of the basis,
    from the basis's two (4, N, N, N) spinor fields."""
    y = psi_hat.conj()
    return np.sum(y * tb.soliton_hat, axis=0), np.sum(y * tb.boost_hat, axis=0)


def omega_rows(tb: TangentBasis, psi_hat: np.ndarray, q: np.ndarray,
               p: np.ndarray) -> np.ndarray:
    """Omega(Y, tau_j) for all six j against the tangent basis; Y given by
    raw k-space field data plus (q, p), the field taken in the comoving
    frame of the basis (for tau_j translated to b, pass e^{-ik.b} times the
    lab-frame field). The field parts are Re sum k_j conj(Y).psi_v
    (translations) and Im sum k_j conj(Y).B (boosts)."""
    sP, sB = pairings(tb, psi_hat)
    g = tb.grid
    field_part = np.concatenate([g.k_moments(sP).real, g.k_moments(sB).imag])
    return field_part + tb.p_parts @ q - tb.q_parts @ p


def phi_plus_from_snapshots(traj, rho: ChargeDensity, dt: float,
                            v_plus: np.ndarray, a_plus: np.ndarray):
    """The outgoing-field check of a scattering run taken after the run:
    each position-space snapshot goes back to Fourier space with (q, p)
    read from the step at its time, a cold projection gives the estimate
    W_0(-t) Z, and the final state adds one at T unless the last kept
    estimate is there. Every estimate is kept; the remainder
    ||psi(T) - psi_{v+}(. - v+ T - a+) - W_0(T) phi_+||_0 takes the one
    nearest T/2 among all but the last (np.argmin: the first of a tie).
    Returns (times, dropped, Cauchy differences, remainder)."""
    times, dropped, phis = [], [], []

    def estimate(psi, q, p, t):
        try:
            res = project_to_manifold(PhaseState(psi.to_fourier(), q, p), rho)
        except ProjectionError:
            dropped.append(t)
            return
        times.append(t)
        phis.append(free_propagate(res.Z.psi, -t, rho.mass))

    for t, snap in zip(traj.field_times, traj.fields):
        i = int(round(t / dt))
        estimate(snap, traj.q[i], traj.p[i], t)
    final = traj.final_state
    T = float(traj.times[-1])
    if not times or times[-1] < T - 0.5 * dt:
        estimate(final.psi, final.q, final.p, T)
    cauchy = np.array([(b - a).norm() for a, b in zip(phis, phis[1:])])
    remainder = float("nan")
    if len(phis) >= 2 and times[-1] == T:
        half = int(np.argmin(np.abs(np.asarray(times[:-1]) - 0.5 * T)))
        asym = soliton_state(SolitonParams(v_plus * T + a_plus, v_plus),
                             rho, final.grid)
        outgoing = free_propagate(phis[half], T, rho.mass)
        remainder = (final.psi.to_fourier() - asym.psi - outgoing).norm()
    return np.asarray(times), np.asarray(dropped), cauchy, remainder


def field_errors_from_snapshots(traj, v, rho: ChargeDensity, dt: float,
                                ref_norm: float) -> np.ndarray:
    """||psi(t) - psi_v(. - q(t))||_0 / ref_norm at each stored snapshot,
    the snapshot taken back to Fourier space and q(t) read from the step
    at its time."""
    errors = []
    for t, snap in zip(traj.field_times, traj.fields):
        q = traj.q[int(round(t / dt))]
        moved = soliton_state(SolitonParams(q, v), rho, snap.grid)
        errors.append((snap.to_fourier() - moved.psi).norm() / ref_norm)
    return np.asarray(errors)
