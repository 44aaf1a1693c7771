"""Time integration of the coupled field-particle system.

The field and the particle exchange momentum through the smeared charge:
    i psi_t = (-i alpha.grad + beta m) psi + rho(. - q)
    qdot    = p / sqrt(1 + p^2)
    pdot    = Re <psi, grad rho(. - q)>
One step is Strang splitting: half a kick of the particle with the field
frozen, an exact free flight of the field with the source integral taken
by the midpoint rule, half a kick again. Everything runs in k-space; the
moving source never touches the grid as an interpolation, only as the
phase e^{i k.q} on rho_hat.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field

import numpy as np

from .field_grid import (
    FOURIER,
    GridSpec,
    SpinorField,
    dirac_symbol,
    free_propagate,
    spectral_derivative,
    weighted_norm,
)
from .phase_space import PhaseState
from .soliton_manifold import SolitonParams, velocity_from_momentum
from .spinor_algebra import ChargeDensity, build_dirac_matrices
from .symplectic_geometry import ProjectionError, project_to_manifold

_DIRAC = build_dirac_matrices()


class IntegratorError(RuntimeError):
    """Non-physical blow-up: the state left the finite-energy regime."""


def force(psi_hat_data: np.ndarray, grid: GridSpec, rho: ChargeDensity,
          q) -> np.ndarray:
    """Re <psi, grad rho(. - q)>, evaluated by Parseval in k-space.

    Only the first spinor component couples; grad rho(. - q) transforms
    to -i k e^{i k.q} rho_hat(k).
    """
    src = rho.fourier(grid.k2) * grid.phase_shift(q)
    w = src * np.conj(psi_hat_data[0])
    out = np.empty(3)
    for axis in range(3):
        out[axis] = np.real(-1j * np.sum(grid.k_axes[axis] * w))
    return out * grid.dk**3


def _half_kick(q, p, psi_hat_data, grid, rho, h):
    """Midpoint step of the particle ODE with the field frozen."""
    q_mid = q + 0.5 * h * velocity_from_momentum(p)
    p_mid = p + 0.5 * h * force(psi_hat_data, grid, rho, q)
    q_new = q + h * velocity_from_momentum(p_mid)
    p_new = p + h * force(psi_hat_data, grid, rho, q_mid)
    return q_new, p_new


def _field_step(psi: SpinorField, rho: ChargeDensity, q_mid,
                dt: float) -> SpinorField:
    """Exact free flight plus the Duhamel source term at the midpoint:
    psi <- W0(dt) psi - i dt W0(dt/2) rho(. - q_mid)."""
    grid = psi.grid
    out = free_propagate(psi, dt, rho.mass)
    src = np.zeros((4, grid.N, grid.N, grid.N), dtype=complex)
    src[0] = rho.fourier(grid.k2) * grid.phase_shift(q_mid)
    kicked = free_propagate(SpinorField(grid, src, FOURIER), 0.5 * dt,
                            rho.mass)
    return out - (1j * dt) * kicked


def step(Y: PhaseState, dt: float, rho: ChargeDensity) -> PhaseState:
    """One Strang step of the coupled system; second order in dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    Yk = Y.to_fourier()
    grid = Y.grid
    q, p = _half_kick(Yk.q, Yk.p, Yk.psi.data, grid, rho, 0.5 * dt)
    psi = _field_step(Yk.psi, rho, q, dt)
    q, p = _half_kick(q, p, psi.data, grid, rho, 0.5 * dt)
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
        raise IntegratorError(
            f"particle state lost finiteness at q={q}, p={p}")
    return PhaseState(psi, q, p)


def hamiltonian(Y: PhaseState, rho: ChargeDensity) -> float:
    """The conserved energy
        H = 1/2 Re <psi, (-i alpha.grad + beta m) psi>
            + Re <psi, rho(. - q)> + sqrt(1 + p^2),
    evaluated in k-space where the Dirac operator is the multiplier
    D(k) = -alpha.k + beta m."""
    Yk = Y.to_fourier()
    grid = Y.grid
    d = Yk.psi.data
    Dd = dirac_symbol(d, grid, rho.mass)
    field_term = 0.5 * float(np.real(np.sum(np.conj(d) * Dd))) * grid.dk**3
    src = rho.fourier(grid.k2) * grid.phase_shift(Yk.q)
    coupling = float(np.real(np.sum(np.conj(d[0]) * src))) * grid.dk**3
    kinetic = float(np.sqrt(1.0 + Yk.p @ Yk.p))
    return field_term + coupling + kinetic


def hamiltonian_real_split(Y: PhaseState, rho: ChargeDensity) -> float:
    """The same energy written out over the real pair (psi1, psi2) with
    position-space integrals and spectral derivatives:
        1/2 int psi1.(a2t d2 + beta m) psi1 + psi2.(a2t d2 + beta m) psi2
              + 2 psi1.(alpha1 d1 + alpha3 d3) psi2 dx
        + int psi1 . rho1(x - q) dx + sqrt(1 + p^2)
    where a2t = -i alpha2 is real. Used as a cross-check of hamiltonian().
    """
    pos = Y.to_position()
    grid = Y.grid
    psi = pos.psi
    p1, p2 = psi.data.real, psi.data.imag
    d1 = spectral_derivative(psi, 0).data
    d2 = spectral_derivative(psi, 1).data
    d3 = spectral_derivative(psi, 2).data

    a2t = _DIRAC.alpha2_tilde
    beta = _DIRAC.beta.real
    m = rho.mass

    def dot(u, w):
        return np.sum(u * w)

    mat1 = np.tensordot(a2t, d2.real, axes=(1, 0)) \
        + m * np.tensordot(beta, p1, axes=(1, 0))
    mat2 = np.tensordot(a2t, d2.imag, axes=(1, 0)) \
        + m * np.tensordot(beta, p2, axes=(1, 0))
    cross = np.tensordot(_DIRAC.alpha1.real, d1.imag, axes=(1, 0)) \
        + np.tensordot(_DIRAC.alpha3.real, d3.imag, axes=(1, 0))
    quad = 0.5 * (dot(p1, mat1) + dot(p2, mat2) + 2.0 * dot(p1, cross))

    x = grid.x1d
    q = pos.q
    r2 = ((x - q[0])[:, None, None] ** 2 + (x - q[1])[None, :, None] ** 2
          + (x - q[2])[None, None, :] ** 2)
    coupling = dot(p1[0], rho.profile(r2))
    kinetic = float(np.sqrt(1.0 + pos.p @ pos.p))
    return float((quad + coupling) * grid.h**3) + kinetic


@dataclass
class Trajectory:
    """A recorded run: particle path at every step, modulation samples on
    the coarser sampling clock, optional field snapshots."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    final_state: PhaseState
    nu: float = 3.0
    sample_times: np.ndarray = _field(default_factory=lambda: np.empty(0))
    sigma_b: np.ndarray = _field(default_factory=lambda: np.empty((0, 3)))
    sigma_v: np.ndarray = _field(default_factory=lambda: np.empty((0, 3)))
    z_norms: np.ndarray = _field(default_factory=lambda: np.empty(0))
    majorant: np.ndarray = _field(default_factory=lambda: np.empty(0))
    tracking_failed_at: float | None = None
    field_times: np.ndarray = _field(default_factory=lambda: np.empty(0))
    fields: list = _field(default_factory=list)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.sigma_v.size and np.any(
                np.linalg.norm(self.sigma_v, axis=1) >= 1.0):
            raise ValueError("modulation velocity left |v| < 1")
        if self.majorant.size and np.any(np.diff(self.majorant) < -1e-12):
            raise ValueError("majorant must be non-decreasing")

    def velocities(self) -> np.ndarray:
        """qdot(t) = p / sqrt(1 + p^2) at every recorded step."""
        gam = np.sqrt(1.0 + np.sum(self.p**2, axis=1))
        return self.p / gam[:, None]


def is_whole_multiple(t: float, dt: float) -> bool:
    """Whether t / dt is an integer, to 1e-9 relative."""
    n = t / dt
    return abs(n - round(n)) <= 1e-9 * n


@dataclass(frozen=True)
class SimulationConfig:
    """Integrator settings. t_final must be a whole multiple of dt. The
    sample clock is not: sample_every is rounded to the nearest whole
    number of steps (at least one), and each sample's actual time is
    recorded in Trajectory.sample_times."""

    dt: float = 0.02
    t_final: float = 10.0
    track_modulation: bool = False
    sample_every: float = 0.25
    nu: float = 3.0
    field_stride: int = 0          # store the field every k-th sample; 0 = off
    sigma_guess: SolitonParams | None = None

    def __post_init__(self):
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        if not is_whole_multiple(self.t_final, self.dt):
            raise ValueError(f"t_final = {self.t_final} is not a whole "
                             f"multiple of dt = {self.dt}")
        if self.sample_every < self.dt:
            raise ValueError("sample_every must be at least dt")


def _transversal_norm(Z: PhaseState, nu: float) -> float:
    return (weighted_norm(Z.psi, -nu) + float(np.linalg.norm(Z.q))
            + float(np.linalg.norm(Z.p)))


def simulate(initial: PhaseState, rho: ChargeDensity,
             config: SimulationConfig) -> Trajectory:
    """Integrate to t_final recording the particle path at every step.

    With track_modulation the state is projected onto the solitary
    manifold every sample_every time units (warm-started from the last
    fit); a projection failure is recorded and tracking stops, the
    integration itself continues.
    """
    n_steps = int(round(config.t_final / config.dt))
    stride = max(1, int(round(config.sample_every / config.dt)))

    Y = initial.to_fourier()
    times = np.empty(n_steps + 1)
    qs = np.empty((n_steps + 1, 3))
    ps = np.empty((n_steps + 1, 3))

    sample_times, sig_b, sig_v, z_norms, majorant = [], [], [], [], []
    field_times, fields = [], []
    tracking = config.track_modulation
    failed_at = None
    guess = config.sigma_guess
    m_run = 0.0

    def sample(idx, t, state):
        nonlocal tracking, failed_at, guess, m_run
        if tracking:
            try:
                res = project_to_manifold(state, rho, sigma_guess=guess)
            except ProjectionError:
                tracking = False
                failed_at = t
            else:
                guess = res.params
                zn = _transversal_norm(res.Z, config.nu)
                m_run = max(m_run, (1.0 + t) ** 1.5 * zn)
                sample_times.append(t)
                sig_b.append(res.params.b)
                sig_v.append(res.params.v)
                z_norms.append(zn)
                majorant.append(m_run)
        if config.field_stride and (idx // stride) % config.field_stride == 0:
            field_times.append(t)
            fields.append(state.psi.to_position())

    times[0], qs[0], ps[0] = 0.0, Y.q, Y.p
    sample(0, 0.0, Y)
    for i in range(1, n_steps + 1):
        Y = step(Y, config.dt, rho)
        t = i * config.dt
        times[i], qs[i], ps[i] = t, Y.q, Y.p
        if i % stride == 0:
            sample(i, t, Y)

    return Trajectory(
        times=times, q=qs, p=ps, final_state=Y, nu=config.nu,
        sample_times=np.asarray(sample_times),
        sigma_b=np.asarray(sig_b).reshape(-1, 3),
        sigma_v=np.asarray(sig_v).reshape(-1, 3),
        z_norms=np.asarray(z_norms), majorant=np.asarray(majorant),
        tracking_failed_at=failed_at,
        field_times=np.asarray(field_times), fields=fields)


@dataclass(frozen=True)
class ScatteringData:
    v_plus: np.ndarray
    a_plus: np.ndarray
    qdot_exponent: float | None
    z_exponent: float | None
    qdot_residual: float


def _loglog_slope(t, y, max_points: int = 64):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size > max_points:
        # resample to a geometric time grid so every decade carries the
        # same weight in the fit
        targets = np.geomspace(t[0], t[-1], max_points)
        idx = np.unique(np.searchsorted(t, targets).clip(0, t.size - 1))
        t, y = t[idx], y[idx]
    A = np.vstack([np.log(t), np.ones_like(t)]).T
    sol, *_ = np.linalg.lstsq(A, np.log(y), rcond=None)
    return float(sol[0])


def extract_scattering_data(traj: Trajectory, t_min: float = 5.0,
                            v_tail_fraction: float = 0.2,
                            fit_upper_fraction: float = 0.05) -> ScatteringData:
    """Asymptotic velocity, intercept, and the decay-exponent fits.

    v_plus averages qdot over the last v_tail_fraction of the run (where
    the O(t^{-2}) correction is below the sampling noise); the exponent of
    |qdot - v_plus| is fitted on the early window [t_min,
    fit_upper_fraction * T] where the signal still dominates the error of
    the v_plus estimate, dropping samples within 10x of the leftover at
    the final time.
    """
    T = float(traj.times[-1])
    if T <= t_min:
        raise ValueError("insufficient tail samples: run ends before t_min")
    vel = traj.velocities()

    tail = traj.times >= (1.0 - v_tail_fraction) * T
    if np.count_nonzero(tail) < 2:
        raise ValueError("insufficient tail samples for v_plus")
    v_plus = vel[tail].mean(axis=0)

    post = traj.times >= t_min
    if np.count_nonzero(post) < 2:
        raise ValueError("insufficient samples past t_min")
    a_plus = np.empty(3)
    drift = traj.q[post] - np.outer(traj.times[post], v_plus)
    for axis in range(3):
        a_plus[axis] = np.polyfit(traj.times[post], drift[:, axis], 1)[1]

    r = np.linalg.norm(vel - v_plus, axis=1)
    qdot_residual = float(np.sqrt(np.mean(r[tail] ** 2)))
    upper = max(2.0 * t_min, fit_upper_fraction * T)
    window = post & (traj.times <= upper) & (r > 10.0 * r[-1]) & (r > 0)
    qdot_exponent = (_loglog_slope(traj.times[window], r[window])
                     if np.count_nonzero(window) >= 8 else None)

    z_exponent = None
    if traj.sample_times.size:
        zmask = (traj.sample_times >= t_min) & (traj.z_norms > 0)
        if np.count_nonzero(zmask) >= 4:
            z_exponent = _loglog_slope(traj.sample_times[zmask],
                                       traj.z_norms[zmask])

    return ScatteringData(v_plus=v_plus, a_plus=a_plus,
                          qdot_exponent=qdot_exponent, z_exponent=z_exponent,
                          qdot_residual=qdot_residual)
