"""Time integration of the coupled field-particle system.

The field and the particle exchange momentum through the smeared charge:
    i psi_t = (-i alpha.grad + beta m) psi + rho(. - q)
    qdot    = p / sqrt(1 + p^2)
    pdot    = Re <psi, grad rho(. - q)>
One step is Strang splitting: half a kick of the particle with the field
frozen, an exact free flight of the field with the source integral taken
by the midpoint rule, half a kick again. The field update is
W0(dt) psi - i dt W0(dt/2) rho_hat e^{i k.q} e_0: one full flight of the
field, and a flight of the source that forms only its three nonzero
components, both from cached multipliers. Everything runs in k-space; the
moving source never touches the grid as an interpolation, only as the
phase e^{i k.q} on rho_hat, and since the Gaussian separates, the source
is three 1-D factors (ChargeDensity.fourier_factors) and the force and
the energy's coupling term are 1-D contractions of the field with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field

import numpy as np

from .field_grid import (
    GridSpec,
    SeparableSource,
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


def _source_pairings(psi0_hat: np.ndarray, grid: GridSpec,
                     rho: ChargeDensity, q) -> np.ndarray:
    """Sums over the k-grid of conj(psi0_hat) rho_hat e^{i k.q} weighted by
    1, k1, k2 and k3, times dk^3. The source is a product of three 1-D
    factors (rho.fourier_factors), so the sums run one axis at a time: one
    matrix product over N^3 for the weights f3 and k3 f3, taken as
    conj(psi0_hat . conj(g)) so that no conjugated N^3 copy is made, then
    products over N^2 and N."""
    f1, f2, f3 = rho.fourier_factors(grid.k1d, q)
    k, N = grid.k1d, grid.N
    last = psi0_hat.reshape(N * N, N) @ np.conj(np.stack([f3, k * f3], 1))
    last = np.conj(last).reshape(N, N, 2)
    middle = last[:, :, 0] @ np.stack([f2, k * f2], 1)
    return np.array([f1 @ middle[:, 0], (k * f1) @ middle[:, 0],
                     f1 @ middle[:, 1], f1 @ (last[:, :, 1] @ f2)]) \
        * grid.dk**3


def force(psi_hat_data: np.ndarray, grid: GridSpec, rho: ChargeDensity,
          q) -> np.ndarray:
    """Re <psi, grad rho(. - q)>, evaluated by Parseval in k-space.

    Only the first spinor component couples; grad rho(. - q) transforms
    to -i k e^{i k.q} rho_hat(k), so the force is
    Im sum_k k conj(psi0_hat) rho_hat e^{i k.q} dk^3.
    """
    return _source_pairings(psi_hat_data[0], grid, rho, q)[1:].imag


def _half_kick(q, p, psi_hat_data, grid, rho, h):
    """Midpoint step of the particle ODE with the field frozen."""
    q_mid = q + 0.5 * h * velocity_from_momentum(p)
    p_mid = p + 0.5 * h * force(psi_hat_data, grid, rho, q)
    q_new = q + h * velocity_from_momentum(p_mid)
    p_new = p + h * force(psi_hat_data, grid, rho, q_mid)
    return q_new, p_new


def _field_step(psi: SpinorField, rho: ChargeDensity, q_mid,
                dt: float) -> SpinorField:
    """Exact free flight of the Fourier-space field psi plus the Duhamel
    source term at the midpoint:
        psi <- W0(dt) psi - i dt W0(dt/2) rho_hat e^{i k.q_mid} e_0.
    The field makes one full flight at dt. The source, with -i dt folded
    into its first factor, flies at dt/2 as a SeparableSource, whose three
    nonzero components are added in place into the field's fresh array."""
    f1, f2, f3 = rho.fourier_factors(psi.grid.k1d, q_mid)
    out = free_propagate(psi, dt, rho.mass)
    return free_propagate(SeparableSource(psi.grid, (-1j * dt * f1, f2, f3)),
                          0.5 * dt, rho.mass, add_to=out)


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
    coupling = float(_source_pairings(d[0], grid, rho, Yk.q)[0].real)
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


def sample_stride(dt: float, sample_every: float) -> int:
    """The sample interval in whole steps, rounded, at least one."""
    return max(1, int(round(sample_every / dt)))


@dataclass(frozen=True)
class SimulationConfig:
    """Integrator settings. t_final must be a whole multiple of dt. The
    sample clock is not: it ticks every sample_stride(dt, sample_every)
    steps, and each sample's actual time is recorded in
    Trajectory.sample_times."""

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
        if self.field_stride < 0:
            raise ValueError("field_stride must be >= 0")


def _transversal_norm(Z: PhaseState, nu: float) -> float:
    return (weighted_norm(Z.psi, -nu) + float(np.linalg.norm(Z.q))
            + float(np.linalg.norm(Z.p)))


def simulate(initial: PhaseState, rho: ChargeDensity,
             config: SimulationConfig, on_snapshot=None) -> Trajectory:
    """Integrate to t_final recording the particle path at every step.

    With track_modulation the state is projected onto the solitary
    manifold every sample_every time units. Each projection is
    warm-started from the last fit advanced along the manifold's own
    flow, (b + v dt_s, v), where dt_s = stride * dt is the actual sample
    interval; the first starts from config.sigma_guess. A projection
    failure is recorded and tracking stops, the integration itself
    continues. At every sample, t = 0 included, the field must be
    finite, or IntegratorError names the sample time. Every
    field_stride-th sample, t = 0 included, stores the field in position
    space; right after, on_snapshot(t, Y), when given, is called with the
    Fourier-space state Y the snapshot was taken from.
    """
    n_steps = int(round(config.t_final / config.dt))
    stride = sample_stride(config.dt, config.sample_every)
    dt_s = stride * config.dt

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
        if not np.all(np.isfinite(state.psi.data)):
            raise IntegratorError(f"field psi lost finiteness at t={t:g}")
        if tracking:
            try:
                res = project_to_manifold(state, rho, sigma_guess=guess)
            except ProjectionError:
                tracking = False
                failed_at = t
            else:
                guess = SolitonParams(res.params.b + res.params.v * dt_s,
                                      res.params.v)
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
            if on_snapshot is not None:
                on_snapshot(t, state)

    times[0], qs[0], ps[0] = 0.0, Y.q, Y.p
    sample(0, 0.0, Y)
    for i in range(1, n_steps + 1):
        Y = step(Y, config.dt, rho)
        t = i * config.dt
        times[i], qs[i], ps[i] = t, Y.q, Y.p
        if i % stride == 0:
            sample(i, t, Y)

    return Trajectory(
        times=times, q=qs, p=ps, final_state=Y,
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
    qdot_residual: float


V_TAIL_FRACTION = 0.2      # v_plus averages this last fraction of the run
FIT_UPPER_FRACTION = 0.05  # the qdot fit window ends by this fraction of T


def _loglog_slope(t, y):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size > 64:
        # resample to 64 points of a geometric time grid so every decade
        # carries the same weight in the fit
        targets = np.geomspace(t[0], t[-1], 64)
        idx = np.unique(np.searchsorted(t, targets).clip(0, t.size - 1))
        t, y = t[idx], y[idx]
    A = np.vstack([np.log(t), np.ones_like(t)]).T
    sol, *_ = np.linalg.lstsq(A, np.log(y), rcond=None)
    return float(sol[0])


def extract_scattering_data(traj: Trajectory,
                            t_min: float = 5.0) -> ScatteringData:
    """Asymptotic velocity, intercept, and the qdot decay exponent.

    v_plus averages qdot over the last V_TAIL_FRACTION of the run (where
    the O(t^{-2}) correction is below the sampling noise); the exponent of
    |qdot - v_plus| is fitted on the early window [t_min, max(2 t_min,
    FIT_UPPER_FRACTION * T)] where the signal still dominates the error of
    the v_plus estimate, dropping samples within 10x of the leftover at
    the final time (None with fewer than 8 samples left).
    """
    T = float(traj.times[-1])
    if T <= t_min:
        raise ValueError("insufficient tail samples: run ends before t_min")
    vel = traj.velocities()

    tail = traj.times >= (1.0 - V_TAIL_FRACTION) * T
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
    upper = max(2.0 * t_min, FIT_UPPER_FRACTION * T)
    window = post & (traj.times <= upper) & (r > 10.0 * r[-1]) & (r > 0)
    qdot_exponent = (_loglog_slope(traj.times[window], r[window])
                     if np.count_nonzero(window) >= 8 else None)

    return ScatteringData(v_plus=v_plus, a_plus=a_plus,
                          qdot_exponent=qdot_exponent,
                          qdot_residual=qdot_residual)
