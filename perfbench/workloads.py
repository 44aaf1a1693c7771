"""The benchmark's three workloads.

Each workload is built from the same six pieces:

* ``setup(seed)`` builds the inputs from the seed alone;
* ``run_round(inputs, out_dir)`` is the timed main phase;
* ``operations(inputs, result)`` gives (attempted, failed) for one round;
* ``extras(inputs, result, out_dir)`` gives what the tracer cannot see;
* ``digest(result)`` gives bytes that a rerun of the round reproduces;
* ``check(inputs, result, out_dir)`` compares the outputs with independent
  computations or properties of the method.

All calls into the package go through module attributes, so a tracer that
replaces a module's functions sees them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from dirac_soliton import (
    coupled_dynamics,
    experiments,
    field_grid,
    linearized_spectral,
    soliton_manifold,
    symplectic_geometry,
)
from dirac_soliton.phase_space import PhaseState
from dirac_soliton.soliton_manifold import SolitonParams
from dirac_soliton.spinor_algebra import ChargeDensity

RHO = ChargeDensity(amplitude=1.0, sigma=1.0, mass=1.0)
BOX = 20.0
DT = 0.02


@dataclass(frozen=True)
class Check:
    value: float
    bound: float
    ok: bool


def _at_most(checks, name, value, bound):
    value = float(value)
    checks[name] = Check(value, bound, bool(value <= bound))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, stream])


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def _relative_gap(a, b) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# evolve_n64: an exact traveling soliton under the full nonlinear flow.
# ---------------------------------------------------------------------------

EVOLVE_SPEED = 0.3


@dataclass(frozen=True)
class EvolveInputs:
    grid: field_grid.GridSpec
    b: np.ndarray
    v: np.ndarray
    n_steps: int
    sample_every: float
    initial: PhaseState

    @property
    def t_final(self) -> float:
        return self.n_steps * DT

    @property
    def snapshot_times(self) -> np.ndarray:
        stride = int(round(self.sample_every / DT))
        return np.arange(0, self.n_steps + 1, stride) * DT


def evolve_setup(seed: int, n: int = 64, n_steps: int = 100,
                 sample_every: float = 0.5) -> EvolveInputs:
    """The seed picks the direction of v (|v| = 0.3) and the base point."""
    rng = _rng(seed, 1)
    direction = rng.standard_normal(3)
    v = EVOLVE_SPEED * direction / np.linalg.norm(direction)
    b = rng.uniform(-1.0, 1.0, 3)
    grid = field_grid.GridSpec(BOX, n)
    initial = soliton_manifold.soliton_state(SolitonParams(b, v), RHO, grid)
    return EvolveInputs(grid, b, v, n_steps, sample_every, initial)


def evolve_round(inp: EvolveInputs,
                 out_dir: Path) -> coupled_dynamics.Trajectory:
    config = coupled_dynamics.SimulationConfig(
        dt=DT, t_final=inp.t_final, track_modulation=False,
        sample_every=inp.sample_every, field_stride=1)
    traj = coupled_dynamics.simulate(inp.initial, RHO, config)
    experiments.write_particle_csv(out_dir / "particle.csv", traj, DT)
    experiments.write_snapshots(out_dir, traj)
    return traj


def evolve_operations(inp, traj):
    return inp.n_steps, 0


def evolve_extras(inp, traj, out_dir):
    return {"phi_attempted": 0, "phi_kept": 0, "n_omega": 0,
            "output_bytes": _output_bytes(out_dir)}


def evolve_digest(traj) -> str:
    return _digest(traj.q, traj.p, traj.final_state.psi.data)


def evolve_check(inp: EvolveInputs, traj, out_dir: Path) -> dict:
    checks: dict = {}
    grid = inp.grid

    # the closed-form motion q(t) = b + v t, qdot = v
    exact_q = inp.b + np.outer(traj.times, inp.v)
    _at_most(checks, "motion.q", np.max(np.abs(traj.q - exact_q)), 5e-5)
    _at_most(checks, "motion.qdot",
             np.max(np.abs(traj.velocities() - inp.v)), 5e-5)
    _at_most(checks, "motion.end_time",
             abs(traj.times[-1] - inp.t_final), 1e-12)

    # the final field is the soliton translated to b + v T
    def exact(t):
        params = SolitonParams(inp.b + inp.v * t, inp.v)
        return soliton_manifold.soliton_state(params, RHO, grid).psi

    final = traj.final_state.psi.to_fourier()
    want = exact(inp.t_final)
    _at_most(checks, "final_field.relative_l2",
             (final - want).norm() / want.norm(), 1e-3)

    # energy conservation, and the k-space energy against the
    # position-space real-pair energy at t = 0 and t = T
    h0 = coupled_dynamics.hamiltonian(inp.initial, RHO)
    h1 = coupled_dynamics.hamiltonian(traj.final_state, RHO)
    _at_most(checks, "energy.drift", _relative_gap(h1, h0), 1e-6)
    for label, state, h in (("t0", inp.initial, h0),
                            ("T", traj.final_state, h1)):
        split = coupled_dynamics.hamiltonian_real_split(state, RHO)
        _at_most(checks, f"energy.real_split_gap.{label}",
                 _relative_gap(split, h), 1e-10)

    # the snapshot files: one per sample time, raw <c16 with layout
    # (N, N, N, 4); Parseval against the in-memory sample, and the field
    # against the exact soliton at that time
    times = inp.snapshot_times
    files = sorted(out_dir.glob("field_*.raw"))
    _at_most(checks, "snapshots.missing", len(times) - len(files), 0)
    _at_most(checks, "snapshots.times",
             (np.max(np.abs(traj.field_times - times))
              if traj.field_times.shape == times.shape else np.inf), 1e-12)
    parseval, shape_err = 0.0, 0.0
    n = grid.N
    for path, t, sample in zip(files, times, traj.fields):
        raw = np.fromfile(path, dtype="<c16")
        if raw.size != 4 * n**3:
            parseval = shape_err = np.inf
            continue
        data = raw.reshape(n, n, n, 4)
        pos_norm2 = grid.h**3 * float(np.sum(np.abs(data) ** 2))
        k_norm2 = sample.to_fourier().norm() ** 2
        parseval = max(parseval, _relative_gap(pos_norm2, k_norm2))
        ref = exact(t).to_position().data.transpose(1, 2, 3, 0)
        shape_err = max(shape_err, float(
            np.linalg.norm(data - ref) / np.linalg.norm(ref)))
    _at_most(checks, "snapshots.parseval", parseval, 1e-12)
    _at_most(checks, "snapshots.relative_l2", shape_err, 1e-3)
    return checks


# ---------------------------------------------------------------------------
# scatter_n32: a perturbed soliton through run_scattering.
# ---------------------------------------------------------------------------

SCATTER_EPSILON = 0.05
SCATTER_VELOCITY = (0.3, 0.0, 0.0)
# perturbed_soliton centres its Gaussian bump (width 1.2) within
# +-1.5 of b on each axis; its support reaches |c| + 4 * width.
PERTURBATION_REACH = 1.5 * np.sqrt(3.0) + 4.0 * 1.2
# Perturbation seeds (0-39 scanned) whose 32 projections all take the same
# Newton iterations (5 each after the exact start). Other draws take 4 or 6
# per projection, which moves run_s by up to 30% between benchmark seeds
# and would hide any smaller change.
PERTURBATION_SEEDS = (0, 4, 8, 10, 13, 15, 17, 22, 29, 30, 31, 32, 33, 35,
                      38)


@dataclass(frozen=True)
class ScatterInputs:
    config: experiments.RunConfig
    initial: PhaseState
    shift: np.ndarray        # translation for the covariance check

    @property
    def n_samples(self) -> int:
        stride = int(round(self.config.sample_every / self.config.dt))
        return int(round(self.config.t_final / self.config.dt)) // stride + 1


def scatter_setup(seed: int, n: int = 32, t_final: float = 2.5,
                  sample_every: float = 0.1,
                  snapshots: int = 5) -> ScatterInputs:
    """The seed picks the perturbation (through the perturbation seed the
    program takes) and the translation of the covariance check."""
    rng = _rng(seed, 2)
    perturbation_seed = int(rng.choice(PERTURBATION_SEEDS))
    shift = rng.uniform(-1.0, 1.0, 3)
    config = experiments.RunConfig(
        kind="scatter", grid_L=BOX, grid_N=n, dt=DT, t_final=t_final,
        sample_every=sample_every, snapshots=snapshots, initial="perturbed",
        v=SCATTER_VELOCITY, epsilon=SCATTER_EPSILON, seed=perturbation_seed)
    # radiation at speed <= 1 re-enters the periodic box after about
    # L/2 minus the perturbation's reach
    if t_final >= 0.5 * BOX - PERTURBATION_REACH:
        raise ValueError("T reaches the wrap-around time")
    params = SolitonParams(config.b_vec, config.v_vec)
    initial = experiments.perturbed_soliton(params, RHO, config.grid,
                                            config.epsilon,
                                            seed=perturbation_seed)
    return ScatterInputs(config, initial, shift)


def scatter_round(inp: ScatterInputs, out_dir: Path):
    return experiments.run_scattering(replace(inp.config,
                                              out_dir=str(out_dir)))


def _phi_attempts(inp: ScatterInputs, report) -> int:
    """run_scattering estimates phi_+ at every snapshot, and once more at
    T unless the last kept estimate is already at T."""
    T = float(report.trajectory.times[-1])
    again = (report.phi_times.size == 0
             or report.phi_times[-1] < T - 0.5 * inp.config.dt)
    return len(report.trajectory.fields) + int(again)


def scatter_operations(inp, report):
    traj = report.trajectory
    lost = int(traj.tracking_failed_at is not None)
    phi = _phi_attempts(inp, report)
    attempted = traj.sample_times.size + lost + phi
    return attempted, lost + phi - report.phi_times.size


def scatter_extras(inp, report, out_dir):
    return {"phi_attempted": _phi_attempts(inp, report),
            "phi_kept": int(report.phi_times.size), "n_omega": 0,
            "output_bytes": _output_bytes(out_dir)}


def scatter_digest(report) -> str:
    traj = report.trajectory
    return _digest(traj.q, traj.p, traj.sigma_b, traj.sigma_v, traj.z_norms,
                   report.phi_cauchy, traj.final_state.psi.data)


def scatter_check(inp: ScatterInputs, report, out_dir: Path) -> dict:
    checks: dict = {}
    traj = report.trajectory
    cfg = inp.config
    eps = cfg.epsilon
    T = float(traj.times[-1])

    # every sample was tracked and every phi_+ estimate kept
    tracked = traj.sample_times.size if traj.tracking_failed_at is None \
        else -1
    _at_most(checks, "projection.untracked_samples",
             inp.n_samples - tracked, 0)
    _at_most(checks, "phi_plus.dropped",
             _phi_attempts(inp, report) - report.phi_times.size, 0)

    h0 = coupled_dynamics.hamiltonian(inp.initial, RHO)
    h1 = coupled_dynamics.hamiltonian(traj.final_state, RHO)
    _at_most(checks, "energy.drift", _relative_gap(h1, h0), 1e-4)

    # the state stays in the O(epsilon) tube around the manifold
    if traj.sigma_v.size:
        dv = float(np.max(np.linalg.norm(traj.sigma_v - cfg.v_vec, axis=1)))
        z = float(np.max(traj.z_norms))
    else:
        dv = z = np.inf
    _at_most(checks, "tube.velocity", dv, 0.1 * eps)
    _at_most(checks, "tube.transversal", z, 3.0 * eps)

    # Z = Y(T) - S(sigma(T)) is symplectically orthogonal to the tangent
    # space, by the generic form omega() on translated tangent states
    if traj.sample_times.size and abs(traj.sample_times[-1] - T) < 1e-9:
        sigma = SolitonParams(traj.sigma_b[-1], traj.sigma_v[-1])
        Y = traj.final_state.to_fourier()
        Z = Y - soliton_manifold.soliton_state(sigma, RHO, Y.grid)
        tb = soliton_manifold.tangent_basis(sigma.v, RHO, Y.grid)
        rows = [symplectic_geometry.omega(Z, tb.phase_state(j, b=sigma.b))
                for j in range(6)]
        ortho = float(np.max(np.abs(rows)))
        scale = max(1.0, Y.psi.norm())

        # translation covariance: projecting Y shifted by a gives b + a
        a = inp.shift
        moved = PhaseState(field_grid.shift_field(Y.psi, a), Y.q + a, Y.p)
        res = symplectic_geometry.project_to_manifold(moved, RHO)
        cov_b = float(np.max(np.abs(res.params.b - (sigma.b + a))))
        cov_v = float(np.max(np.abs(res.params.v - sigma.v)))
    else:
        ortho = cov_b = cov_v = np.inf
        scale = 1.0
    # the projection stops at residual 1e-10 * max(1, ||psi||); the two
    # evaluation paths differ by rounding only
    _at_most(checks, "omega.orthogonality", ortho, 1e-10 * scale + 1e-12)
    _at_most(checks, "covariance.b", cov_b, 1e-8)
    _at_most(checks, "covariance.v", cov_v, 1e-8)
    return checks


# ---------------------------------------------------------------------------
# spectral_sweep: the matrix layer alone.
# ---------------------------------------------------------------------------

SPECTRAL_SPEED = 0.6
OMEGA_MAX = 3.0
EXCLUDE = 0.05


@dataclass(frozen=True)
class SpectralInputs:
    v: np.ndarray
    omegas: np.ndarray
    mats: linearized_spectral.SpectralMatrixSet


@dataclass
class SpectralResult:
    F: np.ndarray            # (n, 3) diagonal of F(omega)
    det_direct: np.ndarray
    det_factorized: np.ndarray
    blocks: list
    curvature: linearized_spectral.FCurvatureChecks


def spectral_setup(seed: int, n_omega: int = 121) -> SpectralInputs:
    """The seed picks the direction of v (|v| = 0.6) and jitters every
    omega of the uniform grid on [-3, 3] by up to a quarter spacing."""
    rng = _rng(seed, 3)
    direction = rng.standard_normal(3)
    v = SPECTRAL_SPEED * direction / np.linalg.norm(direction)
    omegas = np.linspace(-OMEGA_MAX, OMEGA_MAX, n_omega)
    spacing = 2.0 * OMEGA_MAX / (n_omega - 1)
    omegas = omegas + 0.25 * spacing * rng.uniform(-1.0, 1.0, n_omega)
    mats = linearized_spectral.spectral_matrices(v, RHO)
    return SpectralInputs(v, omegas, mats)


def spectral_round(inp: SpectralInputs, out_dir: Path) -> SpectralResult:
    mats = inp.mats
    n = inp.omegas.size
    F = np.empty((n, 3), dtype=complex)
    dd = np.empty(n, dtype=complex)
    df = np.empty(n, dtype=complex)
    blocks = []
    for i, w in enumerate(inp.omegas):
        F[i] = mats.F(w)
        dd[i] = mats.det_M_direct(w)
        df[i] = mats.det_M_factorized(w)
        blocks.append(mats.minv_blocks(w))
    curvature = linearized_spectral.f_jj_checks(mats)
    return SpectralResult(F, dd, df, blocks, curvature)


def spectral_operations(inp, res):
    finite = (np.all(np.isfinite(res.F), axis=1) & np.isfinite(res.det_direct)
              & np.isfinite(res.det_factorized))
    return inp.omegas.size, int(np.count_nonzero(~finite))


def spectral_extras(inp, res, out_dir):
    return {"phi_attempted": 0, "phi_kept": 0, "output_bytes": 0,
            "n_omega": int(inp.omegas.size)}


def spectral_digest(res: SpectralResult) -> str:
    return _digest(res.F, res.det_direct, res.det_factorized,
                   res.curvature.curvature_fd,
                   *[np.stack([b.M11, b.M12, b.M21, b.M22])
                     for b in res.blocks])


def spectral_check(inp: SpectralInputs, res: SpectralResult,
                   out_dir: Path) -> dict:
    checks: dict = {}
    mats = inp.mats

    # the LU determinant of the pencil against the factorized product
    scale = np.maximum(np.abs(res.det_direct), np.abs(res.det_factorized))
    gap = np.abs(res.det_direct - res.det_factorized) / np.where(
        scale > 0, scale, 1.0)
    _at_most(checks, "det.factorization_gap", np.max(gap), 1e-10)

    # the scaled inverse blocks invert the pencil rebuilt from F
    eye = np.eye(3)
    worst = 0.0
    for w, F, blk in zip(inp.omegas, res.F, res.blocks):
        M = np.block([[1j * w * eye, -mats.Bv],
                      [-np.diag(F), 1j * w * eye]])
        worst = max(worst, float(np.max(np.abs(blk.inverse() @ M
                                               - np.eye(6)))))
    _at_most(checks, "inverse.identity", worst, 1e-10)

    # L from the E1 reduction against the 3D trapezoid of matrix_L
    L_trap = linearized_spectral.matrix_L(mats.speed, RHO).value
    _at_most(checks, "L.e1_vs_trapezoid",
             np.max(np.abs(mats.L - L_trap)) / np.max(np.abs(L_trap)), 1e-10)

    # the finite-difference curvature F''(0) against 2 K_jj
    _at_most(checks, "F.curvature_vs_2K",
             res.curvature.max_relative_curvature_error(), 1e-5)

    # M(i omega) stays invertible away from the root at 0
    outside = np.abs(inp.omegas) >= EXCLUDE
    min_det = float(np.min(np.abs(res.det_factorized[outside])))
    checks["det.min_outside_exclusion"] = Check(min_det, 0.0, min_det > 0.0)
    return checks


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run_round: Callable
    operations: Callable
    extras: Callable
    digest: Callable
    check: Callable


WORKLOADS = {
    w.name: w for w in (
        Workload("evolve_n64", evolve_setup, evolve_round,
                 evolve_operations, evolve_extras, evolve_digest,
                 evolve_check),
        Workload("scatter_n32", scatter_setup,
                 scatter_round, scatter_operations, scatter_extras,
                 scatter_digest, scatter_check),
        Workload("spectral_sweep", spectral_setup,
                 spectral_round, spectral_operations, spectral_extras,
                 spectral_digest, spectral_check),
    )
}
