"""Experiment drivers and run persistence.

Three reproducible experiments on top of the integrator and the projection
machinery, plus the shared pieces of harness:

* free weighted decay of a Gaussian packet under the moving-frame
  propagator, with a power-law fit of the (1+t)^{-3/2} local-energy rate;
* persistence of the exact soliton under the full nonlinear flow;
* scattering of a perturbed soliton: asymptotic velocity extraction,
  transversal decay fit, and the Cauchy-sequence check for the outgoing
  free field.

write_run_directory persists every run to a directory with a JSON manifest
that holds the full configuration and seeds; re-running a manifest
reproduces particle.csv bit for bit (the integrator and its reductions are
single-threaded deterministic numpy code).
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .coupled_dynamics import (
    SimulationConfig,
    Trajectory,
    extract_scattering_data,
    is_whole_multiple,
    sample_stride,
)
from .coupled_dynamics import simulate as _simulate
from .field_grid import (
    GridSpec,
    SpinorField,
    free_propagate,
    gaussian_packet,
    moving_frame_propagate,
    weighted_norm,
)
from .phase_space import PhaseState
from .soliton_manifold import SolitonParams, soliton_state
from .spinor_algebra import ChargeDensity
from .symplectic_geometry import (
    ProjectionError,
    project_to_manifold,
    symplectic_orthogonalize,
)

EXPERIMENT_KINDS = ("simulate", "decay", "soliton", "scatter", "project",
                    "spectral")
INITIAL_KINDS = ("soliton", "perturbed", "packet")

SNAPSHOT_FORMAT = {
    "dtype": "complex128, little endian (interleaved float64 re/im pairs)",
    "shape": "(N, N, N, 4), C order: row-major grid, spinor index fastest",
    "space": "position",
}

# perturbed_soliton's bump: Gaussian width, and the largest offset of its
# center from b along each axis
_BUMP_WIDTH = 1.2
_BUMP_OFFSET = 1.5

_log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one run, serialized verbatim into the
    manifest. Vector-valued entries are stored as plain tuples so the
    dataclass stays hashable and JSON-friendly."""

    kind: str = "decay"
    grid_L: float = 20.0
    grid_N: int = 32
    amplitude: float = 1.0
    sigma: float = 1.0
    mass: float = 1.0
    nu: float = 3.0
    dt: float = 0.02
    t_final: float = 10.0
    sample_every: float = 0.25
    snapshots: int = 4
    initial: str = "soliton"
    v: tuple = (0.0, 0.0, 0.0)
    b: tuple = (0.0, 0.0, 0.0)
    epsilon: float = 0.0
    packet_width: float = 1.5
    packet_center: tuple = (0.0, 0.0, 0.0)
    packet_amplitude: float = 1.0
    window: tuple | None = None
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; "
                              f"expected one of {EXPERIMENT_KINDS}")
        if self.initial not in INITIAL_KINDS:
            raise ConfigError(f"unknown initial-data type {self.initial!r}; "
                              f"expected one of {INITIAL_KINDS}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, str) or value is None:
                continue
            if not np.all(np.isfinite(np.asarray(value, dtype=float))):
                raise ConfigError(f"{f.name} = {value!r} is not finite")
        if self.grid_L <= 0 or self.grid_N < 2 or self.grid_N % 2:
            raise ConfigError("grid needs L > 0 and even N >= 2")
        if min(self.amplitude, self.sigma, self.mass) <= 0:
            raise ConfigError("charge parameters must be positive")
        if self.dt <= 0 or self.t_final <= 0:
            raise ConfigError("dt and T must be positive")
        if not is_whole_multiple(self.t_final, self.dt):
            raise ConfigError(f"T = {self.t_final} is not a whole multiple "
                              f"of dt = {self.dt}")
        if self.sample_every < self.dt:
            raise ConfigError("sample_every must be at least dt")
        if self.nu < 0:
            raise ConfigError("nu must be non-negative")
        if self.epsilon < 0:
            raise ConfigError("epsilon must be non-negative")
        if self.snapshots < 0:
            raise ConfigError("snapshots must be non-negative")
        v = np.asarray(self.v, dtype=float)
        if v.shape != (3,) or float(v @ v) >= 1.0:
            raise ConfigError("v must be a 3-vector with |v| < 1")
        if np.asarray(self.b, dtype=float).shape != (3,):
            raise ConfigError("b must be a 3-vector")
        if self.window is not None:
            lo, hi = self.window
            if not 0 < lo < hi:
                raise ConfigError("fit window needs 0 < t_min < t_max")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")

    # -- derived objects ---------------------------------------------------

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.grid_L, self.grid_N)

    @property
    def rho(self) -> ChargeDensity:
        return ChargeDensity(self.amplitude, self.sigma, self.mass)

    @property
    def v_vec(self) -> np.ndarray:
        return np.asarray(self.v, dtype=float)

    @property
    def b_vec(self) -> np.ndarray:
        return np.asarray(self.b, dtype=float)

    def as_dict(self) -> dict:
        """The fields as the manifest's JSON values: tuples become lists."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}


@dataclass(frozen=True)
class FitResult:
    """Least-squares power law value ~ e^intercept * t^exponent over the
    window; residual is the rms misfit in log space."""

    exponent: float
    intercept: float
    window: tuple
    residual: float


def fit_power_law(times, values, window=None) -> FitResult:
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if window is None:
        window = (float(t[0]), float(t[-1]))
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("fit window must have t_min < t_max")
    mask = (t >= lo) & (t <= hi)
    if np.count_nonzero(mask) < 10:
        raise ValueError(
            f"fit window [{lo}, {hi}] holds {np.count_nonzero(mask)} "
            "samples; need at least 10")
    if np.any(t[mask] <= 0) or np.any(y[mask] <= 0):
        raise ValueError("power-law fit needs positive times and values")
    lt, ly = np.log(t[mask]), np.log(y[mask])
    A = np.vstack([lt, np.ones_like(lt)]).T
    sol, *_ = np.linalg.lstsq(A, ly, rcond=None)
    rms = float(np.sqrt(np.mean((ly - A @ sol) ** 2)))
    return FitResult(float(sol[0]), float(sol[1]), (lo, hi), rms)


def _report_json(report) -> dict:
    """A report's fields but its trajectory as JSON values: arrays become
    lists of floats and a FitResult its dict."""
    def value(x):
        if isinstance(x, np.ndarray):
            return list(map(float, x))
        return asdict(x) if isinstance(x, FitResult) else x
    return {f.name: value(getattr(report, f.name)) for f in fields(report)
            if f.name != "trajectory"}


# ---------------------------------------------------------------------------
# Free weighted decay.
# ---------------------------------------------------------------------------

def decay_validity_time(config: RunConfig) -> float:
    """Last usable time before the periodic images contaminate the
    weighted norm: the packet front travels at speed <= 1, so wrap-around
    reaches the observation region near t = L/2 - R_support."""
    support = float(np.linalg.norm(config.packet_center)) \
        + 4.0 * config.packet_width
    return 0.5 * config.grid_L - support


def scattering_validity_time(config: RunConfig) -> float:
    """Last time before radiation from perturbed_soliton's bump wraps
    around the periodic box: L/2 minus the bump's reach |b| + sqrt(3)
    * _BUMP_OFFSET + 4 * _BUMP_WIDTH. Past it the transversal and phi_+ fits
    measure recurrence."""
    reach = float(np.linalg.norm(config.b)) + np.sqrt(3.0) * _BUMP_OFFSET \
        + 4.0 * _BUMP_WIDTH
    return 0.5 * config.grid_L - reach


def free_decay_series(config: RunConfig, n_samples: int = 41):
    """(t_i, ||W_v(t_i) Phi||_{-nu}) for the packet of config, sampled
    uniformly across the fit window (the propagator is exact per sample,
    no stepping error)."""
    lo, hi = config.window if config.window is not None else (5.0, 25.0)
    valid = decay_validity_time(config)
    if hi > valid:
        raise ConfigError(
            f"fit window reaches t = {hi} but the box only supports "
            f"t <= {valid:.2f} (= L/2 - packet support); enlarge L")
    grid = config.grid
    phi = gaussian_packet(grid, width=config.packet_width,
                          center=config.packet_center,
                          amplitude=config.packet_amplitude).to_fourier()
    times = np.linspace(lo, hi, n_samples)
    norms = np.array([
        weighted_norm(moving_frame_propagate(phi, t, config.v_vec,
                                             config.mass), -config.nu)
        for t in times])
    return times, norms


def run_free_decay(config: RunConfig) -> FitResult:
    times, norms = free_decay_series(config)
    fit = fit_power_law(times, norms, (float(times[0]), float(times[-1])))
    write_run_directory(config, {"fit": asdict(fit)}, series=(
        "decay.csv", ("t", "weighted_norm"), np.column_stack([times, norms])))
    return fit


# ---------------------------------------------------------------------------
# Soliton persistence.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PersistenceReport:
    velocity_drift: float          # max |qdot(t) - v| over the run
    field_error_times: np.ndarray
    field_errors: np.ndarray       # comoving relative field errors
    max_field_error: float
    max_z_norm: float
    trajectory: Trajectory


def run_soliton_persistence(config: RunConfig) -> PersistenceReport:
    """The exact soliton under the coupled flow; at each snapshot, the
    field error ||psi - psi_v(. - q)||_0 / ||psi(0)||_0 of simulate's state."""
    grid, rho = config.grid, config.rho
    params = SolitonParams(config.b_vec, config.v_vec)
    Y0 = soliton_state(params, rho, grid)
    ref_norm = Y0.psi.norm()
    errors = []

    def field_error(t, Y):
        moved = soliton_state(SolitonParams(Y.q, config.v_vec), rho, grid)
        errors.append((Y.psi - moved.psi).norm() / ref_norm)

    traj = _simulate(Y0, rho, simulation_config(config, sigma_guess=params),
                     field_error)
    drift = float(np.max(np.linalg.norm(
        traj.velocities() - config.v_vec, axis=1)))
    max_z = float(np.max(traj.z_norms)) if traj.z_norms.size else 0.0

    report = PersistenceReport(drift, traj.field_times, np.asarray(errors),
                               max(errors, default=0.0), max_z, traj)
    write_run_directory(config, _report_json(report), trajectory=traj)
    return report


# ---------------------------------------------------------------------------
# Scattering.
# ---------------------------------------------------------------------------

def perturbed_soliton(params: SolitonParams, rho: ChargeDensity,
                      grid: GridSpec, epsilon: float,
                      seed: int = 0) -> PhaseState:
    """Soliton state plus the transversal perturbation family

        Z0 = epsilon * (Gaussian spinor bump, 0, dp),

    symplectically orthogonalized against the tangent space at (b, v) so
    the data starts in the transversal section."""
    rng = np.random.default_rng(seed)
    spinor = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    spinor /= np.linalg.norm(spinor)
    center = np.asarray(params.b, dtype=float) \
        + rng.uniform(-_BUMP_OFFSET, _BUMP_OFFSET, 3)
    bump = gaussian_packet(grid, width=_BUMP_WIDTH, center=center,
                           spinor=spinor, amplitude=epsilon).to_fourier()
    dp = epsilon * 0.4 * rng.standard_normal(3)
    Z0 = PhaseState(bump, np.zeros(3), dp)
    if epsilon > 0:
        Z0 = symplectic_orthogonalize(Z0, params.v, rho, b=params.b)
    return soliton_state(params, rho, grid) + Z0


@dataclass(frozen=True)
class ScatteringReport:
    v_plus: np.ndarray
    a_plus: np.ndarray
    captured: bool                     # modulation tracking survived
    tracking_failed_at: float | None
    qdot_exponent: float | None
    z_fit: FitResult | None
    z_fit_error: str | None            # why z_fit is None, when it is
    phi_times: np.ndarray              # outgoing-field estimate times
    phi_cauchy: np.ndarray             # ||phi_+(t_{i+1}) - phi_+(t_i)||_0
    remainder: float                   # outgoing-wave remainder at T
    trajectory: Trajectory
    validity_time: float               # scattering_validity_time
    phi_dropped: np.ndarray            # times whose phi_+ projection failed

    def summary(self) -> dict:
        """The JSON-ready report (report.json and the CLI output)."""
        return _report_json(self)


def _phi_plus_estimate(state: PhaseState, t: float,
                       rho: ChargeDensity) -> SpinorField | None:
    """W_0(-t) (psi - accompanying soliton field) of a Fourier-space state,
    the time-t estimate of phi_+; None when the state has left the tube."""
    try:
        # cold start from (q, v(p)) on purpose: the benchmark's tracer
        # counts the projections made without a guess as the phi_+ ones
        res = project_to_manifold(state, rho)
    except ProjectionError:
        return None
    return free_propagate(res.Z.psi, -t, rho.mass)


def run_scattering(config: RunConfig) -> ScatteringReport:
    """A perturbed soliton under the coupled flow, and its scattering data.
    phi_+ is estimated from simulate's state at each snapshot and, unless
    the last kept estimate is there, at T. Only the last estimate and the
    one nearest T/2 before it (the first of a tie) are held."""
    grid, rho = config.grid, config.rho
    valid = scattering_validity_time(config)
    if config.t_final > valid:
        _log.warning("T = %g runs past the wrap-around time %.2f (L/2 minus "
                     "the perturbation's reach); later fits see radiation "
                     "re-entering the periodic box", config.t_final, valid)
    params = SolitonParams(config.b_vec, config.v_vec)
    Y0 = perturbed_soliton(params, rho, grid, config.epsilon,
                           seed=config.seed)
    T = int(round(config.t_final / config.dt)) * config.dt  # traj.times[-1]
    phi_times, cauchy, dropped = [], [], []
    last = half = None      # (t, estimate)

    def estimate(t, Y):
        nonlocal last, half
        est = _phi_plus_estimate(Y, t, rho)
        if est is None:
            dropped.append(t)
            return
        if last is not None:
            cauchy.append((est - last[1]).norm())
            if half is None or abs(last[0] - T / 2) < abs(half[0] - T / 2):
                half = last
        phi_times.append(t)
        last = (t, est)

    traj = _simulate(Y0, rho, simulation_config(config, sigma_guess=params),
                     estimate)
    if not phi_times or phi_times[-1] < T - 0.5 * config.dt:
        estimate(T, traj.final_state)

    t_min = min(5.0, 0.4 * config.t_final)
    data = extract_scattering_data(traj, t_min=t_min)
    captured = traj.tracking_failed_at is None

    z_fit, z_fit_error = None, "the run took no samples"
    if traj.sample_times.size:
        window = config.window or (t_min, config.t_final)
        good = traj.z_norms > 0
        try:
            z_fit = fit_power_law(traj.sample_times[good],
                                  traj.z_norms[good], window)
            z_fit_error = None
        except ValueError as exc:
            z_fit_error = str(exc)
    if z_fit_error is not None:
        # a configured window that cannot be fit is a warning; a short
        # run's default window is recorded in the report only
        _log.log(logging.WARNING if config.window else logging.INFO,
                 "no transversal decay fit: %s", z_fit_error)

    remainder = float("nan")
    if half is not None and phi_times[-1] == T:
        # ||psi(T) - psi_{v+}(x - v+ T - a+) - W_0(T) phi_+^{(T/2)}||_0
        # with phi_+ taken from the snapshot nearest T/2
        asym = soliton_state(
            SolitonParams(data.v_plus * T + data.a_plus, data.v_plus),
            rho, grid)
        outgoing = free_propagate(half[1], T, rho.mass)
        remainder = (traj.final_state.psi - asym.psi - outgoing).norm()

    report = ScatteringReport(
        v_plus=data.v_plus, a_plus=data.a_plus, captured=captured,
        tracking_failed_at=traj.tracking_failed_at,
        qdot_exponent=data.qdot_exponent, z_fit=z_fit,
        z_fit_error=z_fit_error, phi_times=np.asarray(phi_times),
        phi_cauchy=np.asarray(cauchy), remainder=remainder, trajectory=traj,
        validity_time=valid, phi_dropped=np.asarray(dropped))
    write_run_directory(config, report.summary(), trajectory=traj)
    return report


def simulation_config(config: RunConfig, sigma_guess=None) -> SimulationConfig:
    """Translate a RunConfig into integrator settings. Of the n samples
    simulate takes after t = 0, every stride-th one stores the field, with
    stride = max(1, n // snapshots); a run thus stores n // stride + 1
    snapshots, t = 0 included (snapshots = 4, T = 1 and sample_every =
    0.25 store 5). snapshots = 0 stores none."""
    n_samples = (int(round(config.t_final / config.dt))
                 // sample_stride(config.dt, config.sample_every))
    stride = max(1, n_samples // config.snapshots) if config.snapshots else 0
    return SimulationConfig(dt=config.dt, t_final=config.t_final,
                            track_modulation=True,
                            sample_every=config.sample_every, nu=config.nu,
                            field_stride=stride, sigma_guess=sigma_guess)


def initial_state(config: RunConfig):
    """(Y0, sigma0) for the configured initial-data family; sigma0 is the
    manifold point behind soliton-type data, None for a bare packet."""
    grid, rho = config.grid, config.rho
    if config.initial == "packet":
        psi = gaussian_packet(grid, width=config.packet_width,
                              center=config.packet_center,
                              amplitude=config.packet_amplitude).to_fourier()
        return PhaseState(psi, config.b_vec, np.zeros(3)), None
    params = SolitonParams(config.b_vec, config.v_vec)
    if config.initial == "soliton":
        return soliton_state(params, rho, grid), params
    return perturbed_soliton(params, rho, grid, config.epsilon,
                             seed=config.seed), params


# ---------------------------------------------------------------------------
# Run persistence.
# ---------------------------------------------------------------------------

def write_run_directory(config: RunConfig, report: dict,
                        trajectory: Trajectory | None = None, series=None,
                        report_name: str = "report.json") -> None:
    """Persist one run under config.out_dir; nothing when it is None.

    Writes either the trajectory's particle.csv and field snapshots or the
    series (name, header, rows) as one CSV, then the report JSON and
    manifest.json: package and numpy versions, the full config, the
    sorted list of exactly those files (no timestamps) and, with a
    trajectory, the snapshot times and the sample interval stride * dt."""
    if config.out_dir is None:
        return
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = [report_name]
    manifest = {
        "package": {"name": "dirac-soliton", "version": __version__},
        "numpy_version": np.__version__,
        "config": config.as_dict(),
    }
    if trajectory is not None:
        write_particle_csv(out / "particle.csv", trajectory, config.dt)
        files += ["particle.csv", *write_snapshots(out, trajectory)]
        manifest["snapshot_format"] = SNAPSHOT_FORMAT
        manifest["snapshot_times"] = list(map(float, trajectory.field_times))
        manifest["sample_interval"] = (
            sample_stride(config.dt, config.sample_every) * config.dt)
    if series is not None:
        name, header, rows = series
        with open(out / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows([repr(float(x)) for x in row] for row in rows)
        files.append(name)
    manifest["files"] = sorted(files)
    for name, payload in ((report_name, report), ("manifest.json", manifest)):
        (out / name).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_particle_csv(path: Path, traj: Trajectory, dt: float) -> None:
    """t,q,p at every step; modulation columns filled on the rows where
    the sampling clock fired, empty otherwise. Floats use repr (shortest
    round-trip), so identical runs produce identical bytes."""
    sample_rows = {int(round(t / dt)): j
                   for j, t in enumerate(traj.sample_times)}
    header = ["t", "q1", "q2", "q3", "p1", "p2", "p3",
              "vmod1", "vmod2", "vmod3", "znorm", "majorant"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i, t in enumerate(traj.times):
            row = [repr(float(t))]
            row += [repr(float(x)) for x in traj.q[i]]
            row += [repr(float(x)) for x in traj.p[i]]
            j = sample_rows.get(i)
            if j is None:
                row += [""] * 5
            else:
                row += [repr(float(x)) for x in traj.sigma_v[j]]
                row += [repr(float(traj.z_norms[j])),
                        repr(float(traj.majorant[j]))]
            w.writerow(row)


def write_snapshots(out: Path, traj: Trajectory) -> list[str]:
    """Raw little-endian complex128 dumps, one file per stored field, in
    the layout documented by SNAPSHOT_FORMAT. Each file is written one
    x_1 slab at a time, so the spinor-last copy is (N, N, 4), not the
    whole field."""
    names = []
    for i, snap in enumerate(traj.fields):
        name = f"field_{i:04d}.raw"
        data = snap.to_position().data
        with open(out / name, "wb") as fh:
            for slab in range(data.shape[1]):
                np.ascontiguousarray(data[:, slab].transpose(1, 2, 0),
                                     dtype="<c16").tofile(fh)
        names.append(name)
    return names
