import numpy as np
import pytest

from dirac_soliton.coupled_dynamics import (
    IntegratorError,
    ScatteringData,
    SimulationConfig,
    Trajectory,
    extract_scattering_data,
    force,
    hamiltonian,
    hamiltonian_real_split,
    simulate,
    step,
)
from dirac_soliton.field_grid import (
    FOURIER,
    GridSpec,
    SpinorField,
    free_propagate,
    gaussian_packet,
)
from dirac_soliton.phase_space import PhaseState, zero_state
from dirac_soliton.soliton_manifold import SolitonParams, soliton_state
from dirac_soliton.spinor_algebra import ChargeDensity

RHO = ChargeDensity()
GRID = GridSpec(20.0, 32)


def _perturbed_soliton(amplitude=0.1):
    Ys = soliton_state(SolitonParams(np.zeros(3), np.array([0.3, 0.0, 0.0])),
                       RHO, GRID).to_fourier()
    pert = gaussian_packet(GRID, width=1.2, center=np.array([2.0, 0.0, 0.0]),
                           spinor=(1.0, 0.0, 0.0, 0.0),
                           amplitude=amplitude).to_fourier()
    return PhaseState(Ys.psi + pert, Ys.q, Ys.p)


def _run(Y, dt, n):
    for _ in range(n):
        Y = step(Y, dt, RHO)
    return Y


def test_hamiltonian_rest_state():
    assert hamiltonian(zero_state(GRID), RHO) == 1.0


def test_hamiltonian_moving_particle():
    Y = PhaseState(zero_state(GRID).psi, np.zeros(3),
                   np.array([0.75, 0.0, 0.0]))
    assert hamiltonian(Y, RHO) == 1.25


def test_hamiltonian_matches_real_split():
    rng = np.random.default_rng(1)
    psi = gaussian_packet(GRID, width=1.4, center=np.array([1.0, -0.5, 0.3]),
                          spinor=rng.standard_normal(4) + 1j * rng.standard_normal(4),
                          k0=np.array([0.4, -0.2, 0.1]), amplitude=0.7)
    Y = PhaseState(psi.to_fourier(), np.array([0.3, 0.2, -0.4]),
                   np.array([0.2, -0.1, 0.5]))
    h1 = hamiltonian(Y, RHO)
    h2 = hamiltonian_real_split(Y, RHO)
    assert abs(h1 - h2) < 1e-12 * max(1.0, abs(h1))


def test_step_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        step(zero_state(GRID), 0.0, RHO)


def test_decoupled_limit():
    # with rho = 0 the field flies free and the particle is ballistic
    rho0 = ChargeDensity(amplitude=0.0)
    rng = np.random.default_rng(2)
    psi = gaussian_packet(GRID, width=1.4,
                          spinor=rng.standard_normal(4) + 1j * rng.standard_normal(4),
                          amplitude=0.5).to_fourier()
    Y = PhaseState(psi, np.array([0.3, 0.2, -0.4]), np.array([0.75, 0.0, 0.0]))
    out = Y
    for _ in range(10):
        out = step(out, 0.05, rho0)
    free = free_propagate(Y.psi, 0.5, rho0.mass)
    assert np.max(np.abs(out.psi.data - free.data)) < 1e-13
    assert np.max(np.abs(out.q - (Y.q + 0.5 * 0.6 * np.array([1, 0, 0])))) < 1e-13
    assert np.max(np.abs(out.p - Y.p)) < 1e-15


def test_force_vanishes_on_centered_charge():
    # psi = rho-shaped real profile at the particle position: the force
    # integrand is Re of i times a real quantity, identically zero
    data = np.zeros((4, GRID.N, GRID.N, GRID.N), dtype=complex)
    data[0] = RHO.fourier(GRID.k2)
    assert np.max(np.abs(force(data, GRID, RHO, np.zeros(3)))) < 1e-15


def test_charge_growth_bound():
    rng = np.random.default_rng(2)
    shape = (4, GRID.N, GRID.N, GRID.N)
    data = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * np.exp(-0.5 * GRID.k2)
    Y = PhaseState(SpinorField(GRID, 0.3 * data, FOURIER), np.zeros(3),
                   np.zeros(3))
    n0 = Y.psi.norm()
    rate = RHO.l2_norm()
    dt = 0.05
    for i in range(1, 41):
        Y = step(Y, dt, RHO)
        assert Y.psi.norm() <= n0 + i * dt * rate + 1e-12


def test_hamiltonian_drift_second_order():
    Y0 = _perturbed_soliton()
    h0 = hamiltonian(Y0, RHO)
    drifts = []
    for dt in (0.08, 0.04, 0.02):
        Y = _run(Y0, dt, int(round(2.0 / dt)))
        drifts.append(abs(hamiltonian(Y, RHO) - h0) / abs(h0))
    assert 3.2 < drifts[0] / drifts[1] < 5.0
    assert 3.2 < drifts[1] / drifts[2] < 5.0


def test_trajectory_second_order():
    Y0 = _perturbed_soliton()
    ref = _run(Y0, 0.0125, 80)
    errs = [(_run(Y0, dt, int(round(1.0 / dt))) - ref).energy_norm()
            for dt in (0.1, 0.05)]
    assert 3.0 < errs[0] / errs[1] < 6.0


def test_simulate_free_particle():
    rho0 = ChargeDensity(amplitude=0.0)
    Y = PhaseState(zero_state(GRID).psi, np.array([1.0, 0.0, 0.0]),
                   np.array([0.75, 0.0, 0.0]))
    traj = simulate(Y, rho0, SimulationConfig(dt=0.05, t_final=2.0))
    assert traj.times.shape == (41,)
    expect = np.array([1.0, 0.0, 0.0]) + 2.0 * 0.6 * np.array([1.0, 0.0, 0.0])
    assert np.max(np.abs(traj.q[-1] - expect)) < 1e-12
    assert np.max(np.abs(traj.p - traj.p[0])) < 1e-15


def test_simulate_soliton_modulation():
    v = np.array([0.3, 0.0, 0.0])
    Y = soliton_state(SolitonParams(np.zeros(3), v), RHO, GRID)
    cfg = SimulationConfig(dt=0.02, t_final=2.0, track_modulation=True,
                           sample_every=0.25,
                           sigma_guess=SolitonParams(np.zeros(3), v))
    traj = simulate(Y, RHO, cfg)
    assert traj.tracking_failed_at is None
    assert traj.sample_times.size >= 8
    # sigma(t) = (b + v t, v) along the soliton run
    expect_b = np.outer(traj.sample_times, v)
    assert np.max(np.abs(traj.sigma_b - expect_b)) < 1e-6
    assert np.max(np.abs(traj.sigma_v - v)) < 1e-6
    # the transversal norm stays at its discretization floor
    floor = traj.z_norms[1]
    assert floor < 1e-4
    assert np.max(traj.z_norms) <= 10.0 * floor
    assert np.all(np.diff(traj.majorant) >= -1e-15)


def test_simulate_records_fields():
    Y = soliton_state(SolitonParams(np.zeros(3), np.array([0.3, 0.0, 0.0])),
                      RHO, GRID)
    cfg = SimulationConfig(dt=0.05, t_final=0.5, sample_every=0.25,
                           field_stride=1)
    traj = simulate(Y, RHO, cfg)
    assert len(traj.fields) == traj.field_times.size == 3
    assert traj.fields[0].space == "position"
    assert np.all(np.isfinite(traj.fields[-1].data.real))


def test_simulate_tracking_failure_is_recorded():
    grid = GridSpec(10.0, 16)
    rng = np.random.default_rng(19)
    shape = (4, grid.N, grid.N, grid.N)
    noise = 40.0 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    Y = PhaseState(SpinorField(grid, noise, FOURIER), np.zeros(3),
                   np.array([20.0, 0.0, 0.0]))
    cfg = SimulationConfig(dt=0.05, t_final=0.2, track_modulation=True,
                           sample_every=0.05)
    traj = simulate(Y, RHO, cfg)
    assert traj.tracking_failed_at == 0.0
    assert traj.sample_times.size == 0
    assert traj.times.size == 5


def test_scattering_extraction_synthetic_power_law():
    tt = np.arange(2.0, 400.0001, 0.05)
    v = np.array([0.5, 0.0, 0.0])
    qdot = v[None, :] + np.outer(tt ** (-1.5), np.array([1.0, 0.0, 0.0]))
    q = np.outer(tt, v) + np.array([1.0, 2.0, 3.0]) \
        - 2.0 * np.outer(tt ** (-0.5), np.array([1.0, 0.0, 0.0]))
    gam = 1.0 / np.sqrt(1.0 - np.sum(qdot**2, axis=1))
    traj = Trajectory(times=tt, q=q, p=qdot * gam[:, None],
                      final_state=zero_state(GridSpec(10.0, 16)))
    sd = extract_scattering_data(traj, t_min=5.0)
    assert isinstance(sd, ScatteringData)
    assert np.abs(sd.v_plus - v).max() < 5e-4
    assert abs(sd.qdot_exponent - (-1.5)) < 0.02


def test_scattering_extraction_exact_soliton_path():
    tt = np.linspace(0.0, 40.0, 2001)
    v = np.array([0.3, 0.0, 0.0])
    b = np.array([0.5, 0.0, 0.0])
    gam = 1.0 / np.sqrt(1.0 - v @ v)
    traj = Trajectory(times=tt, q=np.outer(tt, v) + b,
                      p=np.tile(gam * v, (tt.size, 1)),
                      final_state=zero_state(GridSpec(10.0, 16)))
    sd = extract_scattering_data(traj, t_min=5.0)
    assert np.abs(sd.v_plus - v).max() < 1e-12
    assert np.abs(sd.a_plus - b).max() < 1e-12
    assert sd.qdot_exponent is None
    assert sd.qdot_residual < 1e-12


def test_scattering_extraction_needs_tail():
    tt = np.linspace(0.0, 2.0, 50)
    traj = Trajectory(times=tt, q=np.zeros((50, 3)), p=np.zeros((50, 3)),
                      final_state=zero_state(GridSpec(10.0, 16)))
    with pytest.raises(ValueError):
        extract_scattering_data(traj, t_min=5.0)


def test_trajectory_invariants():
    base = dict(q=np.zeros((3, 3)), p=np.zeros((3, 3)),
                final_state=zero_state(GridSpec(10.0, 16)))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0, 1.0]), **base)
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0, 2.0]),
                   sigma_v=np.array([[1.0, 0.0, 0.0]]), **base)
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0, 2.0]),
                   majorant=np.array([1.0, 0.5]), **base)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(dt=-0.1)
    with pytest.raises(ValueError):
        SimulationConfig(dt=0.5, sample_every=0.1)


def test_config_rejects_t_final_off_the_step_grid():
    # 1.0 / 0.3 steps would silently end the run at t = 0.9
    with pytest.raises(ValueError, match="whole multiple"):
        SimulationConfig(dt=0.3, t_final=1.0)
    with pytest.raises(ValueError, match="whole multiple"):
        SimulationConfig(dt=0.02, t_final=0.01, sample_every=0.02)
    SimulationConfig(dt=0.1, t_final=0.3)      # 2.9999999999999996 steps
