import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac_soliton import coupled_dynamics, field_grid
from dirac_soliton.coupled_dynamics import (
    IntegratorError,
    ScatteringData,
    SimulationConfig,
    Trajectory,
    _field_step,
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
    SeparableSource,
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


@pytest.mark.parametrize("sample_every, warns", [(0.25, True),
                                                  (0.1, False)])
def test_simulate_warns_when_the_sample_clock_rounds(caplog, sample_every,
                                                     warns):
    Y = soliton_state(SolitonParams(np.zeros(3), np.zeros(3)), RHO, GRID)
    cfg = SimulationConfig(dt=0.02, t_final=0.02, sample_every=sample_every)
    with caplog.at_level("WARNING", logger="dirac_soliton.coupled_dynamics"):
        simulate(Y, RHO, cfg)
    messages = [r.getMessage() for r in caplog.records]
    if warns:
        assert len(messages) == 1 and "sampling every 0.24" in messages[0]
    else:
        assert not messages


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


def test_simulate_hands_each_snapshot_state_to_the_hook():
    grid = GridSpec(20.0, 8)
    Y = soliton_state(SolitonParams(np.zeros(3), np.array([0.3, 0.0, 0.0])),
                      RHO, grid)
    cfg = SimulationConfig(dt=0.05, t_final=1.0, sample_every=0.1,
                           field_stride=3)
    seen = []
    traj = simulate(Y, RHO, cfg,
                    on_snapshot=lambda t, state: seen.append((t, state)))
    assert [t for t, _ in seen] == list(traj.field_times)
    assert len(seen) == 4                # samples 0, 3, 6 and 9 of 10
    for (t, state), snap in zip(seen, traj.fields):
        i = int(round(t / cfg.dt))
        assert state.psi.space == FOURIER
        assert np.array_equal(state.psi.to_position().data, snap.data)
        assert np.array_equal(state.q, traj.q[i])
        assert np.array_equal(state.p, traj.p[i])


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


def test_simulate_rejects_a_non_finite_field_at_t0():
    # component 2 does not couple, so force, q and p all stay finite: only
    # a check of psi itself can see this
    Y = soliton_state(SolitonParams(np.zeros(3), np.array([0.3, 0.0, 0.0])),
                      RHO, GridSpec(20.0, 8)).to_fourier()
    data = Y.psi.data.copy()
    data[2, 1, 2, 3] = np.nan
    bad = PhaseState(SpinorField(Y.grid, data, FOURIER), Y.q, Y.p)
    with pytest.raises(IntegratorError, match=r"psi .* t=0$"):
        simulate(bad, RHO, SimulationConfig(dt=0.05, t_final=0.1))


def test_step_leaves_its_input_unchanged():
    Y = _perturbed_soliton()
    before = Y.psi.data.copy()
    step(Y, 0.05, RHO)
    assert np.array_equal(Y.psi.data, before)


# ---------------------------------------------------------------------------
# The separable step against the direct N^3 formulas it replaced.
# ---------------------------------------------------------------------------

def _source_oracle(grid, rho, q):
    """rho_hat(k) e^{i k.q} on the whole k-grid."""
    return rho.fourier(grid.k2) * grid.phase_shift(q)


def _force_oracle(data, grid, rho, q):
    """Re sum_k -i k conj(psi0_hat) rho_hat e^{i k.q} dk^3, term by term."""
    w = _source_oracle(grid, rho, q) * np.conj(data[0])
    return np.array([np.real(-1j * np.sum(k * w)) for k in grid.k_axes]) \
        * grid.dk**3


def _field_step_oracle(psi, rho, q_mid, dt):
    """W0(dt) psi - i dt W0(dt/2) rho(. - q_mid) e_0."""
    src = np.zeros(psi.data.shape, dtype=complex)
    src[0] = _source_oracle(psi.grid, rho, q_mid)
    kicked = free_propagate(SpinorField(psi.grid, src, FOURIER), 0.5 * dt,
                            rho.mass)
    return free_propagate(psi, dt, rho.mass) - (1j * dt) * kicked


def _half_and_half_oracle(psi, rho, q_mid, dt):
    """W0(dt/2) [W0(dt/2) psi - i dt rho(. - q_mid) e_0]: the same step
    as two full 4-component flights of half the length."""
    half = free_propagate(psi, 0.5 * dt, rho.mass).data.copy()
    half[0] -= 1j * dt * _source_oracle(psi.grid, rho, q_mid)
    return free_propagate(SpinorField(psi.grid, half, FOURIER), 0.5 * dt,
                          rho.mass)


@st.composite
def _source_cases(draw):
    """A grid (N = 8 or 16), a charge, a particle position anywhere in the
    box, the box edges +-L/2 included, and random Fourier data."""
    grid = GridSpec(draw(st.floats(5.0, 40.0)), draw(st.sampled_from([8, 16])))
    rho = ChargeDensity(amplitude=draw(st.floats(0.1, 3.0)),
                        sigma=draw(st.floats(0.3, 2.0)),
                        mass=draw(st.floats(0.1, 3.0)))
    edge = st.sampled_from([-0.5, 0.5, -0.4999, 0.4999])
    q = grid.L * np.array([draw(st.one_of(edge, st.floats(-0.5, 0.5)))
                           for _ in range(3)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (4, grid.N, grid.N, grid.N)
    data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return grid, rho, q, data


@settings(derandomize=True, deadline=None, max_examples=50)
@given(case=_source_cases())
def test_source_factors_match_the_direct_source(case):
    grid, rho, q, _ = case
    f1, f2, f3 = rho.fourier_factors(grid.k1d, q)
    product = f1[:, None, None] * f2[None, :, None] * f3[None, None, :]
    want = _source_oracle(grid, rho, q)
    assert np.linalg.norm(product - want) <= 1e-14 * np.linalg.norm(want)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(case=_source_cases())
def test_force_matches_the_direct_parseval_sum(case):
    grid, rho, q, data = case
    want = _force_oracle(data, grid, rho, q)
    got = force(data, grid, rho, q)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(case=_source_cases(), dt=st.floats(1e-3, 0.5))
def test_field_step_matches_the_full_step_duhamel_form(case, dt):
    grid, rho, q, data = case
    psi = SpinorField(grid, data, FOURIER)
    want = _field_step_oracle(psi, rho, q, dt).data
    got = _field_step(psi, rho, q, dt)
    assert got.space == FOURIER
    assert np.linalg.norm(got.data - want) <= 1e-13 * np.linalg.norm(want)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(case=_source_cases(), dt=st.floats(1e-3, 0.5))
def test_field_step_matches_the_half_and_half_form(case, dt):
    grid, rho, q, data = case
    psi = SpinorField(grid, data, FOURIER)
    want = _half_and_half_oracle(psi, rho, q, dt).data
    got = _field_step(psi, rho, q, dt)
    assert np.linalg.norm(got.data - want) <= 1e-13 * np.linalg.norm(want)


def test_one_step_makes_one_full_flight(monkeypatch):
    # the field flies once through the 4-component block kernel; the
    # source's flight forms its three components without it
    real, shapes = field_grid._block_symbol, []

    def counting(data, *args):
        shapes.append(data.shape)
        return real(data, *args)

    monkeypatch.setattr(field_grid, "_block_symbol", counting)
    Y = _perturbed_soliton()
    step(Y, 0.02, RHO)
    assert shapes == [(4, GRID.N, GRID.N, GRID.N)]


def test_source_flight_adds_into_a_fourier_field_on_its_grid():
    src = SeparableSource(GRID, RHO.fourier_factors(GRID.k1d, np.zeros(3)))
    alone = free_propagate(src, 0.3, RHO.mass,
                           add_to=zero_state(GRID, FOURIER).psi)
    assert np.array_equal(alone.data[1], np.zeros_like(alone.data[1]))
    base = _perturbed_soliton().psi
    added = free_propagate(src, 0.3, RHO.mass,
                           add_to=SpinorField(GRID, base.data.copy(), FOURIER))
    assert np.linalg.norm(added.data - base.data - alone.data) \
        <= 1e-15 * np.linalg.norm(added.data)
    other_grid = zero_state(GridSpec(20.0, 16)).psi
    for wrong in (None, base.to_position(), other_grid):
        with pytest.raises(ValueError):
            free_propagate(src, 0.3, RHO.mass, add_to=wrong)
    with pytest.raises(ValueError):
        free_propagate(base, 0.3, RHO.mass, add_to=base)


def test_simulate_warm_starts_each_projection_advanced_by_v_dt(monkeypatch):
    # each tracking projection starts from the previous fit moved along
    # the manifold by v times the actual sample interval: sample_every =
    # 0.05 at dt = 0.03 rounds to a stride of 2 steps, 0.06 in time
    real = coupled_dynamics.project_to_manifold
    guesses, fits = [], []

    def recording(state, rho, sigma_guess=None, **kwargs):
        res = real(state, rho, sigma_guess=sigma_guess, **kwargs)
        guesses.append(sigma_guess)
        fits.append(res.params)
        return res

    monkeypatch.setattr(coupled_dynamics, "project_to_manifold", recording)
    grid = GridSpec(20.0, 16)
    v = np.array([0.3, 0.2, -0.1])
    S = soliton_state(SolitonParams(np.zeros(3), v), RHO, grid).to_fourier()
    pert = gaussian_packet(grid, width=1.2, center=np.array([1.0, 0.0, 0.0]),
                           spinor=(1.0, 0.5, 0.0, 0.0),
                           amplitude=0.03).to_fourier()
    first = SolitonParams(np.zeros(3), v)
    cfg = SimulationConfig(dt=0.03, t_final=0.6, track_modulation=True,
                           sample_every=0.05, sigma_guess=first)
    traj = simulate(PhaseState(S.psi + pert, S.q, S.p), RHO, cfg)
    assert traj.tracking_failed_at is None
    assert len(guesses) == traj.sample_times.size == 11
    assert guesses[0] is first
    for guess, prev in zip(guesses[1:], fits[:-1]):
        np.testing.assert_allclose(guess.b, prev.b + prev.v * 0.06,
                                   rtol=0, atol=1e-15)
        assert np.array_equal(guess.v, prev.v)
