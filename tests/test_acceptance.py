"""Acceptance suite: ten numbered end-to-end criteria.

Each test exercises one advertised guarantee of the package at its stated
tolerance and prints a single PASS/FAIL line with the measured numbers.
Run with

    pytest tests/test_acceptance.py -v -s

Criteria 1-8 are desk-scale (seconds to tens of seconds).  Criterion 9
builds the L=80, N=64 decay series and criterion 10 integrates the coupled
system at N=64 for T=10 twice, so the whole module takes a few minutes.
"""

import numpy as np

from dirac_soliton.spinor_algebra import (ChargeDensity,
                                          build_dirac_matrices,
                                          real_orthogonality)
from dirac_soliton.field_grid import (GridSpec, SpinorField, free_propagate,
                                      gaussian_packet, shift_field)
from dirac_soliton.phase_space import PhaseState
from dirac_soliton.soliton_manifold import (SolitonParams, force_balance,
                                            soliton_state,
                                            stationary_residual,
                                            tangent_basis)
from dirac_soliton.symplectic_geometry import (omega, omega_plus,
                                               omega_vs_direct,
                                               project_to_manifold)
from dirac_soliton.linearized_spectral import (apply_A, f_jj_checks,
                                               invertibility_scan,
                                               linearized_operator,
                                               orthogonality_check,
                                               spectral_matrices)
from dirac_soliton.experiments import (RunConfig, perturbed_soliton,
                                       run_free_decay,
                                       run_scattering,
                                       run_soliton_persistence)

RHO = ChargeDensity()


def _criterion(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    print(line)
    assert ok, line


def _random_field(grid, seed, decay=3.0):
    """Normalized band-limited random spinor field (Fourier data)."""
    rng = np.random.default_rng(seed)
    shape = (4, grid.N, grid.N, grid.N)
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spec *= np.exp(-0.5 * grid.k2 / decay**2)
    f = SpinorField(grid, spec, "fourier")
    return f * (1.0 / f.norm())


def test_criterion_01_algebraic_exactness():
    d = build_dirac_matrices()
    mats = (d.alpha1, d.alpha2, d.alpha3, d.beta)
    eye = np.eye(4)
    worst = 0.0
    for i, a in enumerate(mats):
        worst = max(worst, float(np.max(np.abs(a - a.conj().T))))
        for j, b in enumerate(mats):
            anti = a @ b + b @ a - (2.0 if i == j else 0.0) * eye
            worst = max(worst, float(np.max(np.abs(anti))))
    rng = np.random.default_rng(1)
    for psi in rng.standard_normal((1000, 4)):
        worst = max(worst, max(abs(r) for r in real_orthogonality(psi)))
    _criterion(1, "algebraic exactness", worst <= 1e-14,
               f"max residual {worst:.2e} (tol 1e-14, 1000 spinors)")


def test_criterion_02_propagator_unitarity_and_group_law():
    grid = GridSpec(20.0, 32)
    psi = _random_field(grid, 2)
    dev = max(abs(free_propagate(psi, t, RHO.mass).norm() - 1.0)
              for t in (0.7, 3.1, 12.0))
    comp = 0.0
    for t, s in ((0.4, 1.3), (2.0, -0.9), (5.5, 3.5)):
        direct = free_propagate(psi, t + s, RHO.mass)
        chained = free_propagate(free_propagate(psi, s, RHO.mass), t,
                                 RHO.mass)
        comp = max(comp, (direct - chained).norm())
    ok = dev <= 1e-12 and comp <= 1e-11
    _criterion(2, "propagator unitarity and group law", ok,
               f"norm deviation {dev:.2e} (tol 1e-12), "
               f"composition {comp:.2e} (tol 1e-11)")


def test_criterion_03_soliton_residual_convergence():
    coarse, fine = GridSpec(20.0, 32), GridSpec(20.0, 64)
    min_ratio, worst_force = np.inf, 0.0
    parts = []
    for s in (0.0, 0.3, 0.6):
        v = np.array([s, 0.0, 0.0])
        r32 = stationary_residual(v, RHO, coarse)
        r64 = stationary_residual(v, RHO, fine)
        min_ratio = min(min_ratio, r32 / r64)
        worst_force = max(worst_force,
                          float(np.max(np.abs(force_balance(v, RHO, fine)))))
        parts.append(f"v={s}: {r32:.1e}->{r64:.1e}")
    ok = min_ratio >= 10.0 and worst_force <= 1e-8
    _criterion(3, "soliton residual convergence", ok,
               f"min ratio {min_ratio:.1f} (need >=10; {'; '.join(parts)}), "
               f"force balance {worst_force:.1e} (tol 1e-8)")


def test_criterion_04_linearized_identities():
    grid = GridSpec(20.0, 64)
    v = np.array([0.6, 0.0, 0.0])
    tb = tangent_basis(v, RHO, grid)
    op = linearized_operator(v, v, RHO, grid)
    taus = [tb.phase_state(j) for j in range(6)]
    id_translations = max(apply_A(op, taus[j]).energy_norm()
                          for j in range(3))
    id_boosts = max((apply_A(op, taus[j + 3]) - taus[j]).energy_norm()
                    for j in range(3))
    rng = np.random.default_rng(4)
    worst_skew = 0.0
    for _ in range(50):
        Z1 = PhaseState(_random_field(grid, rng.integers(1 << 31)),
                        rng.standard_normal(3), rng.standard_normal(3))
        Z2 = PhaseState(_random_field(grid, rng.integers(1 << 31)),
                        rng.standard_normal(3), rng.standard_normal(3))
        Z1 = Z1 * (1.0 / Z1.energy_norm())
        Z2 = Z2 * (1.0 / Z2.energy_norm())
        res = abs(omega(apply_A(op, Z1), Z2) + omega(Z1, apply_A(op, Z2)))
        worst_skew = max(worst_skew, res)
    ok = (id_translations <= 1e-6 and id_boosts <= 1e-6
          and worst_skew <= 1e-8)
    _criterion(4, "linearized generator identities", ok,
               f"|A tau_j| {id_translations:.1e}, "
               f"|A tau_(j+3) - tau_j| {id_boosts:.1e} (tol 1e-6, N=64), "
               f"skew residual {worst_skew:.1e} over 50 pairs (tol 1e-8)")


def test_criterion_05_omega_plus_definite_and_grid_match():
    grid = GridSpec(40.0, 64)
    min_margin, worst_gap = np.inf, 0.0
    parts = []
    for s in (0.0, 0.2, 0.4, 0.6, 0.8):
        v = np.array([s, 0.0, 0.0])
        om = omega_plus(v, RHO)
        lam = om.min_eigenvalue()
        min_margin = min(min_margin, lam - om.quad_error)
        worst_gap = max(worst_gap, omega_vs_direct(v, RHO, grid))
        parts.append(f"v={s}: eig {lam:.3f}+-{om.quad_error:.1e}")
    ok = min_margin > 0.0 and worst_gap <= 1e-3
    _criterion(5, "symplectic form on the tangent space", ok,
               f"min eigenvalue margin {min_margin:.3f} ({'; '.join(parts)}), "
               f"grid vs closed form {worst_gap:.1e} (tol 1e-3)")


def test_criterion_06_projection_contract():
    grid = GridSpec(20.0, 32)
    params = SolitonParams(np.array([0.4, -0.3, 0.2]),
                           np.array([0.25, 0.10, -0.15]))
    base = soliton_state(params, RHO, grid)
    rng = np.random.default_rng(6)
    spinor = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    bump = gaussian_packet(grid, width=1.0, center=(0.9, -0.6, 0.4),
                           spinor=spinor / np.linalg.norm(spinor),
                           amplitude=0.03).to_fourier()
    Y = PhaseState(base.psi + bump, base.q + np.array([0.02, -0.01, 0.03]),
                   base.p + np.array([0.015, 0.01, -0.02]))

    res = project_to_manifold(Y, RHO, tol=1e-11)
    residual = float(np.max(np.abs(res.residuals)))

    guess = SolitonParams(res.params.b + 0.05, res.params.v - 0.02)
    res2 = project_to_manifold(Y, RHO, sigma_guess=guess, tol=1e-11)
    idem = max(float(np.max(np.abs(res2.params.b - res.params.b))),
               float(np.max(np.abs(res2.params.v - res.params.v))))

    a = np.array([0.7, -0.4, 0.3])
    Ya = PhaseState(shift_field(Y.psi, a), Y.q + a, Y.p)
    res3 = project_to_manifold(Ya, RHO)
    cov = max(float(np.max(np.abs(res3.params.b - (res.params.b + a)))),
              float(np.max(np.abs(res3.params.v - res.params.v))))

    ok = residual <= 1e-10 and idem <= 1e-9 and cov <= 1e-8
    _criterion(6, "projection contract", ok,
               f"residual {residual:.1e} (tol 1e-10), "
               f"idempotence {idem:.1e} (tol 1e-9), "
               f"translation covariance {cov:.1e} (tol 1e-8)")


def test_criterion_07_spectral_matrix_suite():
    mats = spectral_matrices(np.array([0.6, 0.0, 0.0]), RHO)
    Bv_inv = np.linalg.inv(mats.Bv)

    rng = np.random.default_rng(7)
    omegas = rng.uniform(0.05, 3.0, 100) * rng.choice([-1.0, 1.0], 100)
    det_rel = 0.0
    for w in omegas:
        dd = mats.det_M_direct(w)
        df = mats.det_M_factorized(w)
        det_rel = max(det_rel, abs(dd - df) / abs(dd))

    chk = f_jj_checks(mats)
    f_zero = float(np.max(np.abs(chk.f_zero)))
    scale = float(np.max(np.abs(chk.curvature_closed)))
    slope = float(np.max(np.abs(chk.slope))) / scale
    curvature_min = float(np.min(chk.curvature_fd))

    blk = 0.0
    for w in (1e-7, 0.01, 0.3, 0.79, 1.5, 2.9):
        b = mats.minv_blocks(w)
        ref = float(np.max(np.abs(b.M11)))
        blk = max(blk, float(np.max(np.abs(b.M22 - b.M11))) / ref)
        blk = max(blk,
                  float(np.max(np.abs(b.M11 - 1j * b.M12 @ Bv_inv))) / ref)

    _, _, min_det = invertibility_scan(mats)

    ok = (det_rel <= 1e-10 and f_zero <= 1e-12 and slope <= 1e-8
          and curvature_min > 0.0 and blk <= 1e-10 and min_det > 0.0)
    _criterion(7, "spectral matrix suite", ok,
               f"det gap {det_rel:.1e} over 100 samples (tol 1e-10), "
               f"F(0) {f_zero:.1e}, scaled F'(0) {slope:.1e} (tol 1e-8), "
               f"min F''(0) {curvature_min:.2f} (>0), "
               f"block relations {blk:.1e} (tol 1e-10), "
               f"min |det M| {min_det:.2e} on 0.05<=|w|<=3 (>0)")


def test_criterion_08_orthogonality_equivalence():
    grid = GridSpec(20.0, 32)
    rng = np.random.default_rng(8)
    worst_scaled = 0.0
    for i in range(20):
        s = (0.2, 0.3, 0.4, 0.5, 0.6)[i % 5]
        params = SolitonParams(rng.uniform(-0.8, 0.8, 3),
                               np.array([s, 0.0, 0.0]))
        Y = perturbed_soliton(params, RHO, grid, epsilon=0.05, seed=100 + i)
        res = project_to_manifold(Y, RHO, sigma_guess=params)
        chk = orthogonality_check(res.Z, res.params.v, RHO, b=res.params.b)
        worst_scaled = max(worst_scaled,
                           chk.max_residual() / res.Z.energy_norm())

    v = np.array([0.6, 0.0, 0.0])
    tb = tangent_basis(v, RHO, grid)
    min_tangent = np.inf
    for j in range(6):
        tau = tb.phase_state(j)
        chk = orthogonality_check(tau, v, RHO)
        min_tangent = min(min_tangent, chk.max_residual())

    ok = worst_scaled <= 1e-6 and min_tangent > 1e-2
    _criterion(8, "orthogonality functional equivalence", ok,
               f"projected-state residual {worst_scaled:.1e} over 20 states "
               f"(tol 1e-6 scaled), tangent-direction residual "
               f"{min_tangent:.2f} (must exceed 1e-2)")


def test_criterion_09_free_weighted_decay():
    parts, ok = [], True
    for v in ((0.0, 0.0, 0.0), (0.6, 0.0, 0.0)):
        cfg = RunConfig(kind="decay", grid_L=80.0, grid_N=64, nu=3.0,
                        t_final=25.0, window=(5.0, 25.0), initial="packet",
                        v=v)
        fit = run_free_decay(cfg)
        ok = ok and abs(fit.exponent + 1.5) <= 0.2
        parts.append(f"v={v[0]}: {fit.exponent:.3f}")
    _criterion(9, "free weighted decay", ok,
               f"fitted exponents {', '.join(parts)} "
               f"(band -1.5 +- 0.2, t in [5,25], L=80, N=64)")


def test_criterion_10_persistence_and_scattering():
    v = (0.3, 0.0, 0.0)

    exact = RunConfig(kind="soliton", grid_L=20.0, grid_N=64, dt=0.02,
                      t_final=10.0, v=v, snapshots=4)
    rep = run_soliton_persistence(exact)
    drift_ok = rep.velocity_drift <= 1e-4

    perturbed = RunConfig(kind="scatter", grid_L=20.0, grid_N=64, dt=0.02,
                          t_final=10.0, v=v, epsilon=0.05, seed=3,
                          initial="perturbed", snapshots=8)
    srep = run_scattering(perturbed)
    traj = srep.trajectory
    T = perturbed.t_final

    dv = np.linalg.norm(traj.sigma_v - srep.v_plus, axis=1)
    third = len(dv) // 3
    v_converges = (srep.captured and dv[-1] < dv[0]
                   and np.median(dv[-third:]) < np.median(dv[:third]))

    z_ok = srep.z_fit is not None and srep.z_fit.exponent <= -1.0

    late = srep.phi_times[1:] >= 0.5 * T
    cauchy = srep.phi_cauchy[late]
    cauchy_ok = cauchy.size >= 2 and cauchy[-1] < cauchy[0]

    ok = drift_ok and v_converges and z_ok and cauchy_ok
    z_text = "none" if srep.z_fit is None else f"{srep.z_fit.exponent:.2f}"
    _criterion(10, "soliton persistence and capture", ok,
               f"exact drift {rep.velocity_drift:.1e} (tol 1e-4 at T=10), "
               f"|v - v+| {dv[0]:.1e}->{dv[-1]:.1e} (decreasing: "
               f"{v_converges}), transversal exponent {z_text} (<= -1.0), "
               f"outgoing-wave Cauchy differences on [T/2, T] "
               f"{cauchy[0]:.1e}->{cauchy[-1]:.1e} (decreasing)")
