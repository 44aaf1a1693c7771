"""Symplectic form, the Omega(v) matrix against its quadrature, and the
projection onto the solitary manifold."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac_soliton.field_grid import (
    FOURIER,
    GridSpec,
    SpinorField,
    gaussian_packet,
    shift_field,
)
from dirac_soliton.phase_space import PhaseState, zero_state
from dirac_soliton.soliton_manifold import (
    SolitonParams,
    soliton_state,
    tangent_basis,
)
from dirac_soliton import symplectic_geometry
from dirac_soliton.spinor_algebra import ChargeDensity
from dirac_soliton.symplectic_geometry import (
    ProjectionError,
    _comoving_sums,
    _jacobian_defect,
    _state_pairings,
    matrix_K,
    omega,
    omega_matrix_grid,
    omega_plus,
    omega_vs_direct,
    project_to_manifold,
    symplectic_orthogonalize,
)
from oracles import monte_carlo_gaussian_3d, omega_rows, pairings

RHO = ChargeDensity()

# Pinned 96-node trapezoid, box half-width 8/sigma. The rest-frame value is
# checked independently by Monte Carlo below before being frozen here.
K11_REST = 0.39096942067414236
K_DIAG_V06 = (0.8035083204118024, 0.5057797179550372)

_V_OBLIQUE = np.array([0.3, 0.1, -0.2])
_B_REF = np.array([1.0, -2.0, 0.5])


def _grid():
    return GridSpec(40.0, 48)


def _random_state(grid, rng, amp=1.0):
    shape = (4, grid.N, grid.N, grid.N)
    decay = np.exp(-0.5 * grid.k2)
    data = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * decay
    return PhaseState(SpinorField(grid, amp * data, FOURIER),
                      rng.standard_normal(3), rng.standard_normal(3))


# ---------------------------------------------------------------------------
# the matrix K and Omega^+


def test_k_rest_frame_isotropic():
    res = matrix_K(np.zeros(3), RHO)
    K = res.value
    assert np.allclose(np.diag(K), K11_REST, rtol=0, atol=1e-9)
    off = K - np.diag(np.diag(K))
    assert np.max(np.abs(off)) < 1e-12
    assert res.error <= 1e-8


def test_k_moving_frame_axisymmetric():
    K = matrix_K(np.array([0.6, 0.0, 0.0]), RHO).value
    assert abs(K[0, 0] - K_DIAG_V06[0]) < 1e-9
    assert abs(K[1, 1] - K_DIAG_V06[1]) < 1e-9
    assert abs(K[1, 1] - K[2, 2]) < 1e-12
    assert np.max(np.abs(K - np.diag(np.diag(K)))) < 1e-12


def test_k_quadrature_against_monte_carlo():
    # independent oracle: same integrand, importance-sampled
    m, A, s = RHO.mass, RHO.amplitude, RHO.sigma
    C = m * A**2 * s**6

    def rest(k1, k2, k3):
        k2tot = k1**2 + k2**2 + k3**2
        D = k2tot + m * m
        return C * k1**2 * (k2tot + m * m) / D**3

    est, err = monte_carlo_gaussian_3d(rest, s, n_samples=400_000, seed=42)
    assert float(err) < 2e-3
    assert abs(float(est) - K11_REST) < 4.0 * float(err)


def test_k_quadrature_refinement_stable():
    coarse = matrix_K(np.array([0.6, 0.0, 0.0]), RHO, n=96).value
    fine = matrix_K(np.array([0.6, 0.0, 0.0]), RHO, n=192).value
    assert np.max(np.abs(fine - coarse)) < 1e-12


def test_omega_plus_positive_definite():
    for v in ([0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.4, 0.0, 0.0],
              [0.6, 0.0, 0.0], [0.8, 0.0, 0.0], _V_OBLIQUE):
        op = omega_plus(np.asarray(v), RHO)
        assert op.min_eigenvalue() > 0.0
        assert np.allclose(op.block, op.block.T, atol=1e-12)
        assert op.quad_error <= 1e-8


def test_omega_plus_rest_frame_closed_form():
    # at v = 0 the block is (1 + K11) times the identity
    op = omega_plus(np.zeros(3), RHO)
    assert np.allclose(op.block, (1.0 + K11_REST) * np.eye(3), atol=1e-9)
    assert abs(op.min_eigenvalue() - (1.0 + K11_REST)) < 1e-9


def test_omega_full_matrix_layout():
    op = omega_plus(np.array([0.6, 0.0, 0.0]), RHO)
    assert op.full.shape == (6, 6)
    assert np.array_equal(op.full[:3, :3], np.zeros((3, 3)))
    assert np.array_equal(op.full[3:, 3:], np.zeros((3, 3)))
    assert np.array_equal(op.full[:3, 3:], op.block)
    assert np.array_equal(op.full[3:, :3], -op.block)


def test_omega_plus_rejects_superluminal():
    with pytest.raises(ValueError):
        omega_plus(np.array([1.0, 0.0, 0.0]), RHO)


# ---------------------------------------------------------------------------
# the symplectic form


def test_omega_antisymmetric():
    grid = GridSpec(10.0, 16)
    rng = np.random.default_rng(5)
    for _ in range(25):
        Y1 = _random_state(grid, rng)
        Y2 = _random_state(grid, rng)
        a = omega(Y1, Y2)
        b = omega(Y2, Y1)
        scale = max(1.0, abs(a))
        assert abs(a + b) < 1e-12 * scale
        assert abs(omega(Y1, Y1)) < 1e-12 * scale


def test_omega_pure_particle_states():
    grid = GridSpec(10.0, 16)
    q1, p1 = np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.5, 0.0])
    q2, p2 = np.array([0.0, 1.0, -1.0]), np.array([2.0, 2.0, 2.0])
    Y1 = PhaseState(zero_state(grid).psi, q1, p1)
    Y2 = PhaseState(zero_state(grid).psi, q2, p2)
    assert omega(Y1, Y2) == float(q1 @ p2 - p1 @ q2)


def test_omega_grid_mismatch_rejected():
    Y1 = zero_state(GridSpec(10.0, 16))
    Y2 = zero_state(GridSpec(10.0, 32))
    with pytest.raises(ValueError):
        omega(Y1, Y2)


# ---------------------------------------------------------------------------
# grid Gram matrix of the tangent basis vs the closed form


def test_tangent_gram_diagonal_blocks_vanish():
    tb = tangent_basis(_V_OBLIQUE, RHO, _grid())
    M = omega_matrix_grid(tb)
    scale = np.max(np.abs(M))
    assert np.max(np.abs(M[:3, :3])) < 1e-12 * scale
    assert np.max(np.abs(M[3:, 3:])) < 1e-12 * scale


def test_omega_grid_matches_closed_form():
    # two fully independent routes to the 36 entries: FFT-grid inner
    # products of the tangent fields vs quadrature of the closed form
    grid = GridSpec(40.0, 64)
    for v in (np.zeros(3), np.array([0.6, 0.0, 0.0]), _V_OBLIQUE):
        assert omega_vs_direct(v, RHO, grid) < 1e-10


# ---------------------------------------------------------------------------
# projection onto the solitary manifold


def test_projection_fixed_point():
    grid = _grid()
    Y = soliton_state(SolitonParams(_B_REF, _V_OBLIQUE), RHO, grid)
    res = project_to_manifold(Y, RHO)
    assert res.converged
    assert res.iterations == 0
    assert np.max(np.abs(res.params.b - _B_REF)) < 1e-12
    assert np.max(np.abs(res.params.v - _V_OBLIQUE)) < 1e-12
    assert res.Z.energy_norm() < 1e-12


def test_projection_recovers_perturbed_soliton():
    grid = _grid()
    Y = soliton_state(SolitonParams(_B_REF, _V_OBLIQUE), RHO, grid).to_fourier()
    rng = np.random.default_rng(7)
    pert = gaussian_packet(grid, width=1.5, center=np.array([3.0, 0.0, 0.0]),
                           spinor=rng.standard_normal(4) + 1j * rng.standard_normal(4),
                           amplitude=0.05)
    Yp = PhaseState(Y.psi + pert.to_fourier(),
                    Y.q + np.array([0.02, 0.0, 0.0]),
                    Y.p - np.array([0.0, 0.01, 0.0]))
    res = project_to_manifold(Yp, RHO)
    assert res.converged
    scale = max(1.0, Yp.psi.norm())
    assert np.max(np.abs(res.residuals)) <= 1e-10 * scale
    assert np.max(np.abs(res.params.b - _B_REF)) < 0.05
    assert np.max(np.abs(res.params.v - _V_OBLIQUE)) < 0.05
    assert res.Z.energy_norm() > 0.1


def test_projection_idempotent():
    grid = _grid()
    Y = soliton_state(SolitonParams(_B_REF, _V_OBLIQUE), RHO, grid).to_fourier()
    rng = np.random.default_rng(7)
    pert = gaussian_packet(grid, width=1.5, center=np.array([3.0, 0.0, 0.0]),
                           spinor=rng.standard_normal(4) + 1j * rng.standard_normal(4),
                           amplitude=0.05)
    Yp = PhaseState(Y.psi + pert.to_fourier(), Y.q, Y.p)
    first = project_to_manifold(Yp, RHO)
    again = project_to_manifold(first.Z + soliton_state(first.params, RHO, grid),
                                RHO, sigma_guess=first.params)
    assert np.max(np.abs(again.params.b - first.params.b)) < 1e-9
    assert np.max(np.abs(again.params.v - first.params.v)) < 1e-9


def test_projection_translation_covariance():
    grid = _grid()
    a = np.array([0.7, -0.3, 1.1])
    Y = soliton_state(SolitonParams(_B_REF, _V_OBLIQUE), RHO, grid).to_fourier()
    rng = np.random.default_rng(3)
    pert = gaussian_packet(grid, width=1.2, center=np.array([-2.0, 1.0, 0.0]),
                           spinor=rng.standard_normal(4) + 1j * rng.standard_normal(4),
                           amplitude=0.03).to_fourier()
    Yp = PhaseState(Y.psi + pert, Y.q, Y.p)
    Yps = PhaseState(shift_field(Y.psi, a) + shift_field(pert, a), Y.q + a, Y.p)
    r1 = project_to_manifold(Yp, RHO)
    r2 = project_to_manifold(Yps, RHO)
    assert np.max(np.abs(r2.params.b - (r1.params.b + a))) < 1e-9
    assert np.max(np.abs(r2.params.v - r1.params.v)) < 1e-9


_OFFSETS = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)
_VELOCITIES = st.lists(st.floats(-0.6, 0.6), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) <= 0.6)


@settings(derandomize=True, deadline=None, max_examples=6)
@given(b=_OFFSETS, v=_VELOCITIES, a=_OFFSETS, seed=st.integers(0, 2**16))
def test_projection_rows_vanish_in_lab_frame_and_covary(b, v, a, seed):
    # the comoving-frame residual against the generic lab-frame omega, and
    # translation covariance, for a generic perturbation of a soliton
    grid = GridSpec(20.0, 16)
    S = soliton_state(SolitonParams(b, v), RHO, grid)
    rng = np.random.default_rng(seed)
    pert = gaussian_packet(grid, width=1.2,
                           center=S.q + rng.uniform(-1.5, 1.5, 3),
                           spinor=rng.standard_normal(4) + 1j * rng.standard_normal(4),
                           amplitude=0.03).to_fourier()
    Y = PhaseState(S.psi + pert, S.q + 0.01 * rng.standard_normal(3),
                   S.p + 0.01 * rng.standard_normal(3))
    res = project_to_manifold(Y, RHO)
    Z = Y - soliton_state(res.params, RHO, grid)
    tb = tangent_basis(res.params.v, RHO, grid)
    rows = [omega(Z, tb.phase_state(j, res.params.b)) for j in range(6)]
    assert np.max(np.abs(rows)) <= 1e-10 * max(1.0, Y.psi.norm())
    a = np.asarray(a)
    moved = project_to_manifold(
        PhaseState(shift_field(Y.psi, a), Y.q + a, Y.p), RHO)
    assert np.max(np.abs(moved.params.b - (res.params.b + a))) < 1e-8
    assert np.max(np.abs(moved.params.v - res.params.v)) < 1e-8


@settings(derandomize=True, deadline=None, max_examples=10)
@given(N=st.sampled_from([8, 16]), L=st.floats(10.0, 40.0), v=_VELOCITIES,
       b=_OFFSETS, seed=st.integers(0, 2**16))
def test_gram_and_rows_match_the_generic_omega(N, L, v, b, seed):
    # the k-moment Gram matrix and rows against omega() on the tangent
    # fields that phase_state forms
    grid = GridSpec(L, N)
    tb = tangent_basis(v, RHO, grid)
    taus = [tb.phase_state(j) for j in range(6)]
    tau_scale = max(t.energy_norm() for t in taus)
    M = omega_matrix_grid(tb)
    generic = np.array([[omega(tl, tj) for tj in taus] for tl in taus])
    assert np.max(np.abs(M - generic)) <= 1e-13 * tau_scale**2
    assert np.array_equal(M, -M.T)
    Y = _random_state(grid, np.random.default_rng(seed))
    rows = omega_rows(tb, grid.phase_shift(-np.asarray(b)) * Y.psi.data,
                      Y.q, Y.p)
    generic_rows = [omega(Y, tb.phase_state(j, b)) for j in range(6)]
    assert (np.max(np.abs(rows - generic_rows))
            <= 1e-13 * Y.energy_norm() * tau_scale)


@settings(derandomize=True, deadline=None, max_examples=6)
@given(b=_OFFSETS, v=_VELOCITIES, amp=st.floats(0.01, 1.0),
       seed=st.integers(0, 2**16))
def test_projection_of_soliton_plus_orthogonal_data_returns_sigma(b, v, amp,
                                                                  seed):
    grid = GridSpec(20.0, 16)
    sigma = SolitonParams(b, v)
    raw = _random_state(grid, np.random.default_rng(seed), amp=amp)
    W = symplectic_orthogonalize(raw, v, RHO, b)
    res = project_to_manifold(soliton_state(sigma, RHO, grid) + W, RHO,
                              sigma_guess=sigma)
    assert res.iterations == 0
    assert np.max(np.abs(res.params.b - sigma.b)) < 1e-10
    assert np.max(np.abs(res.params.v - sigma.v)) < 1e-10


def test_projection_exact_on_orthogonal_perturbation():
    # a perturbation symplectically orthogonal to the tangent space at
    # sigma leaves the projected parameters unchanged
    grid = _grid()
    Y = soliton_state(SolitonParams(_B_REF, _V_OBLIQUE), RHO, grid).to_fourier()
    rng = np.random.default_rng(11)
    raw = PhaseState(
        gaussian_packet(grid, width=1.2, center=np.array([-2.0, 1.0, 0.0]),
                        spinor=rng.standard_normal(4) + 1j * rng.standard_normal(4),
                        amplitude=0.5).to_fourier(),
        np.array([0.3, 0.0, -0.2]), np.array([0.1, -0.05, 0.0]))
    W = symplectic_orthogonalize(raw, _V_OBLIQUE, RHO, b=_B_REF)
    res = project_to_manifold(Y + W, RHO,
                              sigma_guess=SolitonParams(_B_REF, _V_OBLIQUE))
    assert res.iterations == 0
    assert np.max(np.abs(res.params.b - _B_REF)) < 1e-10
    assert np.max(np.abs(res.params.v - _V_OBLIQUE)) < 1e-10


def test_projection_parameter_shift_quadratic_in_generic_perturbation():
    grid = _grid()
    Y = soliton_state(SolitonParams(_B_REF, _V_OBLIQUE), RHO, grid).to_fourier()
    rng = np.random.default_rng(11)
    P = PhaseState(
        gaussian_packet(grid, width=1.2, center=np.array([-2.0, 1.0, 0.0]),
                        spinor=rng.standard_normal(4) + 1j * rng.standard_normal(4),
                        amplitude=1.0).to_fourier(),
        np.array([0.3, 0.0, -0.2]), np.array([0.1, -0.05, 0.0]))
    P = P * (1.0 / P.energy_norm())
    shifts = {}
    for eps in (0.2, 0.1, 0.05):
        r = project_to_manifold(Y + P * eps, RHO,
                                sigma_guess=SolitonParams(_B_REF, _V_OBLIQUE),
                                tol=1e-12)
        shifts[eps] = np.concatenate([r.params.b - _B_REF,
                                      r.params.v - _V_OBLIQUE])
    # sigma(eps) = sigma + eps * c1 + O(eps^2): second differences of the
    # dyadic sequence scale by 4
    d1 = np.linalg.norm(shifts[0.2] - 2.0 * shifts[0.1])
    d2 = np.linalg.norm(shifts[0.1] - 2.0 * shifts[0.05])
    assert d1 > 0
    assert 3.0 < d1 / d2 < 5.0


def test_projection_zero_state_parity_root():
    # the zero state sits symmetrically under the parity that flips every
    # residual, so the projection lands on sigma = 0
    res = project_to_manifold(zero_state(_grid()), RHO)
    assert res.converged
    assert np.max(np.abs(res.params.b)) < 1e-6
    assert np.max(np.abs(res.params.v)) < 1e-6


def test_projection_fails_far_from_manifold():
    grid = _grid()
    rng = np.random.default_rng(19)
    shape = (4, grid.N, grid.N, grid.N)
    noise = 50.0 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    Y = PhaseState(SpinorField(grid, noise, FOURIER), np.zeros(3),
                   np.array([30.0, 0.0, 0.0]))
    with pytest.raises(ProjectionError):
        project_to_manifold(Y, RHO, max_iter=12)
    res = project_to_manifold(Y, RHO, max_iter=12, raise_on_failure=False)
    assert not res.converged


def test_orthogonalize_zeroes_all_rows():
    # rows against the full tangent basis, at the origin and translated to
    # a nonzero b, with the oblique v
    grid = _grid()
    rng = np.random.default_rng(23)
    Z = _random_state(grid, rng, amp=0.3)
    tb = tangent_basis(_V_OBLIQUE, RHO, grid)
    for b in (None, _B_REF):
        Zo = symplectic_orthogonalize(Z, _V_OBLIQUE, RHO, b)
        comoving = (Zo.psi.data if b is None
                    else grid.phase_shift(-b) * Zo.psi.data)
        rows = omega_rows(tb, comoving, Zo.q, Zo.p)
        assert np.max(np.abs(rows)) < 1e-12
        # idempotent: a second pass changes nothing
        Zoo = symplectic_orthogonalize(Zo, _V_OBLIQUE, RHO, b)
        assert np.max(np.abs(Zoo.psi.data - Zo.psi.data)) < 1e-13
        assert np.max(np.abs(Zoo.q - Zo.q)) < 1e-13
        assert np.max(np.abs(Zoo.p - Zo.p)) < 1e-13


def _perturbed(grid, b, v, rng, amplitude=0.05):
    S = soliton_state(SolitonParams(b, v), RHO, grid)
    pert = gaussian_packet(grid, width=1.2,
                           center=S.q + rng.uniform(-1.5, 1.5, 3),
                           spinor=rng.standard_normal(4) + 1j * rng.standard_normal(4),
                           amplitude=amplitude).to_fourier()
    return PhaseState(S.psi + pert, S.q + 0.01 * rng.standard_normal(3),
                      S.p + 0.01 * rng.standard_normal(3))


@settings(derandomize=True, deadline=None, max_examples=8)
@given(N=st.sampled_from([8, 16]), v=_VELOCITIES, b=_OFFSETS,
       seed=st.integers(0, 2**16))
def test_projection_jacobian_matches_central_difference(N, v, b, seed):
    # the exact Jacobian of the residual r_j(sigma) = Omega(Y - S(sigma),
    # tau_j(sigma)) against a central difference of the generic omega(),
    # at a point off the root
    grid = GridSpec(20.0, N)
    rng = np.random.default_rng(seed)
    Y = _perturbed(grid, b, v, rng)
    sigma = np.concatenate([b, v]) + rng.uniform(-0.05, 0.05, 6)

    def residual(s):
        params = SolitonParams(s[:3], s[3:])
        Z = Y - soliton_state(params, RHO, grid)
        tb = tangent_basis(params.v, RHO, grid)
        return np.array([omega(Z, tb.phase_state(j, params.b))
                         for j in range(6)])

    _, (frame, sums, _) = _comoving_sums(Y, RHO)(sigma[:3], sigma[3:])
    J = _jacobian_defect(frame, sums, Y.q - sigma[:3]) - frame.gram.T
    h = 1e-6
    fd = np.column_stack([(residual(sigma + h * e) - residual(sigma - h * e))
                          / (2.0 * h) for e in np.eye(6)])
    assert np.max(np.abs(J - fd)) <= 1e-8 * np.max(np.abs(fd))


def test_projection_converges_quadratically_from_a_near_guess():
    # from a guess about 1e-2 off the root the Newton residuals square at
    # each iteration; a chord iteration only shrinks them by a fixed factor
    grid = GridSpec(20.0, 16)
    rng = np.random.default_rng(2)
    Y = _perturbed(grid, [1.0, -0.5, 0.3], _V_OBLIQUE, rng)
    root = project_to_manifold(Y, RHO, tol=1e-12).params
    guess = SolitonParams(root.b + 1e-2 * rng.standard_normal(3),
                          root.v + 1e-2 * rng.standard_normal(3))
    res = project_to_manifold(Y, RHO, sigma_guess=guess)
    assert res.converged and res.iterations <= 3
    r1, r2 = (np.max(np.abs(project_to_manifold(
        Y, RHO, sigma_guess=guess, max_iter=k,
        raise_on_failure=False).residuals)) for k in (1, 2))
    assert r2 <= 5.0 * r1**2


def test_projection_refuses_a_root_not_continued_from_the_manifold():
    # a bare packet far larger than the soliton: exact Newton finds a root
    # of the six rows, but the Jacobian's defect relative to the Gram
    # matrix has spectral radius above 1, so the root is not the
    # projection continued from the manifold
    grid = GridSpec(20.0, 16)
    Y = PhaseState(gaussian_packet(grid, amplitude=6.0).to_fourier(),
                   np.zeros(3), np.zeros(3))
    res = project_to_manifold(Y, RHO, raise_on_failure=False)
    assert np.max(np.abs(res.residuals)) <= 1e-10 * Y.psi.norm()
    assert not res.converged
    with pytest.raises(ProjectionError, match="not continued"):
        project_to_manifold(Y, RHO)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(N=st.sampled_from([8, 16]), L=st.floats(10.0, 40.0), v=_VELOCITIES,
       b=_OFFSETS, seed=st.integers(0, 2**16))
def test_comoving_sums_match_the_tangent_basis(N, L, v, b, seed):
    # a projection trial's scalar sums, Gram matrix and rows, and the
    # state's soliton-free pairings, against the pairings of the full
    # tangent basis with the translated state and defect
    grid = GridSpec(L, N)
    Y = _random_state(grid, np.random.default_rng(seed))
    b, v = np.asarray(b), np.asarray(v)
    rows, (frame, sums, _) = _comoving_sums(Y, RHO)(b, v)
    tb = tangent_basis(v, RHO, grid)
    comoving = grid.phase_shift(-b) * Y.psi.data
    dpsi = comoving - tb.soliton_hat
    for got, want in zip(sums, pairings(tb, dpsi)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    for got, want in zip(_state_pairings(Y, RHO)(b, v)[2],
                         pairings(tb, comoving)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    M = omega_matrix_grid(tb)
    assert np.max(np.abs(frame.gram - M)) <= 1e-13 * np.max(np.abs(M))
    assert np.array_equal(frame.gram, -frame.gram.T)
    want = omega_rows(tb, dpsi, Y.q - b, Y.p - SolitonParams(b, v).p_v)
    assert np.max(np.abs(rows - want)) <= 1e-13 * np.max(np.abs(want))


def test_projection_forms_no_basis_and_no_grid_phase_per_trial(monkeypatch):
    # the Newton loop works on scalar sums only: no tangent basis, no Gram
    # matrix from one, and no N^3 exponential; Z comes from the final
    # trial's arrays, with no phase_shift either
    grid = GridSpec(20.0, 16)
    Y = _perturbed(grid, [1.0, -0.5, 0.3], _V_OBLIQUE,
                   np.random.default_rng(2))
    sigma = SolitonParams([1.0, -0.5, 0.3], _V_OBLIQUE)
    calls = dict.fromkeys(["tangent_basis", "omega_matrix_grid",
                           "phase_shift", "grid_exp"], 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    real_exp = np.exp

    def exp(x, *args, **kwargs):
        calls["grid_exp"] += np.size(x) >= grid.N**3
        return real_exp(x, *args, **kwargs)

    for name in ("tangent_basis", "omega_matrix_grid"):
        monkeypatch.setattr(symplectic_geometry, name,
                            counting(name, getattr(symplectic_geometry, name)))
    monkeypatch.setattr(GridSpec, "phase_shift",
                        counting("phase_shift", GridSpec.phase_shift))
    monkeypatch.setattr(np, "exp", exp)
    res = project_to_manifold(Y, RHO, sigma_guess=sigma)
    assert res.converged and res.iterations >= 1
    newton = dict(calls)
    S = soliton_state(sigma, RHO, grid)
    calls.update(dict.fromkeys(calls, 0))
    assert project_to_manifold(S, RHO, sigma_guess=sigma).iterations == 0
    assert newton == {"tangent_basis": 0, "omega_matrix_grid": 0,
                      "phase_shift": 0, "grid_exp": calls["grid_exp"]}


@settings(derandomize=True, deadline=None, max_examples=8)
@given(N=st.sampled_from([8, 16]), v=_VELOCITIES, b=_OFFSETS,
       seed=st.integers(0, 2**16))
def test_projection_z_is_the_state_minus_the_soliton(N, v, b, seed):
    # Z is formed from the final trial's r, v.k and separable phase; it is
    # Yk - soliton_state(sigma) to rounding
    grid = GridSpec(20.0, N)
    Yk = _perturbed(grid, b, v, np.random.default_rng(seed))
    res = project_to_manifold(Yk, RHO)
    want = Yk - soliton_state(res.params, RHO, grid)
    assert (np.max(np.abs(res.Z.psi.data - want.psi.data))
            <= 1e-14 * np.max(np.abs(Yk.psi.data)))
    assert np.array_equal(res.Z.q, want.q) and np.array_equal(res.Z.p, want.p)
    assert res.Z.psi.space == FOURIER
