"""Tests for the linearized generator, the matrix symbols L/H/M with the
cut boundary values, the closed-form translated kernel, and the
symplectic-orthogonality functionals."""

import mpmath as mp
import numpy as np
import pytest
from scipy.special import exp1, expi, kv

from dirac_soliton import linearized_spectral
from dirac_soliton.field_grid import (
    FOURIER,
    GridSpec,
    SpinorField,
    gaussian_packet,
    shift_field,
)
from dirac_soliton.linearized_spectral import (
    _real_pair_hat,
    _scaled_e1,
    apply_A,
    boost_matrix,
    cut_endpoints,
    f_jj_checks,
    g_lambda,
    invertibility_scan,
    linearized_operator,
    matrix_H,
    matrix_H_on_axis,
    matrix_L,
    orthogonality_check,
    phi_lambda,
    phi_prime_zero,
    spectral_matrices,
    velocity_frame,
)
from dirac_soliton.phase_space import PhaseState, zero_state
from dirac_soliton.quadrature import gauss_panels_1d
from dirac_soliton.soliton_manifold import (
    SolitonParams,
    momentum_jacobian,
    soliton_field_hat,
    soliton_state,
    tangent_basis,
)
from dirac_soliton.spinor_algebra import ChargeDensity, build_dirac_matrices
from dirac_soliton.symplectic_geometry import omega, project_to_manifold
from oracles import monte_carlo_gaussian_3d

RHO = ChargeDensity()
V6 = np.array([0.6, 0.0, 0.0])

# Frozen products of the pinned engines (defaults A = sigma = m = 1).
L11_V06 = 1.104368177407497
L22_V06 = 1.002698984746731
L11_REST = 0.9572778310966837
H11_AX03 = 1.1837320690495599
H11_AX12 = -0.25772658113539315 - 1.51317864339927j
H22_AX12 = 1.4578380029611249 - 1.7688860189875386j
M11_LIMIT_V06 = -0.7085182441704763j


def _random_state(grid, seed, decay=4.0):
    r = np.random.default_rng(seed)
    shape = (4, grid.N, grid.N, grid.N)
    data = r.standard_normal(shape) + 1j * r.standard_normal(shape)
    data *= np.exp(-grid.k2 / decay)
    return PhaseState(SpinorField(grid, data, FOURIER),
                      r.standard_normal(3), r.standard_normal(3))


# ---------------------------------------------------------------------------
# frames and the scaled exponential integral
# ---------------------------------------------------------------------------

def test_velocity_frame_rotation():
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = rng.uniform(-0.5, 0.5, 3)
        s, R = velocity_frame(v)
        assert abs(s - np.linalg.norm(v)) < 1e-14
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-14)
        assert np.allclose(R @ v, [s, 0, 0], atol=1e-14)
    s, R = velocity_frame([0.0, 0.0, 0.0])
    assert s == 0.0 and np.array_equal(R, np.eye(3))
    s, R = velocity_frame([0.3, 0.0, 0.0])
    assert np.array_equal(R, np.eye(3))
    with pytest.raises(ValueError):
        velocity_frame([0.8, 0.8, 0.0])


def test_boost_matrix_is_inverse_momentum_jacobian():
    B = boost_matrix(V6)
    assert np.allclose(np.diag(B), [0.512, 0.8, 0.8], atol=1e-15)
    for v in ([0.0, 0.0, 0.0], [0.3, -0.4, 0.1]):
        prod = boost_matrix(v) @ momentum_jacobian(v)
        assert np.max(np.abs(prod - np.eye(3))) < 1e-14


def test_scaled_e1_matches_direct_product():
    # points where exp(z)*exp1(z) is still safe to form directly
    for z in (35.0 + 0j, 30.0 + 20.0j, -35.0 + 2.0j, 80.0 - 15.0j):
        direct = np.exp(z) * exp1(z)
        mine = _scaled_e1(np.array([z]))[0]
        assert abs(mine - direct) / abs(direct) < 1e-12


def test_scaled_e1_plemelj_limit():
    # E1(x + i0) = -Ei(-x) - i pi for x < 0
    for x in (-0.5, -3.0, -12.0, -25.0):
        lim = np.exp(x) * (-expi(-x) - 1j * np.pi)
        above = _scaled_e1(np.array([x + 1e-12j]))[0]
        assert abs(above - lim) < 1e-10


def _mp_scaled_e1(x):
    """e^x E_1(x) for x > 0 and the principal value -e^x Ei(-x) for x < 0,
    from mpmath at 30 digits."""
    with mp.workdps(30):
        x = mp.mpf(x)
        return float(mp.exp(x) * (mp.e1(x) if x > 0 else -mp.ei(-x)))


def test_scaled_e1_real_route_matches_mpmath():
    # a float64 input stays float64: the direct products below |x| = 40,
    # the asymptotic series beyond (the complex route is 4e-13 off near
    # x = 4.6)
    xs = np.concatenate([np.geomspace(1e-6, 29.9, 120),
                         [30.0, 35.0, 39.9, 40.2, 80.0],
                         [-3.0, -12.0, -25.0, -35.0, -39.9, -40.2, -80.0]])
    out = _scaled_e1(xs)
    assert out.dtype == np.float64
    ref = np.array([_mp_scaled_e1(x) for x in xs])
    assert np.max(np.abs(out - ref) / np.abs(ref)) <= 5e-15


def test_scaled_e1_complex_route_matches_mpmath_around_the_switch():
    # both sides of |z| = 40, where the direct product hands over to the
    # asymptotic series, at angles up to 3.1 rad from the positive axis
    angles = np.linspace(-3.1, 3.1, 63)
    z = np.concatenate([r * np.exp(1j * angles)
                        for r in (30.0, 32.0, 35.0, 39.9, 40.2, 50.0)])
    out = _scaled_e1(z)
    with mp.workdps(30):
        ref = np.array([complex(mp.exp(mp.mpc(w)) * mp.e1(mp.mpc(w)))
                        for w in z])
    assert np.max(np.abs(out - ref) / np.abs(ref)) <= 5e-15


# ---------------------------------------------------------------------------
# the static matrix L and the dispersive matrix H
# ---------------------------------------------------------------------------

def test_matrix_l_diagonal_positive_frozen():
    res = matrix_L(V6, RHO)
    L = res.value
    off = L - np.diag(np.diag(L))
    assert np.max(np.abs(off)) < 1e-12
    assert np.all(np.diag(L) > 0)
    assert abs(L[0, 0] - L11_V06) < 1e-9
    assert abs(L[1, 1] - L22_V06) < 1e-9
    assert abs(L[1, 1] - L[2, 2]) < 1e-12
    rest = matrix_L(0.0, RHO).value
    assert np.allclose(np.diag(rest), L11_REST, atol=1e-9)


def test_matrix_l_against_monte_carlo():
    s, m = 0.6, RHO.mass
    C = RHO.mass * RHO.amplitude**2 * RHO.sigma**6

    def rest(k1, k2, k3):
        k2tot = k1**2 + k2**2 + k3**2
        return C * k1**2 / (k2tot + m * m - (s * k1) ** 2)

    est, err = monte_carlo_gaussian_3d(rest, RHO.sigma, 400_000, 5)
    assert err < 2e-3
    assert abs(L11_V06 - est) < 4.0 * err


def test_matrix_l_rejects_oblique_velocity():
    with pytest.raises(ValueError):
        matrix_L(np.array([0.3, 0.2, 0.0]), RHO)


def test_matrix_h_at_zero_equals_l():
    # two independent engines: cylindrical E1 reduction vs 3D trapezoid
    H0 = matrix_H(0.0, 0.6, RHO).value
    L = matrix_L(V6, RHO).value
    assert np.max(np.abs(H0 - L)) < 1e-8
    assert np.max(np.abs(H0.imag)) == 0.0


def test_matrix_h_against_monte_carlo():
    lam, s, m = 0.5, 0.6, RHO.mass
    C = RHO.mass * RHO.amplitude**2 * RHO.sigma**6

    def rest(k1, k2, k3):
        k2tot = k1**2 + k2**2 + k3**2
        return C * k1**2 / (k2tot + m * m - (s * k1 - 1j * lam) ** 2)

    est, err = monte_carlo_gaussian_3d(rest, RHO.sigma, 400_000, 7)
    H = matrix_H(lam, 0.6, RHO).value
    assert abs(H[0, 0] - est) < 4.0 * err


def test_matrix_h_domain_validation():
    with pytest.raises(ValueError):
        matrix_H(1.2j, 0.6, RHO)        # on the cut, mu = 0.8
    with pytest.raises(ValueError):
        matrix_H(-0.1 + 0.2j, 0.6, RHO)  # left half plane
    # strictly between the branch points is regular
    H = matrix_H(0.5j, 0.6, RHO).value
    assert np.max(np.abs(H.imag)) < 1e-14


def test_matrix_h_on_axis_below_cut():
    res = matrix_H_on_axis(0.3, 0.6, RHO)
    assert abs(res.value[0, 0] - H11_AX03) < 1e-9
    assert np.max(np.abs(res.value.imag)) == 0.0


def test_h_is_complex128_on_every_branch():
    # lambda = 0, below the cut, on the cut and Re lambda > 0
    for lam in (0j, 0.3j, 1.2j, 0.5 + 0.2j):
        value = linearized_spectral._h_frame(lam, 0.6, RHO).value
        assert value.dtype == np.complex128
    for om in (0.0, 0.3, 1.2):
        assert matrix_H_on_axis(om, 0.6, RHO).value.dtype == np.complex128
    for lam in (0.0, 0.3j, 0.5 + 0.2j):
        assert matrix_H(lam, 0.6, RHO).value.dtype == np.complex128


def test_axis_quadratures_call_only_the_real_exp1(monkeypatch):
    dtypes = []
    inner = linearized_spectral.exp1

    def recording(x):
        dtypes.append(np.asarray(x).dtype)
        return inner(x)

    monkeypatch.setattr(linearized_spectral, "exp1", recording)
    mats = spectral_matrices(V6, RHO)
    for om in (0.3, 0.81, 1.2, -2.0):
        matrix_H_on_axis(om, 0.6, RHO)
    f_jj_checks(mats)
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}
    dtypes.clear()
    matrix_H(0.5 + 0.2j, 0.6, RHO)
    assert dtypes and set(dtypes) == {np.dtype(np.complex128)}


def _mpmath_oracle(omega_, speed, dps=20):
    """H(i w + 0) from mpmath's tanh-sinh quadrature of the same 1-D
    integrals over the real line, at dps digits. On the cut the boundary
    integrand is split at the cut endpoints k_- and k_+ (where I_0 has its
    log singularities); below it, c > 0 and the split is at the minimum
    of c, k_1 = gamma^2 |v| w."""
    with mp.workdps(dps):
        m, s2 = mp.mpf(RHO.mass), mp.mpf(RHO.sigma) ** 2
        C = m * mp.mpf(RHO.amplitude) ** 2 * mp.mpf(RHO.sigma) ** 6
        w, v = mp.mpf(omega_), mp.mpf(speed)
        g2 = 1 / (1 - v * v)
        if w * w < m * m / g2:
            def c_of(k):
                return k * k + m * m - (v * k + w) ** 2

            pts = [-mp.inf, g2 * v * w, mp.inf]
        else:
            root = mp.sqrt(w * w - m * m / g2)
            lo, hi = g2 * (v * w - root), g2 * (v * w + root)

            def c_of(k):
                return (1 - v * v) * (k - lo) * (k - hi)

            pts = [-mp.inf, lo, hi, mp.inf]

        def i0(k):
            x = s2 * c_of(k)
            if x == 0:     # a node rounded onto an endpoint; its weight is nil
                return mp.mpf(0)
            if x < 0:
                return mp.exp(x) * (-mp.ei(-x)
                                    - 1j * mp.pi * mp.sign(v * k + w))
            return mp.exp(x) * mp.e1(x)

        h11 = mp.quad(lambda k: mp.pi * C * k**2 * mp.exp(-s2 * k**2)
                      * i0(k), pts)
        h22 = mp.quad(lambda k: mp.pi * C / 2 * mp.exp(-s2 * k**2)
                      * (1 / s2 - c_of(k) * i0(k)), pts)
        return np.diag([complex(h11), complex(h22), complex(h22)])


def test_matrix_h_below_cut_against_mpmath():
    for speed, om in ((0.6, 0.0), (0.6, 0.3), (0.6, -0.5), (0.0, 0.5),
                      (0.6, 0.79)):
        ax = matrix_H_on_axis(om, speed, RHO)
        assert np.max(np.abs(ax.value - _mpmath_oracle(om, speed))) <= 1e-13


def test_matrix_h_off_the_axis_against_mpmath():
    # near |lambda| = 6 the integrand's sigma^2 c reaches |z| of 30-40,
    # where the complex E_1 switches from the direct product to the series
    for speed, lam in ((0.0, 0.2 + 6.0j), (0.6, 0.1 + 5.9j)):
        with mp.workdps(20):
            m, s2 = mp.mpf(RHO.mass), mp.mpf(RHO.sigma) ** 2
            C = m * mp.mpf(RHO.amplitude) ** 2 * mp.mpf(RHO.sigma) ** 6
            v, L = mp.mpf(speed), mp.mpc(lam)
            root = mp.sqrt(L.imag**2 - m * m * (1 - v * v))
            # split where Re c vanishes, beside the integrand's log spikes
            pts = [-mp.inf, (v * L.imag - root) / (1 - v * v),
                   (v * L.imag + root) / (1 - v * v), mp.inf]

            def c_of(k):
                return k * k + m * m - (v * k - 1j * L) ** 2

            def i0(k):
                return mp.exp(s2 * c_of(k)) * mp.e1(s2 * c_of(k))

            h11 = mp.quad(lambda k: mp.pi * C * k**2 * mp.exp(-s2 * k**2)
                          * i0(k), pts)
            h22 = mp.quad(lambda k: mp.pi * C / 2 * mp.exp(-s2 * k**2)
                          * (1 / s2 - c_of(k) * i0(k)), pts)
        ref = np.diag([complex(h11), complex(h22), complex(h22)])
        H = matrix_H(lam, speed, RHO).value
        assert np.max(np.abs(H - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_matrix_h_at_the_branch_point_against_mpmath():
    # at w = +-mu both cut endpoints and the split point coincide, so the
    # breakpoints repeat; an empty interval there would put its nodes on
    # the singularity
    for om in (1.0, -1.0):
        ax = matrix_H_on_axis(om, 0.0, RHO)
        assert np.max(np.abs(ax.value - _mpmath_oracle(om, 0.0))) <= 1e-12
    # mu = 0.8 is exact in float64 but not for the oracle's decimal inputs,
    # and the square-root onset turns that 1e-16 into ~1e-7
    ax = matrix_H_on_axis(0.8, 0.6, RHO)
    assert np.all(np.isfinite(ax.value))
    assert np.max(np.abs(ax.value - _mpmath_oracle(0.8, 0.6))) < 1e-6


def test_matrix_h_cut_against_mpmath_near_branch_points():
    mu = 0.8
    for speed, om in ((0.6, mu + 1e-4), (0.6, mu + 1e-3), (0.6, -mu - 5e-4),
                      (0.0, 1.0 + 1e-4)):
        ax = matrix_H_on_axis(om, speed, RHO)
        gap = np.max(np.abs(ax.value - _mpmath_oracle(om, speed)))
        assert gap <= 1e-8
        assert gap <= 10.0 * ax.error
    # the invertibility scan's grid point next to mu: two cut endpoints
    # about 3e-8 apart strain the oracle too, so only a loose bound
    grid = np.linspace(-3.0, 3.0, 241)
    om = grid[np.argmin(np.abs(grid - mu))]
    assert 0.0 < om - mu < 1e-15
    ax = matrix_H_on_axis(om, 0.6, RHO)
    assert np.all(np.isfinite(ax.value))
    assert np.max(np.abs(ax.value - _mpmath_oracle(om, 0.6))) < 1e-6


def test_matrix_h_cut_against_mpmath_away_from_branch_points():
    for om in (1.2, 3.0, -1.2):
        ax = matrix_H_on_axis(om, 0.6, RHO)
        assert np.max(np.abs(ax.value - _mpmath_oracle(om, 0.6))) < 1e-9
    # frozen boundary values
    ax = matrix_H_on_axis(1.2, 0.6, RHO)
    assert abs(ax.value[0, 0] - H11_AX12) < 1e-6
    assert abs(ax.value[1, 1] - H22_AX12) < 1e-6


def test_matrix_h_cut_near_branch_point_error_is_honest():
    # next to the branch point the reported error must still cover the gap
    # to the exact boundary value
    ax = matrix_H_on_axis(0.81, 0.6, RHO)
    oracle = _mpmath_oracle(0.81, 0.6)
    gap = np.max(np.abs(ax.value - oracle))
    assert gap < 5e-4
    assert gap < 10.0 * ax.error


def test_matrix_h_on_axis_conjugate_symmetry():
    a = matrix_H_on_axis(1.5, 0.6, RHO).value
    b = matrix_H_on_axis(-1.5, 0.6, RHO).value
    assert np.max(np.abs(a - b.conj())) < 1e-12


def test_matrix_h_decays_in_right_half_plane():
    H50 = matrix_H(50.0, 0.6, RHO).value
    L = matrix_L(V6, RHO).value
    assert np.max(np.abs(H50)) < 1e-2 * np.max(np.abs(L))


def test_branch_point_continuity():
    mu = 0.8
    diffs = []
    for d in (1e-2, 1e-4):
        a = matrix_H_on_axis(mu - d, 0.6, RHO).value
        b = matrix_H_on_axis(mu + d, 0.6, RHO).value
        diffs.append(np.max(np.abs(a - b)))
    assert diffs[0] < 2.0
    assert diffs[1] < 0.2
    # square-root onset: shrinking d by 100 shrinks the gap by about 10
    assert diffs[1] / diffs[0] < 0.15


def test_cut_endpoints():
    assert cut_endpoints(0.5, 0.6, RHO) is None
    lo, hi = cut_endpoints(1.2, 0.6, RHO)
    s, m = 0.6, RHO.mass
    for k1 in (lo, hi):
        c = k1**2 + m * m - (s * k1 + 1.2) ** 2
        assert abs(c) < 1e-12
    lo_n, hi_n = cut_endpoints(-1.2, 0.6, RHO)
    assert abs(lo_n + hi) < 1e-12 and abs(hi_n + lo) < 1e-12


# ---------------------------------------------------------------------------
# the pencil M, determinants and inverse blocks
# ---------------------------------------------------------------------------

def test_spectral_matrices_frame_data():
    mats = spectral_matrices(V6, RHO)
    assert abs(mats.gamma - 1.25) < 1e-15
    assert abs(mats.mu - 0.8) < 1e-15
    assert np.allclose(np.diag(mats.Bv), [0.512, 0.8, 0.8], atol=1e-15)
    assert abs(mats.L[0, 0] - L11_V06) < 1e-9
    # oblique velocities are rotated internally
    v = np.array([0.0, 0.6, 0.0])
    m2 = spectral_matrices(v, RHO)
    assert abs(m2.speed - 0.6) < 1e-15
    assert np.allclose(m2.rotation @ v, [0.6, 0, 0], atol=1e-15)
    assert np.max(np.abs(m2.L - mats.L)) < 1e-12


def test_determinant_factorization_agrees_with_direct():
    mats = spectral_matrices(V6, RHO)
    rng = np.random.default_rng(3)
    omegas = [0.3, 0.79, 1.5] + list(rng.uniform(0.05, 3.0, 100)
                                     * rng.choice([-1.0, 1.0], 100))
    for om in omegas:
        d1 = mats.det_M_direct(om)
        d2 = mats.det_M_factorized(om)
        assert abs(d1 - d2) <= 1e-10 * abs(d1)


def test_minv_block_relations():
    mats = spectral_matrices(V6, RHO)
    Bv_inv = np.linalg.inv(mats.Bv)
    for om in (0.3, 1.2, 0.01, 1e-7):
        blk = mats.minv_blocks(om)
        assert np.max(np.abs(blk.M22 - blk.M11)) < 1e-10
        assert np.max(np.abs(blk.M11 - 1j * blk.M12 @ Bv_inv)) < 1e-10
    assert mats.minv_blocks(1e-7).factorized
    assert not mats.minv_blocks(0.01).factorized


def test_minv_reconstructs_inverse():
    mats = spectral_matrices(V6, RHO)
    for om in (0.4, 2.0):
        blk = mats.minv_blocks(om)
        prod = blk.inverse() @ mats.M_on_axis(om)
        assert np.max(np.abs(prod - np.eye(6))) < 1e-10
    with pytest.raises(ValueError):
        mats.minv_blocks(0.0).inverse()


def test_minv_zero_frequency_limit():
    mats = spectral_matrices(V6, RHO)
    blk = mats.minv_blocks(0.0)
    # first entry -i g^3 / (g^3 + f_11(0)) with f(0) = diag K
    assert abs(blk.M11[0, 0] - M11_LIMIT_V06) < 1e-9
    g = mats.gamma
    expected = np.diag([-1j * g**3 / (g**3 + mats.k_diag[0]),
                        -1j * g / (g + mats.k_diag[1]),
                        -1j * g / (g + mats.k_diag[2])])
    assert np.max(np.abs(blk.M11 - expected)) < 1e-12
    # continuity across the factorized/direct crossover
    near = mats.minv_blocks(2e-3).M11
    assert np.max(np.abs(near - blk.M11)) < 1e-4


def test_minv_m21_has_cubed_gamma_in_first_entry():
    # the raw bottom-left block per direction j is F_j / det_j, which gives
    # -g^3 f_1/(g^3 + f_1) in the first slot, not -g f_1/(g^3 + f_1)
    mats = spectral_matrices(V6, RHO)
    om = 0.5
    blk = mats.minv_blocks(om)
    f = mats.f(om)
    g = mats.gamma
    a = np.array([g**3, g, g])
    cubic = np.diag(-a * f / (a + f))
    variant = np.diag(np.array([-g * f[0] / (g**3 + f[0]),
                                -g * f[1] / (g + f[1]),
                                -g * f[2] / (g + f[2])]))
    assert np.max(np.abs(blk.M21 - cubic)) < 1e-12
    assert np.max(np.abs(blk.M21 - variant)) > 0.1


def test_minv_large_omega_tail():
    mats = spectral_matrices(V6, RHO)
    D0 = -1j * np.eye(6)
    oms = np.geomspace(10.0, 100.0, 8)
    devs = np.array([np.linalg.norm(mats.minv_blocks(om).inverse()
                                    - D0 / om, 2) for om in oms])
    slope = np.polyfit(np.log(oms), np.log(devs), 1)[0]
    assert -2.3 < slope < -1.7
    assert devs[-1] < 2e-4


def test_invertibility_scan_bounded_away_from_zero():
    mats = spectral_matrices(V6, RHO)
    _, dets, mn = invertibility_scan(mats)
    # the only root in [-3, 3] is omega = 0 (order 6); outside |w| < 0.05
    # the determinant stays above the frozen floor
    assert 1e-8 < mn < 1e-7
    assert np.all(np.abs(dets) >= mn)


def test_f_curvature_checks():
    mats = spectral_matrices(V6, RHO)
    chk = f_jj_checks(mats)
    assert np.max(np.abs(chk.f_zero)) == 0.0       # identical evaluations
    assert np.max(np.abs(chk.slope)) < 1e-11       # F is even in omega
    assert chk.max_relative_curvature_error() < 1e-5
    # f = F / omega^2 approaches diag K continuously
    assert np.max(np.abs(mats.f(2e-3) - mats.k_diag)) < 1e-4


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_f_memo_returns_the_fresh_value_bit_for_bit():
    # below the cut, on the cut, and both signed zeros, each asked of a set
    # that has already evaluated other omegas
    mats = spectral_matrices(V6, RHO)
    mats.F(2.2)
    for om in (0.3, 1.2, 0.0, -0.0):
        F = mats.F(om)
        direct = (np.diag(matrix_H_on_axis(om, 0.6, RHO).value)
                  - np.diag(mats.L).astype(complex))
        fresh = spectral_matrices(V6, RHO).F(om)
        assert np.array_equal(_bits(F), _bits(direct))
        assert np.array_equal(_bits(F), _bits(fresh))


def test_f_memo_shares_one_quadrature_per_omega(monkeypatch):
    mats = spectral_matrices(V6, RHO)
    calls = []
    inner = linearized_spectral.matrix_H_on_axis

    def counting(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(linearized_spectral, "matrix_H_on_axis", counting)
    om = 1.2
    mats.F(om)
    mats.det_M_direct(om)
    mats.det_M_factorized(om)
    mats.minv_blocks(om)
    assert len(calls) == 1
    mats.F(0.4)
    mats.det_M_factorized(0.4)
    assert len(calls) == 2
    # the memo keeps only the last omega, so going back costs one more
    mats.F(om)
    assert len(calls) == 3


def test_f_memo_value_is_read_only():
    mats = spectral_matrices(V6, RHO)
    F = mats.F(1.2)
    with pytest.raises(ValueError):
        F[0] = 0.0
    assert F[0] != 0.0


# ---------------------------------------------------------------------------
# the linearized generator on the grid
# ---------------------------------------------------------------------------

def test_apply_a_annihilates_translation_tangents():
    grid = GridSpec(20.0, 32)
    op = linearized_operator(V6, V6, RHO, grid)
    tb = tangent_basis(V6, RHO, grid)
    for j in range(3):
        out = apply_A(op, tb.phase_state(j))
        assert out.energy_norm() < 1e-13


def test_apply_a_maps_boosts_to_translations():
    grid = GridSpec(20.0, 32)
    op = linearized_operator(V6, V6, RHO, grid)
    tb = tangent_basis(V6, RHO, grid)
    for j in range(3):
        out = apply_A(op, tb.phase_state(j + 3))
        diff = out - tb.phase_state(j)
        assert diff.energy_norm() < 1e-13 * tb.phase_state(j).energy_norm()


def test_apply_a_depends_on_frame_drift():
    grid = GridSpec(20.0, 32)
    w = np.array([0.2, 0.1, 0.0])
    op = linearized_operator(V6, w, RHO, grid)
    tb = tangent_basis(V6, RHO, grid)
    out = apply_A(op, tb.phase_state(0))
    assert out.energy_norm() > 1e-3


def test_apply_a_skew_symmetry():
    grid = GridSpec(20.0, 32)
    op = linearized_operator(V6, V6, RHO, grid)
    for seed in range(5):
        Z1 = _random_state(grid, 2 * seed)
        Z2 = _random_state(grid, 2 * seed + 1)
        s = omega(apply_A(op, Z1), Z2) + omega(Z1, apply_A(op, Z2))
        assert abs(s) < 1e-12 * Z1.energy_norm() * Z2.energy_norm()


def test_force_coupling_is_symmetric_and_matches_the_direct_sum():
    grid = GridSpec(20.0, 32)
    for v in (V6, np.array([0.3, 0.1, -0.2])):
        op = linearized_operator(v, v, RHO, grid)
        assert np.array_equal(op.force_coupling, op.force_coupling.T)
        psi0 = soliton_field_hat(v, RHO, grid)[0]
        direct = np.array([[grid.dk**3 * np.real(np.sum(ki * kl * psi0
                                                        * op.rho_hat))
                            for kl in grid.k_axes] for ki in grid.k_axes])
        err = np.max(np.abs(op.force_coupling - direct))
        assert err <= 1e-13 * np.max(np.abs(direct))


def test_linearized_operator_validation():
    grid = GridSpec(20.0, 32)
    with pytest.raises(ValueError):
        linearized_operator(np.array([1.1, 0, 0]), V6, RHO, grid)
    with pytest.raises(ValueError):
        linearized_operator(np.array([0.1, 0.2]), V6, RHO, grid)
    op = linearized_operator(V6, V6, RHO, grid)
    other = zero_state(GridSpec(20.0, 16))
    with pytest.raises(ValueError):
        apply_A(op, other)


# ---------------------------------------------------------------------------
# the closed-form kernel
# ---------------------------------------------------------------------------

def _kernel_oracle(y, lam, v, m=1.0):
    """Numerical inversion of the symbol: transverse plane analytic
    (a K0 Bessel factor), then one oscillatory k1 quadrature."""
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    s = np.linalg.norm(v)
    y1 = float(v @ y) / s if s > 0 else y[0]
    rperp = np.sqrt(float(y @ y) - y1 * y1)

    def integrand(k1):
        c = k1**2 + m * m - (s * k1 - 1j * lam) ** 2
        return np.exp(-1j * k1 * y1) * kv(0, np.sqrt(c) * rperp)

    res = gauss_panels_1d(integrand, -40.0, 40.0, breakpoints=[0.0],
                          order=40, panels_per_interval=12)
    return res.value / (2.0 * np.pi) ** 2


def test_g_lambda_free_limit():
    y = np.array([0.7, -0.3, 0.2])
    lam = 0.8 + 0.3j
    r = np.linalg.norm(y)
    free = np.exp(-np.sqrt(lam**2 + 1.0) * r) / (4.0 * np.pi * r)
    assert abs(g_lambda(y, lam, np.zeros(3)) - free) < 1e-15


def test_g_lambda_stationary_limit_is_soliton_kernel():
    y = np.array([0.7, -0.3, 0.2])
    g = 1.0 / np.sqrt(1.0 - 0.36)
    yt = np.array([g * y[0], y[1], y[2]])
    r = np.linalg.norm(yt)
    kernel = g * np.exp(-r) / (4.0 * np.pi * r)
    assert abs(g_lambda(y, 0.0, V6) - kernel) < 1e-15


def test_g_lambda_matches_k_space_inversion():
    cases = [
        ((0.8, 1.1, -0.4), 0.5 + 0.4j, (0.6, 0.0, 0.0)),
        ((0.8, 1.1, -0.4), 0.9, (0.6, 0.0, 0.0)),
        ((-0.5, 0.7, 1.3), 0.31 + 1.7j, (0.0, 0.0, 0.0)),
        ((1.2, -0.3, 0.9), 0.25 + 0.5j, (0.2, -0.4, 0.1)),
    ]
    for y, lam, v in cases:
        closed = g_lambda(y, lam, v)
        oracle = _kernel_oracle(y, lam, v)
        assert abs(closed - oracle) / abs(oracle) < 1e-10


def test_g_lambda_domain_errors():
    with pytest.raises(ValueError):
        g_lambda(np.zeros(3), 0.5, V6)
    with pytest.raises(ValueError):
        g_lambda([1.0, 0, 0], -0.2, V6)
    with pytest.raises(ValueError):
        g_lambda([1.0, 0, 0], 0.9j, V6)   # on the cut, mu = 0.8
    with pytest.raises(ValueError):
        g_lambda([1.0, 0, 0], 0.5, [1.0, 0, 0])


# ---------------------------------------------------------------------------
# orthogonality functionals
# ---------------------------------------------------------------------------

def _green_blocks_dense(grid, v, rho, lam):
    """Closures (G11, G12) applying the Green multiplier blocks with dense
    4x4 Dirac matrices (tensordot over the spinor axis)."""
    d = build_dirac_matrices()
    k1, k2, k3 = grid.k_axes
    m = rho.mass
    vk = grid.k_dot(v)
    den = grid.k2 + m * m + (1j * vk + lam) ** 2

    def g11(X):
        a = np.tensordot(d.alpha1, X, axes=(1, 0)) * k1
        a += np.tensordot(d.alpha3, X, axes=(1, 0)) * k3
        return (-1j * a - (1j * vk + lam) * X) / den

    def g12(X):
        out = -m * np.tensordot(d.beta, X, axes=(1, 0))
        out += k2 * np.tensordot(d.alpha2, X, axes=(1, 0))
        return out / den

    return g11, g12


def _phi_lambda_dense(psi, lam, v, rho):
    grid = psi.grid
    x1, x2 = _real_pair_hat(psi)
    g11, g12 = _green_blocks_dense(grid, v, rho, complex(lam))
    t1 = -g11(x1) - g12(x2)
    return 1j * grid.k_moments(t1[0] * rho.fourier(grid.k2))


def _phi_prime_zero_dense(psi, v, rho):
    grid = psi.grid
    x1, x2 = _real_pair_hat(psi)
    g11, g12 = _green_blocks_dense(grid, v, rho, 0j)
    vk = grid.k_dot(v)
    den = grid.k2 + rho.mass**2 - vk**2
    u1 = (x1 + 2j * vk * (g11(x1) + g12(x2))) / den
    return 1j * grid.k_moments(u1[0] * rho.fourier(grid.k2))


def test_phi_functionals_match_the_dense_green_blocks():
    grid = GridSpec(20.0, 32)
    psi = gaussian_packet(grid, width=1.4, center=(0.8, -0.5, 0.3),
                          spinor=(0.6, 0.3j, -0.2, 0.4 - 0.1j),
                          k0=(0.4, 0.2, -0.3), amplitude=0.7)
    for v in (V6, np.array([0.3, -0.4, 0.2]), np.zeros(3)):
        for lam in (0.0, 0.5, 0.3 + 1.1j, 2.0 - 0.4j):
            dense = _phi_lambda_dense(psi, lam, v, RHO)
            gap = np.max(np.abs(phi_lambda(psi, lam, v, RHO) - dense))
            assert gap <= 1e-14 * np.max(np.abs(dense))
        dense = _phi_prime_zero_dense(psi, v, RHO)
        gap = np.max(np.abs(phi_prime_zero(psi, v, RHO) - dense))
        assert gap <= 1e-14 * np.max(np.abs(dense))


def test_phi_prime_matches_finite_difference():
    grid = GridSpec(20.0, 32)
    psi = gaussian_packet(grid, width=1.4, center=(0.8, -0.5, 0.3),
                          spinor=(0.6, 0.3, -0.2, 0.4), k0=(0.4, 0, 0),
                          amplitude=0.7)
    v = np.array([0.45, 0.0, 0.0])
    h = 1e-3
    d1 = (phi_lambda(psi, h, v, RHO) - phi_lambda(psi, -h, v, RHO)) / (2 * h)
    d2 = (phi_lambda(psi, h / 2, v, RHO)
          - phi_lambda(psi, -h / 2, v, RHO)) / h
    fd = (4.0 * d2 - d1) / 3.0
    closed = phi_prime_zero(psi, v, RHO)
    scale = np.max(np.abs(closed))
    assert np.max(np.abs(fd - closed)) < 1e-10 * scale


def test_orthogonality_trivial_field():
    grid = GridSpec(20.0, 32)
    Q0 = np.array([0.3, -0.2, 0.5])
    P0 = np.array([0.1, 0.4, -0.3])
    Z0 = PhaseState(zero_state(grid).psi, Q0, P0)
    chk = orthogonality_check(Z0, V6, RHO)
    assert np.array_equal(chk.functional_translations, P0.astype(complex))
    expected = momentum_jacobian(V6) @ Q0
    assert np.array_equal(chk.functional_boosts, expected.astype(complex))


def test_orthogonality_equivalence_family():
    # -Omega(Z, tau_j) = Phi(0) + P and Omega(Z, tau_{j+3}) = Phi'(0)
    # + Bv^{-1} Q hold identically, so both formulations agree on
    # arbitrary states, not only on orthogonal ones
    grid = GridSpec(20.0, 32)
    for seed in range(20):
        Z = _random_state(grid, 300 + seed)
        chk = orthogonality_check(Z, V6, RHO)
        assert chk.equivalence_gap() < 1e-8 * Z.energy_norm()


def test_orthogonality_discriminates():
    grid = GridSpec(20.0, 32)
    Y_sol = soliton_state(SolitonParams(np.zeros(3), V6), RHO, grid)
    bump = gaussian_packet(grid, width=1.2, center=(1.5, 0, 0),
                           spinor=(1, 0, 0, 0), amplitude=0.05)
    Y = PhaseState((Y_sol.psi.to_position() + bump).to_fourier(),
                   Y_sol.q + np.array([0.05, 0.0, -0.02]),
                   Y_sol.p + np.array([0.02, -0.01, 0.0]))
    res = project_to_manifold(Y, RHO)
    chk = orthogonality_check(res.Z, res.params.v, RHO, b=res.params.b)
    assert chk.max_residual() < 1e-6
    # a tangent direction is maximally non-orthogonal
    tb = tangent_basis(res.params.v, RHO, grid)
    chk4 = orthogonality_check(tb.phase_state(3), res.params.v, RHO)
    assert chk4.max_residual() > 1e-2


def test_orthogonality_recentering_matches_shifted_field():
    grid = GridSpec(20.0, 32)
    Z = _random_state(grid, 77)
    b = np.array([0.9, -0.4, 0.3])
    direct = orthogonality_check(Z, V6, RHO, b=b)
    shifted = PhaseState(shift_field(Z.psi, -b), Z.q, Z.p)
    manual = orthogonality_check(shifted, V6, RHO)
    assert np.allclose(direct.functional_translations,
                       manual.functional_translations, atol=1e-12)
    assert np.allclose(direct.form_boosts, manual.form_boosts, atol=1e-12)
