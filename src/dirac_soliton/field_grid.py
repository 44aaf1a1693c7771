"""Periodic-grid spectral engine: spinor fields with paired position/Fourier
representations, weighted Agmon norms, and the exact free and moving-frame
Dirac propagators applied as Fourier multipliers.

Grid layout: x_j = -L/2 + h*i on each axis (h = L/N), wavenumbers
k_j in (2*pi/L) * {-N/2, ..., N/2-1} stored in FFT order. The transform pair
realizes f_hat(k) = (2*pi)^{-3/2} * integral e^{+i k.x} f(x) dx discretely, so
that spatial derivatives act as multiplication by -i*k_j and the discrete
Parseval identity h^3 sum|f|^2 = dk^3 sum|f_hat|^2 is exact.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

POSITION = "position"
FOURIER = "fourier"


@dataclass(frozen=True)
class GridSpec:
    """Cubic periodic grid: side length L, N points per axis (N even)."""

    L: float
    N: int

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("L must be positive")
        if self.N < 2 or self.N % 2 != 0:
            raise ValueError("N must be even and >= 2")

    @property
    def h(self) -> float:
        return self.L / self.N

    @property
    def dk(self) -> float:
        return 2.0 * np.pi / self.L

    @cached_property
    def x1d(self) -> np.ndarray:
        return -self.L / 2.0 + self.h * np.arange(self.N)

    @cached_property
    def k1d(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.h)

    @cached_property
    def k_axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable k arrays per axis, FFT order."""
        k = self.k1d
        return (k[:, None, None], k[None, :, None], k[None, None, :])

    @cached_property
    def k2(self) -> np.ndarray:
        k1, k2_, k3 = self.k_axes
        return k1**2 + k2_**2 + k3**2

    @cached_property
    def x_radius(self) -> np.ndarray:
        x = self.x1d
        return np.sqrt(x[:, None, None]**2 + x[None, :, None]**2
                       + x[None, None, :]**2)

    @cached_property
    def _center_phase(self) -> np.ndarray:
        # e^{i k . x0} with x0 = (-L/2, -L/2, -L/2): the (-1)^(j1+j2+j3) grid.
        s = np.where(np.arange(self.N) % 2 == 0, 1.0, -1.0)
        return s[:, None, None] * s[None, :, None] * s[None, None, :]

    def k_dot(self, a) -> np.ndarray:
        """k . a on the k-grid for a 3-vector a."""
        a = np.asarray(a, dtype=float)
        k1, k2_, k3 = self.k_axes
        return k1 * a[0] + k2_ * a[1] + k3 * a[2]

    def k_moments(self, w: np.ndarray) -> np.ndarray:
        """dk^3 (sum k_1 w, sum k_2 w, sum k_3 w) over the k-grid for an
        (N, N, N) weight w; w is summed down to each axis before the
        product with k, so no k-weighted N^3 array is formed."""
        k = self.k1d
        w12 = w.sum(axis=2)
        return self.dk**3 * np.array([k @ w12.sum(axis=1), k @ w12.sum(axis=0),
                                      k @ w.sum(axis=(0, 1))])

    def phase_shift(self, a) -> np.ndarray:
        """e^{i k . a} on the k-grid (multiplying f_hat translates f by +a:
        F[f(. - a)](k) = e^{i k.a} f_hat(k), so use -a to shift by a)."""
        return np.exp(1j * self.k_dot(a))


@dataclass(frozen=True)
class SpinorField:
    """Complex 4-component field on a GridSpec, in one representation.

    data has shape (4, N, N, N); space is "position" or "fourier".
    Values are treated as immutable once constructed.
    """

    grid: GridSpec
    data: np.ndarray
    space: str = POSITION

    def __post_init__(self):
        if self.data.shape != (4, self.grid.N, self.grid.N, self.grid.N):
            raise ValueError("data must have shape (4, N, N, N)")
        if self.space not in (POSITION, FOURIER):
            raise ValueError("space must be 'position' or 'fourier'")

    def to_fourier(self) -> "SpinorField":
        if self.space == FOURIER:
            return self
        g = self.grid
        data = np.fft.ifftn(self.data, axes=(1, 2, 3),
                            out=np.empty_like(self.data, dtype=complex))
        data *= g._center_phase
        data *= (2.0 * np.pi) ** -1.5 * g.h**3 * g.N**3
        return SpinorField(g, data, FOURIER)

    def to_position(self) -> "SpinorField":
        """The field in position space. Like to_fourier, it allocates one
        (4, N, N, N) array, the result, and runs numpy's FFT in place in
        it; the centre phase is +-1, so the values equal those of the
        allocating route bit for bit."""
        if self.space == POSITION:
            return self
        g = self.grid
        data = np.multiply(g._center_phase, self.data, dtype=complex)
        np.fft.fftn(data, axes=(1, 2, 3), out=data)
        data *= (2.0 * np.pi) ** -1.5 * g.dk**3
        return SpinorField(g, data, POSITION)

    def norm(self) -> float:
        """Plain L^2 norm, valid in either representation (Parseval)."""
        w = self.grid.h**3 if self.space == POSITION else self.grid.dk**3
        return float(np.sqrt(w * np.sum(np.abs(self.data) ** 2)))

    def inner(self, other: "SpinorField") -> complex:
        """L^2 inner product <self, other> = integral conj(self).other dx.

        Both fields must share the grid and representation.
        """
        if self.grid != other.grid:
            raise ValueError("grid mismatch")
        if self.space != other.space:
            raise ValueError("representation mismatch")
        w = self.grid.h**3 if self.space == POSITION else self.grid.dk**3
        return complex(w * np.sum(self.data.conj() * other.data))

    def __add__(self, other: "SpinorField") -> "SpinorField":
        if self.grid != other.grid or self.space != other.space:
            raise ValueError("grid or representation mismatch")
        return SpinorField(self.grid, self.data + other.data, self.space)

    def __sub__(self, other: "SpinorField") -> "SpinorField":
        if self.grid != other.grid or self.space != other.space:
            raise ValueError("grid or representation mismatch")
        return SpinorField(self.grid, self.data - other.data, self.space)

    def __mul__(self, c) -> "SpinorField":
        return SpinorField(self.grid, c * self.data, self.space)

    __rmul__ = __mul__


def k_second_moments(w: np.ndarray, grid: GridSpec) -> np.ndarray:
    """dk^3 sum k_l k_j w over the k-grid as a 3x3 matrix, symmetric bit
    for bit. w is summed down to each pair of axes first (three passes
    over N^3), and the moments are taken on those planes, so no k-weighted
    N^3 array is formed."""
    k = grid.k1d
    kk = k * k
    w01, w02, w12 = w.sum(axis=2), w.sum(axis=1), w.sum(axis=0)
    m01, m02, m12 = k @ w01 @ k, k @ w02 @ k, k @ w12 @ k
    return grid.dk**3 * np.array(
        [[kk @ w01.sum(axis=1), m01, m02],
         [m01, kk @ w01.sum(axis=0), m12],
         [m02, m12, kk @ w02.sum(axis=0)]])


def zero_field(grid: GridSpec, space: str = POSITION) -> SpinorField:
    return SpinorField(grid, np.zeros((4, grid.N, grid.N, grid.N),
                                      dtype=complex), space)


def _new_worker() -> None:
    global _worker
    _worker = ThreadPoolExecutor(max_workers=1)


# The one worker thread that runs half of each Dirac kernel and source
# flight. It starts on the first submit, not at import. A forked child
# inherits the executor but not its thread, and its first submit would
# wait forever, so the child gets a fresh executor.
_new_worker()
os.register_at_fork(after_in_child=_new_worker)


def _on_two_threads(half, ours: tuple, theirs: tuple) -> None:
    """half(*ours) on the calling thread while the worker runs
    half(*theirs). The halves write separate outputs. half calls numpy
    ufuncs only, never a package function that a tracer may wrap: a span
    opened on the worker would land in the caller's span stack. Reductions
    stay with the caller. An error in either half is raised once both
    halves have stopped."""
    future = _worker.submit(half, *theirs)
    try:
        half(*ours)
    finally:
        wait((future,))
    future.result()


def _block_half(out, own, other, a, kappa, k_pairs, tmp) -> None:
    """One pair of the block form, out = a own + kappa i(sigma.k) other,
    built in place component by component through the N^3 buffer tmp."""
    for j, (k_a, k_b) in enumerate(k_pairs):
        o = out[j]
        np.multiply(other[0], k_a, out=o)
        o += np.multiply(other[1], k_b, out=tmp)
        o *= kappa
        o += np.multiply(own[j], a, out=tmp)


def _block_symbol(data: np.ndarray, grid: GridSpec, a_u, a_d,
                  kappa) -> np.ndarray:
    """The 2x2-block kernel behind every Dirac multiplier. On shape-(4,N,N,N)
    Fourier data f = (u, d) it forms
        (a_u u + kappa i(sigma.k) d, a_d d + kappa i(sigma.k) u),
    with sigma.k = [[k3, k1 - i k2], [k1 + i k2, -k3]]; the coefficients are
    scalars or arrays that broadcast against the k-grid. The factor i rides
    on the k factors; each component is built in place. The calling thread
    forms the upper pair and the worker the lower pair, each with its own
    N^3 buffer of one (2,N,N,N) scratch array owned by the caller, so the
    worker allocates no grid-sized memory."""
    k = grid.k1d
    ik3, ikm, ikp = 1j * k, (1j * k[:, None] + k)[..., None], \
        (1j * k[:, None] - k)[..., None]
    k_pairs = ((ik3, ikm), (ikp, -ik3))
    out = np.empty(data.shape, dtype=complex)
    tmp = np.empty((2,) + data.shape[1:], dtype=complex)
    _on_two_threads(_block_half,
                    (out[:2], data[:2], data[2:], a_u, kappa, k_pairs, tmp[0]),
                    (out[2:], data[2:], data[:2], a_d, kappa, k_pairs, tmp[1]))
    return out


def dirac_symbol(data: np.ndarray, grid: GridSpec, m: float) -> np.ndarray:
    """D(k) f_hat with D(k) = -alpha.k + beta m, on shape-(4,N,N,N) Fourier
    data. In the 2x2-block form f = (u, d) this is
        D(k) f = (m u - (sigma.k) d, -(sigma.k) u - m d)."""
    return _block_symbol(data, grid, m, -m, 1j)


def _in_space_of(psi: SpinorField, data: np.ndarray) -> SpinorField:
    """Fourier data as a field in the representation psi came in."""
    out = SpinorField(psi.grid, data, FOURIER)
    return out.to_position() if psi.space == POSITION else out


def spectral_derivative(psi: SpinorField, axis: int) -> SpinorField:
    """d_axis psi computed spectrally (multiplier -i*k_axis)."""
    hat = psi.to_fourier()
    return _in_space_of(psi, -1j * hat.grid.k_axes[axis] * hat.data)


@dataclass(frozen=True)
class SeparableSource:
    """The Fourier-space field f e_0 with f = f1(k1) f2(k2) f3(k3), held as
    its 1-D factors (the moving charge of ChargeDensity.fourier_factors)."""

    grid: GridSpec
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]


@lru_cache(maxsize=2)
def _free_multiplier(grid: GridSpec, t: float,
                     m: float) -> tuple[np.ndarray, np.ndarray]:
    """a_u = cos(w t) - i m sin(w t) / w and s = sin(w t) / w on the k-grid,
    w = sqrt(|k|^2 + m^2), read-only. Memoized on (grid, t, m), two
    entries: the Strang step's full flight dt and source flight dt/2."""
    w = np.sqrt(grid.k2 + m * m)
    s = np.sin(w * t) / w
    a_u = np.cos(w * t) - 1j * m * s
    a_u.flags.writeable = s.flags.writeable = False
    return a_u, s


def _source_rows(parts, rows: slice, tmp) -> None:
    """Adds coef f12 f3 into the k_1 rows `rows` of each target, through
    tmp, those rows' buffer."""
    for coef, f12, f3, target in parts:
        np.multiply(coef[rows], f12[rows], out=tmp)
        tmp *= f3
        target[rows] += tmp


def free_propagate(psi: SpinorField | SeparableSource, t: float, m: float,
                   add_to: SpinorField | None = None) -> SpinorField:
    """Exact free Dirac propagator W0(t) as a Fourier multiplier.

    The free equation i*psi_t = (-i alpha.grad + beta m) psi becomes, per
    mode, i d/dt psi_hat = D(k) psi_hat with D(k) = -alpha.k + beta m and
    D(k)^2 = (|k|^2 + m^2) I, so
        exp(-i t D) = cos(w t) I - i sin(w t) D / w,   w = sqrt(|k|^2+m^2),
    applied in one pass of the block kernel as a_u = c - i m s,
    a_d = conj(a_u), kappa = s with c = cos(w t), s = sin(w t) / w.
    Unitary per mode, hence exactly charge conserving.

    A SeparableSource f e_0 flies as f (a_u, 0, i s k_3, i s k_+): its three
    components are formed from the 1-D factors and added in place into
    add_to, a Fourier field on its grid that the caller owns. The calling
    thread adds the first half of the k_1 rows and the worker the second.
    """
    a_u, s = _free_multiplier(psi.grid, float(t), float(m))
    if not isinstance(psi, SeparableSource):
        if add_to is not None:
            raise ValueError("add_to takes the flight of a SeparableSource")
        hat = psi.to_fourier()
        return _in_space_of(psi, _block_symbol(hat.data, hat.grid, a_u,
                                               a_u.conj(), s))
    if add_to is None or add_to.space != FOURIER or add_to.grid != psi.grid:
        raise ValueError("a source flies into a Fourier field on its grid")
    k, (f1, f2, f3) = psi.grid.k1d, psi.factors
    f12 = np.multiply.outer(f1, f2)
    parts = tuple((coef, (k12 * f12)[..., None], k3 * f3, add_to.data[c])
                  for c, coef, k12, k3 in ((0, a_u, 1.0, 1.0),
                                           (2, s, 1.0, 1j * k),
                                           (3, s, 1j * k[:, None] - k, 1.0)))
    tmp, half = np.empty(a_u.shape, dtype=complex), psi.grid.N // 2
    _on_two_threads(_source_rows, (parts, slice(None, half), tmp[:half]),
                    (parts, slice(half, None), tmp[half:]))
    return add_to


def moving_frame_propagate(psi: SpinorField, t: float, v,
                           m: float) -> SpinorField:
    """Moving-frame propagator W_v(t): free flow plus the drift v.grad.

    Per mode the generator gains -i(v.k), so W_v(t) multiplies the free
    multiplier by e^{-i t v.k}; equivalently W_v(t)psi = [W0(t)psi](. + v t).
    Requires |v| < 1.
    """
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) >= 1.0:
        raise ValueError("|v| must be < 1")
    hat = free_propagate(psi.to_fourier(), t, m)
    return _in_space_of(psi, hat.grid.phase_shift(-t * v) * hat.data)


def weighted_norm(psi: SpinorField, nu: float) -> float:
    """Weighted Agmon norm ||(1+|x|)^nu psi||_{L^2} on the grid. A Fourier
    psi goes through to_position, which holds one field."""
    pos = psi.to_position()
    w = (1.0 + pos.grid.x_radius) ** nu
    return float(np.sqrt(pos.grid.h**3
                         * np.sum(w**2 * np.sum(np.abs(pos.data)**2, axis=0))))


def shift_field(psi: SpinorField, a) -> SpinorField:
    """Band-limited translation psi(. - a) via the k-space phase e^{i k.a}."""
    hat = psi.to_fourier()
    return _in_space_of(psi, hat.grid.phase_shift(a) * hat.data)


def gaussian_packet(grid: GridSpec, width: float = 1.5, center=(0.0, 0.0, 0.0),
                    spinor=(1.0, 0.0, 0.0, 0.0), k0=(0.0, 0.0, 0.0),
                    amplitude: float = 1.0) -> SpinorField:
    """Gaussian spinor packet amplitude * chi * e^{i k0.x} e^{-|x-c|^2/(2 w^2)}."""
    x = grid.x1d
    c = np.asarray(center, dtype=float)
    r2 = ((x - c[0])[:, None, None]**2 + (x - c[1])[None, :, None]**2
          + (x - c[2])[None, None, :]**2)
    k0 = np.asarray(k0, dtype=float)
    phase = np.exp(1j * ((x - c[0])[:, None, None] * k0[0]
                         + (x - c[1])[None, :, None] * k0[1]
                         + (x - c[2])[None, None, :] * k0[2]))
    env = amplitude * np.exp(-r2 / (2.0 * width**2)) * phase
    chi = np.asarray(spinor, dtype=complex)
    data = chi[:, None, None, None] * env[None, ...]
    return SpinorField(grid, data, POSITION)
