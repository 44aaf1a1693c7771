"""Shared k-space quadrature engine.

One tolerance policy for every closed-form k-integral in the package:
absolute target 1e-8, with a reported error estimate obtained from grid
refinement (3D, one k1 slab at a time, never the whole grid) or panel
doubling (1D). A 1D pass calls its integrand once, on every interval's
nodes. The 1D estimate costs a second, coarse pass (Gauss-Legendre panels
do not nest), so it is computed only for callers that read
QuadResult.error. Integrands here all carry the Gaussian factor of the
Wiener function, so the tensor-product trapezoid rule on
[-k_max, k_max]^3 converges spectrally once the box covers the Gaussian
support.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

ABS_TOL_TARGET = 1e-8


@dataclass(frozen=True)
class QuadResult:
    """A quadrature value and its error estimate. The estimate may be given
    as a zero-argument callable; it then runs on the first read of .error,
    and its result is kept."""

    value: np.ndarray
    estimate: float | Callable[[], float]

    @cached_property
    def error(self) -> float:
        e = self.estimate
        return float(e() if callable(e) else e)

    def within_target(self, tol: float = ABS_TOL_TARGET) -> bool:
        return self.error <= tol


def _trap_weights(kmax: float, n: int) -> np.ndarray:
    w = np.full(n + 1, 2.0 * kmax / n)
    w[[0, -1]] *= 0.5
    return w


def tensor_trapezoid_3d(f, kmax: float, n: int = 96) -> QuadResult:
    """Integrate f over [-kmax, kmax]^3 with an (n+1)^3 tensor trapezoid.

    f is called once per k1 node, on broadcastable axis arrays (k1, k2, k3)
    of shapes (1,1,1), (1,n+1,1), (1,1,n+1), and must return the integrand
    on that slab with trailing dimensions (1, n+1, n+1) (leading stack
    dimensions allowed); each slab is reduced as soon as it is made.

    The error estimate uses the two embedded coarser grids (n/2, n/4):
    with differences d1 = |I_n - I_{n/2}| and d2 = |I_{n/2} - I_{n/4}|,
    the geometric tail bound err ~ d1 * (d1 / d2) is reported. For the
    Gaussian-weighted analytic integrands here the trapezoid converges at
    least geometrically in n, so the bound is conservative.
    """
    if n % 4 != 0:
        raise ValueError("n must be divisible by 4 for the error estimate")
    nodes = np.linspace(-kmax, kmax, n + 1)
    levels = [(s, _trap_weights(kmax, n // s)) for s in (1, 2, 4)]
    sums = [0.0, 0.0, 0.0]
    for a in range(n + 1):
        vals = f(nodes[a:a + 1, None, None], nodes[None, :, None],
                 nodes[None, None, :])[..., 0, :, :]
        for i, (s, w) in enumerate(levels):
            if a % s == 0:
                # .sum, not a second @: an entry rounds alike in any stack
                sums[i] += w[a // s] * ((vals[..., ::s, ::s] @ w) * w).sum(-1)
    fine, half, quarter = sums
    d1 = float(np.max(np.abs(fine - half)))
    d2 = float(np.max(np.abs(half - quarter)))
    err = d1 if d2 == 0.0 else d1 * min(1.0, d1 / d2)
    return QuadResult(fine, err)


def k_outer_trapezoid_3d(core, kmax: float, n: int) -> QuadResult:
    """The 3x3 integral of k_i k_j core(k1, k2, k3) over [-kmax, kmax]^3
    by tensor_trapezoid_3d. A slab's integrand holds the six entries i <= j
    as (k_i k_j) core, mirrored after integration: bit for bit the nine,
    since k_i k_j c = k_j k_i c."""
    upper = np.triu_indices(3)

    def integrand(*ks):
        c = core(*ks)
        out = np.empty((6,) + c.shape)
        for e, (i, j) in enumerate(zip(*upper)):
            out[e] = ks[i] * ks[j] * c
        return out

    res = tensor_trapezoid_3d(integrand, kmax, n)
    value = np.empty((3, 3))
    value[upper] = value.T[upper] = res.value
    return QuadResult(value, res.error)


def gauss_panels_1d(f, a: float, b: float, breakpoints=(), order: int = 40,
                    panels_per_interval: int = 8) -> QuadResult:
    """Integrate f on [a, b] by composite Gauss-Legendre panels, splitting
    at the given interior breakpoints (integrable singularities allowed
    there). f must accept a 1D node array and may return a stack with the
    node axis last. The value uses 2 * panels_per_interval panels per
    interval; the error estimate, its gap to panels_per_interval panels,
    runs only when .error is read. Each pass calls f once, on the nodes of
    every interval, and adds the interval sums in order, so the result is
    bit for bit that of one call per interval. A repeated breakpoint counts
    once, so no empty interval puts nodes onto a singularity.
    """
    pts = [a] + sorted({float(x) for x in breakpoints if a < x < b}) + [b]
    fine = _panel_sum(f, pts, order, 2 * panels_per_interval)
    return QuadResult(fine, lambda: np.max(np.abs(
        fine - _panel_sum(f, pts, order, panels_per_interval))))


def _panel_sum(f, pts: list, order: int, nper: int):
    """The composite rule with nper clustered panels between breakpoints.
    The interval sums are added in order (a running sum, not pairwise)."""
    xg, wg = _legendre_rule(order)
    # Geometric clustering toward both interval ends, where the breakpoint
    # singularities sit: one row of panel edges per interval.
    edges = _clustered_edges(np.array(pts[:-1])[:, None],
                             np.array(pts[1:])[:, None], nper)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    nodes = (mid[..., None] + half[..., None] * xg).ravel()
    wts = (half[..., None] * wg).ravel()
    vals = f(nodes) * wts
    contrib = vals.reshape(vals.shape[:-1] + (len(edges), -1)).sum(-1)
    return np.cumsum(contrib, axis=-1)[..., -1]


@lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-point Gauss-Legendre nodes and weights on [-1, 1], built
    once per order and shared read-only."""
    xg, wg = leggauss(order)
    xg.flags.writeable = False
    wg.flags.writeable = False
    return xg, wg


def _clustered_edges(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Panel edges on [lo, hi] geometrically refined toward both ends; lo
    and hi are columns, and each row of the result is one interval's."""
    if n < 4:
        return np.linspace(lo[:, 0], hi[:, 0], n + 1, axis=-1)
    half = n // 2
    t = 0.5 * (1.0 - np.cos(np.pi * np.arange(half + 1) / half))  # [0,1]
    left = lo + 0.5 * (hi - lo) * t
    right = hi - 0.5 * (hi - lo) * t[::-1]
    return np.concatenate([left, right[:, 1:]], axis=-1)
