"""Shared k-space quadrature engine.

One tolerance policy for every closed-form k-integral in the package:
absolute target 1e-8, with a reported error estimate obtained from grid
refinement (3D) or panel doubling (1D). Integrands here all carry the
Gaussian factor of the Wiener function, so the tensor-product trapezoid
rule on [-k_max, k_max]^3 converges spectrally once the box covers the
Gaussian support.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

ABS_TOL_TARGET = 1e-8


@dataclass(frozen=True)
class QuadResult:
    value: np.ndarray
    error: float

    def within_target(self, tol: float = ABS_TOL_TARGET) -> bool:
        return self.error <= tol


def _trap_nodes(kmax: float, n: int):
    nodes = np.linspace(-kmax, kmax, n + 1)
    w = np.full(n + 1, 2.0 * kmax / n)
    w[0] *= 0.5
    w[-1] *= 0.5
    return nodes, w


def tensor_trapezoid_3d(f, kmax: float, n: int = 96) -> QuadResult:
    """Integrate f over [-kmax, kmax]^3 with an (n+1)^3 tensor trapezoid.

    f receives broadcastable axis arrays (k1, k2, k3) of shapes
    (n+1,1,1), (1,n+1,1), (1,1,n+1) and must return the integrand with
    those trailing dimensions (leading stack dimensions allowed).

    The error estimate uses the two embedded coarser grids (n/2, n/4):
    with differences d1 = |I_n - I_{n/2}| and d2 = |I_{n/2} - I_{n/4}|,
    the geometric tail bound err ~ d1 * (d1 / d2) is reported. For the
    Gaussian-weighted analytic integrands here the trapezoid converges at
    least geometrically in n, so the bound is conservative.
    """
    if n % 4 != 0:
        raise ValueError("n must be divisible by 4 for the error estimate")
    nodes, w = _trap_nodes(kmax, n)
    k1 = nodes[:, None, None]
    k2 = nodes[None, :, None]
    k3 = nodes[None, None, :]
    vals = f(k1, k2, k3)
    w3 = w[:, None, None] * w[None, :, None] * w[None, None, :]
    fine = np.sum(vals * w3, axis=(-3, -2, -1))

    def embedded(step):
        _, wc = _trap_nodes(kmax, n // step)
        sl = slice(None, None, step)
        w3c = wc[:, None, None] * wc[None, :, None] * wc[None, None, :]
        return np.sum(vals[..., sl, sl, sl] * w3c, axis=(-3, -2, -1))

    half = embedded(2)
    quarter = embedded(4)
    d1 = float(np.max(np.abs(fine - half)))
    d2 = float(np.max(np.abs(half - quarter)))
    err = d1 if d2 == 0.0 else d1 * min(1.0, d1 / d2)
    return QuadResult(fine, err)


def gauss_panels_1d(f, a: float, b: float, breakpoints=(), order: int = 40,
                    panels_per_interval: int = 8) -> QuadResult:
    """Integrate f on [a, b] by composite Gauss-Legendre panels, splitting
    at the given interior breakpoints (integrable singularities allowed
    there). f must accept a 1D node array and may return a stack with the
    node axis last. Error estimate from doubling the panel count.
    """
    pts = [a] + sorted(float(x) for x in breakpoints if a < x < b) + [b]

    xg, wg = _legendre_rule(order)

    def run(nper):
        total = None
        for lo, hi in zip(pts, pts[1:]):
            # Geometric clustering toward both interval ends, where the
            # breakpoint singularities sit.
            edges = _clustered_edges(lo, hi, nper)
            mid = 0.5 * (edges[1:] + edges[:-1])
            half = 0.5 * (edges[1:] - edges[:-1])
            nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
            wts = (half[:, None] * wg[None, :]).ravel()
            vals = f(nodes)
            contrib = np.sum(vals * wts, axis=-1)
            total = contrib if total is None else total + contrib
        return total

    fine = run(2 * panels_per_interval)
    coarse = run(panels_per_interval)
    err = float(np.max(np.abs(fine - coarse)))
    return QuadResult(fine, err)


@lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-point Gauss-Legendre nodes and weights on [-1, 1], built
    once per order and shared read-only."""
    xg, wg = leggauss(order)
    xg.flags.writeable = False
    wg.flags.writeable = False
    return xg, wg


def _clustered_edges(lo: float, hi: float, n: int) -> np.ndarray:
    """Panel edges on [lo, hi] geometrically refined toward both ends."""
    if n < 4:
        return np.linspace(lo, hi, n + 1)
    half = n // 2
    t = 0.5 * (1.0 - np.cos(np.pi * np.arange(half + 1) / half))  # [0,1]
    left = lo + 0.5 * (hi - lo) * t
    right = hi - 0.5 * (hi - lo) * t[::-1]
    return np.concatenate([left, right[1:]])


def monte_carlo_gaussian_3d(rest, sigma: float, n_samples: int,
                            seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo oracle for integrals of the form
        integral e^{-sigma^2 |k|^2} * rest(k1, k2, k3) dk
    by importance sampling with the Gaussian as the density.

    Returns (estimate, standard_error), each with rest's output shape.
    """
    rng = np.random.default_rng(seed)
    s = 1.0 / (np.sqrt(2.0) * sigma)
    k = rng.normal(scale=s, size=(3, n_samples))
    norm = (np.pi / sigma**2) ** 1.5  # integral of the Gaussian weight
    vals = norm * rest(k[0], k[1], k[2])
    est = np.mean(vals, axis=-1)
    stderr = np.std(vals, axis=-1, ddof=1) / np.sqrt(n_samples)
    return est, stderr
