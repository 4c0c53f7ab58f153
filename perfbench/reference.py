"""Computations made apart from levelflow, against which its outputs are checked.

Nothing here imports levelflow.  Each formula is written from its
definition: the curvature law P(K; gamma) = 1 / (2 gamma (1 + (K/gamma)^2)^(3/2))
of Zakrzewski & Delande, Phys. Rev. E 47, 1650 (1993), the semicircle
density, the seeding scheme the levelflow README documents, and finite
differences of eigenvalues along H(t) = H1 cos t + H2 sin t.
"""

from __future__ import annotations

import math

import numpy as np


def curvature_cdf(k, gamma: float = 1.0) -> np.ndarray:
    """CDF of P(K; gamma): (1 + z / sqrt(1 + z^2)) / 2 with z = K / gamma."""
    z = np.asarray(k, dtype=float) / gamma
    return 0.5 * (1.0 + z / np.sqrt(1.0 + z * z))


def draw_curvatures(gamma: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draws from P(K; gamma): solve curvature_cdf(K) = F for uniform F."""
    y = 2.0 * rng.random(count) - 1.0  # y = 2F - 1 in [-1, 1)
    y[y == -1.0] = np.nextafter(-1.0, 0.0)
    return gamma * y / np.sqrt(1.0 - y * y)


def ks_distance(samples, gamma: float = 1.0) -> float:
    """Kolmogorov-Smirnov distance between samples and P(K; gamma)."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    cdf = curvature_cdf(x, gamma)
    return float(max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)))


def ks_critical(count: int, significance: float) -> float:
    """Asymptotic one-sample KS critical value sqrt(-ln(significance / 2) / 2) / sqrt(count)."""
    return math.sqrt(-0.5 * math.log(significance / 2.0)) / math.sqrt(count)


def semicircle(e, n: int, alpha: float, lam: float) -> np.ndarray:
    """Mean level density n * 2 sqrt(R^2 - E^2) / (pi R^2), R^2 = n (1 + lam^2) / (2 alpha).

    This is Wigner's R = 2 sqrt(n s2) with s2 the off-diagonal variance
    averaged over a row, (1 + lam^2) / (8 alpha), for the symmetric split
    m = n/2 that the benchmark runs.
    """
    r2 = n * (1.0 + lam * lam) / (2.0 * alpha)
    e = np.asarray(e, dtype=float)
    return n * 2.0 * np.sqrt(np.maximum(r2 - e * e, 0.0)) / (math.pi * r2)


def semicircle_slope(e, n: int, alpha: float, lam: float) -> np.ndarray:
    """d/dE of :func:`semicircle` strictly inside the support."""
    r2 = n * (1.0 + lam * lam) / (2.0 * alpha)
    e = np.asarray(e, dtype=float)
    return -n * 2.0 * e / (math.pi * r2 * np.sqrt(r2 - e * e))


def redraw_realization(seed: int, eps_index: int, realization: int, n: int, m: int,
                       alpha: float, lam: float, t_samples: int):
    """(H1, H2, ts) of one realization, redrawn from the documented seeding scheme.

    Realization r of arm i draws from PCG64(SeedSequence(seed, spawn_key=(i, r))):
    H1, then H2, each (G + G^T) / sqrt(8 alpha) from one n x n block of
    standard normals with the cross-block entries scaled by lam, then the
    t_samples path positions uniform on [0, 2 pi).
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(eps_index, realization))))
    mats = []
    for _ in range(2):
        g = rng.standard_normal((n, n))
        h = (g + g.T) / math.sqrt(8.0 * alpha)
        if lam != 1.0:
            h[:m, m:] *= lam
            h[m:, :m] *= lam
        mats.append(h)
    ts = rng.uniform(0.0, 2.0 * math.pi, t_samples)
    return mats[0], mats[1], ts


def _levels(h1, h2, t):
    return np.linalg.eigvalsh(h1 * math.cos(t) + h2 * math.sin(t))


def _richardson(table):
    for s in range(1, len(table)):
        table = [(4**s * fine - coarse) / (4**s - 1) for coarse, fine in zip(table, table[1:])]
    return table[0]


def level_derivatives(h1, h2, t: float):
    """(E, Edot, Eddot, gap) of all levels of H(t), from finite differences of eigenvalues.

    Central differences Richardson-extrapolated over halved widths:
    velocities from 1e-4 and 5e-5, curvatures from 1e-3, 5e-4 and 2.5e-4.
    gap is each level's distance to its nearest neighbour; the stencils
    are trustworthy only where it is well above the widest width.
    """
    e = _levels(h1, h2, t)
    vel, curv = [], []
    for j in range(3):
        d = 1e-3 / 2**j
        lo, hi = _levels(h1, h2, t - d), _levels(h1, h2, t + d)
        curv.append((hi - 2.0 * e + lo) / d**2)
    for j in range(2):
        d = 1e-4 / 2**j
        vel.append((_levels(h1, h2, t + d) - _levels(h1, h2, t - d)) / (2.0 * d))
    gaps = np.diff(e)
    gap = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])
    return e, _richardson(vel), _richardson(curv), gap
