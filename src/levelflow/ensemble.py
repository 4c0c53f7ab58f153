"""Sampling of GOE matrices and the coupled two-block ensemble.

The ensemble interpolates between a single GOE (coupling 1) and two
decoupled GOE blocks (coupling 0).  Entries follow the weight
exp(-alpha * tr H^2), which fixes the variances to 1/(2*alpha) on the
diagonal and 1/(4*alpha) off the diagonal.  Cross-block entries are
additionally scaled by the coupling lam, so their variance carries a
factor lam^2.

Randomness comes from explicit numpy Generators.  The normal sampler is
numpy's ziggurat ``standard_normal`` on a PCG64 stream; stream splitting
for parallel work uses ``SeedSequence(seed, spawn_key=...)`` (see
:func:`child_rng`).  Both are stable, versioned algorithms, so a fixed
seed reproduces the same matrices on any platform running the same numpy
version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

#: Default Gaussian scale: off-diagonal variance 1/2, semicircle radius
#: sqrt(2 N) in the single-GOE limit.
DEFAULT_ALPHA = 0.5


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters of the coupled two-block Gaussian ensemble.

    n: matrix dimension, m: first-block dimension, lam: block coupling
    in [0, 1], alpha: scale of the Gaussian weight, seed: base RNG seed.
    The dimensionless sweep parameter eps = sqrt(n) * lam is always
    derived on the fly, never stored.
    """

    n: int
    m: int
    lam: float
    alpha: float = DEFAULT_ALPHA
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"matrix dimension must be >= 2, got {self.n}")
        if not 1 <= self.m < self.n:
            raise ValidationError(f"block size must satisfy 1 <= m < n, got m={self.m}, n={self.n}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValidationError(f"coupling must lie in [0, 1], got {self.lam}")
        if not self.alpha > 0:
            raise ValidationError(f"gaussian scale must be positive, got {self.alpha}")

    @property
    def epsilon(self) -> float:
        return epsilon_lambda(self.n, self.lam, "to_epsilon")


def epsilon_lambda(n: int, value: float, direction: str) -> float:
    """Convert between the coupling lam and the scaled parameter eps = sqrt(n)*lam.

    direction "to_lambda" maps eps -> lam, "to_epsilon" maps lam -> eps.
    Raises if the value is negative or the resulting lam exceeds 1.
    """
    if n < 1:
        raise ValidationError(f"dimension must be >= 1, got {n}")
    if not value >= 0:
        raise ValidationError(f"value must be non-negative, got {value}")
    root = float(np.sqrt(n))
    if direction == "to_lambda":
        lam = value / root
        if lam > 1.0:
            raise ValidationError(
                f"epsilon {value} maps to coupling {lam} > 1 at dimension {n}"
            )
        return float(lam)
    if direction == "to_epsilon":
        if value > 1.0:
            raise ValidationError(f"coupling must lie in [0, 1], got {value}")
        return float(root * value)
    raise ValidationError(f"direction must be 'to_lambda' or 'to_epsilon', got {direction!r}")


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent child stream for a (seed, key...) combination.

    Child i of a parent seed is PCG64 seeded with
    ``SeedSequence(seed, spawn_key=key)``; distinct keys give streams that
    are independent for all practical purposes.  Used to hand one stream
    to each (epsilon index, realization index) worker so results do not
    depend on scheduling.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def sample_goe(n: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """Draw one GOE matrix with weight exp(-alpha * tr H^2).

    Realized as (G + G^T) / sqrt(8 alpha) with G an n x n array of unit
    normals, which gives exactly variance 1/(2 alpha) on the diagonal and
    1/(4 alpha) off it.  The result is symmetric to the last bit.
    """
    if n < 1:
        raise ValidationError(f"dimension must be >= 1, got {n}")
    if not alpha > 0:
        raise ValidationError(f"gaussian scale must be positive, got {alpha}")
    g = rng.standard_normal((n, n))
    return (g + g.T) / np.sqrt(8.0 * alpha)


def sample_coupled(spec: EnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw one matrix of the coupled two-block ensemble.

    A single GOE draw has every entry linking the first m indices to the
    rest multiplied by the coupling.  Because the in-block and cross-block
    entries are disjoint, this is distribution-identical to combining
    independent GOE draws per block term, at a third of the cost.
    Coupling 1 reproduces plain GOE draws bit for bit; coupling 0 yields
    exact block-diagonal matrices.
    """
    h = sample_goe(spec.n, spec.alpha, rng)
    if spec.lam != 1.0:
        m = spec.m
        h[:m, m:] *= spec.lam
        h[m:, :m] *= spec.lam
    return h
