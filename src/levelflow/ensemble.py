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

from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError

if TYPE_CHECKING:
    from .pipeline import ArmParams

#: Default Gaussian scale: off-diagonal variance 1/2, semicircle radius
#: sqrt(2 N) in the single-GOE limit.
DEFAULT_ALPHA = 0.5


def check_scale(n: int, alpha: float) -> None:
    """Refuse n < 1, or an alpha that is not positive and finite or whose entry scale
    sqrt(8 alpha) of :func:`sample_goe` overflows.  The coupling and the radius are
    checked by :class:`levelflow.unfolding.DensityModel`, which owns them."""
    if n < 1:
        raise ValidationError(f"dimension must be >= 1, got {n}")
    if not 0 < alpha < np.inf:
        raise ValidationError(f"alpha must be positive and finite, got {alpha}")
    if not 8.0 * alpha < np.inf:
        raise alpha_out_of_range(n, alpha)


def alpha_out_of_range(n: int, alpha: float) -> ValidationError:
    """The refusal of an alpha whose derived scales at n are not finite and positive."""
    return ValidationError(f"alpha={alpha:g} is out of range at n={n}: sqrt(8 alpha), "
                           f"R^2 = n(1 + lambda^2)/(2 alpha) and the steepest density slope "
                           f"|rho'| ~ 28.4 alpha/(1 + lambda^2) must be finite and positive")


def lambda_from_epsilon(n: int, eps: float) -> float:
    """Coupling lam of the scaled parameter eps = sqrt(n) * lam, for n >= 1.

    The inverse of :attr:`ArmParams.epsilon`; ArmParams refuses a lam outside [0, 1].
    """
    return eps / float(np.sqrt(n))


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent child stream for a (seed, key...) combination.

    Child i of a parent seed is PCG64 seeded with
    ``SeedSequence(seed, spawn_key=key)``; distinct keys give streams that
    are independent for all practical purposes.  Used to hand one stream
    to each realization, key (0, r) whatever the arm, so results do not
    depend on scheduling.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def sample_goe(n: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """Draw one GOE matrix with weight exp(-alpha * tr H^2).

    Realized as (G + G^T) / sqrt(8 alpha) with G an n x n array of unit
    normals, which gives exactly variance 1/(2 alpha) on the diagonal and
    1/(4 alpha) off it.  The result is symmetric to the last bit.
    """
    check_scale(n, alpha)
    g = rng.standard_normal((n, n))
    return (g + g.T) / np.sqrt(8.0 * alpha)


def sample_coupled(arm: ArmParams, rng: np.random.Generator) -> np.ndarray:
    """Draw one matrix of the coupled two-block ensemble of an arm (its n, m, lam, alpha).

    A single GOE draw has every entry linking the first m indices to the
    rest multiplied by the coupling.  Because the in-block and cross-block
    entries are disjoint, this is distribution-identical to combining
    independent GOE draws per block term, at a third of the cost.
    Coupling 1 reproduces plain GOE draws bit for bit; coupling 0 yields
    exact block-diagonal matrices.
    """
    h = sample_goe(arm.n, arm.alpha, rng)
    h[: arm.m, arm.m :] *= arm.lam
    h[arm.m :, : arm.m] *= arm.lam
    return h
