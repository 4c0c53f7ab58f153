"""Mapping raw spectra onto universal coordinates.

The mean level density of the coupled ensemble is a semicircle whose
radius follows from the second moment of the entry distribution,

    rho(E) = (4 alpha / (pi (1 + lam^2))) * sqrt(R^2 - E^2),
    R^2    = n (1 + lam^2) / (2 alpha),

valid for the symmetric block split n = 2m (and for any split in the
single-GOE and fully decoupled limits).  Unfolding integrates rho in
closed form.  Velocities and curvatures are pushed through the unfolding
map by the chain rule, rescaled against the batch velocity moments

    K = (xddot - (<xdot xddot>/<xdot^2>) xdot) / (pi <xdot^2>),

and finally renormalized to k = K / <|K|> so that mean |k| is exactly 1.
Under a uniform rescaling rho -> c rho, xdot and xddot scale by c, so K
scales by 1/c and only k is invariant.  That is why one shared density
model can serve block mode: the decoupled arm unfolds each block with
the pooled density of both blocks, at m = n/2 twice the block's own, so
its <|K|> is 1/2 while its k still follows the universal law.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import SpectralFrame
from .ensemble import DEFAULT_ALPHA, alpha_out_of_range, check_scale
from .errors import ValidationError

#: Levels closer to the support edge than this fraction of the radius are
#: not interior (the density derivative diverges at the edge).
EDGE_MARGIN = 1e-3


@dataclass(frozen=True)
class DensityModel:
    """Semicircle mean-density model of the coupled ensemble.

    The one place that knows the density: its support, the interior
    where levels may be unfolded, rho, its slope and its integral.  It
    refuses a coupling lam outside [0, 1] and a radius R whose square is
    not finite and positive; n and alpha go through :func:`check_scale`.
    """

    n: int
    alpha: float = DEFAULT_ALPHA
    lam: float = 1.0
    radius: float = field(init=False)

    def __post_init__(self):
        check_scale(self.n, self.alpha)
        if not 0.0 <= self.lam <= 1.0:
            raise ValidationError(f"coupling must lie in [0, 1], got lambda={self.lam:g} "
                                  f"(epsilon={np.sqrt(self.n) * self.lam:g} at n={self.n})")
        r2 = self.n * (1.0 + self.lam**2) / (2.0 * self.alpha)
        if not 0.0 < r2 < np.inf:
            raise alpha_out_of_range(self.n, self.alpha)
        object.__setattr__(self, "radius", float(np.sqrt(r2)))

    @property
    def support(self) -> tuple[float, float]:
        """(lo, hi) of the support; the density vanishes outside."""
        return -self.radius, self.radius

    def interior(self, e) -> np.ndarray:
        """Mask of the energies at least EDGE_MARGIN * R inside the support."""
        return np.abs(e) <= self.radius * (1.0 - EDGE_MARGIN)

    def density(self, e) -> np.ndarray | float:
        """Semicircle density at energy e; zero outside the support."""
        e = np.asarray(e, dtype=float)
        scale = 4.0 * self.alpha / (np.pi * (1.0 + self.lam**2))
        out = np.where(
            np.abs(e) <= self.radius, scale * np.sqrt(np.maximum(self.radius**2 - e**2, 0.0)), 0.0
        )
        return out if out.ndim else float(out)

    def slope(self, e) -> np.ndarray | float:
        """d rho / dE strictly inside the support (diverges at the edges)."""
        e = np.asarray(e, dtype=float)
        scale = 4.0 * self.alpha / (np.pi * (1.0 + self.lam**2))
        out = -scale * e / np.sqrt(self.radius**2 - e**2)
        return out if out.ndim else float(out)

    def count(self, e) -> np.ndarray | float:
        """Cumulative mean level count x(E), the closed-form integral of rho.

        x(E) = n [ 1/2 + E sqrt(R^2 - E^2) / (pi R^2) + arcsin(E/R) / pi ]
        inside the support, clamped to 0 and n outside; monotone
        non-decreasing everywhere.
        """
        e = np.asarray(e, dtype=float)
        r = self.radius
        ec = np.clip(e, -r, r)
        out = self.n * (
            0.5 + ec * np.sqrt(np.maximum(r**2 - ec**2, 0.0)) / (np.pi * r**2) + np.arcsin(ec / r) / np.pi
        )
        # arcsin noise exactly at the edge is O(n sqrt(eps)) and can stick out of
        # the mathematical range; pin it back.
        out = np.clip(out, 0.0, self.n)
        return out if out.ndim else float(out)


def unfold_dynamics(model: DensityModel, frame: SpectralFrame, indices: np.ndarray | None = None):
    """Velocities and curvatures of the unfolded positions x(E(t)).

    Chain rule through the unfolding map:
        xdot  = rho(E) Edot
        xddot = rho(E) Eddot + (d rho / dE) Edot^2
    Returns (xdot, xddot) for the selected levels (all by default).
    Raises if a retained level is not in the model's interior, where
    the density slope is finite.
    """
    if indices is None:
        indices = np.arange(frame.dim)
    e = frame.energies[indices]
    if not np.all(model.interior(e)):
        worst = float(np.max(np.abs(e)))
        raise ValidationError(
            f"retained level at |E|={worst:.6g} is closer to the support edge "
            f"R={model.support[1]:.6g} than the margin {EDGE_MARGIN:g} allows"
        )
    rho = model.density(e)
    xdot = rho * frame.velocities[indices]
    xddot = rho * frame.curvatures[indices] + model.slope(e) * frame.velocities[indices] ** 2
    return xdot, xddot


def select_levels(frame: SpectralFrame, window: np.ndarray) -> np.ndarray:
    """The levels of the index window (see :func:`window_levels`) that the
    frame's degeneracy mask does not flag."""
    return window[~frame.degenerate_mask[window]]


def window_levels(blocks: tuple, window_fraction: float) -> np.ndarray:
    """The round(window_fraction * size) levels centred by index in each of
    the blocks, whose sizes are listed in order (see ArmParams.blocks)."""
    picked = []
    offset = 0
    for size in blocks:
        keep = max(int(round(window_fraction * size)), 1)
        lo = offset + (size - keep) // 2
        picked.append(np.arange(lo, lo + keep))
        offset += size
    return np.concatenate(picked)


@dataclass
class CurvatureBatch:
    """Columnar batch of per-level curvature samples for one coupling value.

    Provenance columns identify (realization, level, t); the physics
    columns are filled in pipeline order: raw dynamics first, unfolded
    dynamics next, then rescaled (K) by :func:`rescale_batch` and
    normalized (k) by :func:`normalize_batch`.  The rescaled/normalized
    columns stay None until the corresponding pass has run.  :meth:`from_rows`
    takes the physics columns as views; the CLI writes them a chunk at a time.
    """

    realization: np.ndarray
    level: np.ndarray
    t: np.ndarray
    energy: np.ndarray
    raw_velocity: np.ndarray
    raw_curvature: np.ndarray
    unfolded_velocity: np.ndarray
    unfolded_curvature: np.ndarray
    rescaled: np.ndarray | None = None
    normalized: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.energy)

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "CurvatureBatch":
        """Build from an (n, 8) row matrix ordered like the dataclass columns."""
        realization, level, *physics = rows.T
        return cls(realization.astype(int), level.astype(int), *physics)


def rescale_batch(batch: CurvatureBatch) -> CurvatureBatch:
    """Fill the rescaled column K from the batch velocity moments.

    Two passes: the moments <xdot^2> and <xdot xddot> are taken over the
    whole batch first, then K = (xddot - (<xdot xddot>/<xdot^2>) xdot)
    / (pi <xdot^2>) per sample.  The projection removes the component of
    the curvature correlated with the velocity, so adding any multiple
    of xdot to xddot leaves K unchanged.
    """
    if len(batch) == 0:
        raise ValidationError("cannot rescale an empty batch")
    xdot = batch.unfolded_velocity
    xddot = batch.unfolded_curvature
    v2 = float(np.mean(xdot**2))
    if v2 == 0.0:
        raise ValidationError("batch velocity second moment is zero")
    cross = float(np.mean(xdot * xddot))
    batch.rescaled = (xddot - (cross / v2) * xdot) / (np.pi * v2)
    return batch


def normalize_batch(batch: CurvatureBatch) -> CurvatureBatch:
    """Fill the normalized column k = K / <|K|>; afterwards mean |k| is 1."""
    if batch.rescaled is None:
        raise ValidationError("rescale the batch before normalizing it")
    if len(batch) == 0:
        raise ValidationError("cannot normalize an empty batch")
    scale = float(np.mean(np.abs(batch.rescaled)))
    if scale == 0.0:
        raise ValidationError("all rescaled curvatures vanish; nothing to normalize")
    batch.normalized = batch.rescaled / scale
    return batch
