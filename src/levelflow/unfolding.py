"""Mapping raw spectra onto universal coordinates.

The mean level density of the coupled ensemble is a semicircle whose
radius follows from the second moment of the entry distribution,

    rho(E) = (4 alpha / (pi (1 + lam^2))) * sqrt(R^2 - E^2),
    R^2    = n (1 + lam^2) / (2 alpha),

valid for the symmetric block split n = 2m and, for any split, in the
single-GOE limit lam = 1.  At lam = 0 with m != n/2 the density is two
semicircles, of radii sqrt(m / alpha) and sqrt((n - m) / alpha), which
this model does not describe (ROADMAP item 1).  The pipeline never
integrates rho: velocities and curvatures are pushed through the unfolding
map x(E) by the chain rule, which needs only rho and its slope rho'
(`count` is the closed-form x(E) the tests check the chain rule against).
The unfolded dynamics are rescaled against the batch velocity moments

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

from .dynamics import SpectralFrame, check_blocks, finite
from .ensemble import DEFAULT_ALPHA, alpha_out_of_range, check_scale
from .errors import ValidationError

#: Levels closer to the support edge than this fraction of the radius are
#: not interior (the density derivative diverges at the edge).
EDGE_MARGIN = 1e-3


@dataclass(frozen=True)
class DensityModel:
    """Semicircle mean-density model of the coupled ensemble.

    The one place that knows the density: its support, rho, its integral, and
    which levels it unfolds with what rho and slope.  rho = scale * sqrt(R^2 - E^2)
    with scale = 4 alpha / (pi (1 + lam^2)), a plain attribute beside the radius.
    It refuses a coupling lam outside [0, 1], and an alpha whose R^2 or steepest
    interior slope, ~28.4 alpha / (1 + lam^2), is not finite and positive;
    n and alpha go through :func:`check_scale`.
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
        object.__setattr__(self, "scale", 4.0 * self.alpha / (np.pi * (1.0 + self.lam**2)))
        with np.errstate(over="ignore"):  # the steepest slope an interior level can meet
            if not abs(self.unfolding([self.radius * (1.0 - EDGE_MARGIN)])[2]) < np.inf:
                raise alpha_out_of_range(self.n, self.alpha)

    @property
    def support(self) -> tuple[float, float]:
        """(lo, hi) of the support; the density vanishes outside."""
        return -self.radius, self.radius

    def density(self, e) -> np.ndarray | float:
        """Semicircle density at energy e; zero outside the support."""
        r = self.radius
        ec = np.clip(np.asarray(e, dtype=float), -r, r)  # as in count: no square overflows
        out = self.scale * np.sqrt(np.maximum(r**2 - ec**2, 0.0))
        return out if out.ndim else float(out)

    def unfolding(self, e) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(inside, rho, rho') of energies e: the mask of those at least EDGE_MARGIN * R inside
        the support (NaN is not), where rho' is finite, and rho and d rho / dE at those energies."""
        e = np.asarray(e, dtype=float)
        inside = np.abs(e) <= self.radius * (1.0 - EDGE_MARGIN)
        e = e[inside]
        root = np.sqrt(self.radius**2 - e**2)
        return inside, self.scale * root, -self.scale * e / root

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


def unfold_dynamics(model: DensityModel, frame: SpectralFrame, indices: np.ndarray):
    """Velocities and curvatures of the unfolded positions x(E(t)).

    Chain rule through the unfolding map:
        xdot  = rho(E) Edot
        xddot = rho(E) Eddot + (d rho / dE) Edot^2
    It keeps the given levels that the model unfolds (see :meth:`DensityModel.unfolding`),
    returning them first: (kept, xdot, xddot).  An xdot or xddot that is not finite is refused:
    NaN or inf Edot or Eddot is a ValidationError, an overflow of finite ones a NumericalError.
    """
    inside, rho, slope = model.unfolding(frame.energies[indices])
    kept = indices[inside]
    v, c = frame.velocities[kept], frame.curvatures[kept]
    xdot, xddot = finite("xdot or xddot", lambda: (rho * v, rho * c + slope * v**2), v, c)
    return kept, xdot, xddot


def select_levels(frame: SpectralFrame, window: np.ndarray) -> np.ndarray:
    """The levels of the index window (see :func:`window_levels`) that the
    frame's degeneracy mask does not flag."""
    return window[~frame.degenerate_mask[window]]


def window_levels(blocks: tuple, window_fraction: float) -> np.ndarray:
    """The round(window_fraction * size) levels centred by index in each of the blocks, whose
    sizes, listed in order (see ArmParams.blocks), pass :func:`levelflow.dynamics.check_blocks`."""
    check_blocks(blocks)
    if not 0.0 < window_fraction <= 1.0:
        raise ValidationError(f"window must lie in (0, 1], got {window_fraction}")
    picked, offset = [], 0
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
    takes every column as a view of the row block, the realization and level
    ids too (float64 holding exact integers); the CLI writes them a chunk at
    a time.
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
    #: <|K|>, the scale normalize_batch divides K by; not annotated, so not a field or column.
    mean_abs_rescaled = None

    def __len__(self) -> int:
        return len(self.energy)

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "CurvatureBatch":
        """Build from an (n, 8) row matrix ordered like the dataclass columns."""
        return cls(*rows.T)


def rescale_batch(batch: CurvatureBatch) -> CurvatureBatch:
    """Fill the rescaled column K from the batch velocity moments.

    Two passes: the moments <xdot^2> and <xdot xddot> are taken over the whole batch
    first, then K = (xddot - (<xdot xddot>/<xdot^2>) xdot) / (pi <xdot^2>) per sample.
    The projection removes the component of the curvature correlated with the velocity,
    so adding any multiple of xdot to xddot leaves K unchanged.  Both passes run in place
    in the one buffer that becomes K.  It refuses an empty batch, <xdot^2> = 0 and a
    moment or K that is not finite, as :func:`unfold_dynamics` does.
    """
    if len(batch) == 0:
        raise ValidationError("cannot rescale an empty batch")
    xdot, xddot = batch.unfolded_velocity, batch.unfolded_curvature
    out = np.empty(len(xdot))
    v2 = finite("<xdot^2>", lambda: np.mean(np.square(xdot, out=out)), xdot)
    if v2 == 0.0:
        raise ValidationError(f"batch velocity second moment is {v2}, not finite and positive")
    cross = finite("<xdot xddot>", lambda: np.mean(np.multiply(xdot, xddot, out=out)), xdot, xddot)
    batch.rescaled = finite("K", lambda: np.divide(np.subtract(  # (xddot - xdot cross/v2) / (pi v2)
        xddot, np.multiply(xdot, cross / v2, out=out), out=out), np.pi * v2, out=out), xdot, xddot)
    return batch


def normalize_batch(batch: CurvatureBatch) -> CurvatureBatch:
    """Fill the normalized column k = K / <|K|> (mean |k| is 1), keeping <|K|> as mean_abs_rescaled;
    refuses an unrescaled or empty batch, all-zero K and (as rescale_batch) non-finite <|K|> or k."""
    if batch.rescaled is None:
        raise ValidationError("rescale the batch before normalizing it")
    if len(batch) == 0:
        raise ValidationError("cannot normalize an empty batch")
    out = np.abs(batch.rescaled)  # then k, in place
    scale = finite("<|K|>", lambda: float(np.mean(out)), batch.rescaled)
    if scale == 0.0:
        raise ValidationError("all rescaled curvatures vanish; nothing to normalize")
    batch.normalized = finite("k", lambda: np.divide(batch.rescaled, scale, out=out), batch.rescaled)
    batch.mean_abs_rescaled = scale
    return batch
