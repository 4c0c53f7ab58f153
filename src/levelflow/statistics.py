"""Curvature distributions, histograms, and fitting.

The universal curvature law for the orthogonal symmetry class is

    P(k) = 1 / (2 (1 + k^2)^(3/2)),

whose mean absolute value is exactly 1 and whose tail falls off as
k^-3.  Its one-parameter family

    P(K; gamma) = 1 / (2 gamma [1 + (K/gamma)^2]^(3/2))

has <|K|> = gamma and reduces to the universal law at gamma = 1; the
closed-form CDF (1 + (K/gamma)/sqrt(1 + (K/gamma)^2)) / 2 drives both
the exact sampler and the Kolmogorov-Smirnov distance.  gamma is fitted
to binned densities by golden-section least squares against bin-averaged
model values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

#: Search bracket and relative tolerance of the gamma fit.
FIT_BRACKET = (0.1, 10.0)
FIT_REL_TOL = 1e-6

#: Geometric bins of the tail-exponent regression.
TAIL_BINS = 10

#: Values per block of the exact sample reductions (KS maxima, histogram and
#: tail counts): their temporaries stay this long whatever the sample size.
STAT_BLOCK = 16384

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def universal_pdf(k) -> np.ndarray | float:
    """Universal curvature density 1 / (2 (1 + k^2)^(3/2)): :func:`gamma_pdf` at gamma = 1."""
    return gamma_pdf(k, 1.0)


def gamma_pdf(k, gamma: float) -> np.ndarray | float:
    """One-parameter curvature density with mean absolute value gamma."""
    if not 0 < gamma < np.inf:
        raise ValidationError(f"gamma must be positive and finite, got {gamma}")
    k = np.asarray(k, dtype=float)
    out = 0.5 / (gamma * (1.0 + (k / gamma) ** 2) ** 1.5)
    return out if out.ndim else float(out)


def gamma_cdf(k, gamma: float = 1.0) -> np.ndarray | float:
    """Closed-form CDF of :func:`gamma_pdf`."""
    if not 0 < gamma < np.inf:
        raise ValidationError(f"gamma must be positive and finite, got {gamma}")
    k = np.asarray(k, dtype=float)
    # 0.5 * (1 + z / sqrt(1 + z**2)) in place in two buffers, z and out, neither of them k
    z, out = np.empty_like(k), np.empty_like(k)
    with np.errstate(over="ignore"):  # k / gamma past the largest double is inf before the clip
        np.divide(k, gamma, out=z)
    # z**2 overflows past |z| ~ 1.3e154; at |z| = 2**500 it is exact and the CDF exactly 0 or 1
    np.clip(z, -(2.0**500), 2.0**500, out=z)
    np.square(z, out=out)
    out += 1.0
    np.sqrt(out, out=out)
    np.divide(z, out, out=out)
    out += 1.0
    out *= 0.5
    return out if out.ndim else float(out)


def _blocks(values: np.ndarray):
    """(start, view) of consecutive STAT_BLOCK-long slices of a 1-D array."""
    for start in range(0, len(values), STAT_BLOCK):
        yield start, values[start : start + STAT_BLOCK]


def sample_gamma_dist(gamma: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exact inverse-CDF sampler: K = gamma * u / sqrt(1 - u^2), u uniform(-1, 1)."""
    if not 0 < gamma < np.inf:
        raise ValidationError(f"gamma must be positive and finite, got {gamma}")
    if n < 1:
        raise ValidationError(f"sample count must be >= 1, got {n}")
    u = rng.uniform(-1.0, 1.0, n)
    return gamma * u / np.sqrt(1.0 - u**2)


@dataclass
class Histogram:
    """Binned samples with half-open bins [e_i, e_{i+1}).

    total counts only the in-range samples; underflow/overflow are kept
    separately.  norm_count is the count the density was divided by, as
    :func:`build_histogram` chose it: total under truncated normalization,
    so the density integrates to 1 over the binned range, else every
    sample, out-of-range tallies included, so the density is an unbiased
    estimate of the underlying density on the range, which is what
    distribution fitting needs.
    """

    edges: np.ndarray
    counts: np.ndarray
    total: int
    underflow: int
    overflow: int
    norm_count: int
    density: np.ndarray

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def _bin_edges(edges) -> np.ndarray:
    """Bin edges as a float array; raises on fewer than 2 edges, or edges not
    finite and strictly ascending (their span finite too)."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2:
        raise ValidationError("need at least two ascending bin edges")
    if not (np.all(edges[1:] > edges[:-1]) and float(edges[-1]) - float(edges[0]) < np.inf):
        raise ValidationError("bin edges must be finite and strictly ascending, over a finite span")
    return edges


def build_histogram(samples, edges, truncated: bool = True) -> Histogram:
    """Histogram samples over ascending edges.

    Raises on fewer than 2 edges, edges not finite and strictly ascending
    (their span finite too), a NaN sample, or (for the truncated default)
    an empty in-range sample set, for which the density would be undefined.
    """
    edges = _bin_edges(edges)
    samples = np.asarray(samples, dtype=float).ravel()
    counts = np.zeros(len(edges) - 1, dtype=int)
    underflow = overflow = 0
    for _, block in _blocks(samples):
        counts += np.histogram(block, bins=edges)[0]
        underflow += int(np.count_nonzero(block < edges[0]))
        overflow += int(np.count_nonzero(block >= edges[-1]))
        # np.histogram closes the last bin; samples equal to the top edge are overflow
        counts[-1] -= np.count_nonzero(block == edges[-1])
    total = int(counts.sum())
    if total + underflow + overflow != len(samples):
        raise ValidationError("cannot histogram NaN samples")
    norm_count = total if truncated else len(samples)
    if norm_count == 0:
        raise ValidationError("no samples to normalize the histogram density")
    density = counts / (norm_count * np.diff(edges))
    return Histogram(edges, counts, total, underflow, overflow, norm_count, density)


@dataclass
class DistributionFit:
    """Result of the one-parameter curvature fit."""

    gamma: float
    objective: float
    gamma_uncertainty: float
    bins_used: int


def model_bin_density(edges: np.ndarray, gamma: float) -> np.ndarray:
    """Bin-averaged model density: integral of gamma_pdf over each bin / width."""
    cdf = gamma_cdf(edges, gamma)
    return np.diff(cdf) / np.diff(edges)


def _golden_minimize(objective, lo: float, hi: float):
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > FIT_REL_TOL * max(abs(a), abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = objective(d)
    x = 0.5 * (a + b)
    return x, objective(x)


def fit_gamma(edges, density) -> DistributionFit:
    """Least-squares fit of gamma to a density, one value per bin of ascending edges.

    Minimizes the mean squared residual between the density (a histogram's
    or a table's binned elsewhere) and the bin-averaged model over
    FIT_BRACKET by golden-section search.  The one-sigma uncertainty comes
    from the curvature of the objective at the minimum (quadratic
    approximation of the residual surface, residual variance estimated from
    the minimum itself).  Requires one edge more than densities and at
    least 5 non-empty bins, the edges finite and strictly ascending as for
    :func:`build_histogram`; refuses a minimum pinned to a bracket edge, so
    gamma lies strictly inside the bracket, and a minimum where the
    objective has no positive curvature.
    """
    edges, density = _bin_edges(edges), np.asarray(density, dtype=float)
    if density.ndim != 1 or edges.shape != (len(density) + 1,):
        raise ValidationError(f"need one bin edge more than densities, got {edges.size} edges "
                              f"and {density.size} densities")
    nonempty = int(np.sum(density > 0))
    if nonempty < 5:
        raise ValidationError(f"need at least 5 non-empty bins to fit, got {nonempty}")
    peak = float(np.max(np.abs(density)))  # the objective sums squares; the model stays below 5
    if peak >= 0.5 * np.sqrt(np.finfo(float).max / len(density)):
        raise NumericalError(f"densities up to {peak:.3g} would overflow the squared residuals")

    def objective(g: float) -> float:
        return float(np.mean((density - model_bin_density(edges, g)) ** 2))

    lo, hi = FIT_BRACKET
    gamma, best = _golden_minimize(objective, lo, hi)
    span = hi - lo
    if gamma - lo < 2 * FIT_REL_TOL * span or hi - gamma < 2 * FIT_REL_TOL * span:
        raise NumericalError(
            f"no interior minimum: fit ran into the bracket edge at gamma={gamma:.6g}"
        )
    # Quadratic approximation: sigma^2 = 2 s^2 / SSR''(gamma*), with the
    # residual variance s^2 estimated as SSR_min / (nbins - 1).
    nbins = len(density)
    step = max(1e-4 * gamma, 1e-8)
    second = (objective(gamma + step) - 2.0 * best + objective(gamma - step)) / step**2
    if not second > 0:
        raise NumericalError(f"no uncertainty: the objective has no positive curvature "
                             f"at gamma={gamma:.6g}")
    s2 = nbins * best / max(nbins - 1, 1)
    uncertainty = float(np.sqrt(2.0 * s2 / (nbins * second)))
    return DistributionFit(
        gamma=float(gamma),
        objective=best,
        gamma_uncertainty=uncertainty,
        bins_used=nbins,
    )


def reduced_chi_square(hist: Histogram, model_density: np.ndarray) -> float:
    """Per-bin Poisson chi-square of the counts against a model, divided by (bins - 1).

    model_density holds the model's density per bin (for the gamma family
    :func:`model_bin_density`); it is turned into expected counts with the
    histogram's own normalization.  Bins expecting fewer than 1 count are
    skipped; raises if none is left, or if the sum overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        expected = model_density * hist.widths * hist.norm_count
        keep = expected >= 1.0
        if not np.any(keep):
            raise ValidationError("no bins with usable expected counts")
        chi2 = float(np.sum((hist.counts[keep] - expected[keep]) ** 2 / expected[keep]))
    if not chi2 < np.inf:
        raise NumericalError(f"chi-square overflows: expected counts reach "
                             f"{np.max(expected[keep]):.3g}")
    dof = max(int(np.sum(keep)) - 1, 1)
    return chi2 / dof


def _ascending(values: np.ndarray) -> bool:
    """Whether a 1-D array is ascending (NaN never is), read in overlapping
    STAT_BLOCK + 1 slices so the comparisons stay one block long."""
    for start in range(0, len(values) - 1, STAT_BLOCK):
        block = values[start : start + STAT_BLOCK + 1]
        if not np.all(block[:-1] <= block[1:]):
            return False
    return True


def ks_statistic(samples, gamma: float = 1.0) -> float:
    """Kolmogorov-Smirnov distance between the samples and the model CDF.

    An ascending array is read where it lies; any other input is sorted
    into a copy, the one full-length array.  The CDF and the two empirical
    differences are taken STAT_BLOCK values at a time, in two block buffers.
    Raises on an empty sample set or a NaN sample.
    """
    samples = np.asarray(samples, dtype=float)
    if not _ascending(samples):
        samples = np.sort(samples)
    n = len(samples)
    if n == 0:
        raise ValidationError("cannot compute a KS distance of an empty sample set")
    if np.isnan(samples[-1]):  # the sort puts NaN last
        raise ValidationError("cannot compute a KS distance of NaN samples")
    above = below = -np.inf
    for start, block in _blocks(samples):
        cdf = gamma_cdf(block, gamma)
        # the ranks i + 1, then i, as exact float64 integers divided in place give
        # (i + 1) / n - cdf and cdf - i / n bit for bit, one buffer beside cdf at a time
        diff = np.arange(start + 1, start + len(block) + 1, dtype=float)
        diff /= n
        above = max(above, np.max(np.subtract(diff, cdf, out=diff)))
        del diff
        diff = np.arange(start, start + len(block), dtype=float)
        diff /= n
        below = max(below, np.max(np.subtract(cdf, diff, out=diff)))
        del cdf, diff  # before the next block's CDF is made
    return float(max(above, below))


def loglog_slope(edges: np.ndarray, density: np.ndarray):
    """OLS slope of log density against log bin position.

    The abscissa is the geometric bin midpoint (for geometric bins any
    fixed within-bin position shifts log x by a constant, leaving the
    slope unchanged).  Zero-density bins are dropped.  The edges must be
    positive, finite and strictly ascending.  Returns (slope, standard_error).
    """
    edges = _bin_edges(edges)
    if edges[0] <= 0:
        raise ValidationError(f"log-log bin edges must be positive, got first edge {edges[0]}")
    density = np.asarray(density, dtype=float)
    mids = np.sqrt(edges[1:] * edges[:-1])
    keep = density > 0
    if int(np.sum(keep)) < 3:
        raise ValidationError("need at least 3 non-empty bins for a slope")
    x = np.log(mids[keep])
    y = np.log(density[keep])
    nb = len(x)
    sxx = float(np.sum((x - x.mean()) ** 2))
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = y.mean() - slope * x.mean()
    residuals = y - (intercept + slope * x)
    s2 = float(np.sum(residuals**2)) / max(nb - 2, 1)
    return slope, float(np.sqrt(s2 / sxx))


def tail_exponent(samples, k_min: float, k_max: float):
    """Power-law exponent of the |sample| density over [k_min, k_max].

    Log density regressed on log |k| over TAIL_BINS geometric bins; for
    data from the universal law the expected exponent is -3.  Requires at least
    100 samples inside the window and a window ratio of at least 5, and
    no NaN sample.  Returns (exponent, standard_error).
    """
    if not 0 < k_min < k_max < np.inf:
        raise ValidationError(f"need 0 < k_min < k_max < inf, got [{k_min}, {k_max}]")
    if k_max / k_min < 5.0:
        raise ValidationError(
            f"window ratio must be at least 5, got {k_max / k_min:.3g}"
        )
    edges = np.geomspace(k_min, k_max, TAIL_BINS + 1)  # ends exactly k_min and k_max
    counts = np.zeros(TAIL_BINS, dtype=int)
    for _, block in _blocks(np.asarray(samples, dtype=float).ravel()):
        magnitudes = np.abs(block)
        if np.isnan(magnitudes).any():
            raise ValidationError("cannot fit a tail exponent to NaN samples")
        kept = magnitudes[(magnitudes >= k_min) & (magnitudes <= k_max)]
        counts += np.histogram(kept, bins=edges)[0]
    inside = int(counts.sum())
    if inside < 100:
        raise ValidationError(
            f"only {inside} samples inside [{k_min}, {k_max}]; need at least 100"
        )
    density = counts / (inside * np.diff(edges))
    return loglog_slope(edges, density)
