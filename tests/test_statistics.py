import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from levelflow import (
    NumericalError,
    ValidationError,
    build_histogram,
    child_rng,
    fit_gamma,
    gamma_cdf,
    gamma_pdf,
    ks_statistic,
    loglog_slope,
    model_bin_density,
    reduced_chi_square,
    sample_gamma_dist,
    tail_exponent,
    universal_pdf,
)
from levelflow.statistics import STAT_BLOCK


def exact_table(gamma: float = 1.0, edges=None):
    """(edges, density) with the density the exact bin averages of the model."""
    if edges is None:
        edges = np.linspace(-5.0, 5.0, 42)
    return edges, model_bin_density(edges, gamma)


# ---------------------------------------------------------------------------
# densities and CDF


def test_universal_pdf_values():
    assert universal_pdf(0.0) == 0.5
    assert universal_pdf(np.sqrt(3.0)) == pytest.approx(1.0 / 16.0, rel=1e-14)
    assert universal_pdf(-np.sqrt(3.0)) == pytest.approx(1.0 / 16.0, rel=1e-14)


def test_universal_mean_abs_is_one():
    value, _ = quad(lambda k: abs(k) * universal_pdf(k), -np.inf, np.inf)
    assert abs(value - 1.0) < 1e-6


@pytest.mark.parametrize("gamma", [0.3, 1.0, 1.27, 5.0])
def test_gamma_pdf_normalization_and_mean(gamma):
    total, _ = quad(lambda k: gamma_pdf(k, gamma), -np.inf, np.inf)
    assert abs(total - 1.0) < 1e-8
    mean_abs, _ = quad(lambda k: abs(k) * gamma_pdf(k, gamma), -np.inf, np.inf)
    assert abs(mean_abs - gamma) < 1e-8 * gamma


def test_gamma_pdf_values_and_reduction():
    grid = np.linspace(-4, 4, 17)
    np.testing.assert_allclose(gamma_pdf(grid, 1.0), universal_pdf(grid), rtol=1e-15)
    assert gamma_pdf(0.0, 1.27) == pytest.approx(1.0 / (2 * 1.27), rel=1e-14)
    # scaling identity: P(cK; c gamma) = P(K; gamma) / c
    c, gamma = 2.5, 1.3
    np.testing.assert_allclose(
        gamma_pdf(c * grid, c * gamma), gamma_pdf(grid, gamma) / c, rtol=1e-14
    )
    with pytest.raises(ValidationError):
        gamma_pdf(1.0, 0.0)


def test_gamma_cdf_matches_pdf():
    for x in (-3.0, -0.4, 0.0, 1.7):
        numeric, _ = quad(lambda k: gamma_pdf(k, 1.4), -np.inf, x)
        assert abs(gamma_cdf(x, 1.4) - numeric) < 1e-9
    assert gamma_cdf(0.0, 2.0) == 0.5


# ---------------------------------------------------------------------------
# sampler


def test_gamma_cdf_keeps_the_bits_of_the_closed_form_and_its_argument():
    def closed_form(k, gamma):
        with np.errstate(over="ignore"):
            z = np.clip(np.asarray(k, dtype=float) / gamma, -(2.0**500), 2.0**500)
        out = 0.5 * (1.0 + z / np.sqrt(1.0 + z**2))
        return out if out.ndim else float(out)

    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 2.0**500, -(2.0**500), 2.0**501, -1e308,
               1e308, 1.3e154, 5e-324, -5e-324, 1.0, -3.5]
    values = np.concatenate([special, sample_gamma_dist(1.0, 1000, child_rng(48, 0))])
    for gamma in (1.0, 0.8, 2.5, 1e-300, 1e300):
        kept = values.copy()
        got = gamma_cdf(values, gamma)
        assert got.tobytes() == closed_form(values, gamma).tobytes()
        assert values.tobytes() == kept.tobytes() and not np.shares_memory(got, values)
        assert gamma_cdf(special, gamma).tobytes() == closed_form(special, gamma).tobytes()
        zero_d = np.array(-2.5)
        assert np.asarray(gamma_cdf(zero_d, gamma)).tobytes() == np.asarray(
            closed_form(zero_d, gamma)).tobytes()
        assert zero_d == -2.5
        for x in special:
            got, want = gamma_cdf(x, gamma), closed_form(x, gamma)
            assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()


def test_sampler_mean_abs():
    k = sample_gamma_dist(1.0, 100000, child_rng(2718, 0))
    # <|K|> = gamma; the |K| distribution is heavy-tailed, so convergence is
    # slow -- this seeded draw lands at 0.9957.
    assert abs(np.mean(np.abs(k)) - 1.0) < 0.01


def test_sampler_quantile():
    k = sample_gamma_dist(2.0, 100000, child_rng(2718, 1))
    # closed-form CDF at K = gamma = 2: (1 + 1/sqrt(2)) / 2
    assert abs(np.mean(k <= 2.0) - 0.5 * (1 + 1 / np.sqrt(2))) < 0.005


def test_sampler_median_and_validation():
    k = sample_gamma_dist(1.0, 100001, child_rng(2718, 5))
    assert abs(np.median(k)) < 0.02  # u = 0 maps to K = 0
    with pytest.raises(ValidationError):
        sample_gamma_dist(-1.0, 10, child_rng(0))
    with pytest.raises(ValidationError):
        sample_gamma_dist(1.0, 0, child_rng(0))


# ---------------------------------------------------------------------------
# histograms


def test_build_histogram_basic():
    hist = build_histogram([-0.5, 0.5], [-1.0, 0.0, 1.0])
    assert list(hist.counts) == [1, 1]
    assert hist.total == 2
    assert abs(np.sum(hist.density * hist.widths) - 1.0) < 1e-12


def test_build_histogram_half_open_bins():
    hist = build_histogram([0.0, 1.0, -2.0, 5.0], [-1.0, 0.0, 1.0])
    # 0.0 belongs to [0, 1); 1.0 and 5.0 lie above the range, -2.0 below it
    assert list(hist.counts) == [0, 1]


def test_build_histogram_normalization_modes():
    samples = np.array([-0.5, 0.5, 3.0, 4.0])
    truncated = build_histogram(samples, [-1.0, 0.0, 1.0])
    assert truncated.norm_count == 2  # the in-range samples
    assert abs(np.sum(truncated.density * truncated.widths) - 1.0) < 1e-12
    full = build_histogram(samples, [-1.0, 0.0, 1.0], truncated=False)
    assert full.norm_count == 4  # every sample, the two overflows included
    assert abs(np.sum(full.density * full.widths) - 0.5) < 1e-12


def test_build_histogram_errors():
    with pytest.raises(ValidationError):
        build_histogram([1.0], [0.0])
    with pytest.raises(ValidationError):
        build_histogram([1.0], [0.0, 0.0, 1.0])
    with pytest.raises(ValidationError):
        build_histogram([], [0.0, 1.0])  # density undefined


def test_histogram_poisson_consistency_with_universal():
    # 1e5 exact-sampler draws: every bin within 4 Poisson sigma of the
    # bin-averaged universal density (seeded worst bin sits at 3.3 sigma).
    samples = sample_gamma_dist(1.0, 100000, child_rng(2718, 4))
    edges = np.linspace(-5.0, 5.0, 42)
    hist = build_histogram(samples, edges, truncated=False)
    expected = model_bin_density(edges, 1.0) * hist.widths * len(samples)
    z = (hist.counts - expected) / np.sqrt(expected)
    assert np.min(expected) > 20
    assert np.max(np.abs(z)) < 4.0


# ---------------------------------------------------------------------------
# fitting


def test_fit_gamma_exact_table_self_consistency():
    fit = fit_gamma(*exact_table(1.0))
    assert abs(fit.gamma - 1.0) < 1e-4
    assert fit.objective < 1e-12
    assert fit.bins_used == 41


def test_fit_gamma_synthetic_127():
    samples = sample_gamma_dist(1.27, 100000, child_rng(314, 0))
    hist = build_histogram(samples, np.linspace(-5, 5, 42), truncated=False)
    fit = fit_gamma(hist.edges, hist.density)
    assert abs(fit.gamma - 1.27) < 0.03
    assert 0.0 < fit.gamma_uncertainty < 0.05


def test_fit_gamma_synthetic_unit():
    samples = sample_gamma_dist(1.0, 100000, child_rng(314, 1))
    hist = build_histogram(samples, np.linspace(-5, 5, 42), truncated=False)
    fit = fit_gamma(hist.edges, hist.density)
    assert abs(fit.gamma - 1.0) < 0.02
    # the conventional goodness-of-fit companion should sit near 1
    assert 0.5 < reduced_chi_square(hist, model_bin_density(hist.edges, fit.gamma)) < 2.0


def test_fit_gamma_scale_equivariance():
    samples = sample_gamma_dist(1.0, 100000, child_rng(314, 1))
    base_hist = build_histogram(samples, np.linspace(-5, 5, 42), truncated=False)
    base = fit_gamma(base_hist.edges, base_hist.density)
    c = 2.0
    scaled_hist = build_histogram(c * samples, np.linspace(-5 * c, 5 * c, 42), truncated=False)
    scaled = fit_gamma(scaled_hist.edges, scaled_hist.density)
    assert abs(scaled.gamma - c * base.gamma) < 1e-4 * c * base.gamma


def test_fit_gamma_errors():
    sparse = build_histogram([0.1, 0.2, 0.3], np.linspace(-5, 5, 42))
    with pytest.raises(ValidationError):
        fit_gamma(sparse.edges, sparse.density)
    # data far outside the bracket drives the minimum into the edge
    with pytest.raises(NumericalError):
        fit_gamma(*exact_table(30.0, edges=np.linspace(-100, 100, 42)))


def test_fit_gamma_refuses_edges_that_do_not_bound_the_densities():
    edges, density = exact_table(1.0)
    # the 41 bin centers in place of the 42 edges, one per density: one edge short
    centers = 0.5 * (edges[:-1] + edges[1:])
    with pytest.raises(ValidationError, match="got 41 edges and 41 densities"):
        fit_gamma(centers, density)
    with pytest.raises(ValidationError, match="got 42 edges and 40 densities"):
        fit_gamma(edges, density[:-1])


# ---------------------------------------------------------------------------
# goodness of fit and tails


def test_ks_statistic_constructed_quantiles():
    n = 1000
    w = 2 * (np.arange(1, n + 1) / (n + 1)) - 1
    samples = w / np.sqrt(1 - w * w)  # exact model quantiles i/(n+1)
    assert ks_statistic(samples, 1.0) <= 1 / (n + 1) + 1e-12


def test_ks_statistic_sampled():
    samples = sample_gamma_dist(1.0, 10000, child_rng(8, 0))
    assert ks_statistic(samples, 1.0) < 0.02
    assert ks_statistic(samples, 2.0) > 0.1  # 2x mis-specified scale


def test_ks_statistic_empty():
    with pytest.raises(ValidationError):
        ks_statistic([], 1.0)


def test_tail_slope_exact_table():
    # Exact bin-averaged universal densities on 10 geometric bins in [5, 50].
    # The finite-window regression of the true density gives -2.98030 (the
    # local log-log slope runs from -2.885 at k=5 toward -3), inside the
    # -3 +/- 0.02 window expected of the k^-3 tail.
    edges = np.geomspace(5.0, 50.0, 11)
    density = 2 * np.diff(gamma_cdf(edges)) / np.diff(edges)
    slope, stderr = loglog_slope(edges, density)
    assert slope == pytest.approx(-2.9802960961815326, abs=1e-12)
    assert abs(slope - (-3.0)) <= 0.02
    assert stderr < 0.01


def test_tail_exponent_monte_carlo():
    samples = sample_gamma_dist(1.0, 100000, child_rng(2718, 2))
    slope, stderr = tail_exponent(samples, 3.0, 30.0)
    assert abs(slope - (-3.0)) < 0.3
    assert stderr < 0.2


def test_tail_exponent_rejects_gaussian():
    samples = child_rng(2718, 3).standard_normal(100000)
    slope, _ = tail_exponent(samples, 1.5, 7.5)
    assert slope < -4.0  # far below a k^-3 power law


def test_tail_exponent_validation():
    samples = sample_gamma_dist(1.0, 1000, child_rng(2718, 6))
    with pytest.raises(ValidationError):
        tail_exponent(samples, 3.0, 10.0)  # ratio below 5
    with pytest.raises(ValidationError):
        tail_exponent(samples, 30.0, 300.0)  # not enough tail samples
    with pytest.raises(ValidationError):
        tail_exponent(samples, -1.0, 10.0)
    with pytest.raises(ValidationError, match="k_max < inf"):
        tail_exponent(samples, 3.0, np.inf)  # refused before numpy warns about the bins


# ---------------------------------------------------------------------------
# blocked reductions: the same bits as the whole-array formulas, bounded memory


def whole_ks(samples, gamma):
    """The KS distance over the whole sorted array at once."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = len(samples)
    cdf = gamma_cdf(samples, gamma)
    return float(max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)))


def whole_histogram(samples, edges):
    """Counts from one np.histogram of the whole array, less the values on the top edge."""
    samples = np.asarray(samples, dtype=float)
    return np.histogram(samples[samples != edges[-1]], bins=edges)[0]


def tied_sample(n, seed):
    """n values of P(K; 0.8), a third of them rounded to ties, with -inf and +inf past n = 2."""
    samples = sample_gamma_dist(0.8, n, child_rng(seed, n))
    samples[: n // 3] = np.round(samples[: n // 3], 1)
    if n > 2:
        samples[[1, n // 2]] = [np.inf, -np.inf]
    return samples


@pytest.mark.parametrize(
    "n", [1, STAT_BLOCK - 1, STAT_BLOCK, STAT_BLOCK + 1, 3 * STAT_BLOCK + 7]
)
def test_ks_statistic_blocks_are_exact(n):
    samples = tied_sample(n, 41)
    for gamma in (0.8, 1.0, 2.5):
        assert ks_statistic(samples, gamma) == whole_ks(samples, gamma)


def test_build_histogram_blocks_are_exact():
    edges = np.linspace(-5.0, 5.0, 42)
    samples = tied_sample(3 * STAT_BLOCK + 7, 42)
    # samples at both outer edges and on inner edges, out of range, and duplicates
    samples[5:3 * STAT_BLOCK:STAT_BLOCK // 4] = edges[-1]
    samples[6:3 * STAT_BLOCK:STAT_BLOCK // 3] = edges[0]
    samples[7:3 * STAT_BLOCK:STAT_BLOCK // 5] = edges[20]
    samples[8:3 * STAT_BLOCK:STAT_BLOCK // 6] = 17.0
    counts = whole_histogram(samples, edges)
    assert counts[-1] > 0 and np.any(samples < edges[0]) and np.any(samples >= edges[-1])
    for truncated in (True, False):
        hist = build_histogram(samples, edges, truncated=truncated)
        assert hist.counts.tolist() == counts.tolist()
        assert hist.total == int(counts.sum())
        denominator = hist.total if truncated else len(samples)
        assert hist.density.tobytes() == (counts / (denominator * np.diff(edges))).tobytes()


def test_tail_exponent_blocks_are_exact():
    samples = tied_sample(3 * STAT_BLOCK + 7, 43)
    samples[::STAT_BLOCK // 2] = 3.0  # on the window's ends
    samples[1::STAT_BLOCK // 2] = 30.0
    magnitudes = np.abs(samples)
    inside = magnitudes[(magnitudes >= 3.0) & (magnitudes < 30.0)]  # half-open, as every bin
    edges = np.geomspace(3.0, 30.0, 11)
    density = np.histogram(inside, bins=edges)[0] / (len(inside) * np.diff(edges))
    assert tail_exponent(samples, 3.0, 30.0) == loglog_slope(edges, density)


def test_nan_samples_are_refused():
    with pytest.raises(ValidationError, match="NaN"):
        ks_statistic([np.nan, 1.0, 2.0], 1.0)
    with pytest.raises(ValidationError, match="NaN"):
        ks_statistic([np.nan], 1.0)  # one value is ascending; the NaN is still its last
    with pytest.raises(ValidationError, match="NaN"):
        build_histogram([np.nan, 0.5], [0.0, 1.0])
    with pytest.raises(ValidationError, match="NaN"):
        build_histogram([np.nan, 0.5, 2.0], [0.0, 1.0], truncated=False)
    samples = sample_gamma_dist(1.0, 100000, child_rng(2718, 2))
    samples[STAT_BLOCK + 3] = np.nan
    with pytest.raises(ValidationError, match="NaN"):
        tail_exponent(samples, 3.0, 30.0)


def test_infinite_samples_keep_their_meaning():
    # CDF exactly 0 and 1 in the KS distance, below and above the range of a histogram
    assert ks_statistic([-np.inf, np.inf], 1.0) == 0.5
    assert ks_statistic([np.inf], 1.0) == 1.0
    hist = build_histogram([-np.inf, np.inf, 0.5, 1.0], [0.0, 1.0])
    assert hist.total == 1


@pytest.mark.parametrize("gamma", [np.inf, -np.inf, np.nan, 0.0, -1.0])
def test_a_width_outside_zero_to_infinity_is_refused(gamma):
    # an infinite gamma used to give a pdf of 0, a CDF of 1/2, a KS distance of 1/2
    # for any sample, zero bin densities and infinite samples
    calls = [lambda: gamma_pdf(0.0, gamma), lambda: gamma_cdf(1.0, gamma),
             lambda: ks_statistic([-0.5, 0.5], gamma),
             lambda: model_bin_density(np.linspace(-5.0, 5.0, 42), gamma),
             lambda: sample_gamma_dist(gamma, 5, child_rng(0))]
    for call in calls:
        with pytest.raises(ValidationError, match="gamma must be positive and finite"):
            call()


@pytest.mark.parametrize("edges", [
    [0.0, 1.0, np.nan], [np.nan, 0.0, 1.0], [-np.inf, 0.0, np.inf], [0.0, 1.0, np.inf],
    [0.0, np.inf, np.inf], [-1e308, 1e308],  # the last one's width overflows
    [1.0, 0.0, -1.0],
])
def test_histogram_edges_must_be_finite(edges):
    with pytest.raises(ValidationError, match="finite and strictly ascending"):
        build_histogram([-0.5, 0.5, 0.5], edges)
    # the fit and the log-log slope read their edges by the same rule
    density = np.ones(len(edges) - 1)
    with pytest.raises(ValidationError, match="finite and strictly ascending"):
        fit_gamma(edges, density)
    with pytest.raises(ValidationError, match="finite and strictly ascending"):
        loglog_slope(edges, density)


@pytest.mark.parametrize("first", [-1.0, 0.0])
def test_loglog_slope_refuses_edges_at_or_below_zero(first):
    with pytest.raises(ValidationError, match="must be positive"):
        loglog_slope([first, 1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0])


def traced_peak(call):
    """tracemalloc peak of one call, in bytes, after a warm-up call."""
    call()  # numpy's lazy imports are not the call's memory
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_sample_reductions_hold_one_sorted_copy_at_most():
    samples = sample_gamma_dist(0.8, 400_000, child_rng(44, 0))
    edges = np.linspace(-5.0, 5.0, 42)
    block_bytes = 8 * STAT_BLOCK
    assert traced_peak(lambda: ks_statistic(samples, 0.8)) <= samples.nbytes + 2 * block_bytes + 2**14
    assert traced_peak(lambda: build_histogram(samples, edges, truncated=False)) <= 2**20


def test_ks_statistic_reads_an_ascending_array_where_it_lies():
    shuffled = sample_gamma_dist(0.8, 400_000, child_rng(45, 0))
    shuffled[: 1000] = np.round(shuffled[: 1000], 1)  # ties, which the order check must pass
    ascending = np.sort(shuffled)
    kept = shuffled.copy()
    assert traced_peak(lambda: ks_statistic(ascending, 0.8)) <= 2**20  # no sorted copy
    for gamma in (0.8, 1.0):
        assert ks_statistic(ascending, gamma) == ks_statistic(shuffled, gamma)
    assert shuffled.tobytes() == kept.tobytes()  # the caller's unsorted array is not sorted


def test_ks_statistic_sorts_blocks_that_are_ascending_only_inside():
    ascending = np.sort(tied_sample(2 * STAT_BLOCK, 47))
    swapped = np.concatenate([ascending[STAT_BLOCK:], ascending[:STAT_BLOCK]])  # falls between
    assert ks_statistic(swapped, 0.8) == whole_ks(swapped, 0.8) == ks_statistic(ascending, 0.8)


@pytest.mark.parametrize("where", [0, STAT_BLOCK - 1, STAT_BLOCK, STAT_BLOCK + 1, -1])
def test_ks_statistic_refuses_a_nan_anywhere_in_an_ascending_array(where):
    samples = np.sort(sample_gamma_dist(1.0, 3 * STAT_BLOCK, child_rng(46, 0)))
    samples[where] = np.nan
    with pytest.raises(ValidationError, match="NaN"):
        ks_statistic(samples, 1.0)


@pytest.mark.parametrize("where", [0, STAT_BLOCK - 1, STAT_BLOCK, -1])
def test_every_sample_statistic_refuses_a_nan_wherever_it_lies(where):
    # one reader hands the samples out block by block and refuses the NaN before any sum
    samples = sample_gamma_dist(1.0, 3 * STAT_BLOCK, child_rng(48, 0))
    samples[where] = np.nan
    calls = [lambda: ks_statistic(samples, 1.0),
             lambda: build_histogram(samples, np.linspace(-5.0, 5.0, 42)),
             lambda: build_histogram(samples, np.linspace(-5.0, 5.0, 42), truncated=False),
             lambda: tail_exponent(samples, 3.0, 30.0)]
    for call in calls:
        with pytest.raises(ValidationError, match="NaN samples"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300, None])
@pytest.mark.parametrize("at", [0, 20, 40])
def test_fit_gamma_refuses_a_density_that_is_not_finite_and_non_negative(bad, at):
    # None negates the bin: with bin 20 negated the library used to fit gamma = 1.96
    edges, density = exact_table()
    density[at] = -density[at] if bad is None else bad
    with pytest.raises(ValidationError, match=rf"density {density[at]} of bin {at} "
                                              rf"\[{edges[at]}, {edges[at + 1]}\] must be finite"):
        fit_gamma(edges, density)


@pytest.mark.parametrize("edges, count", [
    (np.linspace(0.0, 1e308, 6), 41),  # 41 samples times a 2e307 width
    (np.linspace(0.0, 1e-320, 6), 1),  # one sample in a subnormal width
])
def test_histogram_density_past_the_largest_double_is_refused(edges, count):
    samples = np.full(count, edges[1])
    with pytest.raises(NumericalError, match="overflows a double"):
        build_histogram(samples, edges)


def test_histogram_centers_stay_finite_next_to_the_largest_double():
    hist = build_histogram([1e308], [0.0, 9.5e307, 1.7e308])
    assert hist.centers.tolist() == [4.75e307, 1.325e308]
    # elsewhere the bits of 0.5 * (lo + hi), which halving first can miss for subnormal edges
    rng = np.random.default_rng(49)
    for edges in (np.linspace(-5.0, 5.0, 42), np.sort(rng.normal(0.0, 1e3, 20)),
                  [0.0, 1e-300], [3 * 5e-324, 7 * 5e-324]):
        edges = np.asarray(edges)
        hist = build_histogram([edges[-1]], edges, truncated=False)  # one value above, no count
        assert hist.centers.tobytes() == (0.5 * (edges[:-1] + edges[1:])).tobytes()
