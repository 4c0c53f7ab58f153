"""A seeded sweep of the public functions of `statistics` and `unfolding` over hostile arrays.

The first rows are hand-written cases that once returned a wrong answer, raised
an unrelated error or warned.  Then one numpy Generator draws a fixed list of
calls on arrays holding NaN, +/-inf, 1e+/-300, subnormals, the largest doubles,
empty and wrong-length arrays, and samples tied to bin edges.  Each call runs
with RuntimeWarning raised as an error and must either raise ValidationError or
NumericalError or return finite numbers; an elementwise map may return NaN only
where its input is NaN.
"""

import math
import warnings
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from levelflow import (
    CurvatureBatch,
    DensityModel,
    NumericalError,
    SpectralFrame,
    ValidationError,
    build_histogram,
    fit_gamma,
    gamma_cdf,
    gamma_pdf,
    ks_statistic,
    loglog_slope,
    model_bin_density,
    normalize_batch,
    reduced_chi_square,
    rescale_batch,
    sample_gamma_dist,
    select_levels,
    spectral_frame,
    tail_exponent,
    unfold_dynamics,
    universal_pdf,
    window_levels,
)

from levelflow.unfolding import EDGE_MARGIN

from conftest import goe_pair

SWEEP_SEED = 33
SWEEP_CASES = 3000

HOSTILE = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324,
           2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
SCALES = [1.0, 1.0, 1e-300, 1e300, 1e-310, 1e150]
LENGTHS = [0, 1, 2, 3, 5, 41, 200]
GAMMAS = [1.0, 0.8, 2.5, 1e-300, 1e300, 5e-324, 1.7976931348623157e308, 0.0, -1.0, np.nan, np.inf]
REFUSALS = (ValidationError, NumericalError)


def pick(rng, values):
    return values[int(rng.integers(len(values)))]


def hostile(rng, n=None):
    """n Cauchy values at a drawn scale, up to three of them replaced by hostile values."""
    n = pick(rng, LENGTHS) if n is None else n
    with np.errstate(over="ignore"):
        values = rng.standard_cauchy(n) * pick(rng, SCALES)
    for _ in range(int(rng.integers(4)) if n else 0):
        values[int(rng.integers(n))] = pick(rng, HOSTILE)
    return values


def edges_of(rng):
    """Bin edges: uniform or geometric at a drawn scale, or a sorted hostile array."""
    kind = int(rng.integers(4))
    if kind == 0:
        with np.errstate(over="ignore"):
            return np.linspace(-5.0, 5.0, pick(rng, [2, 6, 42])) * pick(rng, SCALES)
    if kind == 1:
        low = pick(rng, [3.0, 1e-300, 5e-324, 1e290, 1e-10])
        return np.geomspace(low, low * pick(rng, [10.0, 1e6]), pick(rng, [4, 11]))
    if kind == 2:
        return np.sort(hostile(rng))
    return hostile(rng)


def samples_on(rng, edges):
    """Hostile samples, a share of them tied to the edges when there are any, in a column or
    as one 0-d value now and then."""
    samples = hostile(rng, pick(rng, [1, 5, 200, 2000]))
    if len(edges) and rng.random() < 0.5:
        ties = rng.random(len(samples)) < 0.4
        samples[ties] = rng.choice(edges, int(ties.sum()))
    return pick(rng, [samples, samples, samples, samples.reshape(-1, 1), np.asarray(samples[0])])


def densities_for(rng, edges):
    """Hostile densities, mostly one per bin and mostly non-negative."""
    n = max(len(edges) - 1, 0) + (pick(rng, [-1, 1]) if rng.random() < 0.1 else 0)
    density = hostile(rng, max(n, 0))
    return np.abs(density) if rng.random() < 0.8 else density


def model_kwargs(rng):
    return dict(n=pick(rng, [1, 2, 7, 20, 100, 0]),
                alpha=pick(rng, [0.5, 0.5, 1e-300, 1e300, 6e306, 1e307, 1e-307, 5e-324, np.nan,
                                 np.inf, 0.0]),
                lam=pick(rng, [0.0, 1.0, 0.3, 5e-324, 1.5, np.nan]))


def radius_units(rng, n=None):
    """Hostile energies in units of the radius, with the edges and their neighbours among them."""
    units = hostile(rng, n)
    for value in (1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 2.0):
        if len(units) and rng.random() < 0.3:
            units[int(rng.integers(len(units)))] = value
    return units


def energies(units, model):
    with np.errstate(over="ignore"):
        return units * model.radius


def elementwise(function, k):
    """A call of an elementwise map; the outputs of NaN inputs, which may be NaN, read 0."""
    return lambda: np.where(np.isnan(k), 0.0, function(k))


def batch_of(xdot, xddot):
    zeros = np.zeros(len(xdot))
    return CurvatureBatch(zeros, zeros, zeros, zeros, zeros, zeros, np.asarray(xdot, dtype=float),
                          np.asarray(xddot, dtype=float))


def numbers(result):
    """Every float a result holds, flattened: arrays, tuples, scalars and dataclass fields."""
    if is_dataclass(result):
        return np.concatenate([numbers(getattr(result, f.name)) for f in fields(result)]
                              + [np.zeros(0)])
    if isinstance(result, tuple):
        return np.concatenate([numbers(item) for item in result] + [np.zeros(0)])
    if result is None:
        return np.zeros(0)
    return np.asarray(result, dtype=float).ravel()


def outcome(call):
    """call()'s result with RuntimeWarning raised as an error, or the refusal it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call()
        except REFUSALS as exc:
            return exc


def fault(call):
    """None if call() refuses or returns finite numbers, else what went wrong."""
    try:
        result = outcome(call)
    except Exception as exc:  # any other exception, a RuntimeWarning included, is the fault
        return f"{type(exc).__name__}: {exc}"
    if isinstance(result, REFUSALS):
        return None
    values = numbers(result)
    return None if np.all(np.isfinite(values)) else f"returned {values[~np.isfinite(values)][:3]}"


# ---------------------------------------------------------------------------
# first rows: cases that once gave a wrong answer, an unrelated error or a warning

EDGES = np.geomspace(3.0, 30.0, 11)
HIST = build_histogram(np.linspace(-4.9, 4.9, 2000), np.linspace(-5.0, 5.0, 42))
MODEL = DensityModel(n=20)
STEEP = DensityModel(n=7, alpha=6e306)  # just under the slope bound at lambda = 0
NAN_BATCH = np.ones(4), np.array([1.0, np.nan, 2.0, 3.0])

REFUSED_ROWS = {
    "window_levels with a block of size 0 (index -1 was the last level)":
        lambda: window_levels((0, 5), 0.5),
    "window_levels with no block (numpy's ValueError)": lambda: window_levels((), 0.5),
    "loglog_slope with one density short (IndexError)":
        lambda: loglog_slope(EDGES, np.ones(9)),
    "loglog_slope with an inf density (RuntimeWarning)":
        lambda: loglog_slope(EDGES, np.r_[np.ones(9), np.inf]),
    "loglog_slope with a NaN density (silently dropped)":
        lambda: loglog_slope(EDGES, np.r_[np.ones(9), np.nan]),
    "loglog_slope with a negative density (silently dropped)":
        lambda: loglog_slope(EDGES, np.r_[np.ones(9), -1.0]),
    "reduced_chi_square with one model density short (IndexError)":
        lambda: reduced_chi_square(HIST, np.ones(40)),
    "reduced_chi_square with an inf model density (RuntimeWarning)":
        lambda: reduced_chi_square(HIST, np.r_[np.ones(40), np.inf]),
    "DensityModel at alpha=2e307, n=7, eps=0.3 (slope overflow, then 'NaN samples')":
        lambda: DensityModel(n=7, alpha=2e307, lam=0.3 / math.sqrt(7)),
    "DensityModel at alpha=7e306, n=7, eps=0.3":
        lambda: DensityModel(n=7, alpha=7e306, lam=0.3 / math.sqrt(7)),
    "DensityModel.slope on the edge (divide by zero)": lambda: MODEL.slope(MODEL.radius),
    "DensityModel.slope next to the edge (overflow in divide)":
        lambda: STEEP.slope(np.nextafter(STEEP.radius, 0.0)),
    "DensityModel.slope outside the support (invalid sqrt)": lambda: MODEL.slope(2 * MODEL.radius),
    "rescale_batch with a NaN curvature (all-NaN K)": lambda: rescale_batch(batch_of(*NAN_BATCH)),
    "rescale_batch with a NaN velocity (all-NaN K)":
        lambda: rescale_batch(batch_of(NAN_BATCH[1], np.ones(4))),
    "ks_statistic with a NaN among unsorted samples": lambda: ks_statistic([2.0, np.nan, 1.0]),
    "ks_statistic of no samples in a column": lambda: ks_statistic(np.zeros((0, 1))),
    "gamma_pdf at a subnormal gamma (a peak of inf)": lambda: gamma_pdf([0.0], 5e-324),
    "sample_gamma_dist at gamma=1e305 (overflow in divide)":
        lambda: sample_gamma_dist(1e305, 1000, np.random.default_rng(0)),
    "model_bin_density on NaN edges (NaN densities)": lambda: model_bin_density([0.0, np.nan], 1.0),
    "loglog_slope on subnormal edges (log of 0)":
        lambda: loglog_slope(np.geomspace(5e-324, 5e-318, 5), np.ones(4)),
    "tail_exponent past 1e153 (overflow in the midpoints)":
        lambda: tail_exponent(np.geomspace(1e290, 1e296, 1000), 1e290, 1e296),
    "window_levels at a NaN fraction (numpy's ValueError)": lambda: window_levels((5,), np.nan),
}


@pytest.mark.parametrize("call", REFUSED_ROWS.values(), ids=REFUSED_ROWS.keys())
def test_first_rows_are_refused(call):
    assert isinstance(outcome(call), REFUSALS)


FINITE_ROWS = {
    "gamma_pdf far in the tail (overflow in square)": lambda: gamma_pdf([1e200], 1.0),
    "gamma_pdf at a tiny gamma (overflow in square)": lambda: gamma_pdf([1.0], 1e-300),
    "ks_statistic of one 0-d sample (TypeError)": lambda: ks_statistic(np.asarray(0.5)),
    "ks_statistic of samples in a column (ValueError)": lambda: ks_statistic([[2.0], [1.0]]),
    "DensityModel just under the slope bound, at the edge of the interior":
        lambda: STEEP.slope(STEEP.radius * (1.0 - EDGE_MARGIN)),
}


@pytest.mark.parametrize("call", FINITE_ROWS.values(), ids=FINITE_ROWS.keys())
def test_first_rows_return_finite_values(call):
    assert np.all(np.isfinite(numbers(outcome(call))))


def test_gamma_pdf_keeps_the_bits_of_its_finite_results():
    k = np.r_[np.linspace(-50.0, 50.0, 101), 1e100, 1e153, 1e155, 1e200, 1e300]
    for gamma in (1.0, 0.8, 1e-300):
        with np.errstate(over="ignore"):
            want = 0.5 / (gamma * (1.0 + (k / gamma) ** 2) ** 1.5)
        assert gamma_pdf(k, gamma).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the seeded sweep


def draw_call(rng):
    """(name, call) of one drawn call."""
    name = pick(rng, ["universal_pdf", "gamma_pdf", "gamma_cdf", "sample_gamma_dist",
                      "build_histogram", "model_bin_density", "fit_gamma", "reduced_chi_square",
                      "ks_statistic", "loglog_slope", "tail_exponent", "DensityModel",
                      "window_levels", "select_levels", "unfold_dynamics", "rescale_batch",
                      "normalize_batch"])
    gamma = pick(rng, GAMMAS)
    if name == "universal_pdf":
        return name, elementwise(universal_pdf, hostile(rng))
    if name in ("gamma_pdf", "gamma_cdf"):
        function = gamma_pdf if name == "gamma_pdf" else gamma_cdf
        return name, elementwise(lambda k: function(k, gamma), hostile(rng))
    if name == "sample_gamma_dist":
        n, seed = pick(rng, [1, 5, 1000, 0, -1]), int(rng.integers(2**32))
        return name, lambda: sample_gamma_dist(gamma, n, np.random.default_rng(seed))
    if name == "window_levels":
        blocks = pick(rng, [(5,), (3, 4), (1,), (1, 1), (0, 5), (), (2, -1), (7, 0)])
        fraction = pick(rng, [0.5, 1.0, 1e-300, 0.1, 0.0, -0.5, 1.5, np.nan, np.inf])
        return name, lambda: window_levels(blocks, fraction)
    if name == "select_levels":
        frame = spectral_frame(goe_pair(7, int(rng.integers(100))), float(rng.uniform(0, 6)))
        blocks, fraction = pick(rng, [(7,), (3, 4), (1, 6)]), pick(rng, [0.5, 1.0, 1e-300])
        return name, lambda: select_levels(frame, window_levels(blocks, fraction))
    if name == "DensityModel":
        kwargs, units = model_kwargs(rng), radius_units(rng)
        method = pick(rng, ["interior", "density", "count", "slope"])

        def call():
            model = DensityModel(**kwargs)
            e = energies(units, model)
            return model.radius, elementwise(getattr(model, method), e)()
        return f"{name}.{method}", call
    if name == "unfold_dynamics":
        kwargs, units = model_kwargs(rng), np.sort(radius_units(rng, 7))
        velocities, curvatures, degenerate = hostile(rng, 7), hostile(rng, 7), rng.random(7) < 0.2

        def call():
            model = DensityModel(**kwargs)
            frame = SpectralFrame(energies(units, model), velocities, curvatures, None, degenerate)
            return unfold_dynamics(model, frame)
        return name, call
    if name in ("rescale_batch", "normalize_batch"):
        xdot = hostile(rng)
        xddot = hostile(rng, len(xdot))
        if name == "rescale_batch":
            return name, lambda: rescale_batch(batch_of(xdot, xddot))
        return name, lambda: normalize_batch(rescale_batch(batch_of(xdot, xddot)))
    edges = edges_of(rng)
    if name == "build_histogram":
        samples, truncated = samples_on(rng, edges), bool(rng.integers(2))

        def call():
            hist = build_histogram(samples, edges, truncated)
            return hist, hist.widths, hist.centers
        return name, call
    if name == "model_bin_density":
        return name, lambda: model_bin_density(edges, gamma)
    if name == "ks_statistic":
        samples = samples_on(rng, edges)
        ordered = np.sort(samples, None) if samples.size > 3 else samples  # read where it lies
        return name, lambda: ks_statistic(ordered, gamma)
    if name == "tail_exponent":
        samples = samples_on(rng, edges)
        k_min = pick(rng, [3.0, 1e-300, 5e-324, 1e300, 0.0, np.nan])
        k_max = k_min * pick(rng, [10.0, 1e6, 2.0, np.inf])
        return name, lambda: tail_exponent(samples, k_min, k_max)
    density = densities_for(rng, edges)
    if name == "fit_gamma":
        return name, lambda: fit_gamma(edges, density)
    if name == "loglog_slope":
        return name, lambda: loglog_slope(edges, density)
    samples = samples_on(rng, edges)
    return name, lambda: reduced_chi_square(build_histogram(samples, edges, False), density)


def test_seeded_sweep_of_the_library_on_hostile_arrays():
    rng = np.random.default_rng(SWEEP_SEED)
    faults = []
    for index in range(SWEEP_CASES):
        name, call = draw_call(rng)
        found = fault(call)
        if found is not None:
            faults.append(f"case {index} {name}: {found}")
    assert not faults, f"{len(faults)} faults:\n" + "\n".join(faults[:40])
