import numpy as np
import pytest
from scipy.integrate import quad

from levelflow import (
    ArmParams,
    CurvatureBatch,
    DensityModel,
    NumericalError,
    RotatingPair,
    ValidationError,
    child_rng,
    normalize_batch,
    rescale_batch,
    sample_coupled,
    select_levels,
    spectral_frame,
    spectral_frame_blocks,
    unfold_dynamics,
    window_levels,
)

from levelflow.ensemble import check_scale
from levelflow.unfolding import EDGE_MARGIN

from conftest import goe_pair

MODELS = [
    DensityModel(n=100, alpha=0.5, lam=1.0),
    DensityModel(n=100, alpha=0.5, lam=0.032),
    DensityModel(n=50, alpha=2.0, lam=0.0),
    DensityModel(n=64, alpha=0.5, lam=0.3),
]


def make_batch(xdot, xddot):
    n = len(xdot)
    zeros = np.zeros(n)
    return CurvatureBatch(
        realization=np.zeros(n, dtype=int),
        level=np.arange(n),
        t=zeros,
        energy=zeros,
        raw_velocity=zeros,
        raw_curvature=zeros,
        unfolded_velocity=np.asarray(xdot, dtype=float),
        unfolded_curvature=np.asarray(xddot, dtype=float),
    )


def test_model_validation_and_radius():
    with pytest.raises(ValidationError):
        DensityModel(n=0)
    with pytest.raises(ValidationError):
        DensityModel(n=10, alpha=-1.0)
    with pytest.raises(ValidationError):
        DensityModel(n=10, lam=1.2)
    with pytest.raises(ValidationError):
        DensityModel(n=10, alpha=np.inf)
    model = DensityModel(n=100, alpha=0.5, lam=1.0)
    assert model.radius == pytest.approx(np.sqrt(200.0), rel=1e-15)


def test_the_model_owns_the_coupling_and_radius_checks():
    # check_scale passes what only the radius refuses: R^2 = 1e310 overflows
    check_scale(10, 1e-309)
    with pytest.raises(ValidationError, match=r"^alpha=1e-309 is out of range at n=10: "):
        DensityModel(n=10, alpha=1e-309)
    with pytest.raises(ValidationError, match=r"^alpha=1e\+308 is out of range at n=10: "):
        check_scale(10, 1e308)  # the entry scale sqrt(8 alpha) overflows
    with pytest.raises(ValidationError, match=r"^coupling must lie in \[0, 1\], got lambda=1.5 "):
        DensityModel(n=10, lam=1.5)


def test_support_and_interior():
    model = DensityModel(n=100, alpha=0.5, lam=1.0)
    assert model.support == (-model.radius, model.radius)
    edge = model.radius * (1.0 - EDGE_MARGIN)
    e = np.array([0.0, edge, np.nextafter(edge, np.inf), -edge, np.nextafter(-edge, -np.inf),
                  model.radius, 2 * model.radius, np.nan])
    inside, rho, slope = model.unfolding(e)
    assert inside.tolist() == [True, True, False, True, False, False, False, False]
    # rho and its slope come for the inside energies only, so neither meets the edge
    assert np.array_equal(rho, model.density(e[inside])) and len(slope) == 3


def test_mean_density_shape_and_center():
    model = DensityModel(n=100, alpha=0.5, lam=1.0)
    # value at the band centre: (2/pi) sqrt(n alpha)
    assert model.density(0.0) == pytest.approx(2 / np.pi * np.sqrt(50.0), rel=1e-14)
    assert model.density(model.radius) == 0.0
    assert model.density(-model.radius) == 0.0
    assert model.density(model.radius * 1.5) == 0.0
    grid = np.linspace(-model.radius, model.radius, 33)
    np.testing.assert_allclose(model.density(grid), model.density(-grid))


@pytest.mark.parametrize("model", MODELS)
def test_mean_density_normalizes_to_n(model):
    total, err = quad(model.density, -model.radius, model.radius, limit=200)
    assert abs(total - model.n) < 1e-8 * model.n


@pytest.mark.parametrize("model", MODELS)
def test_unfold_endpoints_and_monotonicity(model):
    assert model.count(0.0) == pytest.approx(model.n / 2, rel=1e-14)
    assert model.count(-model.radius) == pytest.approx(0.0, abs=1e-12)
    assert model.count(model.radius) == pytest.approx(model.n, rel=1e-14)
    assert model.count(-2 * model.radius) == 0.0
    assert model.count(2 * model.radius) == model.n
    grid = np.linspace(-1.2 * model.radius, 1.2 * model.radius, 301)
    values = model.count(grid)
    assert np.all(np.diff(values) >= 0)
    interior = grid[np.abs(grid) < 0.999 * model.radius]
    assert np.all(np.diff(model.count(interior)) > 0)


def test_unfold_matches_quadrature():
    # Closed form against adaptive quadrature of the density, both at the
    # single point R/2 and across a 100-point grid.
    model = DensityModel(n=100, alpha=0.5, lam=1.0)
    r = model.radius
    target = model.count(r / 2)
    numeric, err = quad(model.density, -r, r / 2, limit=200)
    assert abs(target - numeric) < 1e-9 * abs(numeric)
    grid = np.linspace(-0.99 * r, 0.99 * r, 100)
    for e in grid:
        numeric, _ = quad(model.density, -r, e, limit=200)
        assert abs(model.count(e) - numeric) < 1e-9 * model.n


def test_unfold_dynamics_trivial_cases():
    # the closed-form bits: a density model for other block splits must change this test
    for m, lam in ((20, 0.1), (8, 0.0)):  # m = n/2 coupled, m = n/5 per-block
        arm = ArmParams(n=40, m=m, alpha=0.5, lam=lam, seed=61)
        rng = child_rng(arm.seed, 0, 0)
        pair = RotatingPair(sample_coupled(arm, rng), sample_coupled(arm, rng))
        frame = spectral_frame_blocks(pair, 0.4, arm.blocks) if arm.per_block else spectral_frame(pair, 0.4)
        model, idx = arm.model, select_levels(frame, arm.levels)
        kept, xdot, xddot = unfold_dynamics(model, frame, idx)
        assert np.array_equal(kept, idx)  # central levels are all interior
        e, v, c = frame.energies[idx], frame.velocities[idx], frame.curvatures[idx]
        rho = model.density(e)
        s = 4.0 * model.alpha / (np.pi * (1.0 + model.lam**2))
        slope = -s * e / np.sqrt(model.radius**2 - e**2)
        assert np.array_equal(xdot, rho * v)
        assert np.array_equal(xddot, rho * c + slope * v**2)
        # with zero velocity the slope term drops: xddot = rho * Eddot
        frame.velocities = np.zeros_like(frame.velocities)
        _, xdot0, xddot0 = unfold_dynamics(model, frame, idx)
        assert np.all(xdot0 == 0.0)
        assert np.array_equal(xddot0, rho * c)
        # at the band centre the density slope vanishes
        assert model.unfolding([0.0])[2] == 0.0


def test_unfold_dynamics_chain_rule_oracle():
    # Independent check: finite differences of x(E_k(t)) through the
    # closed-form unfolding map.
    n = 20
    pair = goe_pair(n, seed=62)
    model = DensityModel(n=n, alpha=0.5, lam=1.0)
    t, delta = 0.9, 1e-4
    frame = spectral_frame(pair, t)
    idx = select_levels(frame, window_levels((n,), 0.5))
    kept, xdot, xddot = unfold_dynamics(model, frame, idx)
    assert np.array_equal(kept, idx)
    x_minus = model.count(np.linalg.eigvalsh(pair.h1 * np.cos(t - delta) + pair.h2 * np.sin(t - delta)))[idx]
    x_center = model.count(frame.energies)[idx]
    x_plus = model.count(np.linalg.eigvalsh(pair.h1 * np.cos(t + delta) + pair.h2 * np.sin(t + delta)))[idx]
    fd_xdot = (x_plus - x_minus) / (2 * delta)
    fd_xddot = (x_plus - 2 * x_center + x_minus) / delta**2
    assert np.max(np.abs(fd_xdot - xdot)) / np.max(np.abs(fd_xdot)) < 1e-5
    assert np.max(np.abs(fd_xddot - xddot)) / np.max(np.abs(fd_xddot)) < 1e-5


def test_unfold_dynamics_edge_guard():
    model = DensityModel(n=4, alpha=0.5, lam=1.0)
    frame = spectral_frame(goe_pair(4, seed=63), 0.2)
    frame.energies = np.array([-1.0, 0.0, 1.0, model.radius * 0.9999])
    kept, xdot, xddot = unfold_dynamics(model, frame, np.arange(frame.dim))
    assert kept.tolist() == [0, 1, 2]  # level 3 lies inside the edge margin
    # the kept levels carry the bits of a call given only the interior levels
    inside = np.arange(4)[model.unfolding(frame.energies)[0]]
    _, xdot_in, xddot_in = unfold_dynamics(model, frame, inside)
    assert np.array_equal(xdot, xdot_in) and np.array_equal(xddot, xddot_in)
    # a selection of edge levels only leaves three empty arrays
    for out in unfold_dynamics(model, frame, np.array([3])):
        assert len(out) == 0


@pytest.mark.parametrize("edot, error", [(1.7976931348623157e308, NumericalError),
                                         (np.inf, ValidationError), (np.nan, ValidationError),
                                         (1e160, NumericalError)])
def test_unfold_dynamics_refuses_a_velocity_that_is_not_finite_or_overflows(edot, error):
    # the largest double warned in rho * Edot, inf returned inf, NaN returned NaN and 1e160
    # warned in the square of Edot
    model = DensityModel(n=10, alpha=0.5, lam=1.0)
    frame = spectral_frame(goe_pair(10, seed=61), 0.4)
    assert model.unfolding(frame.energies[5])[0]
    frame.velocities[5] = edot
    with pytest.raises(error):
        unfold_dynamics(model, frame, np.array([4, 5, 6]))


def test_rescale_hand_example():
    batch = make_batch([1.0, -1.0], [2.0, 2.0])
    rescale_batch(batch)
    # <xdot^2> = 1, <xdot xddot> = 0, so K = xddot / pi for both samples
    np.testing.assert_allclose(batch.rescaled, [2 / np.pi, 2 / np.pi], rtol=1e-15)


def test_rescale_velocity_shift_invariance(rng):
    xdot = rng.standard_normal(500)
    xddot = rng.standard_normal(500)
    base = rescale_batch(make_batch(xdot, xddot)).rescaled
    shifted = rescale_batch(make_batch(xdot, xddot + 2.7 * xdot)).rescaled
    np.testing.assert_allclose(shifted, base, rtol=1e-10, atol=1e-12)


def test_rescale_time_reparametrization_invariance(rng):
    xdot = rng.standard_normal(500)
    xddot = rng.standard_normal(500)
    base = rescale_batch(make_batch(xdot, xddot)).rescaled
    scaled = rescale_batch(make_batch(3.0 * xdot, 9.0 * xddot)).rescaled
    np.testing.assert_allclose(scaled, base, rtol=1e-12)


def test_rescale_errors():
    with pytest.raises(ValidationError):
        rescale_batch(make_batch([], []))
    still = make_batch([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        rescale_batch(still)
    assert still.rescaled is None  # the in-place buffer is not left behind
    # finite columns whose <xdot^2>, <xdot xddot> or K overflow a double (each warned)
    for xdot, xddot in [([1e200, 1.0], [1.0, 1.0]), ([2.0, 1.0], [1e308, -1e308]),
                        ([1e-160, 1e-160], [1.0, 1.0])]:
        batch = make_batch(xdot, xddot)
        with pytest.raises(NumericalError):
            rescale_batch(batch)
        assert batch.rescaled is None


def test_normalize_batch():
    batch = rescale_batch(make_batch(np.array([1.0, -1.0, 0.5]), np.array([2.0, -1.0, 0.3])))
    normalize_batch(batch)
    assert abs(np.mean(np.abs(batch.normalized)) - 1.0) < 1e-12
    # direct arithmetic cases on the K column
    batch.rescaled = np.array([2.0, -2.0])
    normalize_batch(batch)
    np.testing.assert_allclose(batch.normalized, [1.0, -1.0], rtol=1e-15)
    batch.rescaled = np.array([1.0, 3.0])
    normalize_batch(batch)
    np.testing.assert_allclose(batch.normalized, [0.5, 1.5], rtol=1e-15)


def test_normalize_errors():
    with pytest.raises(ValidationError):
        normalize_batch(make_batch([1.0], [1.0]))  # not rescaled yet
    batch = rescale_batch(make_batch([1.0, -1.0], [0.0, 0.0]))
    with pytest.raises(ValidationError):
        normalize_batch(batch)
    assert batch.normalized is None
    batch.rescaled = np.array([1.7e308, -1.7e308])  # <|K|> overflows (it warned)
    with pytest.raises(NumericalError):
        normalize_batch(batch)
    assert batch.normalized is None


def test_from_rows_takes_every_column_as_a_view():
    rows = np.arange(48.0).reshape(6, 8)
    batch = CurvatureBatch.from_rows(rows)
    for column, name in enumerate(["realization", "level", "t", "energy", "raw_velocity",
                                   "raw_curvature", "unfolded_velocity", "unfolded_curvature"]):
        values = getattr(batch, name)
        assert np.shares_memory(values, rows) and values.dtype == np.float64
        assert values.tolist() == rows[:, column].tolist()


def test_rescale_and_normalize_keep_the_bits_of_the_whole_column_formulas(rng):
    xdot = rng.standard_normal(5000)
    xddot = rng.standard_cauchy(5000)
    rows = np.zeros((5000, 8))
    rows[:, 6], rows[:, 7] = xdot, xddot  # strided columns, as run_arm passes them
    batch = normalize_batch(rescale_batch(CurvatureBatch.from_rows(rows)))
    v2, cross = np.mean(xdot**2), np.mean(xdot * xddot)
    rescaled = (xddot - (cross / v2) * xdot) / (np.pi * v2)
    assert batch.rescaled.tobytes() == rescaled.tobytes()
    assert batch.normalized.tobytes() == (rescaled / np.mean(np.abs(rescaled))).tobytes()
    assert not np.shares_memory(batch.rescaled, batch.normalized)
    assert rows[:, 6].tobytes() == xdot.tobytes() and rows[:, 7].tobytes() == xddot.tobytes()


def test_select_levels_windows():
    frame = spectral_frame(goe_pair(100, seed=64), 0.1)
    assert list(select_levels(frame, window_levels((100,), 1.0))) == list(range(100))
    half = select_levels(frame, window_levels((100,), 0.5))
    assert half[0] == 25 and half[-1] == 74 and len(half) == 50


def test_select_levels_per_block():
    frame = spectral_frame(goe_pair(100, seed=65), 0.1)
    picked = select_levels(frame, window_levels((50, 50), 0.5))
    assert len(picked) == 50
    first, second = picked[:25], picked[25:]
    assert first[0] == 12 and first[-1] == 36
    assert second[0] == 62 and second[-1] == 86
