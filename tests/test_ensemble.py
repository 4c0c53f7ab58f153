import numpy as np
import pytest

from levelflow import (
    ArmParams,
    ValidationError,
    child_rng,
    lambda_from_epsilon,
    sample_coupled,
    sample_goe,
)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=1, m=1, lam=0.5),
        dict(n=10, m=0, lam=0.5),
        dict(n=10, m=10, lam=0.5),
        dict(n=10, m=5, lam=-0.1),
        dict(n=10, m=5, lam=1.5),
        dict(n=10, m=5, lam=0.5, alpha=0.0),
        dict(n=10, m=5, lam=0.5, alpha=float("inf")),
        dict(n=10, m=5, lam=0.5, alpha=float("nan")),
        dict(n=10, m=5, lam=0.5, t_samples=0),
        dict(n=10, m=5, lam=0.5, window=0.0),
        dict(n=10, m=5, lam=0.5, window=1.5),
    ],
)
def test_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(ValidationError):
        ArmParams(**kwargs)


def test_sample_goe_rejects_bad_parameters(rng):
    with pytest.raises(ValidationError):
        sample_goe(0, 0.5, rng)
    with pytest.raises(ValidationError):
        sample_goe(5, -1.0, rng)


def test_sample_goe_exactly_symmetric(rng):
    h = sample_goe(31, 0.5, rng)
    assert np.array_equal(h, h.T)


def test_sample_goe_1x1_variance(rng):
    # For a 1x1 matrix the single entry is diagonal: variance 1/(2 alpha) = 1.
    draws = np.array([sample_goe(1, 0.5, rng)[0, 0] for _ in range(20000)])
    # 5 standard errors of a variance estimate: 5 * var * sqrt(2/(n-1)).
    assert abs(np.var(draws) - 1.0) < 5 * 1.0 * np.sqrt(2 / 19999)


def test_goe_entry_variances(rng):
    # Weight exp(-alpha tr H^2) forces var 1/(2 alpha) on the diagonal and
    # 1/(4 alpha) off it; checked entry by entry over 10^4 draws of a 50x50.
    n, alpha, draws = 50, 0.5, 10000
    samples = np.empty((draws, n, n))
    for i in range(draws):
        samples[i] = sample_goe(n, alpha, rng)
    variances = np.var(samples, axis=0)
    off = variances[~np.eye(n, dtype=bool)]
    diag = np.diag(variances)
    se_off = 0.5 * np.sqrt(2 / (draws - 1))
    se_diag = 1.0 * np.sqrt(2 / (draws - 1))
    assert np.max(np.abs(off - 0.5)) < 5 * se_off
    assert np.max(np.abs(diag - 1.0)) < 5 * se_diag
    # Pooled estimates are much tighter than the per-entry bounds.
    assert abs(np.mean(off) - 0.5) < 0.02
    assert abs(np.mean(diag) - 1.0) < 0.05


def test_coupled_lambda_one_is_plain_goe():
    spec = ArmParams(n=12, m=5, lam=1.0, alpha=0.5, seed=3)
    h_coupled = sample_coupled(spec, child_rng(3, 0))
    h_goe = sample_goe(12, 0.5, child_rng(3, 0))
    assert np.array_equal(h_coupled, h_goe)


def test_coupled_lambda_zero_is_block_diagonal():
    spec = ArmParams(n=4, m=2, lam=0.0, seed=1)
    h = sample_coupled(spec, child_rng(1, 0))
    for i, j in [(0, 2), (0, 3), (1, 2), (1, 3)]:
        assert h[i, j] == 0.0
        assert h[j, i] == 0.0
    assert np.all(h[:2, :2] != 0.0)


def test_coupled_cross_variance_scales_with_lambda_squared(rng):
    n, m, lam, draws = 20, 10, 0.5, 10000
    spec = ArmParams(n=n, m=m, lam=lam)
    cross, inblock = [], []
    for _ in range(draws):
        h = sample_coupled(spec, rng)
        cross.append(h[:m, m:].ravel())
        inblock.append(h[:m, :m][~np.eye(m, dtype=bool)])
    ratio = np.var(np.concatenate(cross)) / np.var(np.concatenate(inblock))
    assert abs(ratio - lam**2) < 0.05 * lam**2


def test_epsilon_lambda_conversions():
    assert lambda_from_epsilon(100, 0.32) == pytest.approx(0.032, rel=1e-15)
    assert lambda_from_epsilon(100, 0.0) == 0.0
    assert ArmParams(n=100, m=50, lam=0.032).epsilon == pytest.approx(0.32, rel=1e-15)
    # round trip
    lam = lambda_from_epsilon(37, 1.7)
    assert ArmParams(n=37, m=18, lam=lam).epsilon == pytest.approx(1.7, rel=1e-12)


def test_epsilon_lambda_rejects_out_of_range():
    with pytest.raises(ValidationError):
        ArmParams(n=100, m=50, lam=lambda_from_epsilon(100, 11.0))  # would give coupling 1.1
    with pytest.raises(ValidationError):
        ArmParams(n=100, m=50, lam=lambda_from_epsilon(100, -0.5))
    with pytest.raises(ValidationError):
        ArmParams(n=100, m=50, lam=1.5).epsilon
    with pytest.raises(ValidationError):
        ArmParams(n=0, m=0, lam=0.5).epsilon


def test_seed_determinism():
    spec = ArmParams(n=8, m=4, lam=0.3, seed=11)
    a = sample_coupled(spec, child_rng(11, 0, 5))
    b = sample_coupled(spec, child_rng(11, 0, 5))
    c = sample_coupled(spec, child_rng(11, 0, 6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
