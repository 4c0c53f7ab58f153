import warnings

import numpy as np
import pytest

from levelflow import (
    DegenerateSpectrumError,
    EigensolverError,
    NumericalError,
    RotatingPair,
    StencilCrossingError,
    ValidationError,
    curvature_fd_oracle,
    hamiltonian_at,
    hamiltonian_rate,
    integrate_motion,
    rotation_frame_check,
    select_levels,
    spectral_frame,
    spectral_frame_blocks,
)

from levelflow.dynamics import DEGENERACY_SCALE, _eigh, curvature_sums, frame_from_p
from levelflow.errors import check_count

from conftest import goe_pair


def two_level_pair(a: float, b: float) -> RotatingPair:
    """H(t) = [[a cos t, b sin t], [b sin t, -a cos t]].

    Closed-form eigenvalues +-sqrt(a^2 cos^2 t + b^2 sin^2 t); at t=0 the
    velocities vanish and the curvature of the upper level is b^2/a - a.
    """
    return RotatingPair(np.diag([a, -a]), np.array([[0.0, b], [b, 0.0]]))


def test_hamiltonian_at_endpoints():
    pair = goe_pair(8, seed=21)
    assert np.array_equal(hamiltonian_at(pair, 0.0), pair.h1)
    np.testing.assert_allclose(hamiltonian_at(pair, np.pi / 2), pair.h2, atol=1e-15)
    np.testing.assert_allclose(
        hamiltonian_at(pair, np.pi / 4), (pair.h1 + pair.h2) / np.sqrt(2), rtol=1e-14
    )


def test_hamiltonian_rate():
    pair = goe_pair(8, seed=22)
    assert np.array_equal(hamiltonian_rate(pair, 0.0), pair.h2)
    np.testing.assert_allclose(hamiltonian_rate(pair, np.pi), -pair.h2, atol=1e-15)


def test_pair_validation():
    with pytest.raises(ValidationError):
        RotatingPair(np.zeros((3, 3)), np.zeros((4, 4)))
    with pytest.raises(ValidationError):
        RotatingPair(np.zeros((3, 2)), np.zeros((3, 2)))


def test_two_by_two_closed_form():
    frame = spectral_frame(two_level_pair(2.0, 1.0), 0.0)
    np.testing.assert_allclose(frame.energies, [-2.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(frame.velocities, [0.0, 0.0], atol=1e-14)
    # upper-level curvature b^2/a - a = 1/2 - 2 = -1.5, lower level mirrors it
    assert abs(frame.curvatures[1] - (-1.5)) < 1e-12
    assert abs(frame.curvatures[0] - 1.5) < 1e-12


def test_two_by_two_flat_spectrum():
    # a = b makes the eigenvalues constant in t, so both curvatures vanish.
    frame = spectral_frame(two_level_pair(1.0, 1.0), 0.0)
    np.testing.assert_allclose(frame.curvatures, [0.0, 0.0], atol=1e-12)


def test_frame_structure_invariants():
    pair = goe_pair(20, seed=31)
    frame = spectral_frame(pair, 0.83)
    assert np.array_equal(frame.velocities, np.diag(frame.p_matrix))
    assert np.all(np.diff(frame.energies) > 0)
    asym = np.max(np.abs(frame.p_matrix - frame.p_matrix.T))
    assert asym < 1e-10 * np.linalg.norm(frame.p_matrix)
    scale = np.max(np.abs(frame.energies))
    # trace identities: sum of velocities = tr Hdot, sum of curvatures = -tr H
    assert abs(np.sum(frame.velocities) - np.trace(hamiltonian_rate(pair, 0.83))) < 1e-9 * scale
    assert abs(np.sum(frame.curvatures) + np.trace(hamiltonian_at(pair, 0.83))) < 1e-9 * scale
    # pair-sum rule: the interaction terms cancel under k <-> m exchange
    assert abs(np.sum(frame.curvatures) + np.sum(frame.energies)) < 1e-9 * scale


def test_fd_oracle_two_by_two():
    vel, curv = curvature_fd_oracle(two_level_pair(2.0, 1.0), 0.0, 1e-4)
    assert abs(curv[1] - (-1.5)) < 1e-6
    assert abs(vel[1]) < 1e-10


def test_fd_oracle_constant_direction():
    # With h2 = h1 the path is h1 (cos t + sin t): P is diagonal in the fixed
    # eigenbasis, the interaction sum vanishes, and curvature = -E exactly.
    stream = np.random.default_rng(99)
    g = stream.standard_normal((12, 12))
    h1 = (g + g.T) / np.sqrt(4.0)
    pair = RotatingPair(h1, h1.copy())
    t = 0.3
    frame = spectral_frame(pair, t)
    scale = np.max(np.abs(frame.energies))
    np.testing.assert_allclose(frame.curvatures, -frame.energies, atol=1e-10 * scale)
    vel, curv = curvature_fd_oracle(pair, t, 1e-4)
    np.testing.assert_allclose(curv, -frame.energies, atol=1e-5 * scale)


def test_fd_oracle_matches_frame_on_generic_pair():
    # Agreement is limited by the stencil truncation error and the 1/delta^2
    # amplification of eigensolver roundoff; on this healthy seeded frame
    # (minimum gap ~0.22) the measured errors are 3.2e-7 (velocity) and
    # 1.1e-7 (curvature) at delta = 1e-4, asserted here with a 3x margin.
    pair = goe_pair(20, seed=7)
    t = 1.234
    frame = spectral_frame(pair, t)
    vel, curv = curvature_fd_oracle(pair, t, 1e-4)
    vel_err = np.max(np.abs(vel - frame.velocities)) / np.max(np.abs(vel))
    curv_err = np.max(np.abs(curv - frame.curvatures)) / np.max(np.abs(curv))
    assert vel_err < 1e-6
    assert curv_err < 5e-7


def test_fd_oracle_many_pairs_scale_relative():
    # 50 seeded pairs at generic t; worst-case scale-relative disagreement
    # stays within the truncation-error envelope of the 3-point stencil.
    worst_vel, worst_curv = 0.0, 0.0
    for seed in range(50):
        pair = goe_pair(20, seed=1000 + seed)
        t = float(np.random.default_rng(seed).uniform(0, 2 * np.pi))
        frame = spectral_frame(pair, t)
        vel, curv = curvature_fd_oracle(pair, t, 1e-4)
        worst_vel = max(worst_vel, np.max(np.abs(vel - frame.velocities)) / np.max(np.abs(vel)))
        worst_curv = max(
            worst_curv, np.max(np.abs(curv - frame.curvatures)) / np.max(np.abs(curv))
        )
    assert worst_vel < 1e-4
    assert worst_curv < 1e-3


def test_fd_oracle_delta_convergence():
    # In the truncation-dominated regime the second-difference error shrinks
    # ~4x when delta is halved.
    pair = goe_pair(20, seed=7)
    t = 1.234
    frame = spectral_frame(pair, t)

    def curv_err(delta):
        _, curv = curvature_fd_oracle(pair, t, delta)
        return np.max(np.abs(curv - frame.curvatures))

    ratio = curv_err(2e-3) / curv_err(1e-3)
    assert 3.0 < ratio < 5.0


def test_fd_oracle_raises_on_stencil_crossing():
    # Two decoupled levels crossing exactly at t = pi/4.
    pair = RotatingPair(np.diag([1.0, -1.0]), np.diag([-1.0, 1.0]))
    with pytest.raises(StencilCrossingError):
        curvature_fd_oracle(pair, np.pi / 4, 1e-4)
    with pytest.raises(ValidationError):
        curvature_fd_oracle(pair, 0.3, -1e-4)


def test_degenerate_mask_flags_tiny_gaps():
    h1 = np.diag([0.0, 1e-12, 1.0])
    pair = RotatingPair(h1, np.zeros((3, 3)))
    frame = spectral_frame(pair, 0.0)
    assert list(frame.degenerate_mask) == [True, True, False]
    kept = select_levels(frame, np.arange(3))
    assert list(kept) == [2]


def _diagonal_pair(diagonal) -> RotatingPair:
    """A pair whose H(0) is diag(diagonal) exactly, so its spectrum is known to the bit."""
    n = len(diagonal)
    return RotatingPair(np.diag(np.asarray(diagonal, dtype=float)), np.zeros((n, n)))


@pytest.mark.parametrize("factor, flagged", [(0.99, True), (1.01, False)])
def test_degeneracy_threshold_is_scale_of_the_frame_half_spread(factor, flagged):
    # spectrum [-1, 0, gap, 1]: half-spread 1, so the tolerance is DEGENERACY_SCALE itself
    gap = factor * DEGENERACY_SCALE
    frame = spectral_frame(_diagonal_pair([-1.0, 0.0, gap, 1.0]), 0.0)
    assert np.array_equal(frame.energies, [-1.0, 0.0, gap, 1.0])
    assert list(frame.degenerate_mask) == [False, flagged, flagged, False]


@pytest.mark.parametrize("factor, flagged", [(0.99, True), (1.01, False)])
def test_per_block_degeneracy_threshold_is_the_block_half_spread(factor, flagged):
    # blocks [-10, 10] and [0, 1, 1 + gap]: the second block's half-spread is (1 + gap) / 2,
    # twenty times below the whole spectrum's 10
    gap = factor * DEGENERACY_SCALE * 0.5
    pair = _diagonal_pair([-10.0, 10.0, 0.0, 1.0, 1.0 + gap])
    frame = spectral_frame_blocks(pair, 0.0, (2, 3))
    assert np.array_equal(frame.energies, [-10.0, 10.0, 0.0, 1.0, 1.0 + gap])
    assert list(frame.degenerate_mask) == [False, False, False, flagged, flagged]
    # one frame of the whole pair, ascending [-10, 0, 1, 1 + gap, 10], takes the whole
    # spread and flags the gap either way
    assert list(spectral_frame(pair, 0.0).degenerate_mask) == [False, False, True, True, False]


def test_integrate_motion_matches_direct_diagonalization():
    pair = goe_pair(10, seed=41)
    frame = integrate_motion(pair, 0.0, 0.1, 1000)
    direct = np.linalg.eigvalsh(hamiltonian_at(pair, 0.1))
    assert np.max(np.abs(frame.energies - direct)) < 1e-8
    # energy-trace identity at the endpoint
    scale = np.max(np.abs(frame.energies))
    assert abs(np.sum(frame.energies) - np.trace(hamiltonian_at(pair, 0.1))) < 1e-9 * scale


def test_integrate_motion_roundtrip_and_errors():
    pair = goe_pair(10, seed=42)
    start = spectral_frame(pair, 0.25)
    same = integrate_motion(pair, 0.25, 0.25, 100)
    assert np.array_equal(same.energies, start.energies)
    with pytest.raises(ValidationError):
        integrate_motion(pair, 0.0, 0.1, 0)
    degenerate = RotatingPair(np.diag([1.0, 1.0]), np.array([[0.0, 0.1], [0.1, 0.0]]))
    with pytest.raises(DegenerateSpectrumError):
        integrate_motion(degenerate, 0.0, 0.1, 10)


def test_rotation_frame_check():
    pair = goe_pair(50, seed=51)
    norm = np.linalg.norm(hamiltonian_at(pair, 1.3), 2)
    assert rotation_frame_check(pair, 0.0) < 1e-12 * norm
    assert rotation_frame_check(pair, np.pi / 2) < 1e-9 * norm
    assert rotation_frame_check(pair, 1.3) < 1e-9 * norm


def test_block_frames_match_blockwise_diagonalization():
    stream = np.random.default_rng(77)

    def block_diag_pair(m, k):
        h = np.zeros((m + k, m + k))
        a = stream.standard_normal((m, m))
        b = stream.standard_normal((k, k))
        h[:m, :m] = a + a.T
        h[m:, m:] = b + b.T
        return h

    h1 = block_diag_pair(4, 6)
    h2 = block_diag_pair(4, 6)
    pair = RotatingPair(h1, h2)
    frame = spectral_frame_blocks(pair, 0.6, (4, 6))
    top = np.linalg.eigvalsh(hamiltonian_at(pair, 0.6)[:4, :4])
    np.testing.assert_allclose(frame.energies[:4], top, rtol=1e-12)
    assert frame.p_matrix is None and frame.dim == 10
    for lo, hi in ((0, 4), (4, 10)):
        block = spectral_frame(pair.block(lo, hi), 0.6)
        for name in ("energies", "velocities", "curvatures", "degenerate_mask"):
            assert np.array_equal(getattr(frame, name)[lo:hi], getattr(block, name)), (lo, name)
    for blocks in ((3, 6), (-1, 11), (0, 10), (10, 0)):
        with pytest.raises(ValidationError, match="block sizes"):
            spectral_frame_blocks(pair, 0.6, blocks)
    with pytest.raises(ValidationError, match="non-empty"):
        RotatingPair(np.zeros((0, 0)), np.zeros((0, 0)))


def test_every_frame_comes_from_one_builder():
    pair = goe_pair(12, seed=43)
    direct = spectral_frame(pair, 0.3)
    energies, u = np.linalg.eigh(hamiltonian_at(pair, 0.3))
    built = frame_from_p(energies, u.T @ hamiltonian_rate(pair, 0.3) @ u)
    integrated = integrate_motion(pair, 0.0, 0.3, 200)
    rebuilt = frame_from_p(integrated.energies, integrated.p_matrix)
    for name in ("energies", "velocities", "curvatures", "p_matrix", "degenerate_mask"):
        assert np.array_equal(getattr(direct, name), getattr(built, name)), name
        assert np.array_equal(getattr(integrated, name), getattr(rebuilt, name)), name
    np.testing.assert_array_equal(integrated.velocities, np.diag(integrated.p_matrix))


def test_a_failed_eigensolve_is_an_eigensolver_error():
    # no public input reaches it: pairs are finite and bounded, so a NaN matrix is handed to it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EigensolverError, match=r"eigensolver failed \(test\): dim=3"):
            _eigh(np.full((3, 3), np.nan), "test")


def test_a_count_is_an_integer_at_least_its_floor():
    for value in (1, 7, np.int64(3), np.uint8(2), 2**70):
        check_count("count", value)
    check_count("seed", 0, 0)
    for value, match in ((0, "count must be >= 1, got 0"), (-1, "count must be >= 1, got -1"),
                         (2.5, "count must be an integer, got 2.5"), (True, "got True"),
                         (3.0, "got 3.0"), (np.float64(3), "an integer"), ("3", "an integer")):
        with pytest.raises(ValidationError, match=match):
            check_count("count", value)


def test_pair_entries_must_be_finite_and_within_half_the_largest_double_over_n():
    pair = goe_pair(4, seed=5)
    edge = 0.5 * np.finfo(float).max / (4 * (np.abs(pair.h1).max() + np.abs(pair.h2).max()))
    RotatingPair(pair.h1 * (0.99 * edge), pair.h2 * (0.99 * edge))
    for h1, h2 in ((pair.h1 * (1.01 * edge), pair.h2 * (1.01 * edge)),
                   (np.where(np.eye(4) > 0, np.nan, pair.h1), pair.h2),
                   (pair.h1, np.where(np.eye(4) > 0, -np.inf, pair.h2))):
        with pytest.raises(ValidationError, match="must be finite"):
            RotatingPair(h1, h2)


def test_a_block_is_the_slices_of_its_pair_and_needs_counts_in_range(monkeypatch):
    pair = goe_pair(6, seed=7)
    for lo, hi in ((0, 6), (0, 1), (2, 5), (np.int64(5), np.int64(6))):
        sub = pair.block(lo, hi)
        assert type(sub) is RotatingPair and sub.dim == hi - lo
        assert np.array_equal(sub.h1, pair.h1[lo:hi, lo:hi])
        assert np.array_equal(sub.h2, pair.h2[lo:hi, lo:hi])
        assert np.shares_memory(sub.h1, pair.h1) and np.shares_memory(sub.h2, pair.h2)
    for lo, hi, match in ((1.5, 3, "block start must be an integer"), (True, 3, "got True"),
                          (-1, 3, "block start must be >= 0"), (3, 3, "block end must be >= 4"),
                          (2, 2.0, "block end must be an integer"),
                          (0, 7, "block end must be <= 6"),
                          (4, 2, "block end must be >= 5")):
        with pytest.raises(ValidationError, match=match):
            pair.block(lo, hi)

    def checked_again(self):
        raise AssertionError("a block re-ran the bound of its checked pair")
    monkeypatch.setattr(RotatingPair, "__post_init__", checked_again)
    assert pair.block(1, 4).dim == 3


def test_a_curvature_sum_that_overflows_is_a_numerical_error():
    pair = goe_pair(4, seed=5)
    frame = spectral_frame(pair, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match="a curvature sum is not finite"):
            curvature_sums(frame.energies, frame.p_matrix * 1e160)
        with pytest.raises(ValidationError, match="not finite"):
            curvature_sums(np.r_[frame.energies[:3], np.nan], frame.p_matrix)
        for energies, p in ((frame.energies[:3], frame.p_matrix), (1.0, 1.0)):
            with pytest.raises(ValidationError, match=r"is not \(n, n\)"):
                curvature_sums(energies, p)
    assert np.array_equal(curvature_sums(frame.energies, frame.p_matrix), frame.curvatures)


def test_check_positions_must_be_finite_wherever_h_is_formed():
    pair = goe_pair(4, seed=5)
    calls = (lambda t: hamiltonian_at(pair, t), lambda t: hamiltonian_rate(pair, t),
             lambda t: spectral_frame(pair, t), lambda t: spectral_frame_blocks(pair, t, (1, 3)),
             lambda t: curvature_fd_oracle(pair, t, 1e-4), lambda t: rotation_frame_check(pair, t),
             lambda t: integrate_motion(pair, t, 0.3, 4), lambda t: integrate_motion(pair, 0.3, t, 4))
    for t in (np.nan, np.inf, -np.inf):
        for call in calls:
            with pytest.raises(ValidationError, match="path position t must be finite"):
                call(t)


def test_stencil_widths_that_the_difference_quotients_cannot_resolve_are_refused():
    pair = goe_pair(4, seed=5)
    for t, delta in ((0.3, 1e-300), (0.3, 1e-162), (0.3, 2e154), (0.3, 0.0), (0.3, -1e-4),
                     (0.3, np.nan), (0.3, np.inf), (1e10, 1e-10), (0.3, 1e-17)):
        with pytest.raises(ValidationError, match="stencil width"):
            curvature_fd_oracle(pair, t, delta)


def test_integration_steps_too_long_for_the_motion_are_a_numerical_error():
    pair = goe_pair(4, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError):
            integrate_motion(pair, 0.3, 1e300, 3)
