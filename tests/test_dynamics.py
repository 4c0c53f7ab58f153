import numpy as np
import pytest

from levelflow import (
    DegenerateSpectrumError,
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

from levelflow.dynamics import DEGENERACY_SCALE, frame_from_p

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
    assert frame.p_matrix is None
    with pytest.raises(ValidationError):
        spectral_frame_blocks(pair, 0.6, (3, 6))


def test_row_frames_equal_full_frames_on_their_rows():
    pair = goe_pair(50, seed=78)
    rows = np.arange(12, 37)
    full = spectral_frame(pair, 0.9)
    part = spectral_frame(pair, 0.9, rows=rows)
    others = np.setdiff1d(np.arange(50), rows)
    assert np.array_equal(part.energies, full.energies)
    assert np.array_equal(part.degenerate_mask, full.degenerate_mask)
    for name in ("velocities", "curvatures"):
        assert np.array_equal(getattr(part, name)[rows], getattr(full, name)[rows])
        assert np.all(np.isnan(getattr(part, name)[others]))
    blocks_full = spectral_frame_blocks(pair, 0.9, (20, 30))
    blocks_part = spectral_frame_blocks(pair, 0.9, (20, 30), rows=rows)
    assert blocks_part.p_matrix is None and blocks_part.dim == 50
    assert np.array_equal(blocks_part.curvatures[rows], blocks_full.curvatures[rows])
    assert np.all(np.isnan(blocks_part.curvatures[others]))


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
