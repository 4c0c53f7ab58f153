"""Acceptance gate: one test per numbered criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines with the measured numbers.

Every criterion is checked at its stated tolerance, seed and sample size.
For three of them a literal reading of the method measures a quantity
that no correct program can bring within the tolerance, so the tests
measure the quantity the criterion is about instead:

* Criterion 1 (closed form against finite differences at 1e-8 for
  velocities, 1e-6 for curvatures): the oracle is a Richardson
  extrapolation of the 3-point stencil of ``curvature_fd_oracle``.  A
  single stencil at delta = 1e-4 carries its own truncation error
  (delta^2/6) E''' plus a curvature roundoff floor near 4e-7 relative;
  its measured worst errors are 1.6e-5 / 2.0e-4, and no single delta
  meets both tolerances.
* Criterion 5 (at most 0.1% of eigenvalues outside the support): the
  count runs past the finite-N soft edge R (1 + n_b^(-2/3)), which lies
  two Tracy-Widom units beyond the N -> infinity radius R.  Each block
  edge leaves O(1) eigenvalue beyond R itself, whatever N is (0.61% at
  N = 100 with four block edges).  That bare count even passes a radius
  5% too large, while the soft-edge count rejects one 3% too small.
* Criterion 8 (the broken symmetry at eps = 1 narrows P(K)): the tail
  weight is compared on K, whose mean |K| is the width gamma of the
  P(K; gamma) family.  The renormalized k = K/<|K|> has mean |k| = 1 in
  every arm by construction; such a renormalization cannot narrow a
  distribution as a whole, since a narrower core must be paid for with
  weight at large |k|.
"""

import time

import numpy as np
import pytest

from levelflow import (
    ArmParams,
    DensityModel,
    RotatingPair,
    build_histogram,
    child_rng,
    curvature_fd_oracle,
    fit_gamma,
    hamiltonian_at,
    integrate_motion,
    ks_statistic,
    model_bin_density,
    pooled_eigenvalues,
    rotation_frame_check,
    run_arm,
    sample_gamma_dist,
    sample_goe,
    spectral_frame,
    tail_exponent,
)
from levelflow.cli import main
from levelflow.dynamics import _local_gaps

JOBS = 4


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}", flush=True)
    return ok


def seeded_pair(n: int, seed_key) -> RotatingPair:
    stream = child_rng(*seed_key)
    return RotatingPair(sample_goe(n, 0.5, stream), sample_goe(n, 0.5, stream))


@pytest.fixture(scope="module")
def goe_batch():
    """GOE-limit batch shared by criteria 6: N=100, 200 realizations x 4 t."""
    arm = ArmParams(n=100, m=50, alpha=0.5, lam=1.0, seed=606)
    start = time.perf_counter()
    batch, info = run_arm(arm, 200, jobs=JOBS)
    return batch, info, time.perf_counter() - start


def extrapolated_fd(pair: RotatingPair, t: float, delta: float, steps: int) -> np.ndarray:
    """Richardson extrapolation of ``curvature_fd_oracle`` over widths delta / 2**j.

    Both central differences expand in even powers of the width, so step s
    combines neighbouring widths as (4**s fine - coarse) / (4**s - 1), which
    cancels the delta**(2 s) term.  Returns the (velocities, curvatures) rows.
    """
    table = [np.array(curvature_fd_oracle(pair, t, delta / 2**j)) for j in range(steps + 1)]
    for s in range(1, steps + 1):
        table = [(4**s * fine - coarse) / (4**s - 1) for coarse, fine in zip(table, table[1:])]
    return table[0]


def relative_error(value: np.ndarray, reference: np.ndarray, keep: np.ndarray) -> float:
    """Worst |value - reference| over the kept levels, relative to the largest |reference|."""
    return float(np.max(np.abs(value - reference)[keep]) / np.max(np.abs(reference[keep])))


def test_01_oracle_equivalence_tight_tolerances():
    """Closed-form velocities and curvatures agree with finite differences.

    An oracle can only confirm a tolerance larger than its own error.  The
    bare 3-point stencil at delta = 1e-4 has a worst error of 1.6e-5
    (velocities) and 2.0e-4 (curvatures) here, so it is extrapolated:

    * velocities from delta = 1e-4 and 5e-5, one step: the remaining
      truncation is O(delta^4 E^(5)), the roundoff ~ eps |E| / delta;
    * curvatures from delta = 1e-3, 5e-4 and 2.5e-4, two steps: the wider
      base keeps the roundoff ~ eps |E| / delta^2 near 1e-7 relative,
      and the truncation left is O(delta^6 E^(8));
    * only levels whose local gap exceeds 1e-2 are compared.  Through an
      avoided crossing of gap g the Taylor series of a level converges
      only for widths below ~ g / |dv| (dv the velocity difference), so
      the widest stencil, 1e-3, must sit well inside every compared gap.
      With a mask at 1e-3 the same recipe reaches 2.2e-5 at other seeds
      (101-160).

    Measured at seed 101: 7.4e-10 and 1.4e-7 in about 0.1 s, with no
    level masked.  Over seeds 101-160 the worst errors are 2.6e-9 and
    5.6e-7 with 99.95% of levels compared.  The same oracle rejects the
    closed form with its factor 2 dropped from the P^2/dE sum.
    """
    start = time.perf_counter()
    worst_vel = worst_curv = worst_dropped = 0.0
    for i in range(50):
        stream = child_rng(101, i)
        pair = RotatingPair(sample_goe(20, 0.5, stream), sample_goe(20, 0.5, stream))
        t = float(stream.uniform(0, 2 * np.pi))
        frame = spectral_frame(pair, t)
        vel = extrapolated_fd(pair, t, 1e-4, 1)[0]
        curv = extrapolated_fd(pair, t, 1e-3, 2)[1]
        keep = _local_gaps(frame.energies) > 1e-2
        # negative control: -E + sum P^2/dE, the closed form without its factor 2
        dropped = (frame.curvatures - frame.energies) / 2.0
        worst_vel = max(worst_vel, relative_error(frame.velocities, vel, keep))
        worst_curv = max(worst_curv, relative_error(frame.curvatures, curv, keep))
        worst_dropped = max(worst_dropped, relative_error(dropped, curv, keep))
    elapsed = time.perf_counter() - start
    ok = worst_vel <= 1e-8 and worst_curv <= 1e-6 and worst_dropped > 1e-6 and elapsed < 10.0
    report(
        "1",
        ok,
        f"50 pairs N=20, extrapolated stencils: worst velocity err {worst_vel:.2e} (tol 1e-8), "
        f"worst curvature err {worst_curv:.2e} (tol 1e-6), factor-2-dropped control "
        f"{worst_dropped:.2e} (must exceed 1e-6), {elapsed:.1f}s (< 10s)",
    )
    assert elapsed < 10.0
    assert worst_vel <= 1e-8
    assert worst_curv <= 1e-6
    assert worst_dropped > 1e-6, "oracle too coarse to tell a wrong closed form apart"


def test_02_two_by_two_closed_form():
    pair = RotatingPair(np.diag([2.0, -2.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    frame = spectral_frame(pair, 0.0)
    # closed form: E(t) = +-sqrt(a^2 cos^2 t + b^2 sin^2 t) gives E''(0) = (b^2 - a^2)/a
    deviation = abs(frame.curvatures[1] - (-1.5))
    ok = deviation < 1e-10
    report("2", ok, f"upper-level curvature deviation from -1.5: {deviation:.2e} (tol 1e-10)")
    assert ok


def test_03_rotated_frame_explicit_solution():
    worst = 0.0
    for i in range(20):
        pair = seeded_pair(50, (303, i))
        for t in (0.0, 0.7, 1.3, 2.9, 5.5):
            norm = np.linalg.norm(hamiltonian_at(pair, t), 2)
            worst = max(worst, rotation_frame_check(pair, t) / (1e-9 * norm))
    ok = worst < 1.0
    report("3", ok, f"20 pairs N=50, 5 t each: worst deviation {worst:.2e} of the 1e-9*|H| budget")
    assert ok


def test_04_equations_of_motion_integration():
    pair = seeded_pair(10, (404, 0))
    frame = integrate_motion(pair, 0.0, 0.1, 1000)
    direct = np.linalg.eigvalsh(hamiltonian_at(pair, 0.1))
    deviation = float(np.max(np.abs(frame.energies - direct)))
    ok = deviation < 1e-8
    report("4", ok, f"RK4 over [0, 0.1], N=10, 1000 steps: eigenvalue deviation {deviation:.2e} (tol 1e-8)")
    assert ok


def test_05_density_against_semicircle():
    """Pooled eigenvalues follow the semicircle, up to its finite-N soft edge.

    The leakage bound counts eigenvalues beyond the soft edge
    R (1 + n_b^(-2/3)), n_b = min(m, n - m), not beyond R itself.  A GOE
    block's largest level sits at R_b (1 + TW_1 n_b^(-2/3) / 2), with TW_1
    Tracy-Widom distributed (Tracy & Widom, Commun. Math. Phys. 177, 727,
    1996), so each block edge leaves O(1) eigenvalue beyond R whatever N
    is: at seed 505 with 500 realizations, leaked fraction x n is 0.61,
    0.56, 0.68, 0.63 at n = 100, 200, 400, 800 (four block edges at this
    coupling; 0.29-0.34 with the two edges of the GOE limit).  The cut
    sits two Tracy-Widom units out.

    Measured at seed 505: 0.612% beyond R, 0.038% beyond the soft edge
    (at most 0.050% over seeds 500-529).  The bare-R count would pass a
    radius 5% too large (0.096%); the soft-edge count fails a radius 3%
    too small (0.146%, the negative control), and a radius 1% too small
    fails the bin check at 4.5 sigma.
    """
    start = time.perf_counter()
    arm = ArmParams(n=100, m=50, alpha=0.5, lam=0.032, seed=505)
    model = arm.model
    eigenvalues = pooled_eigenvalues(arm, 500, jobs=JOBS)
    elapsed = time.perf_counter() - start
    edges = np.linspace(-model.radius, model.radius, 42)
    hist = build_histogram(eigenvalues, edges)
    expected = np.asarray(model.density(hist.centers)) / arm.n * hist.widths * hist.total
    worst_z = float(np.max(np.abs(hist.counts - expected) / np.sqrt(expected)))
    outside_bare = float(np.mean((eigenvalues < edges[0]) | (eigenvalues >= edges[-1])))
    soft_edge = model.radius * (1.0 + min(arm.m, arm.n - arm.m) ** (-2.0 / 3.0))
    outside = float(np.mean(np.abs(eigenvalues) > soft_edge))
    # negative control: the same eigenvalues against a radius 3% too small
    outside_short = float(np.mean(np.abs(eigenvalues) > 0.97 * soft_edge))
    ok = worst_z < 4.0 and outside < 1e-3 and outside_short >= 1e-3 and elapsed < 120.0
    report(
        "5",
        ok,
        f"N=100 eps=0.32, 500 realizations: worst bin {worst_z:.2f} sigma (tol 4), "
        f"beyond R {outside_bare:.4%}, beyond soft edge {outside:.4%} (tol 0.1%), "
        f"0.97 R control {outside_short:.4%} (must reach 0.1%), {elapsed:.1f}s (< 120s)",
    )
    assert worst_z < 4.0
    assert elapsed < 120.0
    assert outside < 1e-3
    assert outside_short >= 1e-3, "leakage bound too loose to tell a 3% radius error apart"


def test_06_goe_limit_universal_distribution(goe_batch):
    batch, info, elapsed = goe_batch
    k = batch.normalized
    ks = ks_statistic(k, 1.0)
    slope, stderr = tail_exponent(k, 3.0, 30.0)
    mean_dev = abs(float(np.mean(np.abs(k))) - 1.0)
    ok = ks < 0.03 and abs(slope + 3.0) < 0.3 and mean_dev < 1e-12 and elapsed < 300.0
    report(
        "6",
        ok,
        f"GOE N=100, 200x4: KS {ks:.4f} (tol 0.03), tail {slope:.2f}+-{stderr:.2f} "
        f"(tol -3+-0.3), mean|k| dev {mean_dev:.1e} (tol 1e-12), {elapsed:.1f}s (< 300s)",
    )
    assert ks < 0.03
    assert abs(slope + 3.0) < 0.3
    assert mean_dev < 1e-12
    assert elapsed < 300.0


def test_07_decoupled_limit_universal_distribution():
    arm = ArmParams(n=100, m=50, alpha=0.5, lam=0.0, seed=606)
    assert arm.per_block, "zero coupling must engage per-block mode"
    batch, _ = run_arm(arm, 200, jobs=JOBS)
    ks = ks_statistic(batch.normalized, 1.0)
    ok = ks < 0.05
    report("7", ok, f"decoupled blocks N=100 (per-block mode): KS {ks:.4f} (tol 0.05)")
    assert ok


def tail_excess_z(a: np.ndarray, b: np.ndarray, threshold: float):
    """Fractions of |a| and |b| beyond threshold, and the pooled two-proportion z of a over b."""
    f_a = float(np.mean(np.abs(a) > threshold))
    f_b = float(np.mean(np.abs(b) > threshold))
    n_a, n_b = len(a), len(b)
    pooled = (f_a * n_a + f_b * n_b) / (n_a + n_b)
    return f_a, f_b, (f_a - f_b) / np.sqrt(pooled * (1 - pooled) * (1 / n_a + 1 / n_b))


def test_08_intermediate_narrowing_at_k3():
    """Weakly broken symmetry (eps = 1) narrows P(K) against the GOE limit.

    The width lives in K, the rescaled column: <|K|> is the gamma of the
    P(K; gamma) family, reported as ``mean_abs_rescaled`` in the arm
    summaries.  The normalized k = K/<|K|> has <|k|> = 1 in both arms by
    construction, so on k a narrower core must reappear as extra weight
    at large |k|.

    The arms of one seed share their draws, so the two arms take seeds 808
    and 809 to stay independent, as the two-proportion z assumes.
    Measured so (2000 realizations per arm): P(|K| > 3) is 0.0510 for GOE
    against 0.0425 at eps = 1, z = +18.1 (+15.7 at seeds 809/810 and
    810/811), with <|K|> = 0.992 against 0.874.  On k the same comparison
    gives z = -4.7.
    """
    realizations = 2000  # identical sample sizes in both arms
    goe = ArmParams(n=100, m=50, alpha=0.5, lam=1.0, seed=808)
    mid = ArmParams(n=100, m=50, alpha=0.5, lam=0.1, seed=809)
    batch_goe, _ = run_arm(goe, realizations, jobs=JOBS)
    batch_mid, _ = run_arm(mid, realizations, jobs=JOBS)
    f_goe, f_mid, z = tail_excess_z(batch_goe.rescaled, batch_mid.rescaled, 3.0)
    fk_goe, fk_mid, z_k = tail_excess_z(batch_goe.normalized, batch_mid.normalized, 3.0)
    ok = z > 3.0
    report(
        "8",
        ok,
        f"P(|K|>3): GOE {f_goe:.4f} vs eps=1 {f_mid:.4f}, narrowing z {z:.2f} (need > 3); "
        f"P(|k|>3) after renormalization: {fk_goe:.4f} vs {fk_mid:.4f}, z {z_k:.2f}",
    )
    assert z > 3.0


def test_09_gamma_fit_recovery():
    edges = np.linspace(-5.0, 5.0, 42)
    hist127 = build_histogram(sample_gamma_dist(1.27, 100000, child_rng(314, 0)), edges,
                              truncated=False)
    fit127 = fit_gamma(hist127.edges, hist127.density)
    hist100 = build_histogram(sample_gamma_dist(1.0, 100000, child_rng(314, 1)), edges,
                              truncated=False)
    fit100 = fit_gamma(hist100.edges, hist100.density)
    fit_exact = fit_gamma(edges, model_bin_density(edges, 1.0))
    dev127 = abs(fit127.gamma - 1.27)
    dev100 = abs(fit100.gamma - 1.0)
    dev_exact = abs(fit_exact.gamma - 1.0)
    ok = dev127 < 0.03 and dev100 < 0.02 and dev_exact < 1e-3
    report(
        "9",
        ok,
        f"fits: 1e5 samples at 1.27 -> {fit127.gamma:.4f} (tol 0.03); at 1.0 -> "
        f"{fit100.gamma:.4f} (tol 0.02); exact table -> {fit_exact.gamma:.6f} (tol 1e-3)",
    )
    assert dev127 < 0.03
    assert dev100 < 0.02
    assert dev_exact < 1e-3


def test_10_unfolding_calibration():
    from scipy.integrate import quad

    model = DensityModel(n=100, alpha=0.5, lam=1.0)
    total, count = 0.0, 0
    for r in range(100):
        stream = child_rng(1010, 0, r)
        e = np.linalg.eigvalsh(sample_goe(100, 0.5, stream))
        x = model.count(e)[25:75]
        total += x[-1] - x[0]
        count += len(x) - 1
    spacing = total / count
    worst_quad = 0.0
    for e in np.linspace(-0.98, 0.98, 21) * model.radius:
        numeric, _ = quad(model.density, -model.radius, e, limit=200)
        worst_quad = max(worst_quad, abs(model.count(e) - numeric) / model.n)
    ok = abs(spacing - 1.0) < 0.02 and worst_quad < 1e-9
    report(
        "10",
        ok,
        f"mean unfolded central spacing {spacing:.4f} (tol 1 +- 0.02); closed form vs "
        f"quadrature {worst_quad:.1e} (tol 1e-9)",
    )
    assert abs(spacing - 1.0) < 0.02
    assert worst_quad < 1e-9


def test_11_cli_determinism(tmp_path):
    base = [
        "simulate", "--n", "40", "--m", "20", "--epsilon", "1.5", "--realizations", "6",
        "--t-samples", "2", "--seed", "77",
    ]
    paths = [tmp_path / f"det{i}.csv" for i in range(3)]
    assert main(base + ["--out", str(paths[0]), "--jobs", "1"]) == 0
    assert main(base + ["--out", str(paths[1]), "--jobs", "1"]) == 0
    assert main(base + ["--out", str(paths[2]), "--jobs", "3"]) == 0
    rerun_identical = paths[0].read_bytes() == paths[1].read_bytes()
    jobs_identical = paths[0].read_bytes() == paths[2].read_bytes()
    ok = rerun_identical and jobs_identical
    report(
        "11",
        ok,
        f"fixed-seed simulate outputs bitwise identical: rerun {rerun_identical}, "
        f"jobs 1 vs 3 {jobs_identical}",
    )
    assert ok
