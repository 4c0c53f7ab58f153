"""A seeded sweep of the public functions of `dynamics`, `ensemble`, `checks` and `pipeline`.

The sibling of tests/test_library_sweep.py, with its assertions: each call runs with
RuntimeWarning raised as an error and must either raise ValidationError or NumericalError or
return finite numbers.  The first rows are hand-written cases that once raised an unrelated
error, warned, or returned a NaN or a wrong answer.  Then one numpy Generator draws a fixed list
of calls on hostile counts (0, -1, 2.5, True, numpy integers), path positions (NaN, +/-inf,
1e300, subnormals) and matrices (entries at scales from subnormal to 1e300, and NaN, +/-inf and
the largest doubles among them).
"""

import math

import numpy as np
import pytest

from levelflow import (
    ArmParams,
    RotatingPair,
    arm_summary,
    child_rng,
    curvature_fd_oracle,
    curvature_sums,
    hamiltonian_at,
    hamiltonian_rate,
    integrate_motion,
    lambda_from_epsilon,
    pooled_eigenvalues,
    rotation_frame_check,
    run_arm,
    sample_coupled,
    sample_gamma_dist,
    sample_goe,
    spectral_frame,
    spectral_frame_blocks,
    window_levels,
)
from levelflow.ensemble import check_scale

from conftest import goe_pair
from test_library_sweep import HOSTILE, REFUSALS, fault, outcome, pick

SWEEP_SEED = 36
SWEEP_CASES = 3000

PAIR = goe_pair(4, 1)
SIX = goe_pair(6, 1)
ARM = ArmParams(n=6, m=3, lam=0.5, t_samples=2)


def scaled(pair, scale):
    return RotatingPair(pair.h1 * scale, pair.h2 * scale)


# ---------------------------------------------------------------------------
# first rows: the cases that once gave a wrong answer, an unrelated error or a warning

FIRST_ROWS = {
    "lambda_from_epsilon at n=0 (ZeroDivisionError)": lambda: lambda_from_epsilon(0, 1.0),
    "lambda_from_epsilon at n=-4 (invalid value in sqrt)": lambda: lambda_from_epsilon(-4, 1.0),
    "child_rng with seed -1 (numpy's ValueError)": lambda: child_rng(-1, 0),
    "spectral_frame at t=inf (invalid value in cos)": lambda: spectral_frame(PAIR, np.inf),
    "hamiltonian_at at t=inf (invalid value in cos)": lambda: hamiltonian_at(PAIR, np.inf),
    "spectral_frame of a pair with entries near 1e300 (overflow in multiply)":
        lambda: spectral_frame(scaled(PAIR, 1e300), 0.3),
    "spectral_frame_blocks with float block sizes (TypeError)":
        lambda: spectral_frame_blocks(SIX, 0.2, (2.5, 3.5)),
    "curvature_fd_oracle at delta=1e-300 (invalid value in divide)":
        lambda: curvature_fd_oracle(PAIR, 0.3, 1e-300),
    "integrate_motion to t1=NaN (NaN energies)": lambda: integrate_motion(PAIR, 0.0, np.nan, 3),
    "integrate_motion with steps=1.5 (TypeError)": lambda: integrate_motion(PAIR, 0.0, 0.1, 1.5),
    "rotation_frame_check at t=NaN (numpy's LinAlgError)":
        lambda: rotation_frame_check(PAIR, np.nan),
    "curvature_sums with a P one level too large (broadcast ValueError)":
        lambda: curvature_sums(np.arange(3.0), np.eye(4)),
    "ArmParams with t_samples=2.5 (accepted, then TypeError in run_arm)":
        lambda: ArmParams(n=10, m=5, lam=0.5, t_samples=2.5),
    "ArmParams with m=5.5 (accepted, then TypeError in run_arm)":
        lambda: ArmParams(n=10, m=5.5, lam=0.5),
    "ArmParams with seed=1.5 (accepted, then TypeError in run_arm)":
        lambda: ArmParams(n=10, m=5, lam=0.5, seed=1.5),
    "run_arm of 2.5 realizations (TypeError)": lambda: run_arm(ARM, 2.5),
    "sample_gamma_dist of 2.5 samples (TypeError)":
        lambda: sample_gamma_dist(1.0, 2.5, np.random.default_rng(0)),
    "sample_goe at n=2.5 (TypeError)": lambda: sample_goe(2.5, 0.5, np.random.default_rng(0)),
    "window_levels with float block sizes (the float indices [0, 2.5, 3.5])":
        lambda: window_levels((2.5, 3.5), 0.5),
    "curvature_fd_oracle at t=1e10, delta=1e-10 (t +/- delta is t: all-zero results)":
        lambda: curvature_fd_oracle(PAIR, 1e10, 1e-10),
    "spectral_frame of a pair with entries near 1e160 (overflow in P * P)":
        lambda: spectral_frame(scaled(PAIR, 1e160), 0.3),
    "sample_goe at n=2**70 (numpy's ValueError: maximum allowed dimension exceeded)":
        lambda: sample_goe(2**70, 0.5, np.random.default_rng(0)),
    "lambda_from_epsilon at n=2**70 (TypeError in numpy's sqrt)":
        lambda: lambda_from_epsilon(2**70, 1.0),
}


@pytest.mark.parametrize("call", FIRST_ROWS.values(), ids=FIRST_ROWS.keys())
def test_first_rows_are_refused(call):
    assert isinstance(outcome(call), REFUSALS)


# ---------------------------------------------------------------------------
# the seeded sweep

#: (usual, hostile) values of each kind; `value` takes a usual one three times in four
COUNTS = [1, 2, 3, 5, np.int64(3)], [0, -1, 2.5, True, 1.0, np.nan, 2**70]
POSITIONS = ([0.3, 2.0, -4.0, 0.0], [-0.0, 5e-324, 1e10, -1e300, 1.7976931348623157e308, np.nan,
                                     np.inf, -np.inf])
DELTAS = [1e-3, 1e-5], [1e-10, 1e-160, 1e-300, 1e200, 0.0, -1e-3, np.nan, np.inf]
SCALES = [1.0], [1e-300, 1e-160, 1e150, 1e160, 1e300, 5e-324]
ARM_VALUES = {"n": ([2, 4, 6], [0, 1, 2.5, np.int64(5)]), "lam": ([0.0, 0.5, 1.0], [np.nan, 1.5]),
              "alpha": ([0.5], [1e-300, 1e300, np.nan]), "seed": ([0, 7], [-1, 1.5, True, 2**70]),
              "t_samples": ([1, 2], [0, 2.5, np.int64(1)]), "window": ([0.5, 1.0], [1e-300, np.nan])}


def value(rng, kind):
    usual, hostile = kind
    return pick(rng, usual if rng.random() < 0.75 else hostile)


def matrix(rng, n):
    """A symmetric n x n Gaussian matrix at a drawn scale, now and then with hostile entries."""
    g = rng.standard_normal((n, n))
    with np.errstate(over="ignore"):
        h = (g + g.T) * value(rng, SCALES)
    for _ in range(int(rng.integers(1, 3)) if rng.random() < 0.2 else 0):
        i, j = rng.integers(n, size=2)
        h[i, j] = h[j, i] = pick(rng, HOSTILE)
    return h


def pair_of(rng):
    """(n, a call building the pair), so that its refusals count as the call's."""
    n = pick(rng, [1, 2, 4, 6])
    h1, h2 = matrix(rng, n), matrix(rng, n)
    return n, lambda: RotatingPair(h1, h2)


def blocks_of(rng, n):
    return value(rng, ([(n,), (1, n - 1), (n // 2, n - n // 2), (np.int64(1), n - 1)],
                       [(0, n), (2.5, n - 2.5), (), (n, 1), (-1, n + 1), (True, n - 1)]))


def arm_of(rng):
    """A call building an ArmParams of usual values, one of them hostile every other time."""
    kwargs = {key: pick(rng, usual) for key, (usual, _) in ARM_VALUES.items()}
    kwargs["m"] = max(kwargs["n"] // pick(rng, [2, 3]), 1)
    if rng.random() < 0.5:
        key = pick(rng, list(ARM_VALUES) + ["m"])
        kwargs[key] = pick(rng, ARM_VALUES[key][1] if key != "m" else [0, 1.5, kwargs["n"]])
    return lambda: ArmParams(**kwargs)


def draw_call(rng):
    """(name, call) of one drawn call."""
    name = pick(rng, ["RotatingPair", "hamiltonian_at", "hamiltonian_rate", "spectral_frame",
                      "spectral_frame_blocks", "curvature_sums", "curvature_fd_oracle",
                      "integrate_motion", "rotation_frame_check", "child_rng",
                      "lambda_from_epsilon", "check_scale", "sample_goe", "sample_coupled",
                      "ArmParams", "run_arm", "pooled_eigenvalues", "arm_summary"])
    t = value(rng, POSITIONS)
    if name in ("child_rng", "lambda_from_epsilon", "check_scale", "sample_goe"):
        n, seed = value(rng, COUNTS), int(rng.integers(2**32))
        if name == "child_rng":
            key = value(rng, ([(), (0,), (0, 5), (np.int64(4),)], [(-1,), (1.5,), (True,)]))
            parent = value(rng, COUNTS)
            return name, lambda: child_rng(parent, *key).random(2)
        alpha = value(rng, ([0.5, 2.0], [1e-300, 1e300, 0.0, -1.0, np.nan, np.inf]))
        if name == "lambda_from_epsilon":
            eps = value(rng, ([1.0, 0.0, 3.2], [1e300, -1.0, np.nan, np.inf]))

            def coupling():  # elementwise in eps: a NaN or inf eps may give a NaN or inf lambda
                lam = lambda_from_epsilon(n, eps)
                return lam if math.isfinite(eps) else 0.0
            return name, coupling
        if name == "check_scale":
            return name, lambda: check_scale(n, alpha)
        return name, lambda: sample_goe(n, alpha, np.random.default_rng(seed))
    if name in ("ArmParams", "sample_coupled", "run_arm", "pooled_eigenvalues", "arm_summary"):
        arm = arm_of(rng)
        realizations = value(rng, ([1, 2, 3], [0, -1, 2.5, True]))
        jobs = value(rng, ([1, np.int64(1)], [0, -1, 1.5, True]))  # no pool: it takes ~0.1 s
        if name == "ArmParams":
            return name, arm
        if name == "sample_coupled":
            return name, lambda: sample_coupled(arm(), np.random.default_rng(0))
        if name == "pooled_eigenvalues":
            return name, lambda: pooled_eigenvalues(arm(), realizations, jobs)
        if name == "run_arm":
            def ran():
                batch, info = run_arm(arm(), realizations, jobs)
                return batch, tuple(info.values())
            return name, ran

        def summary():
            built = arm()
            values = arm_summary(built, *run_arm(built, realizations, jobs)).values()
            return tuple(item for item in values if item is not None)
        return name, summary
    n, pair = pair_of(rng)
    if name == "RotatingPair":
        return name, pair
    if name == "hamiltonian_at":
        return name, lambda: hamiltonian_at(pair(), t)
    if name == "hamiltonian_rate":
        return name, lambda: hamiltonian_rate(pair(), t)
    if name == "spectral_frame":
        return name, lambda: spectral_frame(pair(), t)
    if name == "spectral_frame_blocks":
        blocks = blocks_of(rng, n)
        return name, lambda: spectral_frame_blocks(pair(), t, blocks)
    if name == "curvature_sums":
        energies = np.sort(matrix(rng, n)[0]) if rng.random() < 0.5 else matrix(rng, n)[0]
        p = matrix(rng, pick(rng, [n, n, n, n + 1]))
        return name, lambda: curvature_sums(energies, p)
    if name == "curvature_fd_oracle":
        delta = value(rng, DELTAS)
        return name, lambda: curvature_fd_oracle(pair(), t, delta)
    if name == "integrate_motion":
        t0, steps = value(rng, POSITIONS), value(rng, ([1, 3, 20], [0, -1, 2.5, True, np.nan]))
        return name, lambda: integrate_motion(pair(), t0, t, steps)
    return name, lambda: rotation_frame_check(pair(), t)


def test_seeded_sweep_of_the_dynamics_and_pipeline_on_hostile_inputs():
    rng = np.random.default_rng(SWEEP_SEED)
    faults = []
    for index in range(SWEEP_CASES):
        name, call = draw_call(rng)
        found = fault(call)
        if found is not None:
            faults.append(f"case {index} {name}: {found}")
    assert not faults, f"{len(faults)} faults:\n" + "\n".join(faults[:40])


def test_every_exported_function_of_the_four_modules_is_drawn():
    import levelflow
    drawn, rng = set(), np.random.default_rng(SWEEP_SEED)
    for _ in range(SWEEP_CASES):
        drawn.add(draw_call(rng)[0])
    for module in ("dynamics", "ensemble", "checks", "pipeline"):
        for name in levelflow._EXPORTS[module]:
            if callable(getattr(levelflow, name)) and name != "SpectralFrame":
                assert name in drawn, name
