"""Each output check accepts the program's real output and rejects a deliberately wrong one.

    python3 -m pytest perfbench -q

The wrong outputs are built here from small real runs of the CLI or from
draws of P(K; gamma); nothing under src/ is touched.  Scratch files go to
perfbench/work/ and are removed afterwards.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import harness
import reference
import run
import workloads
from checks import CheckError


@pytest.fixture(scope="module")
def scratch():
    path = run.BENCH / "work" / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def levelflow(scratch: Path, *args) -> str:
    done = subprocess.run([sys.executable, "-m", "levelflow", *args], cwd=scratch, env=run.child_env(),
                          capture_output=True, text=True, check=True)
    return done.stdout


@pytest.fixture(scope="module")
def samples(scratch):
    """A small real simulate table at epsilon = 1: (path, header, columns)."""
    levelflow(scratch, "simulate", "--n", "40", "--epsilon", "1", "--realizations", "30",
              "--seed", "7", "--jobs", "1", "--out", "sim.csv")
    header, names, rows = checks.read_table(scratch / "sim.csv")
    return scratch / "sim.csv", header, dict(zip(names, rows.T))


def test_real_samples_pass_every_check(samples):
    figures = workloads.check_samples(samples[0])
    assert figures["dynamics.levels"] > 0


def test_rescaling_rejects_k_without_velocity_projection(samples):
    _, _, col = samples
    xdot, xddot = col["xdot"], col["xddot"]
    checks.check_rescaling(xdot, xddot, col["K"])
    unprojected = xddot / (math.pi * np.mean(xdot * xdot))
    with pytest.raises(CheckError, match="rescaling"):
        checks.check_rescaling(xdot, xddot, unprojected)


def test_row_count_rejects_a_lost_row(samples):
    with pytest.raises(CheckError, match="sample rows"):
        checks.check_row_count(len(samples[2]["K"]) - 1, 30, 4, 40, 0.5, 0, 0)


def test_normalization_rejects_k_off_by_1e_9(samples):
    k = samples[2]["k"]
    checks.check_normalized(k)
    with pytest.raises(CheckError, match=r"<\|k\|>"):
        checks.check_normalized(k * (1.0 + 1e-9))


def test_unfolding_rejects_a_radius_one_percent_off(samples):
    _, header, col = samples
    n, alpha, lam = 40, float(header["alpha"]), float(header["lambda"])
    args = (col["E"], col["Edot"], col["Eddot"])
    checks.check_unfolding(*args, col["xdot"], col["xddot"], n, alpha, lam)
    e = col["E"] / 1.01  # the same semicircle with a radius 1% larger
    rho = reference.semicircle(e, n, alpha, lam) / 1.01
    slope = reference.semicircle_slope(e, n, alpha, lam) / 1.01**2
    with pytest.raises(CheckError, match="semicircle"):
        checks.check_unfolding(*args, rho * col["Edot"], rho * col["Eddot"] + slope * col["Edot"] ** 2,
                               n, alpha, lam)


def test_dynamics_rejects_curvature_without_factor_two(samples):
    _, header, col = samples
    checks.check_dynamics(col, header, [0, 29])
    halved = dict(col, Eddot=-col["E"] + 0.5 * (col["Eddot"] + col["E"]))
    with pytest.raises(CheckError, match="curvature"):
        checks.check_dynamics(halved, header, [0, 29])


def test_dynamics_rejects_another_seed(samples):
    _, header, col = samples
    with pytest.raises(CheckError, match="seeding scheme"):
        checks.check_dynamics(col, dict(header, seed="8"), [0])


def test_determinism_rejects_one_changed_file(samples):
    first = checks.digests(samples[0].parent)
    changed = dict(first, **{"sim.csv": "0" * 64})
    assert checks.check_identical(first, dict(first)) == len(first)
    with pytest.raises(CheckError, match="sim.csv"):
        checks.check_identical(first, changed)


@pytest.fixture(scope="module")
def sweep(scratch):
    levelflow(scratch, "sweep", "--n", "40", "--epsilon", "0", "6.3", "--realizations", "20",
              "--seed", "3", "--jobs", "1", "--out", "sweep")
    return sorted((scratch / "sweep").glob("hist_eps*.csv"))


def test_histogram_rejects_density_not_integrating_to_one(sweep):
    assert len(sweep) == 2
    for path in sweep:
        _, _, rows = checks.read_table(path)
        lo, hi, counts, density = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
        checks.check_histogram_density(lo, hi, density)
        with pytest.raises(CheckError, match="integrates"):
            checks.check_histogram_density(lo, hi, density * (1.0 + 1e-6))
        outside = 4 * 20 * 20 - counts.sum()  # samples beyond [-5, 5] in the untruncated denominator
        assert outside > 0
        with pytest.raises(CheckError, match="integrates"):
            checks.check_histogram_density(lo, hi, counts / ((counts.sum() + outside) * (hi - lo)))


def test_halving_rejects_a_decoupled_arm_at_one(scratch):
    out = {}
    for name, eps in (("decoupled", "0"), ("goe", "10")):
        levelflow(scratch, "simulate", "--n", "100", "--epsilon", eps, "--realizations", "40",
                  "--seed", "5", "--jobs", "1", "--out", f"{name}.csv")
        out[name] = checks.read_table(scratch / f"{name}.csv")
    col = {name: dict(zip(t[1], t[2].T)) for name, t in out.items()}
    assert abs(checks.check_decoupled_halving(col["decoupled"]["K"]) - 0.5) < 0.05
    with pytest.raises(CheckError, match="decoupled"):
        checks.check_decoupled_halving(col["goe"]["K"])  # <|K|> = 1: the arm of one GOE


def test_universal_rejects_a_wider_law():
    rng = np.random.Generator(np.random.PCG64(4))
    checks.check_universal(reference.draw_curvatures(1.0, 20_000, rng), checks.KS_GOE_LIMIT)
    with pytest.raises(CheckError, match="universal"):
        checks.check_universal(reference.draw_curvatures(1.3, 20_000, rng), checks.KS_GOE_LIMIT)


def _fit(scratch: Path, gamma: float):
    path = scratch / f"K{gamma}.txt"
    values = reference.draw_curvatures(gamma, workloads.FIT_SAMPLES, np.random.Generator(np.random.PCG64(9)))
    path.write_text("\n".join(map(repr, values.tolist())) + "\n", encoding="utf-8")
    stdout = levelflow(scratch, "fit", "--input", path.name, "--out", "curve.csv")
    header, _, _ = checks.read_table(scratch / "curve.csv")
    ks = float(stdout.split("KS vs fitted model = ")[1].split()[0])
    return float(header["gamma"]), ks


def test_fit_rejects_gamma_five_percent_off(scratch):
    gamma, ks = _fit(scratch, workloads.FIT_GAMMA)
    checks.check_fit(gamma, ks, workloads.FIT_SAMPLES, workloads.FIT_GAMMA)
    off, off_ks = _fit(scratch, 1.05 * workloads.FIT_GAMMA)
    with pytest.raises(CheckError, match="fitted gamma"):
        checks.check_fit(off, off_ks, workloads.FIT_SAMPLES, workloads.FIT_GAMMA)


def test_fit_rejects_ks_above_the_critical_value():
    limit = reference.ks_critical(workloads.FIT_SAMPLES, checks.FIT_KS_SIGNIFICANCE)
    with pytest.raises(CheckError, match="critical"):
        checks.check_fit(workloads.FIT_GAMMA, 1.01 * limit, workloads.FIT_SAMPLES, workloads.FIT_GAMMA)


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(harness.LAYER_UNITS, **{"trace.overhead_s": "s"})


def test_refuses_to_run_without_the_program(scratch):
    bare = scratch / "bare"
    shutil.copytree(run.BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "traces", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fit-samples", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
