import ctypes
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import levelflow
from levelflow import (
    CurvatureBatch,
    RotatingPair,
    ValidationError,
    arm_summary,
    child_rng,
    normalize_batch,
    rescale_batch,
    run_arm,
    sample_coupled,
    select_levels,
    spectral_frame,
    spectral_frame_blocks,
    unfold_dynamics,
    window_levels,
)
from levelflow.cli import SAMPLE_COLUMNS, RunConfig, main
from levelflow.dynamics import degeneracy_tolerance
from levelflow.pipeline import (
    ArmParams,
    _map_realizations,
    pooled_eigenvalues,
    realization_rows,
)


def test_arm_from_epsilon_maps_coupling():
    arm = RunConfig(n=100, m=50, alpha=0.5, epsilon=(0.32,), seed=1).arm(0)
    assert arm.lam == pytest.approx(0.032, rel=1e-15)
    assert arm.epsilon == pytest.approx(0.32, rel=1e-12)
    with pytest.raises(ValidationError):
        RunConfig(n=100, m=50, alpha=0.5, epsilon=(11.0,), seed=1).arm(0)


def test_per_block_engages_only_at_zero_coupling():
    assert ArmParams(n=10, m=5, alpha=0.5, lam=0.0, seed=0).per_block
    assert ArmParams(n=10, m=5, alpha=0.5, lam=1e-7, seed=0).per_block
    assert not ArmParams(n=10, m=5, alpha=0.5, lam=1e-3, seed=0).per_block


def test_realization_rows_contract():
    arm = ArmParams(n=40, m=20, alpha=0.5, lam=0.5, seed=3, t_samples=1, window=0.5)
    rows, counts = realization_rows(arm, 0)
    # one t sample, central half of 40 levels, nothing dropped generically
    assert rows.shape == (20, 8)
    assert counts == {"dropped_degenerate": 0, "dropped_edge": 0}
    levels = rows[:, 1].astype(int)
    assert levels.min() == 10 and levels.max() == 29
    assert np.all(rows[:, 0] == 0)


def test_realization_rows_per_block_levels():
    arm = ArmParams(n=40, m=20, alpha=0.5, lam=0.0, seed=3, t_samples=1, window=0.5)
    rows, _ = realization_rows(arm, 0)
    levels = np.sort(rows[:, 1].astype(int))
    # central half of each 20-level block: 5..14 and 25..34
    assert list(levels[:10]) == list(range(5, 15))
    assert list(levels[10:]) == list(range(25, 35))


@pytest.mark.parametrize("lam", [0.0, 0.158])  # per-block, coupled
def test_realization_rows_drop_edge_levels_outside_the_interior(lam):
    # the whole spectrum is kept (window 1), so the extreme levels reach the support edge
    arm = ArmParams(n=40, m=15, alpha=0.5, lam=lam, seed=3, window=1.0)
    rows, counts = realization_rows(arm, 0)
    assert counts["dropped_edge"] > 0
    assert np.all(arm.density_model().interior(rows[:, 3]))
    assert len(rows) + counts["dropped_degenerate"] + counts["dropped_edge"] == arm.t_samples * arm.n


@pytest.mark.parametrize("lam", [0.0, 0.158])  # per-block, coupled
def test_run_arm_info_sums_the_realization_counts(lam):
    # edge drops leave run_arm's row block part empty; the batch must be the realizations' rows
    arm = ArmParams(n=40, m=15, alpha=0.5, lam=lam, seed=3, window=1.0)
    results = [realization_rows(arm, r) for r in range(3)]
    counts = [c for _, c in results]
    rows = np.concatenate([r for r, _ in results])
    expected = normalize_batch(rescale_batch(CurvatureBatch.from_rows(rows)))
    for jobs in (1, 2):
        batch, info = run_arm(arm, realizations=3, jobs=jobs)
        assert info == {key: sum(c[key] for c in counts) for key in counts[0]}
        assert list(info) == ["dropped_degenerate", "dropped_edge"]
        assert info["dropped_edge"] > 0
        assert len(batch) + sum(info.values()) == 3 * arm.t_samples * arm.n
        for column in fields(CurvatureBatch):
            got, want = getattr(batch, column.name), getattr(expected, column.name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (jobs, column.name)


def test_run_arm_batch_and_summary():
    arm = ArmParams(n=30, m=15, alpha=0.5, lam=0.3, seed=9, t_samples=2)
    batch, info = run_arm(arm, realizations=4)
    assert len(batch) == 4 * 2 * 15
    assert abs(np.mean(np.abs(batch.normalized)) - 1.0) < 1e-12
    summary = arm_summary(arm, batch, info)
    assert list(summary)[0] == "lambda"  # the epsilon as given is the caller's to report
    assert summary["n_samples"] == len(batch)
    assert 0.0 < summary["ks_vs_universal"] < 1.0
    assert summary["tail_exponent"] is None  # too few samples in [3, 30]
    # provenance ordering: realizations merge by index
    assert np.all(np.diff(batch.realization) >= 0)


def test_run_arm_is_job_count_invariant():
    arm = ArmParams(n=24, m=12, alpha=0.5, lam=1.0, seed=5, t_samples=2)
    serial, _ = run_arm(arm, realizations=4, jobs=1)
    parallel, _ = run_arm(arm, realizations=4, jobs=2)
    np.testing.assert_array_equal(serial.normalized, parallel.normalized)
    np.testing.assert_array_equal(serial.energy, parallel.energy)


def _blas_threads_task(args):
    """Thread count of numpy's bundled OpenBLAS in the calling process, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        getter = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            return getter()
    return None


def test_workers_run_blas_on_one_thread():
    arm = ArmParams(n=10, m=5, alpha=0.5, lam=0.5, seed=0)
    threads = list(_map_realizations(_blas_threads_task, arm, realizations=2, jobs=2))
    if threads[0] is None:
        pytest.skip("numpy has no bundled OpenBLAS with a thread-count getter")
    assert threads == [1, 1]


def _child(script: str, env_drop=(), **env) -> list:
    """The JSON list a fresh interpreter prints after running `script`, with src/ and this
    directory on its path, `env_drop` removed from its environment and `env` added."""
    paths = [str(Path(levelflow.__file__).parents[1]), str(Path(__file__).parent)]
    child_env = {k: v for k, v in os.environ.items() if k not in env_drop}
    paths.append(os.environ.get("PYTHONPATH"))
    child_env.update(env, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_runs_blas_on_one_thread(tmp_path):
    # even when the environment asks OpenBLAS for more threads
    code, threads = _child(
        "import json\n"
        "from levelflow.cli import main\n"
        "from test_pipeline import _blas_threads_task\n"
        "code = main(['simulate', '--n', '20', '--epsilon', '1', '--realizations', '2',\n"
        f"             '--out', {str(tmp_path / 's.csv')!r}, '--jobs', '1'])\n"
        "print(json.dumps([code, _blas_threads_task(None)]))\n",
        OPENBLAS_NUM_THREADS="2",
    )
    assert code == 0
    if threads is None:
        pytest.skip("numpy has no bundled OpenBLAS with a thread-count getter")
    assert threads == 1


def test_cli_curvatures_match_unpinned_blas_bit_for_bit(tmp_path):
    # at n = 200 OpenBLAS splits an eigh over its threads; one thread must give the same bits
    threads = _child(
        "import json, numpy as np\n"
        "from levelflow import run_arm\n"
        "from levelflow.cli import RunConfig\n"
        "from test_pipeline import _blas_threads_task\n"
        "arm = RunConfig(n=200, epsilon=(1.0,), t_samples=2, seed=7).arm(0)\n"
        "batch, _ = run_arm(arm, 2)\n"
        f"np.save({str(tmp_path / 'K.npy')!r}, batch.rescaled)\n"
        "print(json.dumps([_blas_threads_task(None)]))\n",
        env_drop=("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"),
    )[0]
    if threads is not None and threads < 2:
        pytest.skip("unpinned OpenBLAS runs one thread here; nothing to compare")
    out = tmp_path / "s.csv"
    assert main(["simulate", "--n", "200", "--epsilon", "1", "--realizations", "2",
                 "--t-samples", "2", "--seed", "7", "--out", str(out), "--jobs", "1"]) == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert lines[0].split(",") == list(SAMPLE_COLUMNS)
    pinned = np.array([float(line.split(",")[SAMPLE_COLUMNS.index("K")]) for line in lines[1:]])
    unpinned = np.load(tmp_path / "K.npy")
    assert len(unpinned) > 100
    assert pinned.tobytes() == unpinned.tobytes()


def test_run_arm_validation():
    arm = ArmParams(n=10, m=5, alpha=0.5, lam=0.5, seed=0)
    with pytest.raises(ValidationError):
        run_arm(arm, realizations=0)


def test_run_arm_holds_its_rows_once():
    # rows are 8 float64 columns, 64 B a sample; the batch adds two int and two float columns
    arm = ArmParams(n=40, m=20, alpha=0.5, lam=0.5, seed=5)
    run_arm(arm, realizations=1)  # numpy's lazy imports are not the batch's memory
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        batch, _ = run_arm(arm, realizations=200)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * len(batch) * 64


def test_pooled_eigenvalues_deterministic():
    arm = ArmParams(n=16, m=8, alpha=0.5, lam=0.2, seed=4)
    a = pooled_eigenvalues(arm, 3, jobs=1)
    b = pooled_eigenvalues(arm, 3, jobs=2)
    assert a.shape == (48,)
    np.testing.assert_array_equal(a, b)


def test_window_choice_insensitivity():
    # Normalized tails should not depend on the retained level window once
    # the batch is renormalized: compare central 50% vs 80% on shared draws.
    base = dict(n=60, m=30, alpha=0.5, lam=1.0, seed=21, t_samples=4)
    narrow, _ = run_arm(ArmParams(**base, window=0.5), realizations=60)
    wide, _ = run_arm(ArmParams(**base, window=0.8), realizations=60)
    f_narrow = np.mean(np.abs(narrow.normalized) > 1.5)
    f_wide = np.mean(np.abs(wide.normalized) > 1.5)
    pooled = (f_narrow * len(narrow) + f_wide * len(wide)) / (len(narrow) + len(wide))
    sigma = np.sqrt(pooled * (1 - pooled) * (1 / len(narrow) + 1 / len(wide)))
    # shared realizations make the arms positively correlated, so the
    # independent-sample 3 sigma bound is conservative
    assert abs(f_narrow - f_wide) < 3 * sigma


def _full_frame_columns(arm: ArmParams, realization: int) -> np.ndarray:
    """(E, Edot, Eddot, xdot, xddot) of one realization, every frame evaluated on all rows."""
    rng = child_rng(arm.seed, arm.eps_index, realization)
    pair = RotatingPair(sample_coupled(arm, rng), sample_coupled(arm, rng))
    model = arm.density_model()
    tol = degeneracy_tolerance(model.support[1])
    window = window_levels(arm.blocks, arm.window)
    out = []
    for t in rng.uniform(0.0, 2.0 * np.pi, arm.t_samples):
        if arm.per_block:
            frame = spectral_frame_blocks(pair, t, arm.blocks, tol)
        else:
            frame = spectral_frame(pair, t, tol)
        idx = select_levels(frame, window)
        idx = idx[model.interior(frame.energies[idx])]
        xdot, xddot = unfold_dynamics(model, frame, idx)
        out.append(np.column_stack([frame.energies[idx], frame.velocities[idx],
                                    frame.curvatures[idx], xdot, xddot]))
    return np.concatenate(out)


@pytest.mark.parametrize(
    "n, m, lam",
    [
        (100, 50, 0.1),  # coupled
        (100, 50, 0.0),  # per-block, 50-level blocks
        (60, 20, 0.0),  # per-block, uneven split
        (60, 20, 0.13),  # coupled, uneven split
    ],
)
def test_window_frames_match_full_frames_bit_for_bit(n, m, lam):
    arm = ArmParams(n=n, m=m, alpha=0.5, lam=lam, seed=17, t_samples=3)
    for realization in range(3):
        rows, _ = realization_rows(arm, realization)
        full = _full_frame_columns(arm, realization)
        assert rows.shape == (len(full), 8)
        for column in range(5):  # E, Edot, Eddot, xdot, xddot
            assert np.array_equal(rows[:, 3 + column], full[:, column])
