import ast
import ctypes
import importlib
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
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
    hamiltonian_at,
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
from levelflow.cli import SAMPLE_COLUMNS, RunConfig, main, write_table
from levelflow.pipeline import (
    ArmParams,
    _map_realizations,
    pooled_eigenvalues,
    realization_rows,
    usable_cpus,
)
from levelflow.statistics import STAT_BLOCK


def test_arm_from_epsilon_maps_coupling():
    arm, = RunConfig(n=100, m=50, alpha=0.5, epsilon=(0.32,), seed=1).arms
    assert arm.lam == pytest.approx(0.032, rel=1e-15)
    assert arm.epsilon == pytest.approx(0.32, rel=1e-12)
    with pytest.raises(ValidationError):
        RunConfig(n=100, m=50, alpha=0.5, epsilon=(11.0,), seed=1)


def test_the_arms_of_a_run_share_their_draws(monkeypatch):
    # realization r of every arm draws one unit-coupling pair from key (0, r) and scales its
    # cross-block entries by the arm's lambda; sqrt(16) = 4, so lambda is 0.5 and 0.125 exactly
    drawn = []

    def recorded(arm, rng):
        drawn.append(sample_coupled(arm, rng))
        return drawn[-1]

    monkeypatch.setattr(levelflow.pipeline, "sample_coupled", recorded)
    strong, weak = RunConfig(n=16, epsilon=(2.0, 0.5), t_samples=3, seed=5).arms
    assert (strong.lam, weak.lam) == (0.5, 0.125)
    rows_strong, counts_strong = realization_rows(strong, 2)
    rows_weak, counts_weak = realization_rows(weak, 2)
    assert counts_strong == counts_weak == {"dropped_degenerate": 0, "dropped_edge": 0}
    np.testing.assert_array_equal(rows_strong[:, 2], rows_weak[:, 2])  # the same path positions
    pooled_eigenvalues(weak, 3)  # realization 2 draws the first matrix of the pair again
    assert len(drawn) == 2 + 2 + 3
    np.testing.assert_array_equal(drawn[-1], drawn[2])
    m = strong.m
    for a, b in zip(drawn[:2], drawn[2:4]):  # the pair of each arm
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a[:m, :m], b[:m, :m])
        np.testing.assert_array_equal(a[m:, m:], b[m:, m:])
        np.testing.assert_array_equal(a[:m, m:], (strong.lam / weak.lam) * b[:m, m:])
        np.testing.assert_array_equal(a[m:, :m], (strong.lam / weak.lam) * b[m:, :m])


def test_per_block_engages_only_at_zero_coupling():
    assert ArmParams(n=10, m=5, alpha=0.5, lam=0.0, seed=0).per_block
    assert not ArmParams(n=10, m=5, alpha=0.5, lam=1e-7, seed=0).per_block
    assert not ArmParams(n=10, m=5, alpha=0.5, lam=1e-3, seed=0).per_block


def test_an_arm_builds_its_model_and_window_once(tmp_path, monkeypatch):
    arm = ArmParams(n=20, m=10, alpha=0.5, lam=0.5, seed=1, t_samples=1)
    built = dict.fromkeys(("DensityModel", "window_levels"), 0)
    for name in built:
        def counted(*args, name=name, original=getattr(levelflow.pipeline, name), **kwargs):
            built[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(levelflow.pipeline, name, counted)
    run_arm(arm, 6, jobs=1)
    assert built == {"DensityModel": 0, "window_levels": 0}
    # the command's one arm builds the one model its histogram and summary read
    assert main(["density", "--n", "20", "--epsilon", "1", "--realizations", "2",
                 "--jobs", "1", "--out", str(tmp_path / "d.csv")]) == 0
    assert built["DensityModel"] == 1


def test_an_arms_model_and_levels_follow_its_fields():
    arm = ArmParams(n=20, m=8, alpha=0.5, lam=0.3, seed=1)
    assert [f.name for f in fields(ArmParams)] == [
        "n", "m", "lam", "alpha", "seed", "t_samples", "window"]
    copy = pickle.loads(pickle.dumps(arm))  # how a pool worker gets its arm
    assert copy == arm and copy.model == arm.model
    np.testing.assert_array_equal(copy.levels, arm.levels)
    twin = ArmParams(n=20, m=8, alpha=0.5, lam=0.3, seed=1)
    assert twin == arm and hash(twin) == hash(arm) and repr(twin) == repr(arm)
    np.testing.assert_array_equal(replace(arm, lam=0.0).levels, window_levels((8, 12), 0.5))
    np.testing.assert_array_equal(arm.levels, window_levels((20,), 0.5))
    assert replace(arm, lam=0.5).model.radius != arm.model.radius


def test_a_tiny_coupling_runs_on_full_frames():
    # the arm draws a coupled matrix, so its levels are those of the whole H(t), in ascending order
    arm = ArmParams(n=40, m=20, alpha=0.5, lam=1e-7, seed=3, t_samples=2)
    assert not arm.per_block
    rows, _ = realization_rows(arm, 0)
    rng = child_rng(arm.seed, 0, 0)
    pair = RotatingPair(sample_coupled(arm, rng), sample_coupled(arm, rng))
    for t in rng.uniform(0.0, 2.0 * np.pi, arm.t_samples):
        kept = rows[rows[:, 2] == t]
        assert len(kept) == 20
        whole = np.linalg.eigvalsh(hamiltonian_at(pair, t))
        np.testing.assert_allclose(kept[:, 3], whole[kept[:, 1].astype(int)], rtol=0, atol=1e-12)


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
    assert np.all(arm.model.unfolding(rows[:, 3])[0])
    assert len(rows) + counts["dropped_degenerate"] + counts["dropped_edge"] == arm.t_samples * arm.n
    # walked frame by frame: each selected level outside the interior is one dropped_edge,
    # and the rows are the levels unfold_dynamics keeps, the count the benchmark reads
    rng = child_rng(arm.seed, 0, 0)
    pair = RotatingPair(sample_coupled(arm, rng), sample_coupled(arm, rng))
    model = arm.model
    window = window_levels(arm.blocks, arm.window)
    outside = kept = 0
    for t in rng.uniform(0.0, 2.0 * np.pi, arm.t_samples):
        frame = spectral_frame_blocks(pair, t, arm.blocks) if arm.per_block else spectral_frame(pair, t)
        idx = select_levels(frame, window)
        outside += int(np.sum(~model.unfolding(frame.energies[idx])[0]))
        kept += len(unfold_dynamics(model, frame, idx)[0])
    assert counts["dropped_edge"] == outside
    assert len(rows) == kept


def _assert_run_arm_is_the_realizations_rows(arm: ArmParams, realizations: int, results: list):
    """run_arm at jobs 1 and 2 equals, bit for bit, the batch of the realizations' own rows."""
    counts = [c for _, c in results]
    rows = np.concatenate([r for r, _ in results])
    expected = normalize_batch(rescale_batch(CurvatureBatch.from_rows(rows)))
    for jobs in (1, 2):
        batch, info = run_arm(arm, realizations=realizations, jobs=jobs)
        assert info == {key: sum(c[key] for c in counts) for key in counts[0]}
        assert list(info) == ["dropped_degenerate", "dropped_edge"]
        assert info["dropped_edge"] > 0
        assert len(batch) + sum(info.values()) == realizations * arm.t_samples * arm.n
        for column in fields(CurvatureBatch):
            got, want = getattr(batch, column.name), getattr(expected, column.name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (jobs, column.name)


@pytest.mark.parametrize("lam", [0.0, 0.158])  # per-block, coupled
def test_run_arm_info_sums_the_realization_counts(lam):
    # edge drops leave run_arm's row block part empty; the batch must be the realizations' rows
    arm = ArmParams(n=40, m=15, alpha=0.5, lam=lam, seed=3, window=1.0)
    _assert_run_arm_is_the_realizations_rows(arm, 3, [realization_rows(arm, r) for r in range(3)])


@pytest.mark.parametrize("lam", [0.0, 0.5])  # per-block, coupled
def test_a_realization_without_a_kept_level(lam):
    # at n = 2 with one path position both levels can lie in the edge margin
    arm = ArmParams(n=2, m=1, alpha=0.5, lam=lam, seed=3, t_samples=1, window=1.0)
    results = [realization_rows(arm, r) for r in range(400)]
    rows, counts = next(result for result in results if len(result[0]) == 0)
    assert rows.shape == (0, 8) and rows.dtype == np.float64
    assert counts["dropped_edge"] == 2
    _assert_run_arm_is_the_realizations_rows(arm, 400, results)


def test_run_arm_looks_its_realization_task_up_when_called(monkeypatch):
    # perfbench/harness.py times realizations by replacing pipeline.realization_rows
    calls = []

    def counted(arm, realization):
        calls.append(realization)
        return realization_rows(arm, realization)

    monkeypatch.setattr(levelflow.pipeline, "realization_rows", counted)
    run_arm(ArmParams(n=10, m=5, alpha=0.5, lam=0.5, seed=0, t_samples=1), realizations=3)
    assert calls == [0, 1, 2]


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


def _blas_threads_task(*args):
    """Thread count of numpy's bundled OpenBLAS in the calling process, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        getter = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            return getter()
    return None


def test_workers_run_blas_on_one_thread(monkeypatch):
    monkeypatch.setattr(levelflow.pipeline, "usable_cpus", lambda: 2)  # two workers on any machine
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
        "arm, = RunConfig(n=200, epsilon=(1.0,), t_samples=2, seed=7).arms\n"
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


def test_entry_point_starts_no_blas_pool(tmp_path):
    # with no thread count in the environment, OpenBLAS would start one thread per core at load
    if not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2:
        pytest.skip("needs /proc/self/task and two cores to tell a pool from one thread")
    if _blas_threads_task(None) is None:
        pytest.skip("numpy has no bundled OpenBLAS with a thread-count getter")
    code, tasks, threads = _child(
        "import json, os, runpy, sys\n"
        "sys.argv = ['levelflow', 'simulate', '--n', '20', '--epsilon', '1', '--realizations',\n"
        f"            '2', '--out', {str(tmp_path / 's.csv')!r}, '--jobs', '1']\n"
        "try:\n"
        "    runpy.run_module('levelflow', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "tasks = len(os.listdir('/proc/self/task'))\n"
        "from test_pipeline import _blas_threads_task\n"
        "print(json.dumps([code, tasks, _blas_threads_task(None)]))\n",
        env_drop=("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"),
    )
    assert code == 0
    assert tasks == 1
    assert threads == 1


def test_entry_point_maps_no_libcrypto(tmp_path):
    # numpy.random imports secrets -> hmac -> _hashlib, which maps OpenSSL's libcrypto; the
    # command blocks _hashlib before numpy loads, and hashlib and hmac fall back to built-ins
    code, drew, hashlib_entry, libcrypto, digests, pooled, managed = _child(
        "import json, os, runpy, sys\n"
        "sys.argv = ['levelflow', 'simulate', '--n', '20', '--epsilon', '1', '--realizations',\n"
        f"            '2', '--out', {str(tmp_path / 's.csv')!r}, '--jobs', '1']\n"
        "try:\n"
        "    runpy.run_module('levelflow', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "libcrypto = None\n"
        "if os.path.exists('/proc/self/maps'):\n"
        "    with open('/proc/self/maps') as maps:\n"
        "        libcrypto = 'libcrypto' in maps.read()\n"
        "import hashlib, hmac, multiprocessing\n"
        "digests = [hashlib.sha256(b'abc').hexdigest(),\n"
        "           hmac.new(b'key', b'message', 'sha256').hexdigest()]\n"
        "spawn = multiprocessing.get_context('spawn')\n"
        "with spawn.Pool(1) as pool:\n"
        "    pooled = pool.map(abs, [-1, -2])\n"
        "with spawn.Manager() as manager:  # its connections answer the hmac challenge\n"
        "    managed = list(manager.list([3]))\n"
        "print(json.dumps([code, 'numpy.random' in sys.modules,\n"
        "                  repr(sys.modules.get('_hashlib', 'absent')), libcrypto, digests,\n"
        "                  pooled, managed]))\n",
    )
    assert code == 0
    assert drew  # the run drew its matrices, so it imported numpy.random
    assert hashlib_entry == "None"
    assert digests == ["ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                       "6e9ef29b75fffc5b7abae527d58fdadb2fe42e7219011976917343065f58ed4a"]
    assert pooled == [1, 2] and managed == [3]
    if libcrypto is None:
        pytest.skip("no /proc/self/maps to look for libcrypto in")
    assert libcrypto is False


#: The package's exported names, by the module that defines each.
EXPORTS = {
    "checks": "curvature_fd_oracle integrate_motion rotation_frame_check",
    "dynamics": "RotatingPair SpectralFrame curvature_sums hamiltonian_at hamiltonian_rate "
                "spectral_frame spectral_frame_blocks",
    "ensemble": "DEFAULT_ALPHA child_rng lambda_from_epsilon sample_coupled sample_goe",
    "errors": "DegenerateSpectrumError EigensolverError LevelflowError NumericalError "
              "StencilCrossingError ValidationError",
    "pipeline": "ArmParams arm_summary pooled_eigenvalues run_arm",
    "statistics": "DistributionFit Histogram build_histogram fit_gamma gamma_cdf gamma_pdf "
                  "ks_statistic loglog_slope model_bin_density reduced_chi_square "
                  "sample_gamma_dist tail_exponent universal_pdf",
    "unfolding": "CurvatureBatch DensityModel normalize_batch rescale_batch select_levels "
                 "unfold_dynamics window_levels",
}


def test_package_exports_the_objects_of_their_modules():
    assert set(levelflow.__all__) == {n for names in EXPORTS.values() for n in names.split()}
    for module, names in EXPORTS.items():
        defined = importlib.import_module(f"levelflow.{module}")
        for name in names.split():
            assert getattr(levelflow, name) is getattr(defined, name), name
    assert set(levelflow.__all__) <= set(dir(levelflow))
    with pytest.raises(AttributeError, match="no_such_name"):
        levelflow.no_such_name


def test_every_name_the_benchmark_harness_wraps_exists():
    # the harness replaces these names at run time; a renamed one would only fail in a traced run
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "harness.py").read_text())
    modules = {"pipeline": levelflow.pipeline, "cli": levelflow.cli,
               "statistics": levelflow.statistics, "np.linalg": np.linalg}
    loops = {node.target.id: node.iter for node in ast.walk(tree)
             if isinstance(node, ast.For) and isinstance(node.target, ast.Name)}
    wrapped = []
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "self.wrap":
            module, name = ast.unparse(call.args[0]), call.args[1]
            # a name is a string, or the variable of a loop over a tuple of strings
            loop = loops.get(getattr(name, "id", None))
            names = ast.literal_eval(loop) if loop is not None else [name.value]
            wrapped += [(module, attr) for attr in names]
    assert len(wrapped) >= 20
    for module, name in wrapped:
        assert callable(getattr(modules[module], name, None)), f"{module}.{name}"


def test_import_levelflow_loads_no_numpy():
    numpy_loaded, cli_name, star = _child(
        "import json, sys\n"
        "import levelflow\n"
        "numpy_loaded = 'numpy' in sys.modules\n"
        "from levelflow import cli\n"
        "names = {}\n"
        "exec('from levelflow import *', names)\n"
        "print(json.dumps([numpy_loaded, cli.__name__, sorted(set(names) - {'__builtins__'})]))\n"
    )
    assert numpy_loaded is False
    assert cli_name == "levelflow.cli"
    assert star == sorted(levelflow.__all__)


def test_cli_loads_multiprocessing_only_for_a_pool(tmp_path):
    # a --jobs 1 run and every fit run in the caller; only a pool needs multiprocessing
    loaded = _child(
        "import json, sys\n"
        "import numpy as np\n"
        "from levelflow.cli import main\n"
        "loaded = ['multiprocessing' in sys.modules]\n"
        f"out = {str(tmp_path)!r}\n"
        "assert main(['simulate', '--n', '20', '--epsilon', '1', '--realizations', '2',\n"
        "             '--jobs', '1', '--out', out + '/s.csv']) == 0\n"
        "loaded.append('multiprocessing' in sys.modules)\n"
        "np.savetxt(out + '/k.txt', np.random.default_rng(1).standard_cauchy(2000))\n"
        "assert main(['fit', '--input', out + '/k.txt', '--out', out + '/c.csv']) == 0\n"
        "loaded.append('multiprocessing' in sys.modules)\n"
        "print(json.dumps(loaded))\n"
    )
    assert loaded == [False, False, False]


def test_fit_loads_no_numpy_random(tmp_path):
    # fit draws nothing, so it never imports numpy.random, nor the libcrypto that it brings
    samples, curve = tmp_path / "k.txt", tmp_path / "c.csv"
    np.savetxt(samples, np.random.default_rng(1).standard_cauchy(2000))
    loaded = _child(
        "import json, sys\n"
        "from levelflow.cli import main\n"
        f"code = main(['fit', '--input', {str(samples)!r}, '--out', {str(curve)!r}])\n"
        "print(json.dumps([code, 'numpy' in sys.modules, 'numpy.random' in sys.modules]))\n"
    )
    assert loaded == [0, True, False]


def test_run_arm_validation():
    arm = ArmParams(n=10, m=5, alpha=0.5, lam=0.5, seed=0)
    with pytest.raises(ValidationError):
        run_arm(arm, realizations=0)


def test_run_arm_refuses_a_row_block_of_2_to_the_63_bytes():
    # 4 path positions x 4 window levels a realization, 64 B a row: 2**53 realizations fill 2**63 B
    arm = ArmParams(n=8, m=4, alpha=0.5, lam=0.5, seed=0)
    with pytest.raises(ValidationError, match=r"block of 144115188075855872 rows .* 2\*\*63 bytes"):
        run_arm(arm, realizations=2**53)
    with pytest.raises(MemoryError):  # one realization less is numpy's to refuse
        run_arm(arm, realizations=2**53 - 1)


def test_run_arm_holds_its_rows_once():
    # rows are 8 float64 columns, 64 B a sample, and the batch's columns are views of them;
    # rescaling and normalizing add K and k, 16 B a sample, and no temporary beside them
    arm = ArmParams(n=40, m=20, alpha=0.5, lam=0.5, seed=5)
    run_arm(arm, realizations=1)  # numpy's lazy imports are not the batch's memory
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        batch, _ = run_arm(arm, realizations=200)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= len(batch) * (64 + 16) + 2**14
    block = batch.energy.base  # the row block, which owns the memory of every row column
    assert np.shares_memory(batch.realization, block) and np.shares_memory(batch.level, block)
    assert batch.realization.dtype == batch.level.dtype == np.float64
    assert np.array_equal(batch.realization, np.repeat(np.arange(200), 4 * 20))


def _synthetic_batch(samples: int) -> CurvatureBatch:
    """A rescaled and normalized batch of `samples` rows in run_arm's layout."""
    rng = child_rng(51, 0)
    rows = np.empty((samples, 8))
    rows[:, 0] = np.arange(samples) // 80
    rows[:, 1] = np.arange(samples) % 80
    rows[:, 2:] = rng.standard_normal((samples, 6))
    rows[:, 7] = rng.standard_cauchy(samples)
    return normalize_batch(rescale_batch(CurvatureBatch.from_rows(rows)))


def test_summary_reports_the_mean_abs_k_that_normalized_the_batch():
    # one <|K|>, taken by normalize_batch; it is an attribute, not an eleventh sample column
    assert "mean_abs_rescaled" not in [f.name for f in fields(CurvatureBatch)]
    arm = ArmParams(n=30, m=15, alpha=0.5, lam=0.3, seed=9, t_samples=2)
    ran, info = run_arm(arm, realizations=4)
    by_hand = _synthetic_batch(2000)
    by_hand.rescaled = 3.7 * child_rng(52, 0).standard_cauchy(len(by_hand))
    normalize_batch(by_hand)
    for batch in (ran, _synthetic_batch(2000), by_hand):
        reported = arm_summary(arm, batch, info)["mean_abs_rescaled"]
        assert type(reported) is float
        assert reported.hex() == float(np.mean(np.abs(batch.rescaled))).hex()
    assert np.mean(np.abs(by_hand.normalized)) == pytest.approx(1.0, abs=1e-12)


def test_summary_and_writer_add_little_to_a_40k_sample_batch(tmp_path):
    # the summary holds one sorted copy of k and two statistics blocks; the writer one chunk,
    # so its first 4,096 rows, several chunks, show its peak at any length
    arm = ArmParams(n=40, m=20, alpha=0.5, lam=0.5, seed=5)
    batch, info = _synthetic_batch(40_000), {"dropped_degenerate": 0, "dropped_edge": 0}
    columns = [getattr(batch, f.name)[:4096] for f in fields(CurvatureBatch)]
    calls = {"summary": lambda: arm_summary(arm, batch, info)}
    for fmt in ("csv", "json"):
        calls[fmt] = lambda fmt=fmt: write_table(tmp_path / f"s.{fmt}", fmt, "simulate",
                                                 {"n": 40}, SAMPLE_COLUMNS, columns)
    peaks = {}
    for name, call in calls.items():
        call()  # numpy's lazy imports are not the call's memory
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert peaks["summary"] <= len(batch) * 8 + 2 * 8 * STAT_BLOCK + 2**14, peaks
    assert peaks["csv"] <= 2**18 and peaks["json"] <= 2**18, peaks


class _RecordingPool:
    """A stand-in for multiprocessing.Pool that records its worker count, starts no
    process and runs the tasks in order in the caller."""

    started = []

    def __init__(self, workers, initializer=None):
        self.started.append(workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, task, indices, chunksize=1):
        return map(task, indices)


def _realization_index(arm, realization):
    return realization


@pytest.mark.parametrize("cpus, jobs, realizations, workers", [
    (3, 100_000, 100_000, 3),  # never more workers than usable CPUs
    (3, 100_000, 2, 2),        # nor than realizations
    (8, 4, 50, 4),
    (1, 100_000, 50, None),  # one usable CPU: no pool
    (3, 1, 50, None),
    (3, 4, 1, None),
])
def test_pool_workers_are_capped_at_the_cores(monkeypatch, cpus, jobs, realizations, workers):
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(levelflow.pipeline, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "started", [])
    arm = ArmParams(n=10, m=5, alpha=0.5, lam=0.5, seed=0)
    results = list(_map_realizations(_realization_index, arm, realizations, jobs))
    assert results == list(range(realizations))
    assert _RecordingPool.started == ([] if workers is None else [workers])


def test_cli_jobs_past_the_cores_start_one_worker_per_core(tmp_path, monkeypatch):
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(levelflow.pipeline, "usable_cpus", lambda: 2)
    monkeypatch.setattr(_RecordingPool, "started", [])
    assert main(["density", "--n", "10", "--epsilon", "1", "--realizations", "6",
                 "--jobs", "100000", "--out", str(tmp_path / "d.csv")]) == 0
    assert _RecordingPool.started == [2]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs CPU affinity")
def test_jobs_0_counts_the_cpus_the_process_may_run_on(tmp_path, monkeypatch):
    # a process pinned to one CPU of a two-core host (`taskset -c 0`) starts no pool
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(_RecordingPool, "started", [])
    assert usable_cpus() == 1
    assert RunConfig(epsilon=(1.0,), jobs=0).jobs == 1
    assert main(["density", "--n", "10", "--epsilon", "1", "--realizations", "6",
                 "--jobs", "0", "--out", str(tmp_path / "d.csv")]) == 0
    assert _RecordingPool.started == []


@pytest.mark.parametrize("cores, cpus", [(3, 3), (None, 1)])  # an unknown count is one CPU
def test_usable_cpus_without_affinity_counts_the_cores(monkeypatch, cores, cpus):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert usable_cpus() == cpus


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
    rng = child_rng(arm.seed, 0, realization)
    pair = RotatingPair(sample_coupled(arm, rng), sample_coupled(arm, rng))
    model = arm.model
    window = window_levels(arm.blocks, arm.window)
    out = []
    for t in rng.uniform(0.0, 2.0 * np.pi, arm.t_samples):
        if arm.per_block:
            frame = spectral_frame_blocks(pair, t, arm.blocks)
        else:
            frame = spectral_frame(pair, t)
        kept, xdot, xddot = unfold_dynamics(model, frame, select_levels(frame, window))
        out.append(np.column_stack([frame.energies[kept], frame.velocities[kept],
                                    frame.curvatures[kept], xdot, xddot]))
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
