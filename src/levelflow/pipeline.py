"""Realization loop turning ensemble draws into curvature batches.

One *arm* is a full statistical batch at a single coupling value: many
independent (H1, H2) draws, each evaluated at a few random path
positions, central levels selected, dynamics unfolded, then the whole
pooled batch rescaled and renormalized.  Every realization owns the
child stream ``(seed, epsilon_index, realization)``, so results are
independent of how work is scheduled; merging is by realization index
and all batch reductions run over arrays in that fixed order, which
makes outputs reproducible bit for bit for a fixed seed, with any worker
count.

The decoupled limit switches to per-block frames automatically (see
:data:`PER_BLOCK_THRESHOLD`): at coupling zero the blocks cross freely,
and block-wise diagonalization keeps those crossings out of the
curvature sums and the degeneracy guard.
"""

from __future__ import annotations

import ctypes
import multiprocessing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import RotatingPair, degeneracy_tolerance, spectral_frame, spectral_frame_blocks
from .ensemble import DEFAULT_ALPHA, child_rng, sample_coupled
from .errors import ValidationError
from .statistics import ks_statistic, tail_exponent
from .unfolding import (
    CurvatureBatch,
    DensityModel,
    normalize_batch,
    rescale_batch,
    select_levels,
    unfold_dynamics,
    window_levels,
)

#: Couplings below this are treated as exactly decoupled (per-block mode).
PER_BLOCK_THRESHOLD = 1e-6

#: |k| window for the tail-exponent entry of arm summaries.
SUMMARY_TAIL_WINDOW = (3.0, 30.0)


@dataclass(frozen=True)
class ArmParams:
    """One arm of the coupled two-block ensemble and how it is sampled; validated on construction.

    n: matrix dimension, m: first-block dimension, lam: block coupling
    in [0, 1], alpha: scale of the Gaussian weight, seed: base RNG seed,
    eps_index: the arm's index in the child streams, t_samples: path
    positions per realization, window: central share of levels kept.
    The scaled coupling eps = sqrt(n) * lam is derived on the fly, never
    stored.
    """

    n: int
    m: int
    lam: float
    alpha: float = DEFAULT_ALPHA
    seed: int = 0
    eps_index: int = 0
    t_samples: int = 4
    window: float = 0.5

    def __post_init__(self):
        self.density_model()  # checks n >= 1, alpha and lam
        if not 1 <= self.m < self.n:
            raise ValidationError(f"block size must satisfy 1 <= m < n, got m={self.m}, n={self.n}")
        if self.t_samples < 1:
            raise ValidationError(f"t-samples must be >= 1, got {self.t_samples}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.window <= 1.0:
            raise ValidationError(f"window must lie in (0, 1], got {self.window}")

    @property
    def per_block(self) -> bool:
        return self.lam < PER_BLOCK_THRESHOLD

    @property
    def blocks(self) -> tuple:
        """Sizes of the diagonal blocks its frames diagonalize: (m, n - m) per block, else (n,)."""
        return (self.m, self.n - self.m) if self.per_block else (self.n,)

    @property
    def epsilon(self) -> float:
        return float(np.sqrt(self.n) * self.lam)

    def density_model(self) -> DensityModel:
        return DensityModel(n=self.n, alpha=self.alpha, lam=self.lam)


def realization_rows(arm: ArmParams, realization: int):
    """Curvature-sample rows of one realization.

    Returns (rows, counts) where rows is an (n_samples, 8) array with
    columns (realization, level, t, E, Edot, Eddot, xdot, xddot) and counts
    holds the window levels dropped by the degeneracy guard and by the
    support-edge margin, as {"dropped_degenerate": .., "dropped_edge": ..}.
    Levels are indexed by position in the ascending spectrum (block offset
    + in-block position for per-block frames).  Frames evaluate velocities
    and curvatures of the central window only.
    """
    rng = child_rng(arm.seed, arm.eps_index, realization)
    pair = RotatingPair(sample_coupled(arm, rng), sample_coupled(arm, rng))
    ts = rng.uniform(0.0, 2.0 * np.pi, arm.t_samples)
    model = arm.density_model()
    tol = degeneracy_tolerance(model.support[1])
    window = window_levels(arm.blocks, arm.window)

    chunks = []
    counts = {"dropped_degenerate": 0, "dropped_edge": 0}
    for t in ts:
        if arm.per_block:
            frame = spectral_frame_blocks(pair, t, arm.blocks, tol, window)
        else:
            frame = spectral_frame(pair, t, tol, window)
        idx = select_levels(frame, window)
        counts["dropped_degenerate"] += len(window) - len(idx)
        inside = model.interior(frame.energies[idx])
        counts["dropped_edge"] += int(np.sum(~inside))
        idx = idx[inside]
        if len(idx) == 0:
            continue
        xdot, xddot = unfold_dynamics(model, frame, idx)
        chunks.append(np.column_stack([
            np.full(len(idx), realization), idx, np.full(len(idx), t), frame.energies[idx],
            frame.velocities[idx], frame.curvatures[idx], xdot, xddot,
        ]))
    rows = np.concatenate(chunks) if chunks else np.empty((0, 8))
    return rows, counts


def realization_eigenvalues(arm: ArmParams, realization: int) -> np.ndarray:
    """Eigenvalues of a single ensemble draw (density studies)."""
    return np.linalg.eigvalsh(sample_coupled(arm, child_rng(arm.seed, arm.eps_index, realization)))


def _rows_task(args):
    return realization_rows(*args)


def _eigenvalues_task(args):
    return realization_eigenvalues(*args)


def single_threaded_blas():
    """Run numpy's bundled OpenBLAS on one thread in this process, where it allows.

    The CLI calls it at start, so `--jobs` is the only source of parallelism,
    and each pool worker calls it as its initializer: workers started by
    forkserver or spawn do not inherit the count."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:  # an initializer that raises would make the pool respawn workers forever
            continue
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


def _map_realizations(task, arm: ArmParams, realizations: int, jobs: int):
    """Results of `task` for realizations 0, 1, .. in order, each yielded as it arrives."""
    if realizations < 1:
        raise ValidationError(f"realization count must be >= 1, got {realizations}")
    args = ((arm, r) for r in range(realizations))
    if jobs <= 1 or realizations == 1:
        return map(task, args)
    return _pooled(task, args, min(jobs, realizations), max(realizations // (4 * jobs), 1))


def _pooled(task, args, workers: int, chunksize: int):
    with multiprocessing.Pool(workers, single_threaded_blas) as pool:
        yield from pool.imap(task, args, chunksize=chunksize)


def run_arm(arm: ArmParams, realizations: int, jobs: int = 1):
    """Full batch for one coupling arm: sample, unfold, rescale, normalize.

    Each realization's rows are copied into one block as they arrive; the
    block has room for every window level and the batch takes its filled
    part, so the rows are held once.  Returns (batch, info) where info is
    the key-wise sum of the realizations' counts (see :func:`realization_rows`).
    """
    results = _map_realizations(_rows_task, arm, realizations, jobs)
    rows = np.empty((realizations * arm.t_samples * len(window_levels(arm.blocks, arm.window)), 8))
    filled, info = 0, {}
    for chunk, counts in results:
        rows[filled : filled + len(chunk)] = chunk
        filled += len(chunk)
        for key, value in counts.items():
            info[key] = info.get(key, 0) + value
    if filled == 0:
        raise ValidationError("no curvature samples survived level selection")
    batch = CurvatureBatch.from_rows(rows[:filled])
    rescale_batch(batch)
    normalize_batch(batch)
    return batch, info


def pooled_eigenvalues(arm: ArmParams, realizations: int, jobs: int = 1) -> np.ndarray:
    """Eigenvalues of `realizations` independent draws, concatenated in order."""
    return np.concatenate(list(_map_realizations(_eigenvalues_task, arm, realizations, jobs)))


def arm_summary(arm: ArmParams, batch: CurvatureBatch, info: dict) -> dict:
    """Per-arm statistics reported next to the sample files.

    The coupling is reported as lambda only: the CLI puts the epsilon it
    was given in front, which sqrt(n) * lambda need not round back to."""
    k = batch.normalized
    summary = {
        "lambda": arm.lam,
        "per_block": arm.per_block,
        "n_samples": len(batch),
        "mean_abs_rescaled": float(np.mean(np.abs(batch.rescaled))),
        "ks_vs_universal": ks_statistic(k, 1.0),
        **info,
    }
    try:
        exponent, stderr = tail_exponent(k, *SUMMARY_TAIL_WINDOW)
        summary["tail_exponent"] = exponent
        summary["tail_exponent_stderr"] = stderr
    except ValidationError:
        summary["tail_exponent"] = None
        summary["tail_exponent_stderr"] = None
    return summary

