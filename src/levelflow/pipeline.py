"""Realization loop turning ensemble draws into curvature batches.

One *arm* is a full statistical batch at a single coupling value: many
independent (H1, H2) draws, each evaluated at a few random path
positions, central levels selected, dynamics unfolded, then the whole
pooled batch rescaled and renormalized.  Realization r of every arm owns
the child stream ``(seed, 0, r)``, so the arms of a run share their draws
and differ only in the coupling, and results are independent of how work
is scheduled; merging is by realization index and all batch reductions run
over arrays in that fixed order, which makes outputs reproducible bit for
bit for a fixed seed, with any worker count.

An arm at coupling exactly zero, the only one that draws block-diagonal
matrices, runs on per-block frames: its blocks cross freely, and
block-wise diagonalization keeps those crossings out of the curvature
sums and the degeneracy guard.  Every other coupling, however small,
runs on full frames.
"""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import RotatingPair, spectral_frame, spectral_frame_blocks
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

#: |k| window for the tail-exponent entry of arm summaries.
SUMMARY_TAIL_WINDOW = (3.0, 30.0)


@dataclass(frozen=True)
class ArmParams:
    """One arm of the coupled two-block ensemble and how it is sampled; validated on construction.

    n: matrix dimension, m: first-block dimension, lam: block coupling
    in [0, 1], alpha: scale of the Gaussian weight, seed: base RNG seed,
    t_samples: path positions per realization, window: central share of
    levels kept.  Arms that differ only in lam share their draws.
    The scaled coupling eps = sqrt(n) * lam is derived on the fly, never
    stored.  Construction keeps what every realization reads: `model`, the
    DensityModel that checks n, alpha and lam, and `levels`, the window
    levels of its blocks; neither is a field, so ==, hash and repr skip them.
    """

    n: int
    m: int
    lam: float
    alpha: float = DEFAULT_ALPHA
    seed: int = 0
    t_samples: int = 4
    window: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "model", DensityModel(n=self.n, alpha=self.alpha, lam=self.lam))
        if not 1 <= self.m < self.n:
            raise ValidationError(f"block size must satisfy 1 <= m < n, got m={self.m}, n={self.n}")
        if self.t_samples < 1:
            raise ValidationError(f"t-samples must be >= 1, got {self.t_samples}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "levels", window_levels(self.blocks, self.window))

    @property
    def per_block(self) -> bool:
        return self.lam == 0.0

    @property
    def blocks(self) -> tuple:
        """Sizes of the diagonal blocks its frames diagonalize: (m, n - m) per block, else (n,)."""
        return (self.m, self.n - self.m) if self.per_block else (self.n,)

    @property
    def epsilon(self) -> float:
        return float(np.sqrt(self.n) * self.lam)


def realization_rows(arm: ArmParams, realization: int):
    """Curvature-sample rows of one realization.

    Returns (rows, counts) where rows is an (n_samples, 8) array with
    columns (realization, level, t, E, Edot, Eddot, xdot, xddot) and counts
    holds the window levels dropped by the degeneracy guard and by the
    support-edge margin, as {"dropped_degenerate": .., "dropped_edge": ..}.
    Levels are indexed by position in the ascending spectrum (block offset
    + in-block position for per-block frames).
    """
    # key (0, r) in every arm; the leading 0 keeps the bytes of single-arm runs, of every first
    # arm and of perfbench/reference.py's (0, r) redraw
    rng = child_rng(arm.seed, 0, realization)
    pair = RotatingPair(sample_coupled(arm, rng), sample_coupled(arm, rng))

    chunks = []
    counts = {"dropped_degenerate": 0, "dropped_edge": 0}
    for t in rng.uniform(0.0, 2.0 * np.pi, arm.t_samples):
        if arm.per_block:
            frame = spectral_frame_blocks(pair, t, arm.blocks)
        else:
            frame = spectral_frame(pair, t)
        idx = select_levels(frame, arm.levels)
        kept, xdot, xddot = unfold_dynamics(arm.model, frame, idx)
        counts["dropped_degenerate"] += len(arm.levels) - len(idx)
        counts["dropped_edge"] += len(idx) - len(kept)
        chunks.append(np.column_stack([
            np.full(len(kept), realization), kept, np.full(len(kept), t), frame.energies[kept],
            frame.velocities[kept], frame.curvatures[kept], xdot, xddot,
        ]))
    return np.concatenate(chunks), counts


def realization_eigenvalues(arm: ArmParams, realization: int) -> np.ndarray:
    """Eigenvalues of a single ensemble draw (density studies)."""
    return np.linalg.eigvalsh(sample_coupled(arm, child_rng(arm.seed, 0, realization)))


def single_threaded_blas():
    """Run numpy's bundled OpenBLAS on one thread in this process, where it allows.

    The `levelflow` command pins BLAS before numpy loads (`__main__`), so no
    thread pool is started. Where numpy is already loaded, this call lowers the
    count but leaves the started threads: `cli.main` makes it for in-process
    callers, and each pool worker as its initializer, since workers started by
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


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one,
    else every core, and 1 where even that count is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_realizations(task, arm: ArmParams, realizations: int, jobs: int):
    """Results of `task(arm, r)` for r = 0, 1, .. in order, each yielded as it arrives.

    At most `jobs` workers run, and never more than the realizations or the usable CPUs."""
    if realizations < 1:
        raise ValidationError(f"realization count must be >= 1, got {realizations}")
    task, indices = functools.partial(task, arm), range(realizations)
    workers = min(jobs, realizations, usable_cpus())
    if workers <= 1:
        return map(task, indices)
    return _pooled(task, indices, workers, max(realizations // (4 * workers), 1))


def _pooled(task, indices, workers: int, chunksize: int):
    import multiprocessing  # here, its one user: a --jobs 1 run or a fit never loads it
    with multiprocessing.Pool(workers, single_threaded_blas) as pool:
        yield from pool.imap(task, indices, chunksize=chunksize)


def run_arm(arm: ArmParams, realizations: int, jobs: int = 1):
    """Full batch for one coupling arm: sample, unfold, rescale, normalize.

    Each realization's rows are copied into one block as they arrive; the
    block has room for every window level and the batch takes its filled
    part, so the rows are held once.  Returns (batch, info) where info is
    the key-wise sum of the realizations' counts (see :func:`realization_rows`).
    """
    results = _map_realizations(realization_rows, arm, realizations, jobs)
    rows = np.empty((realizations * arm.t_samples * len(arm.levels), 8))
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
    return np.concatenate(list(_map_realizations(realization_eigenvalues, arm, realizations, jobs)))


def arm_summary(arm: ArmParams, batch: CurvatureBatch, info: dict) -> dict:
    """Per-arm statistics reported next to the sample files.

    The coupling is reported as lambda only: the CLI puts the epsilon it
    was given in front, which sqrt(n) * lambda need not round back to."""
    k = batch.normalized
    summary = {
        "lambda": arm.lam,
        "per_block": arm.per_block,
        "n_samples": len(batch),
        "mean_abs_rescaled": batch.mean_abs_rescaled,
        "ks_vs_universal": ks_statistic(k, 1.0),
        **info,
    }
    try:
        exponent, stderr = tail_exponent(k, *SUMMARY_TAIL_WINDOW)
    except ValidationError:
        exponent = stderr = None
    summary["tail_exponent"], summary["tail_exponent_stderr"] = exponent, stderr
    return summary

