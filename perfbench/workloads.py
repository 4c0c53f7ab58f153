"""The three benchmark workloads: CLI arguments, generated inputs and output checks.

Every invocation runs in a work directory with its outputs under ``out/``
and generated inputs under ``inputs/``.  All run ``--jobs 1``: with more
workers each forked process keeps a multi-threaded OpenBLAS and the run
time swings by a factor of three between repeats (see CHANGES.md).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import reference

#: Generating gamma and size of the fit-samples input.
FIT_GAMMA = 0.8
FIT_SAMPLES = 400_000


def _no_inputs(work: Path, seed: int) -> dict:
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: Callable[[int], list]
    #: check(work, stdout, arrays) -> figures measured; arrays hold the K/k columns of a traced run.
    check: Callable[[Path, str, dict], dict]
    prepare: Callable[[Path, int], dict] = _no_inputs


def _sweep_args(seed: int) -> list:
    return ["sweep", "--n", "200", "--m", "100", "--realizations", "50",
            "--seed", str(seed), "--jobs", "1", "--out", "out"]


def _check_sweep(work: Path, stdout: str, arrays: dict) -> dict:
    figures = {}
    hists = sorted((work / "out").glob("hist_eps*.csv"))
    if len(hists) != 5:
        raise checks.CheckError(f"{len(hists)} histogram files, expected one per default epsilon (5)")
    for path in hists:
        _, _, rows = checks.read_table(path)
        figures[f"{path.stem}.integral"] = checks.check_histogram_density(rows[:, 0], rows[:, 1], rows[:, 3])
    eps = list(arrays["epsilon"])
    for i, e in enumerate(eps):
        figures[f"eps{e:g}.mean_abs_k"] = checks.check_normalized(arrays[f"k{i}"])
    if 0.0 not in eps or 10.0 not in eps:
        raise checks.CheckError(f"sweep arms {eps} lack epsilon 0 or 10")
    decoupled, coupled = eps.index(0.0), eps.index(10.0)
    figures["eps0.ks"] = checks.check_universal(arrays[f"k{decoupled}"], checks.KS_DECOUPLED_LIMIT)
    figures["eps10.ks"] = checks.check_universal(arrays[f"k{coupled}"], checks.KS_GOE_LIMIT)
    figures["eps0.mean_abs_K"] = checks.check_decoupled_halving(arrays[f"K{decoupled}"])
    return figures


def _simulate_args(seed: int) -> list:
    return ["simulate", "--n", "100", "--epsilon", "1", "--realizations", "200",
            "--seed", str(seed), "--jobs", "1", "--out", "out/samples.csv"]


def check_samples(path: Path) -> dict:
    """All checks of one simulate sample table and its summary sidecar."""
    header, names, rows = checks.read_table(path)
    col = dict(zip(names, rows.T))
    summary = json.loads(Path(f"{path}.summary.json").read_text(encoding="utf-8"))
    n, realizations = int(header["n"]), int(header["realizations"])
    alpha, lam = float(header["alpha"]), float(header["lambda"])
    figures = {
        "rows": checks.check_row_count(
            len(rows), realizations, int(header["t_samples"]), n, float(header["window"]),
            summary["dropped_degenerate"], summary["dropped_edge"],
        ),
        "rescaling_error": checks.check_rescaling(col["xdot"], col["xddot"], col["K"]),
        "mean_abs_k": checks.check_normalized(col["k"]),
        "unfolding_error": checks.check_unfolding(
            col["E"], col["Edot"], col["Eddot"], col["xdot"], col["xddot"], n, alpha, lam
        ),
    }
    sample = sorted({0, realizations // 3, 2 * realizations // 3, realizations - 1})
    for name, value in checks.check_dynamics(col, header, sample).items():
        figures[f"dynamics.{name}"] = value
    return figures


def _check_simulate(work: Path, stdout: str, arrays: dict) -> dict:
    return check_samples(work / "out" / "samples.csv")


def _prepare_fit(work: Path, seed: int) -> dict:
    values = reference.draw_curvatures(FIT_GAMMA, FIT_SAMPLES, np.random.Generator(np.random.PCG64(seed)))
    path = work / "inputs" / "K.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(map(repr, values.tolist())) + "\n", encoding="utf-8")
    return {"input_values": FIT_SAMPLES, "input_bytes": path.stat().st_size, "gamma": FIT_GAMMA}


def _fit_args(seed: int) -> list:
    return ["fit", "--input", "inputs/K.txt", "--input-kind", "samples", "--out", "out/curve.csv"]


def _check_fit(work: Path, stdout: str, arrays: dict) -> dict:
    header, _, _ = checks.read_table(work / "out" / "curve.csv")
    found = re.search(r"^KS vs fitted model = (\S+)$", stdout, re.M)
    if found is None:
        raise checks.CheckError("no 'KS vs fitted model' line in the fit output")
    gamma, ks = float(header["gamma"]), float(found.group(1))
    checks.check_fit(gamma, ks, FIT_SAMPLES, FIT_GAMMA)
    return {"gamma": gamma, "ks_vs_fit": ks}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-n200",
            "the paper's headline sweep over five couplings incl. the per-block arm; "
            "frames (eigh) do nearly all work, almost nothing is written",
            _sweep_args,
            _check_sweep,
        ),
        Workload(
            "simulate-n100-csv",
            "write-heavy: 40k rows x 10 columns of CSV; small N, so per-frame overhead "
            "beside eigh is largest; most memory",
            _simulate_args,
            _check_simulate,
        ),
        Workload(
            "fit-samples",
            "the only read path: 400k K values from P(K; 0.8) parsed and fitted, "
            "no dynamics and no writing beyond a 201-row curve",
            _fit_args,
            _check_fit,
            _prepare_fit,
        ),
    )
}
