"""Output checks of the benchmark workloads.

Each check takes parsed outputs, raises :class:`CheckError` when they are
wrong and otherwise returns the figure it measured.  The checks test
properties the method must have or compare with :mod:`reference`, never
with a stored copy of earlier output.  ``test_checks.py`` shows each one
rejecting a deliberately wrong output.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

import reference

#: KS bounds of the acceptance criteria 6 (GOE limit) and 7 (decoupled limit).
KS_GOE_LIMIT = 0.03
KS_DECOUPLED_LIMIT = 0.05

#: Two equal independent sectors unfolded on their joint density have K
#: halved; measured 0.484-0.495 at N = 200 with 50 x 4 frames.
DECOUPLED_MEAN_ABS_K = 0.5
DECOUPLED_TOLERANCE = 0.05

#: Fitted gamma against the generating one: the standard deviation over
#: 240 seeds of 400k draws was 0.0018, the worst deviation 0.006.
FIT_GAMMA_TOLERANCE = 0.012

#: Significance of the KS bound on the fitted model.  The fit is a binned
#: least-squares one, so sqrt(n) KS runs above the textbook values (2.07
#: at worst over 240 seeds); at 1e-6 the bound is 2.69 / sqrt(n).
FIT_KS_SIGNIFICANCE = 1e-6

#: Relative tolerances of the dynamics check.  With GAP_FLOOR the worst
#: errors over seeds 1-3 were 4e-15 / 9e-9 / 2.5e-8; a missing factor 2 in
#: the curvature sum shows as 0.87.
ENERGY_TOLERANCE = 1e-10
VELOCITY_TOLERANCE = 1e-7
CURVATURE_TOLERANCE = 1e-5
#: Levels closer than this to a neighbour are skipped by the stencil oracle:
#: through an avoided crossing of gap g a level's Taylor series converges
#: only for widths below about g / |dv|, and a gap of 0.016 already cost
#: 6e-6 at the 1e-3 base width.  The mean spacing at N = 100 is 0.22.
GAP_FLOOR = 3e-2


class CheckError(Exception):
    """An output failed a check."""


def read_table(path):
    """(header, columns, rows) of a levelflow CSV table with its '# key = value' header."""
    header, columns, body = {}, None, []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if columns is None:
                if line.startswith("#"):
                    key, sep, value = line[1:].partition("=")
                    if sep:
                        header[key.strip()] = value.strip()
                else:
                    columns = line.strip().split(",")
            else:
                body.append(line)
    if columns is None:
        raise CheckError(f"{path}: no column line")
    rows = np.loadtxt(body, delimiter=",", ndmin=2) if body else np.empty((0, len(columns)))
    return header, columns, rows


def digests(directory) -> dict:
    """sha256 of every file under directory, by relative path."""
    root = Path(directory)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def check_identical(first: dict, other: dict) -> int:
    """Two invocations at one seed wrote the same files, byte for byte."""
    if first != other:
        changed = sorted(set(first) ^ set(other) | {k for k in first if first.get(k) != other.get(k)})
        raise CheckError(f"outputs differ between invocations at one seed: {changed}")
    return len(first)


def check_histogram_density(edges_lo, edges_hi, density) -> float:
    """The density of a truncated histogram integrates to 1 over its range."""
    integral = math.fsum(np.asarray(density) * (np.asarray(edges_hi) - np.asarray(edges_lo)))
    if not abs(integral - 1.0) <= 1e-12:
        raise CheckError(f"histogram density integrates to {integral!r}, not 1")
    return integral


def check_normalized(k) -> float:
    """<|k|> = 1 to 1e-12: k is K renormalized by its own mean magnitude."""
    k = np.asarray(k, dtype=float)
    mean = math.fsum(np.abs(k)) / len(k)
    if not abs(mean - 1.0) <= 1e-12:
        raise CheckError(f"<|k|> = {mean!r}, not 1")
    return mean


def check_universal(k, limit: float) -> float:
    """KS distance of k from the universal law P(k) = 1 / (2 (1 + k^2)^(3/2)) below limit."""
    ks = reference.ks_distance(k, 1.0)
    if not ks < limit:
        raise CheckError(f"KS {ks:.4f} from the universal law, limit {limit}")
    return ks


def check_decoupled_halving(rescaled) -> float:
    """The decoupled arm's <|K|> lies within DECOUPLED_TOLERANCE of 1/2."""
    mean = float(np.mean(np.abs(rescaled)))
    if not abs(mean - DECOUPLED_MEAN_ABS_K) <= DECOUPLED_TOLERANCE:
        raise CheckError(
            f"decoupled <|K|> = {mean:.4f}, expected {DECOUPLED_MEAN_ABS_K} +- {DECOUPLED_TOLERANCE}"
        )
    return mean


def check_row_count(rows: int, realizations: int, t_samples: int, n: int, window: float,
                    dropped_degenerate: int, dropped_edge: int) -> int:
    """Rows = realizations x t-samples x round(window n) minus the levels the summary says were dropped."""
    expected = realizations * t_samples * max(round(window * n), 1) - dropped_degenerate - dropped_edge
    if rows != expected:
        raise CheckError(f"{rows} sample rows, expected {expected}")
    return rows


def check_rescaling(xdot, xddot, rescaled) -> float:
    """K = (xddot - (<xdot xddot>/<xdot^2>) xdot) / (pi <xdot^2>), recomputed from the columns."""
    v2 = math.fsum(xdot * xdot) / len(xdot)
    cross = math.fsum(xdot * xddot) / len(xdot)
    expected = (xddot - (cross / v2) * xdot) / (math.pi * v2)
    err = float(np.max(np.abs(rescaled - expected)) / np.max(np.abs(expected)))
    if not err <= 1e-10:
        raise CheckError(f"K column off the rescaling formula by {err:.3g} (relative)")
    return err


def check_unfolding(energy, edot, eddot, xdot, xddot, n: int, alpha: float, lam: float) -> float:
    """xdot = rho(E) Edot and xddot = rho(E) Eddot + rho'(E) Edot^2 with the semicircle rho."""
    rho = reference.semicircle(energy, n, alpha, lam)
    slope = reference.semicircle_slope(energy, n, alpha, lam)
    err = 0.0
    for got, want in ((xdot, rho * edot), (xddot, rho * eddot + slope * edot**2)):
        err = max(err, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    if not err <= 1e-10:
        raise CheckError(f"unfolded dynamics off the semicircle chain rule by {err:.3g} (relative)")
    return err


def check_dynamics(columns: dict, header: dict, realizations) -> dict:
    """E, Edot, Eddot of the listed realizations against finite differences of redrawn H(t).

    Returns the worst relative errors and the number of levels compared.
    """
    n, m = int(header["n"]), int(header["m"])
    alpha, lam = float(header["alpha"]), float(header["lambda"])
    worst = {"energy": 0.0, "velocity": 0.0, "curvature": 0.0, "levels": 0}
    for r in realizations:
        h1, h2, ts = reference.redraw_realization(
            int(header["seed"]), 0, r, n, m, alpha, lam, int(header["t_samples"])
        )
        mine = columns["realization"] == r
        if not np.all(np.isin(columns["t"][mine], ts)):
            raise CheckError(f"realization {r}: path positions differ from the seeding scheme")
        for t in ts:
            sel = mine & (columns["t"] == t)
            if not np.any(sel):
                continue
            level = columns["level"][sel].astype(int)
            e, v, c, gap = reference.level_derivatives(h1, h2, t)
            keep = gap[level] > GAP_FLOOR
            for name, got, want in (
                ("energy", columns["E"][sel], e[level]),
                ("velocity", columns["Edot"][sel][keep], v[level][keep]),
                ("curvature", columns["Eddot"][sel][keep], c[level][keep]),
            ):
                err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
                worst[name] = max(worst[name], err)
            worst["levels"] += int(np.sum(keep))
    for name, tol in (("energy", ENERGY_TOLERANCE), ("velocity", VELOCITY_TOLERANCE),
                      ("curvature", CURVATURE_TOLERANCE)):
        if not worst[name] <= tol:
            raise CheckError(f"{name} off the finite-difference oracle by {worst[name]:.3g} (tol {tol:g})")
    if worst["levels"] == 0:
        raise CheckError("no sample rows of the checked realizations")
    return worst


def check_fit(gamma: float, ks: float, count: int, true_gamma: float) -> float:
    """Fitted gamma near the generating one, and KS against the fit below its critical value."""
    if not abs(gamma - true_gamma) <= FIT_GAMMA_TOLERANCE:
        raise CheckError(f"fitted gamma {gamma} is {gamma - true_gamma:+.4f} off {true_gamma}")
    limit = reference.ks_critical(count, FIT_KS_SIGNIFICANCE)
    if not ks < limit:
        raise CheckError(f"KS {ks} against the fitted model, critical value {limit:.5f}")
    return gamma
