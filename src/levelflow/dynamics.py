"""Eigenvalue dynamics along the rotation path H(t) = H1 cos t + H2 sin t.

For this path Hdot = -H1 sin t + H2 cos t and Hddot = -H, so with
P = U^T Hdot U in the instantaneous eigenbasis the level velocities are
the diagonal entries of P and the level curvatures follow the closed
form

    Eddot_k = -E_k + sum_{m != k} 2 P_km^2 / (E_k - E_m).

:func:`spectral_frame` evaluates these directly from one
diagonalization, and :func:`frame_from_p`, the one place that turns a
spectrum and its P into a frame, evaluates them for any other source of
P.  Independent cross-checks of the closed form live in
:mod:`levelflow.checks`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigensolverError, ValidationError

#: Degeneracy tolerance as a fraction of the half-spread of the frame's spectrum.
DEGENERACY_SCALE = 1e-8


@dataclass(frozen=True)
class RotatingPair:
    """Fixed endpoint matrices of the rotation path; both real symmetric, same dim."""

    h1: np.ndarray
    h2: np.ndarray

    def __post_init__(self):
        h1 = np.asarray(self.h1, dtype=float)
        h2 = np.asarray(self.h2, dtype=float)
        if h1.ndim != 2 or h1.shape[0] != h1.shape[1]:
            raise ValidationError(f"h1 must be square, got shape {h1.shape}")
        if h1.shape != h2.shape:
            raise ValidationError(f"h1 and h2 must share a shape, got {h1.shape} vs {h2.shape}")
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)

    @property
    def dim(self) -> int:
        return self.h1.shape[0]

    def block(self, lo: int, hi: int) -> "RotatingPair":
        """Sub-pair restricted to index range [lo, hi)."""
        return RotatingPair(self.h1[lo:hi, lo:hi], self.h2[lo:hi, lo:hi])


@dataclass
class SpectralFrame:
    """Spectral data of one parameter point.

    energies are ascending (within each block for block-mode frames),
    velocities equal the diagonal of p_matrix exactly, and
    degenerate_mask flags levels whose nearest-neighbour gap fell below
    the degeneracy tolerance; their curvature is stored but untrusted.
    Frames of selected rows hold nan for other levels.  Per-block frames
    carry no p_matrix.
    """

    energies: np.ndarray
    velocities: np.ndarray
    curvatures: np.ndarray
    p_matrix: np.ndarray | None
    degenerate_mask: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.energies)


def hamiltonian_at(pair: RotatingPair, t: float) -> np.ndarray:
    """H(t) = H1 cos t + H2 sin t."""
    return pair.h1 * np.cos(t) + pair.h2 * np.sin(t)


def hamiltonian_rate(pair: RotatingPair, t: float) -> np.ndarray:
    """Hdot(t) = -H1 sin t + H2 cos t; note Hddot = -H on this path."""
    return -pair.h1 * np.sin(t) + pair.h2 * np.cos(t)


def _eigh(h: np.ndarray, context: str):
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigensolver failed ({context}): dim={h.shape[0]}, "
            f"norm={np.linalg.norm(h):.6g}, sym_defect={np.max(np.abs(h - h.T)):.3g}"
        ) from exc


def _local_gaps(energies: np.ndarray) -> np.ndarray:
    """Distance of each level to its nearest neighbour (inf for a 1-level frame)."""
    if len(energies) < 2:
        return np.full(len(energies), np.inf)
    gaps = np.diff(energies)
    return np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])


def curvature_sums(energies: np.ndarray, p_matrix: np.ndarray, rows=None) -> np.ndarray:
    """Closed-form curvatures from energies and the rotated perturbation matrix.

    p_matrix holds the rows `rows` of P (all rows by default), the levels
    whose curvatures are returned.  Exactly coincident levels contribute
    nothing to each other's sum; any such level is flagged by the
    degeneracy mask and its curvature is not to be trusted anyway.
    """
    rows = np.arange(len(energies)) if rows is None else rows
    diff = energies[rows, None] - energies[None, :]
    diff[np.arange(len(rows)), rows] = np.inf
    diff[diff == 0.0] = np.inf
    return -energies[rows] + 2.0 * np.sum(p_matrix * p_matrix / diff, axis=1)


def frame_from_p(energies: np.ndarray, p: np.ndarray, rows=None) -> SpectralFrame:
    """Frame of an ascending spectrum and its P = U^T Hdot U.

    A level is degenerate when its nearest-neighbour gap is below
    DEGENERACY_SCALE times the half-spread (E[-1] - E[0]) / 2 of this
    spectrum, with a positive floor so exactly coincident spectra are still
    flagged.  rows, if given, are the levels whose velocities and
    curvatures are evaluated; the others hold nan.
    """
    tol = max(DEGENERACY_SCALE * 0.5 * (energies[-1] - energies[0]), np.finfo(float).tiny)
    picked = np.arange(len(energies)) if rows is None else np.asarray(rows, dtype=int)
    velocities, curvatures = np.full((2, len(energies)), np.nan)
    velocities[picked] = p[picked, picked]
    curvatures[picked] = curvature_sums(energies, p[picked], picked)
    mask = _local_gaps(energies) < tol
    return SpectralFrame(energies, velocities, curvatures, p, mask)


def spectral_frame(pair: RotatingPair, t: float, rows=None) -> SpectralFrame:
    """Diagonalize H(t) and evaluate level velocities and curvatures (see
    :func:`frame_from_p` for the degeneracy rule and rows).

    P itself is formed in full: BLAS tiles and threads a product's rows
    by its shape, so selected rows alone can differ in the last bit.
    """
    energies, u = _eigh(hamiltonian_at(pair, t), f"H(t) at t={t}")
    return frame_from_p(energies, u.T @ hamiltonian_rate(pair, t) @ u, rows)


def spectral_frame_blocks(pair: RotatingPair, t: float, blocks: tuple, rows=None) -> SpectralFrame:
    """Per-block frame for exactly block-diagonal pairs (decoupled ensemble).

    Each diagonal block is diagonalized on its own, so curvature sums
    never mix levels of different blocks, free crossings between blocks
    cannot trip the degeneracy guard, and each block's guard scales with
    that block's own spread.  energies are ascending within each block;
    rows are block offset + in-block position, as in :func:`spectral_frame`.
    The frame carries no p_matrix: use :func:`spectral_frame` on the whole
    pair for P.
    """
    if sum(blocks) != pair.dim:
        raise ValidationError(f"block sizes {blocks} do not add up to dimension {pair.dim}")
    rows = None if rows is None else np.asarray(rows, dtype=int)
    offsets = np.cumsum((0,) + tuple(blocks))
    frames = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        local = None if rows is None else rows[(rows >= lo) & (rows < hi)] - lo
        frames.append(spectral_frame(pair.block(lo, hi), t, local))
    return SpectralFrame(
        energies=np.concatenate([fr.energies for fr in frames]),
        velocities=np.concatenate([fr.velocities for fr in frames]),
        curvatures=np.concatenate([fr.curvatures for fr in frames]),
        p_matrix=None,
        degenerate_mask=np.concatenate([fr.degenerate_mask for fr in frames]),
    )
