"""Cross-checks of the closed-form level dynamics in :mod:`levelflow.dynamics`.

:func:`curvature_fd_oracle` differentiates the spectrum numerically,
:func:`integrate_motion` integrates the coupled equations of motion

    dE_k/dt = P_kk,   dP/dt = [P, S] - diag(E),   S_kl = P_kl / (E_l - E_k)

with a fixed-step classical Runge-Kutta scheme, and
:func:`rotation_frame_check` compares the rotated-frame spectrum with
the direct one.  They serve tests and diagnostics; production statistics
always use :func:`levelflow.dynamics.spectral_frame`.  The integrator
hands its final spectrum and P to :func:`levelflow.dynamics.frame_from_p`,
so velocities, curvature sums and the degeneracy rule are the ones
production frames use; nothing here builds a frame of its own.
"""

from __future__ import annotations

import numpy as np

from .dynamics import (RotatingPair, SpectralFrame, _local_gaps, frame_from_p, hamiltonian_at,
                       spectral_frame)
from .errors import DegenerateSpectrumError, StencilCrossingError, ValidationError


def curvature_fd_oracle(pair: RotatingPair, t: float, delta: float):
    """Velocities and curvatures from a three-point central stencil.

    Three independent diagonalizations at t - delta, t, t + delta with
    ascending eigenvalue matching.  Valid only while no level crossing
    occurs inside the stencil; a crossing is detected when some level
    moves by more than half its nearest-neighbour gap, and reported as
    :class:`StencilCrossingError`.  Intentionally ignorant of the
    closed-form path it is used to check.
    """
    if not delta > 0:
        raise ValidationError(f"stencil width must be positive, got {delta}")
    e_minus = np.linalg.eigvalsh(hamiltonian_at(pair, t - delta))
    e_center = np.linalg.eigvalsh(hamiltonian_at(pair, t))
    e_plus = np.linalg.eigvalsh(hamiltonian_at(pair, t + delta))
    half_gap = 0.5 * _local_gaps(e_center)
    for e_end, side in ((e_minus, "t-delta"), (e_plus, "t+delta")):
        shift = np.abs(e_end - e_center)
        bad = shift >= half_gap
        if np.any(bad):
            k = int(np.argmax(shift - half_gap))
            raise StencilCrossingError(
                f"level ordering ambiguous across the stencil at {side}: level {k} "
                f"moved {shift[k]:.3g} against a half-gap of {half_gap[k]:.3g}"
            )
    velocities = (e_plus - e_minus) / (2.0 * delta)
    curvatures = (e_plus - 2.0 * e_center + e_minus) / delta**2
    return velocities, curvatures


def _motion_rhs(energies: np.ndarray, p: np.ndarray):
    diff = energies[None, :] - energies[:, None]  # E_l - E_k at [k, l]
    np.fill_diagonal(diff, np.inf)
    s = p / diff
    dp = p @ s - s @ p
    dp[np.diag_indices_from(dp)] -= energies
    return np.diag(p).copy(), dp


def integrate_motion(pair: RotatingPair, t0: float, t1: float, steps: int) -> SpectralFrame:
    """Propagate the coupled (E, P) equations of motion from t0 to t1.

    Fixed-step classical fourth-order Runge-Kutta; a diagnostic
    cross-check of the formalism, not a production path, so no adaptive
    stepping.  Aborts with :class:`DegenerateSpectrumError` if any gap
    falls below 1e-9 of the initial spectral span while integrating.  The
    final frame comes from :func:`levelflow.dynamics.frame_from_p`, as
    every frame does.
    """
    if steps < 1:
        raise ValidationError(f"step count must be >= 1, got {steps}")
    start = spectral_frame(pair, t0)
    if np.any(start.degenerate_mask):
        raise DegenerateSpectrumError(
            f"initial frame at t={t0} has near-degenerate levels"
        )
    if t1 == t0:
        return start
    energies = start.energies.copy()
    p = start.p_matrix.copy()
    floor = max(1e-9 * (energies[-1] - energies[0]), np.finfo(float).tiny)
    h = (t1 - t0) / steps
    for _ in range(steps):
        if np.min(np.diff(energies)) < floor:
            raise DegenerateSpectrumError(f"gap below floor {floor:.3g} during integration")
        k1e, k1p = _motion_rhs(energies, p)
        k2e, k2p = _motion_rhs(energies + 0.5 * h * k1e, p + 0.5 * h * k1p)
        k3e, k3p = _motion_rhs(energies + 0.5 * h * k2e, p + 0.5 * h * k2p)
        k4e, k4p = _motion_rhs(energies + h * k3e, p + h * k3p)
        energies = energies + (h / 6.0) * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
        p = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return frame_from_p(energies, p)


def rotation_frame_check(pair: RotatingPair, t: float) -> float:
    """Deviation of the rotated-frame spectrum from the direct one.

    In the eigenbasis of H(0), the path is represented exactly by
    M(t) = diag(E(0)) cos t + P(0) sin t, which is similar to H(t); the
    sorted spectra of the two must therefore coincide.  Returns the
    maximum absolute eigenvalue mismatch, which should sit at the
    eigensolver roundoff scale.
    """
    start = spectral_frame(pair, 0.0)
    m = np.diag(start.energies) * np.cos(t) + start.p_matrix * np.sin(t)
    rotated = np.linalg.eigvalsh(m)
    direct = np.linalg.eigvalsh(hamiltonian_at(pair, t))
    return float(np.max(np.abs(rotated - direct)))
