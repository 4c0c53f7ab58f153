"""Level-curvature statistics of coupled Gaussian random-matrix ensembles.

Pipeline: sample the two-block ensemble (:mod:`levelflow.ensemble`),
evolve spectra along the rotation path and extract exact velocities and
curvatures (:mod:`levelflow.dynamics`, cross-checked by
:mod:`levelflow.checks`), unfold and rescale them
(:mod:`levelflow.unfolding`), and analyze the resulting distributions
(:mod:`levelflow.statistics`).  The ``levelflow`` CLI wires these into
reproducible simulation sweeps.
"""

from .checks import curvature_fd_oracle, integrate_motion, rotation_frame_check
from .dynamics import (
    RotatingPair,
    SpectralFrame,
    curvature_sums,
    hamiltonian_at,
    hamiltonian_rate,
    spectral_frame,
    spectral_frame_blocks,
)
from .ensemble import DEFAULT_ALPHA, child_rng, lambda_from_epsilon, sample_coupled, sample_goe
from .errors import (
    DegenerateSpectrumError,
    EigensolverError,
    LevelflowError,
    NumericalError,
    StencilCrossingError,
    ValidationError,
)
from .pipeline import ArmParams, arm_summary, pooled_eigenvalues, run_arm
from .statistics import (
    DistributionFit,
    Histogram,
    build_histogram,
    fit_gamma,
    gamma_cdf,
    gamma_pdf,
    ks_statistic,
    loglog_slope,
    model_bin_density,
    reduced_chi_square,
    sample_gamma_dist,
    tail_exponent,
    universal_pdf,
)
from .unfolding import (
    CurvatureBatch,
    DensityModel,
    normalize_batch,
    rescale_batch,
    select_levels,
    unfold_dynamics,
    window_levels,
)

__version__ = "0.1.0"

__all__ = [
    "ArmParams",
    "CurvatureBatch",
    "DEFAULT_ALPHA",
    "DegenerateSpectrumError",
    "DensityModel",
    "DistributionFit",
    "EigensolverError",
    "Histogram",
    "LevelflowError",
    "NumericalError",
    "RotatingPair",
    "SpectralFrame",
    "StencilCrossingError",
    "ValidationError",
    "arm_summary",
    "build_histogram",
    "child_rng",
    "curvature_fd_oracle",
    "curvature_sums",
    "fit_gamma",
    "gamma_cdf",
    "gamma_pdf",
    "hamiltonian_at",
    "hamiltonian_rate",
    "integrate_motion",
    "ks_statistic",
    "lambda_from_epsilon",
    "loglog_slope",
    "model_bin_density",
    "normalize_batch",
    "pooled_eigenvalues",
    "reduced_chi_square",
    "rescale_batch",
    "rotation_frame_check",
    "run_arm",
    "sample_coupled",
    "sample_gamma_dist",
    "sample_goe",
    "select_levels",
    "spectral_frame",
    "spectral_frame_blocks",
    "tail_exponent",
    "unfold_dynamics",
    "universal_pdf",
    "window_levels",
]
