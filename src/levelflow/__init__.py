"""Level-curvature statistics of coupled Gaussian random-matrix ensembles.

Pipeline: sample the two-block ensemble (:mod:`levelflow.ensemble`),
evolve spectra along the rotation path and extract exact velocities and
curvatures (:mod:`levelflow.dynamics`, cross-checked by
:mod:`levelflow.checks`), unfold and rescale them
(:mod:`levelflow.unfolding`), and analyze the resulting distributions
(:mod:`levelflow.statistics`).  The ``levelflow`` CLI wires these into
reproducible simulation sweeps.

Each exported name is imported from its module on first use, so
``import levelflow`` loads no numpy: ``python -m levelflow`` can pin
OpenBLAS to one thread before the library starts its thread pool.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "checks": ("curvature_fd_oracle", "integrate_motion", "rotation_frame_check"),
    "dynamics": ("RotatingPair", "SpectralFrame", "curvature_sums", "hamiltonian_at",
                 "hamiltonian_rate", "spectral_frame", "spectral_frame_blocks"),
    "ensemble": ("DEFAULT_ALPHA", "child_rng", "lambda_from_epsilon", "sample_coupled",
                 "sample_goe"),
    "errors": ("DegenerateSpectrumError", "EigensolverError", "LevelflowError", "NumericalError",
               "StencilCrossingError", "ValidationError"),
    "pipeline": ("ArmParams", "arm_summary", "pooled_eigenvalues", "run_arm"),
    "statistics": ("DistributionFit", "Histogram", "build_histogram", "fit_gamma", "gamma_cdf",
                   "gamma_pdf", "ks_statistic", "loglog_slope", "model_bin_density",
                   "reduced_chi_square", "sample_gamma_dist", "tail_exponent", "universal_pdf"),
    "unfolding": ("CurvatureBatch", "DensityModel", "normalize_batch", "rescale_batch",
                  "select_levels", "unfold_dynamics", "window_levels"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
