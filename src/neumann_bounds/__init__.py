"""Halting-time bounds for Neumann series iteration on random matrices.

The iteration x_k = A x_{k-1} + b solves (I - A) x = b for symmetric A with
spectrum inside (-1, 1). This package measures when the iteration actually
halts (true-error and residual criteria), computes the closed-form bounds
that only need the extreme eigenvalues, and compares the scaled bounds
against their distributional limits — the exponential law for matrices with
uniform eigenvalues and the Bessel-kernel hard-edge law for the Jacobi
unitary ensemble.
"""

from .ensembles import (EnsembleSample, EnsembleSpec, draw,
                        sample_eigenvalues_only_uniform, sample_haar_orthogonal,
                        sample_jue_matrix, sample_uniform_eig_matrix, trial_seed)
from .errors import (DimensionError, DivergenceError, DomainError,
                     NumericalError, PreconditionError, SingularityError,
                     SymmetryError)
from .experiments import (EmpiricalDistribution, ExperimentConfig, TrialRow,
                          emit_report, histogram, ks_distance, reference_law,
                          run_experiment)
from .iteration import (EXP_HALF_MEAN_LOG, IterationProblem, IterationResult,
                        TailBound, bound_K, bound_Kstar, halting_counts,
                        iterate, refined_statistic, scaled_K, sharpness_rhs,
                        tail_norm)
from .limits import (LimitLaw, ReciprocalLaw, bessel_kernel, exp_cdf,
                     export_cdf_table, fredholm_det, jue_limit_cdf, numeric_pdf)
from .linalg import DenseMatrix, EigenDecomposition, inv_sqrt_psd, symmetric_eig

__version__ = "0.1.0"

__all__ = [
    "EnsembleSample", "EnsembleSpec", "draw", "sample_eigenvalues_only_uniform",
    "sample_haar_orthogonal", "sample_jue_matrix", "sample_uniform_eig_matrix",
    "trial_seed",
    "DimensionError", "DivergenceError", "DomainError", "NumericalError",
    "PreconditionError", "SingularityError", "SymmetryError",
    "EmpiricalDistribution", "ExperimentConfig", "TrialRow", "emit_report",
    "histogram", "ks_distance", "reference_law", "run_experiment",
    "EXP_HALF_MEAN_LOG", "IterationProblem", "IterationResult", "TailBound",
    "bound_K", "bound_Kstar", "halting_counts", "iterate", "refined_statistic",
    "scaled_K", "sharpness_rhs", "tail_norm",
    "LimitLaw", "ReciprocalLaw", "bessel_kernel", "exp_cdf", "export_cdf_table",
    "fredholm_det", "jue_limit_cdf", "numeric_pdf",
    "DenseMatrix", "EigenDecomposition", "inv_sqrt_psd", "symmetric_eig",
]
