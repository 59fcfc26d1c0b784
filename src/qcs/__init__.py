"""Quaternion compressed sensing: sparse recovery by l1 minimization,
restricted-isometry diagnostics, and the supporting experiment harness."""

from .embedding import build_embedding, unvec4, vec4
from .harness import (ExperimentConfig, PhaseDiagram, ScatterData, TrialRecord,
                      emit_plot, run_c0_experiment, run_ratio_test, run_sweep)
from .qlinalg import (QMatrix, QVector, SupportSet, adjoint, best_s_sparse,
                      complex_adjoint, hermitian_eigenvalues, hermitian_inner,
                      hermitian_opnorm, lp_norm, matmul, matvec, submatrix)
from .quaternion import Quaternion, conj, inv, mul, norm
from .random import (RngStream, sample_gaussian_matrix, sample_quaternion_gaussian,
                     sample_sparse_signal)
from .rip import (ErrorBoundConstants, RipReport, check_rip_ip, error_constants,
                  exact_delta, sampled_delta_lower_bound)
from .solver import (RecoveryProblem, SolveResult, SolverParams, SolveStatus,
                     block_soft_threshold, solve)

__version__ = "0.1.0"

__all__ = [
    "ErrorBoundConstants", "ExperimentConfig", "PhaseDiagram", "QMatrix",
    "QVector", "Quaternion", "RecoveryProblem", "RipReport", "RngStream",
    "ScatterData", "SolveResult", "SolveStatus", "SolverParams", "SupportSet",
    "TrialRecord", "adjoint", "best_s_sparse", "block_soft_threshold",
    "build_embedding", "check_rip_ip", "complex_adjoint", "conj", "emit_plot",
    "error_constants", "exact_delta", "hermitian_eigenvalues",
    "hermitian_inner", "hermitian_opnorm", "inv", "lp_norm", "matmul",
    "matvec", "mul", "norm", "run_c0_experiment", "run_ratio_test",
    "run_sweep", "sample_gaussian_matrix", "sample_quaternion_gaussian",
    "sample_sparse_signal", "sampled_delta_lower_bound", "solve", "submatrix",
    "unvec4", "vec4",
]
