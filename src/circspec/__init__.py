"""Spectral methods on periodic function spaces.

Finite-section and collocation solvers for periodic differential equations,
a singular-integral-equation solver for scalar Riemann-Hilbert problems on
the unit circle, eigenvalue approximation for self-adjoint periodic
operators, and a convergence-measurement harness with a CLI.
"""

from .fourier import (
    BandWindow,
    CoeffVec,
    align_windows,
    diff_norm,
    evaluate_on_grid,
    interpolate,
    project,
    sobolev_norm,
    sobolev_weights,
    synth_powerlaw,
)
from .harness import (
    ConfigError,
    ConvergenceReport,
    ExperimentConfig,
    emit_csv,
    fit_slope,
    run_experiment,
)
from .linsolve import SolveError
from .ode import exact_constant_solve, solve_ode
from .operators import (
    DiffOpSpec,
    JumpSpec,
    OperatorMatrix,
    assemble_L0,
    assemble_cauchy_projectors,
    assemble_collocation_ode,
    assemble_finite_section_ode,
    assemble_hankel,
    assemble_mult_toeplitz,
    assemble_regulator,
    assemble_sie,
    choose_zeta,
    ode_matvec,
    operator_norm_weighted,
    sie_matvec,
)
from .rhp import RHSolution, evaluate_phi, jump_residual, solve_rhp, winding_number
from .spectrum import (
    EigenDistances,
    EigenReport,
    TruncationCoincidence,
    cluster_multiplicities,
    eigen_distances,
    eigenpairs_self_adjoint,
    eigenvalues_self_adjoint,
    resolvent_norm_grid,
    truncation_coincidence,
)

__all__ = [
    "BandWindow",
    "CoeffVec",
    "align_windows",
    "diff_norm",
    "evaluate_on_grid",
    "interpolate",
    "project",
    "sobolev_norm",
    "sobolev_weights",
    "synth_powerlaw",
    "DiffOpSpec",
    "JumpSpec",
    "OperatorMatrix",
    "assemble_L0",
    "assemble_cauchy_projectors",
    "assemble_collocation_ode",
    "assemble_finite_section_ode",
    "assemble_hankel",
    "assemble_mult_toeplitz",
    "assemble_regulator",
    "assemble_sie",
    "choose_zeta",
    "ode_matvec",
    "operator_norm_weighted",
    "sie_matvec",
    "SolveError",
    "solve_ode",
    "exact_constant_solve",
    "RHSolution",
    "solve_rhp",
    "evaluate_phi",
    "jump_residual",
    "winding_number",
    "EigenDistances",
    "EigenReport",
    "TruncationCoincidence",
    "cluster_multiplicities",
    "eigen_distances",
    "eigenpairs_self_adjoint",
    "eigenvalues_self_adjoint",
    "resolvent_norm_grid",
    "truncation_coincidence",
    "ConfigError",
    "ConvergenceReport",
    "ExperimentConfig",
    "emit_csv",
    "fit_slope",
    "run_experiment",
]

__version__ = "0.1.0"
