"""Solvers and convergence studies for -u'' + f(x, u) = g + fractional noise.

The noise is the derivative of fractional Brownian motion with Hurst index
H in (0, 1/2]; both a Green's-function (mild) solver and a piecewise linear
Galerkin solver are provided, together with exact second-moment formulas for
the discretized noise and a Monte Carlo convergence-rate harness.
"""

from .errors import FactorizationError, GridMismatchError, NonConvergenceError
from .experiments import (
    ConvergenceReport,
    StudyConfig,
    Verdict,
    estimate_rate,
    kernel_pair_sum_quadrature,
    run_convergence_study,
    run_h1_blowup_study,
    run_superconvergence_study,
    run_verification_suite,
    verify_convolution_error_decay,
    verify_isometry,
    verify_kernel_pair_sum,
    verify_noise_norm,
    verify_solver_agreement,
)
from .fem import (
    Tridiagonal,
    assemble_load,
    ritz_projection,
    solve_linear_fem,
    solve_nonlinear_fem,
)
from .greens import (
    convolution_error_second_moment,
    greens_cell_integrals,
    greens_function,
    solve_hammerstein,
)
from .grids import GridFunction, UniformGrid, discrete_h1_error, discrete_l2_error
from .noise import (
    HurstIndex,
    IncrementPath,
    IncrementSampler,
    StepFunction,
    aggregate_increments,
    fbm_covariance,
    increment_covariance_matrix,
    ito_isometry,
    plinear_self_isometry,
    singular_kernel_pair_sum,
    singular_kernel_pair_sum_bound,
)
from .problem import (
    FORCINGS,
    REACTIONS,
    ProblemSpec,
    ReactionTerm,
    Solution,
    linear_reaction,
    make_forcing,
    make_reaction,
    sin_reaction,
    sqrt_clip_reaction,
    zero_reaction,
)

__version__ = "0.1.0"
