"""Piecewise linear finite elements for -u'' + f(x, u) = g + noise.

Galerkin discretization with hat functions on a uniform grid, homogeneous
Dirichlet data.  The noise load is computed exactly: the discretized noise
is constant on each of its cells, and a hat function integrates to half a
cell width over each cell it touches, so (noise, phi_j) reduces to averaged
increments.  Smooth loads use a two-point Gauss rule per cell (exact for the
products of linears that arise).  The nonlinear problem is solved in mild
form, u + K_h f(., u) = A^-1 (load of g + noise), where the discrete Green's
operator K_h is the stiffness solve A^-1 of the Gauss-rule load: the
Anderson-accelerated fixed-point iteration both solvers share
(problem.damped_fixed_point), with K_h in place of the Green's-function
quadrature it agrees with at the nodes.  A reaction with a slope c at zero
is iterated in the shifted form u + K_c (f(., u) - c u) = (A + c M)^-1 load,
K_c = (A + c M)^-1 of the Gauss-rule load and M the P1 mass matrix: the
Galerkin operator of -u'' + c u, which has the same discrete solution.
The stiffness solve is Gaussian elimination with its multipliers in closed
form: two running sums, no factorization and no LAPACK.  A stack of noise
paths, one per row, is solved row by row in one loop: every step is one
stiffness solve along the last axis of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GAUSS_OFFSETS, GridFunction, UniformGrid, _shifted_stiffness
from .noise import IncrementPath, increments_on
from .problem import Discretization, ProblemSpec, Solution, solve_on

__all__ = [
    "Tridiagonal",
    "assemble_load",
    "ritz_projection",
    "solve_nonlinear_fem",
]


def _require_finite(array: np.ndarray) -> None:
    if not np.isfinite(array).all():
        raise ValueError("array must not contain infs or NaNs")


@dataclass(frozen=True)
class Tridiagonal:
    """Stiffness matrix tridiag(-1, 2, -1)/h of -u'' on the interior nodes, plus shift M.

    M is the P1 mass matrix h tridiag(1, 4, 1)/6, so with a shift c the
    matrix is the Galerkin one of -u'' + c u; c = 0 is the stiffness alone.
    A + c M = s tridiag(-1, beta, -1) has the pivots q_(i+1)/q_i in closed
    form (grids._shifted_stiffness), so with weights set up once per grid the
    solve is two running sums and no factorization: the forward sweep is
    z = cumsum(q_i b), the back sweep
    x_i = (q_i/s) sum_{k >= i} z_k / (q_k q_(k+1)), a reversed cumsum.  At
    c = 0, q_i = i and s = n, so the weights are exactly i, 1/(k (k+1)) and
    i/n, those of tridiag(-1, 2, -1)'s pivots (i+1)/i.
    """

    grid: UniformGrid
    shift: float = 0.0

    def __post_init__(self):
        if self.grid.n < 2:
            raise ValueError("need at least 2 cells for one interior node")
        q, s = _shifted_stiffness(self.grid, self.shift)
        object.__setattr__(self, "_ramp", q[1:-1])
        object.__setattr__(self, "_back", 1.0 / (q[1:-1] * q[2:]))
        object.__setattr__(self, "_scale", q[1:-1] / s)

    def solve(self, rhs: np.ndarray, check_finite: bool = True,
              out: np.ndarray = None) -> np.ndarray:
        """The stiffness solve by two running sums along the last axis.

        ValueError on a right-hand side whose last axis is not the interior
        nodes, and on a non-finite one unless check_finite is False (a
        non-finite entry then spreads along its row).  Both sums run in
        place in the result, which goes to `out` when it is given (out may
        be rhs itself).  Running sums add in order along each row, so a
        stack of rows solves bit for bit as each row alone."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[-1:] != self._ramp.shape:
            raise ValueError("right-hand side does not match the interior nodes")
        if check_finite:
            _require_finite(rhs)
        x = np.multiply(self._ramp, rhs, out=out)
        np.cumsum(x, axis=-1, out=x)
        x *= self._back
        np.cumsum(x[..., ::-1], axis=-1, out=x[..., ::-1])
        x *= self._scale
        return x


def _gauss_assemble(grid: UniformGrid, values_at_gauss: np.ndarray,
                    out: np.ndarray = None) -> np.ndarray:
    """Interior load vector (v, phi_j) from values at the per-cell Gauss points, into out."""
    t_lo, t_hi = GAUSS_OFFSETS
    w = 0.5 * grid.h
    lo, hi = values_at_gauss[..., 0::2], values_at_gauss[..., 1::2]
    to_left = w * ((1.0 - t_lo) * lo + (1.0 - t_hi) * hi)
    to_right = w * (t_lo * lo + t_hi * hi)
    # interior node j collects from its right cell j and its left cell j-1
    return np.add(to_left[..., 1:], to_right[..., :-1], out=out)


def assemble_load(grid: UniformGrid, forcing=None, path: IncrementPath = None) -> np.ndarray:
    """Interior load vector (g, phi_j) + (noise, phi_j).

    Args:
        grid: FEM grid.
        forcing: vectorized callable or GridFunction, or None.
        path: noise increments on the FEM grid or a coarser divisor, or None;
            a stack of paths gives one load per row.

    Returns:
        Array of length n-1, or (rows, n-1) for a stack of paths.
    """
    load = np.zeros(grid.n - 1)
    if forcing is not None:
        values = np.asarray(forcing(grid.gauss_points()), dtype=float)
        load = load + _gauss_assemble(grid, values)
    if path is not None:
        # exact (noise, phi_j): averaged increments of the two touching cells
        inc = increments_on(path, grid)
        load = load + 0.5 * (inc[..., :-1] + inc[..., 1:])
    return load


def _nodal_apply(grid: UniformGrid, shift: float = 0.0, stiffness: Tridiagonal = None):
    """The map from Gauss-point values of phi to the Galerkin K_h phi at the nodes.

    K_h phi is the FEM solution of -u'' = phi with phi's load taken by the
    Gauss rule: the stiffness solve of that load, padded with the zero
    boundary values.  In one dimension it agrees at the nodes with the
    Green's-function quadrature of greens._nodal_apply.  With a shift c the
    map is K_c = (A + c M)^-1 of the same load, the FEM solution of
    -u'' + c u = phi, which is (I + c K_h)^-1 K_h at the nodes.  A stack of
    rows phi maps row by row, into `out` when it is given: the load is
    assembled into its interior and solved there in place.  `stiffness` is
    Tridiagonal(grid, shift) when the caller has built it already.
    """
    if stiffness is None:
        stiffness = Tridiagonal(grid, shift)

    def apply(phi: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        if out is None:
            out = np.empty(phi.shape[:-1] + (grid.n + 1,))
        out[..., 0] = out[..., -1] = 0.0
        interior = _gauss_assemble(grid, phi, out=out[..., 1:-1])
        # unchecked: the fixed-point loop checks its right-hand side and
        # every residual for non-finite values
        stiffness.solve(interior, check_finite=False, out=interior)
        return out

    return apply


def _discretize(problem: ProblemSpec, grid: UniformGrid) -> Discretization:
    """The Galerkin Discretization of a grid: built once, it serves every block solved on it.

    One shifted stiffness A + c M serves K_c and the rhs, (A + c M)^-1 of
    the forcing's load (assembled here) and the noise's, solved straight
    into the interior of a zero-ended array, as K_c's own solve is.
    """
    stiffness = Tridiagonal(grid, problem.reaction.shift)
    forcing_load = assemble_load(grid, forcing=problem.forcing)

    def rhs(path: IncrementPath) -> np.ndarray:
        # (0 + noise) + (0 + g) rounds as (0 + g) + noise does: addition
        # commutes, and a zero's sign cannot change either sum
        load = assemble_load(grid, path=path) + forcing_load
        nodal = np.zeros(load.shape[:-1] + (grid.n + 1,))
        # a non-finite load is reported by the loop, as the Green's solver's is
        stiffness.solve(load, check_finite=False, out=nodal[..., 1:-1])
        return nodal

    return Discretization(grid, grid.gauss_points(), _nodal_apply(grid, stiffness=stiffness),
                          rhs, "FEM fixed-point iteration")


def solve_nonlinear_fem(problem: ProblemSpec, path: IncrementPath = None,
                        grid: UniformGrid = None, tol: float = 1e-10,
                        max_iters: int = 500, *, setup: Discretization = None) -> Solution:
    """Galerkin solution of -u'' + f(x, u) = g + noise.

    The fixed point u + K_h f(., u) = A^-1 load of problem.damped_fixed_point,
    K_h the Galerkin Green's operator (_nodal_apply): the step
    u - theta (u + K_h f(., u) - A^-1 load), theta the reaction's step_size
    (1 for a Lipschitz reaction, as ||K_h|| <= 1/pi^2 in L2; else
    min(1, 2/(2 + L))), Anderson-accelerated.  A reaction with a slope c at
    zero iterates u + K_c (f(., u) - c u) = (A + c M)^-1 load instead, the
    same equation.  Each step after the zero start is the linear solve with
    the current reaction load.  For f = 0
    the first step is the exact linear solve and the loop exits with
    iterations = 1.  A stack of paths is solved row by row in one loop, each
    row to exactly the result of its own solve.  A non-finite noise path or
    forcing, or an empty stack, raises ValueError.

    Args:
        problem: Hurst index, reaction, forcing.
        path: noise increments, or a stack of them; None solves the
            deterministic problem.
        grid: FEM mesh; defaults to the path's grid, and may be any
            refinement of it (the noise stays constant on its own cells).
        tol: tolerance on the L2 norm of the residual u + K_h f(., u) -
            A^-1 load, the same rule as the Green's solver's (met through
            the shifted residual when c != 0; see damped_fixed_point).
        max_iters: cap; NonConvergenceError beyond it.
        setup: the Discretization of the solver grid, _discretize(problem,
            grid) (its Gauss points, K map and rhs, which share one shifted
            stiffness and the forcing's load), built here when None; a
            study builds one per grid and chunk and passes it to every
            block.  A grid other than its own raises ValueError.
    """
    return solve_on(_discretize, problem, path, grid, tol, max_iters, setup)


def ritz_projection(w, grid: UniformGrid) -> GridFunction:
    """Ritz projection of w onto the hat-function space, in closed form.

    The right-hand side (w', phi_j') collapses to exact nodal differences
    (2 w(x_j) - w(x_{j-1}) - w(x_{j+1}))/h, those of the nodal interpolant
    I w, and a linear function is energy-orthogonal to every interior hat.
    So in one dimension the projection is I w less the linear function
    through w's end values, w(0) (1 - x) + w(1) x, with no stiffness solve.

    Args:
        w: callable or GridFunction (or a stack of them), absolutely
            continuous on [0, 1].  A nodal GridFunction on a grid that
            refines `grid` r times gives its every r-th nodal value, with
            no evaluation.
        grid: target FEM grid.

    ValueError if w is not finite at the nodes.
    """
    x = grid.nodes()
    if isinstance(w, GridFunction) and w.kind == "nodal" and grid.divides(w.grid):
        values = w.values[..., ::w.grid.n // grid.n]
    else:
        values = np.asarray(w(x), dtype=float)
    _require_finite(values)
    return GridFunction(grid, values - values[..., :1] * (1.0 - x) - values[..., -1:] * x,
                        kind="nodal")
