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
quadrature it agrees with at the nodes.
The stiffness solve is Gaussian elimination with its multipliers in closed
form: two running sums, no factorization and no LAPACK.  A stack of noise
paths, one per row, is solved row by row in one loop: every step is one
stiffness solve along the last axis of the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import (GAUSS_OFFSETS, GridFunction, UniformGrid, discrete_h1_error,
                    discrete_l2_error)
from .noise import IncrementPath, increments_on
from .problem import ProblemSpec, Solution, damped_fixed_point

__all__ = [
    "Tridiagonal",
    "assemble_load",
    "discrete_h1_error",
    "discrete_l2_error",
    "ritz_projection",
    "solve_linear_fem",
    "solve_nonlinear_fem",
]


def _require_finite(array: np.ndarray) -> None:
    # a sum of squares is finite only if every entry is; on overflow the
    # exact elementwise test decides
    if not math.isfinite(np.vdot(array, array)) and not np.isfinite(array).all():
        raise ValueError("array must not contain infs or NaNs")


@dataclass(frozen=True)
class Tridiagonal:
    """Stiffness matrix tridiag(-1, 2, -1)/h of -u'' on the interior nodes of a grid.

    Vectors are the last axis: matvec and solve map a stack of rows row by
    row.  Gaussian elimination of tridiag(-1, 2, -1) has the pivots
    (i+1)/i and the multipliers -(i-1)/i in closed form, so with weights
    set up once per grid the solve is two running sums and no
    factorization: the forward sweep is z = cumsum(i b), the back sweep
    x_i = (i/n) sum_{k >= i} z_k / (k (k+1)), a reversed cumsum.
    """

    grid: UniformGrid

    def __post_init__(self):
        if self.grid.n < 2:
            raise ValueError("need at least 2 cells for one interior node")
        ramp = np.arange(1.0, self.grid.n)
        object.__setattr__(self, "_ramp", ramp)
        object.__setattr__(self, "_back", 1.0 / (ramp * (ramp + 1.0)))
        object.__setattr__(self, "_scale", ramp / self.grid.n)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        inv_h = 1.0 / self.grid.h
        out = (2.0 * inv_h) * v
        out[..., 1:] -= inv_h * v[..., :-1]
        out[..., :-1] -= inv_h * v[..., 1:]
        return out

    def solve(self, rhs: np.ndarray, check_finite: bool = True) -> np.ndarray:
        """The stiffness solve by two running sums along the last axis.

        ValueError on a right-hand side whose last axis is not the interior
        nodes, and on a non-finite one unless check_finite is False (a
        non-finite entry then spreads along its row).  Running sums add in
        order along each row, so a stack of rows solves bit for bit as each
        row alone."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[-1:] != self._ramp.shape:
            raise ValueError("right-hand side does not match the interior nodes")
        if check_finite:
            _require_finite(rhs)
        z = self._ramp * rhs
        np.cumsum(z, axis=-1, out=z)
        z *= self._back
        x = np.empty_like(z)
        np.cumsum(z[..., ::-1], axis=-1, out=x[..., ::-1])
        x *= self._scale
        return x


def _gauss_assemble(grid: UniformGrid, values_at_gauss: np.ndarray) -> np.ndarray:
    """Interior load vector (v, phi_j) from values at the per-cell Gauss points."""
    t_lo, t_hi = GAUSS_OFFSETS
    w = 0.5 * grid.h
    lo, hi = values_at_gauss[..., 0::2], values_at_gauss[..., 1::2]
    to_left = w * ((1.0 - t_lo) * lo + (1.0 - t_hi) * hi)
    to_right = w * (t_lo * lo + t_hi * hi)
    # interior node j collects from its right cell j and its left cell j-1
    return to_left[..., 1:] + to_right[..., :-1]


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


def _with_boundary(interior: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Nodal values from interior ones and zero boundary data, row by row.

    The result goes to `out` when it is given."""
    if out is None:
        out = np.empty(interior.shape[:-1] + (interior.shape[-1] + 2,))
    out[..., 0] = out[..., -1] = 0.0
    out[..., 1:-1] = interior
    return out


def _nodal_apply(grid: UniformGrid):
    """The map from Gauss-point values of phi to the Galerkin K_h phi at the nodes.

    K_h phi is the FEM solution of -u'' = phi with phi's load taken by the
    Gauss rule: the stiffness solve of that load, padded with the zero
    boundary values.  In one dimension it agrees at the nodes with the
    Green's-function quadrature of greens._nodal_apply.  A stack of rows
    phi maps row by row, into `out` when it is given.
    """
    stiffness = Tridiagonal(grid)

    def apply(phi: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        # unchecked: the fixed-point loop checks its right-hand side and
        # every residual for non-finite values
        return _with_boundary(stiffness.solve(_gauss_assemble(grid, phi), check_finite=False),
                              out)

    return apply


def solve_linear_fem(grid: UniformGrid, load: np.ndarray) -> Solution:
    """Direct stiffness solve of the linear problem -u'' = load functional.

    The residual is the L2 norm of the correction A^-1 (load - A x), the
    step the nonlinear solver would take next.
    """
    stiffness = Tridiagonal(grid)
    load = np.asarray(load, dtype=float)
    interior = stiffness.solve(load)
    if not np.all(np.isfinite(interior)):
        raise FloatingPointError("stiffness solve produced non-finite values")
    correction = stiffness.solve(load - stiffness.matvec(interior))
    residuals = np.atleast_1d(GridFunction(grid, _with_boundary(correction)).l2_norm())
    return Solution(grid, _with_boundary(interior), residuals,
                    np.zeros(len(residuals), dtype=int))


def solve_nonlinear_fem(problem: ProblemSpec, path: IncrementPath = None,
                        grid: UniformGrid = None, tol: float = 1e-10,
                        max_iters: int = 500) -> Solution:
    """Galerkin solution of -u'' + f(x, u) = g + noise.

    The fixed point u + K_h f(., u) = A^-1 load of problem.damped_fixed_point,
    K_h the Galerkin Green's operator (_nodal_apply): the damped step
    u - theta (u + K_h f(., u) - A^-1 load), theta the reaction's step_size
    min(1, 2/(2 + L)), Anderson-accelerated.  Each step is the linear solve
    with the current reaction load.  For f = 0 the first step is the exact
    linear solve and the loop exits with iterations = 1.  A stack of paths
    is solved row by row in one loop, each row to exactly the result of its
    own solve.  A non-finite noise path or forcing raises ValueError.

    Args:
        problem: Hurst index, reaction, forcing.
        path: noise increments, or a stack of them; None solves the
            deterministic problem.
        grid: FEM mesh; defaults to the path's grid, and may be any
            refinement of it (the noise stays constant on its own cells).
        tol: tolerance on the L2 norm of the residual u + K_h f(., u) -
            A^-1 load, the same rule as the Green's solver's.
        max_iters: cap; NonConvergenceError beyond it.
    """
    if path is None and grid is None:
        raise ValueError("need either a noise path or a grid")
    if grid is None:
        grid = path.grid
    load = assemble_load(grid, forcing=problem.forcing, path=path)
    # a non-finite load is reported by the loop, as the Green's solver's is
    rhs = _with_boundary(Tridiagonal(grid).solve(load, check_finite=False))
    return damped_fixed_point(problem, grid, rhs, _nodal_apply(grid), tol, max_iters,
                              "FEM fixed-point iteration")


def ritz_projection(w, grid: UniformGrid) -> GridFunction:
    """Ritz projection of w onto the hat-function space.

    The right-hand side (w', phi_j') collapses to exact nodal differences
    (2 w(x_j) - w(x_{j-1}) - w(x_{j+1}))/h, so in one dimension the
    projection coincides with nodal interpolation; the stiffness solve is kept
    as the defining computation.

    Args:
        w: callable or GridFunction (or a stack of them), absolutely
            continuous on [0, 1].
        grid: target FEM grid.
    """
    values = np.asarray(w(grid.nodes()), dtype=float)
    rhs = (2.0 * values[..., 1:-1] - values[..., :-2] - values[..., 2:]) / grid.h
    interior = Tridiagonal(grid).solve(rhs)
    return GridFunction(grid, _with_boundary(interior), kind="nodal")
