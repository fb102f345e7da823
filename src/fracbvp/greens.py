"""Mild-solution solver built on the Green's function of -u'' on (0, 1).

The two-point boundary value problem -u'' + f(x, u) = g + noise with
homogeneous Dirichlet data inverts to the Hammerstein equation

    u(x) + (K f(., u))(x) = (K g)(x) + (K noise)(x),

where (K phi)(x) = int_0^1 G(x, y) phi(y) dy and G(x, y) = min(x, y) - x y.
G(x_node, .) is linear on every cell, so a two-point Gauss rule per cell
integrates it exactly against anything piecewise linear: the forcing's
interpolant, the reaction f(., u) of a nodal u, and the piecewise constant
noise alike.  The nonlinear equation is solved by the Anderson-accelerated
fixed-point iteration both solvers share (problem.damped_fixed_point), whose
step size follows from the L2 norm of K, at most 1/pi^2, for a Lipschitz
reaction and from the coercivity of K otherwise; this module supplies K and
K (g + noise).  For a reaction with a slope c at zero it supplies
K_c = (I + c K)^-1 K and K_c (g + noise) instead, and the loop iterates
u + K_c (f(., u) - c u) = K_c (g + noise), the same equation.  K_c is the
Green's operator of -u'' + c u on the grid, with the same two running sums.

G is semiseparable, (K phi)(x) = (1 - x) int_0^x y phi + x int_x^1 (1 - y) phi,
so the solver applies K at the nodes with two running sums over the cells:
O(n) time and memory per application, and no matrix.  A stack of noise
paths, one per row, is solved row by row in one loop, the running sums
taken along the last axis.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .grids import UniformGrid, _shifted_stiffness, gauss_values
from .noise import IncrementPath, increments_on, plinear_self_isometry
from .problem import ProblemSpec, Solution, damped_fixed_point

__all__ = [
    "convolution_error_second_moment",
    "greens_cell_integrals",
    "greens_function",
    "solve_hammerstein",
]


def greens_function(x, y) -> np.ndarray:
    """G(x, y) = min(x, y) - x y on [0, 1]^2, vectorized with broadcasting."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0) or np.any(y < 0.0) or np.any(y > 1.0):
        raise ValueError("greens_function arguments must lie in [0, 1]")
    return np.minimum(x, y) - x * y


def greens_cell_integrals(x, grid: UniformGrid) -> np.ndarray:
    """Exact integrals of G(x, .) over every grid cell.

    Args:
        x: scalar or 1d array of evaluation points in [0, 1].
        grid: the cell partition.

    Returns:
        Array of shape (n,) for scalar x, else (len(x), n); entry i is
        int_{cell i} G(x, z) dz.  Row sums equal x(1-x)/2.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")
    nodes = grid.nodes()
    a, b = nodes[:-1][None, :], nodes[1:][None, :]
    xc = x_arr[:, None]
    # antiderivatives of the two linear branches of G(x, .)
    lo_hi = np.minimum(b, xc)
    lo_lo = np.minimum(a, xc)
    hi_hi = np.maximum(b, xc)
    hi_lo = np.maximum(a, xc)
    low_part = (1.0 - xc) * 0.5 * (lo_hi * lo_hi - lo_lo * lo_lo)
    high_part = xc * ((hi_hi - 0.5 * hi_hi * hi_hi) - (hi_lo - 0.5 * hi_lo * hi_lo))
    out = low_part + high_part
    return out[0] if np.isscalar(x) or np.ndim(x) == 0 else out


def _nodal_apply(grid: UniformGrid, shift: float = 0.0):
    """The map from Gauss-point values of phi to (K phi) at the nodes, in O(n).

    G(x, y) is y (1 - x) for y < x and x (1 - y) for y > x, so
    (K phi)(x_j) = (1 - x_j) below_j + x_j above_j, where below_j sums the
    y-weighted Gauss contributions of the cells left of node j and above_j
    the (1 - y)-weighted ones of the cells right of it; each cell's two
    contributions are added before they enter a running sum.  The result is
    the two-point Gauss rule applied to G(x_j, .) phi, exact whenever phi is
    linear per cell, since G(x_j, .) is linear on every cell.

    With a shift c the map is K_c = (I + c K)^-1 K at the nodes.  Its kernel
    at node x_j is the P1 interpolant of row j of (A + c M)^-1, the shifted
    stiffness of grids._shifted_stiffness, q_min q_(n-max) / (s q_n): the
    same two running sums, with the generators y and 1 - y replaced by the
    interpolants of q/q_n and of q reversed over q_n, and the result scaled
    by q_n/s (folded into the Gauss weights).  Every c builds its weights
    so: c = 0 is the family's limit q_i = i and s = n, whose generators
    i/n and (n - i)/n are y and 1 - y at the nodes, and give back G.

    A stack of rows phi maps row by row, into `out` when it is given (one
    row per row of phi).  The map keeps no state between calls, so any
    number of solves may share it at once.
    """
    q, scale = _shifted_stiffness(grid, shift)
    rising = q / q[-1]
    weight = 0.5 * grid.h * q[-1] / scale
    falling = rising[::-1]
    up, down = gauss_values(rising), gauss_values(falling)
    # weights of each cell's first and second Gauss point
    left = [weight * up[k::2] for k in (0, 1)]
    right = [weight * down[k::2] for k in (0, 1)]

    def apply(phi: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        stack = np.atleast_2d(phi)
        rows = len(stack)
        above, cells = np.empty((rows, grid.n + 1)), np.empty((rows, grid.n))
        below = np.empty((rows, grid.n + 1)) if out is None else out
        first, second = stack[:, 0::2], stack[:, 1::2]
        # each running sum's target holds the second Gauss points' terms first
        np.multiply(left[0], first, out=cells)
        cells += np.multiply(left[1], second, out=below[:, 1:])
        below[:, 0] = 0.0
        np.cumsum(cells, axis=-1, out=below[:, 1:])
        np.multiply(right[0], first, out=cells)
        cells += np.multiply(right[1], second, out=above[:, :-1])
        above[:, -1] = 0.0
        np.cumsum(cells[:, ::-1], axis=-1, out=above[:, -2::-1])
        below *= falling
        above *= rising
        below += above
        return below.reshape(phi.shape[:-1] + (grid.n + 1,))

    return apply


def convolution_error_second_moment(x: float, grid: UniformGrid, hurst,
                                    refine: int = 16) -> float:
    """E[(K noise - K noise^n)(x)^2] in closed form.

    Replacing the Green's kernel by its cell averages commits the error
    d(y) = G(x, y) - (cell average), a piecewise linear function with jumps
    at the cell edges; the second moment of int d dW is evaluated by the
    exact piecewise-linear isometry on a partition `refine` times finer than
    the grid.  d has a kink at y = x; unless x lies on the fine partition,
    the kink is interpolated, committing a relative error of order
    refine^{-(2H+2)}.

    Decays like h^{2H+1} as the grid is refined.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    if refine < 1:
        raise ValueError("refine must be >= 1")
    pieces = refine * grid.n
    edges = np.linspace(0.0, 1.0, pieces + 1)
    kernel_at_edges = greens_function(float(x), edges)
    averages = greens_cell_integrals(float(x), grid) / grid.h
    per_piece_avg = np.repeat(averages, refine)
    left = kernel_at_edges[:-1] - per_piece_avg
    right = kernel_at_edges[1:] - per_piece_avg
    slopes = (right - left) * pieces
    return plinear_self_isometry(left, slopes, hurst)


class _Setup(NamedTuple):
    """What every Green's solve on one grid shares, for one problem."""

    gauss: np.ndarray  # the grid's Gauss points
    forcing: np.ndarray  # g at them
    apply_k: Callable  # K_c


def _set_up(problem: ProblemSpec, grid: UniformGrid) -> _Setup:
    """The Green's set-up of a grid: built once, it serves every block solved on it."""
    gauss = grid.gauss_points()
    return _Setup(gauss, problem.forcing(gauss), _nodal_apply(grid, problem.reaction.shift))


def solve_hammerstein(problem: ProblemSpec, path: IncrementPath = None,
                      grid: UniformGrid = None, tol: float = 1e-10,
                      max_iters: int = 500, *, setup: _Setup = None) -> Solution:
    """Solve u + K f(., u) = K g + K noise by Anderson-accelerated fixed-point iteration.

    For a reaction with Lipschitz constant L < 2 the plain iteration
    u -> K g + K noise - K f(., u) contracts at rate <= L/pi^2, since K has
    L2 norm <= 1/pi^2, and the loop takes it undamped; a monotone-only
    reaction takes the damped step theta = min(1, 2/(2 + L)), L its
    damping constant (see ReactionTerm.step_size).  A reaction with a slope
    c at zero iterates the shifted form u + K_c (f(., u) - c u) = K_c g +
    K_c noise, K_c = (I + c K)^-1 K, the same equation.  The loop
    accelerates either (see problem.damped_fixed_point).  For f = 0 the
    first iterate is already exact and the loop exits with iterations = 1.
    A non-finite noise path or forcing, or an empty stack, raises
    ValueError.  K is applied in O(n) per iteration (see _nodal_apply), so
    memory stays linear in the grid size.  A stack of paths is solved row by row in one
    loop (problem.damped_fixed_point), each row to exactly the result of
    its own solve.

    Args:
        problem: Hurst index, reaction, forcing.
        path: noise increments on the solver grid or a coarser divisor, or
            a stack of them; None solves the deterministic problem.
        grid: solver grid; defaults to the path's grid.
        tol: tolerance on the L2 norm of the residual K f(., u) + u - rhs;
            the same rule as the FEM solver's (met through the shifted
            residual when c != 0; see damped_fixed_point).
        max_iters: iteration cap; NonConvergenceError beyond it.
        setup: the grid's Gauss points, the forcing at them and the K map
            (_set_up(problem, grid)), built here when None; a study builds
            them once per grid and chunk and passes them to every block.

    Returns:
        Solution with nodal values, final residual, iteration count.
    """
    if path is None and grid is None:
        raise ValueError("need either a noise path or a grid")
    if grid is None:
        grid = path.grid
    if setup is None:
        setup = _set_up(problem, grid)
    apply_k, density = setup.apply_k, setup.forcing
    if path is not None:
        # the noise density is constant on each cell, so both Gauss points see it
        density = density + np.repeat(increments_on(path, grid) / grid.h, 2, axis=-1)
    # an inf in the density times a boundary node's zero weight is NaN; the
    # loop reports the non-finite row, so numpy need not warn first
    with np.errstate(invalid="ignore"):
        rhs = apply_k(density)
    del density  # (rows, 2n) values the loop does not need
    return damped_fixed_point(problem, grid, rhs, apply_k, tol, max_iters,
                              "fixed-point iteration", setup.gauss)
