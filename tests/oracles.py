"""Independent slow oracles and small helpers used by several test modules.

These deliberately avoid the closed forms under test: second moments are
computed through the covariance function of the driving motion (integration
by parts against R), with adaptive quadrature for the smooth pieces, and
the Green's operator of a step density through exact cell integrals of G
instead of the solver's Gauss weights.  The dense Gauss-weight matrix is the
oracle for the solver's O(n) application of K, and cellwise Simpson the
oracle for the exact per-cell L2 formula.  The dense increment covariance
and the linear stiffness solve are the reference computations that only
tests need.
"""

import math

import numpy as np
from scipy import integrate

from fracbvp import (GridFunction, IncrementPath, IncrementSampler, Solution, Tridiagonal,
                     UniformGrid, fbm_covariance, greens_cell_integrals, greens_function)
from fracbvp import noise


def sample_increments(grid, hurst, rng, method="cholesky"):
    """One-shot draw of an increment path: sample 0 of rng's stream."""
    return IncrementPath(grid, IncrementSampler(grid, hurst, method).sample_many(rng, 1)[0])


def step_noise(path):
    """Piecewise constant noise density DW_i / h on the path's grid."""
    return GridFunction(path.grid, path.increments / path.grid.h, kind="cell")


def cumulative(path):
    """Brownian path values W(x_i) at the n+1 nodes (W(0) = 0)."""
    return np.concatenate([[0.0], np.cumsum(path.increments)])


def from_callable(grid, fn, kind="nodal"):
    """Grid function sampling fn at the nodes (nodal) or midpoints (cell)."""
    nodes = grid.nodes()
    points = nodes if kind == "nodal" else 0.5 * (nodes[:-1] + nodes[1:])
    return GridFunction(grid, np.asarray(fn(points), dtype=float), kind)


def gauss_weight_matrix(grid, points=None):
    """Dense (len(points), 2n) weights mapping Gauss-point values of phi to
    (K phi)(points); points default to the nodes.  Exact whenever phi is
    linear per cell and every point is a node, since G(node, .) is linear on
    each cell and two-point Gauss integrates the per-cell quadratic exactly."""
    pts = grid.nodes() if points is None else np.asarray(points, dtype=float)
    return 0.5 * grid.h * greens_function(pts[:, None], grid.gauss_points()[None, :])


def stiffness_bands(grid):
    """The stiffness tridiag(-1, 2, -1)/h of the interior nodes in the banded
    layout of scipy.linalg.solve_banded((1, 1), ...): upper, main and lower
    diagonal in rows 0, 1 and 2, the unused corners zero."""
    m, inv_h = grid.n - 1, 1.0 / grid.h
    bands = np.zeros((3, m))
    bands[0, 1:] = bands[2, :-1] = -inv_h
    bands[1] = 2.0 * inv_h
    return bands


def shifted_bands(grid, c):
    """A + c M in the layout of stiffness_bands, M = h tridiag(1, 4, 1)/6 the P1 mass."""
    bands = stiffness_bands(grid)
    mass = grid.h / 6.0
    bands[0, 1:] += c * mass
    bands[2, :-1] += c * mass
    bands[1] += c * 4.0 * mass
    return bands


def band_matvec(bands, x):
    """The matrix in the layout of stiffness_bands times x along the last axis,
    row by row for a stack."""
    out = bands[1] * x
    out[..., 1:] += bands[2, :-1] * x[..., :-1]
    out[..., :-1] += bands[0, 1:] * x[..., 1:]
    return out


def increment_covariance_matrix(grid, hurst):
    """Exact covariance matrix of the n fBm increments on a uniform grid.

    Stationarity makes the matrix Toeplitz: entry (i, j) depends only on
    |i - j|, with h^{2H} on the diagonal and negative off-diagonal entries
    for H < 1/2.
    """
    H = noise._as_hurst(hurst).value
    rho = noise._increment_autocovariance(np.arange(grid.n), grid.h, H)
    # window k of (rho_{n-1}, .., rho_1, rho_0, rho_1, .., rho_{n-1}) is row n-1-k
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([rho[:0:-1], rho]), grid.n)
    return windows[::-1].copy()


def solve_linear_fem(grid, load):
    """Direct stiffness solve of the linear problem -u'' = load functional.

    One stiffness solve with zero boundary values, a stack of loads row by
    row.  The loop's residual for f = 0, u + K_h 0 - A^-1 load, is exactly 0
    there, so every row reports residual 0.0 and 0 iterations.
    """
    interior = Tridiagonal(grid).solve(load)
    values = np.pad(interior, [(0, 0)] * (interior.ndim - 1) + [(1, 1)])
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("stiffness solve produced non-finite values")
    rows = values.shape[:-1] or (1,)
    return Solution(grid, values, np.zeros(rows), np.zeros(rows, dtype=int))


def fbm_cov(x, y, H):
    return 0.5 * (np.abs(x) ** (2 * H) + np.abs(y) ** (2 * H)
                  - np.abs(np.asarray(x) - np.asarray(y)) ** (2 * H))


def plinear_second_moment_oracle(left_values, slopes, H):
    """Var(int d dW) for piecewise linear d on a uniform partition.

    Writes int d dW = d(1-) W(1) - int d'(y) W(y) dy - sum_j jump_j W(a_j)
    (integration by parts for a function with jumps) and expands the
    variance against the covariance R.  O(N^2) with quadrature; test-grade.
    """
    v = np.asarray(left_values, dtype=float)
    g = np.asarray(slopes, dtype=float)
    pieces = len(v)
    edges = np.linspace(0.0, 1.0, pieces + 1)
    delta = 1.0 / pieces
    right = v + g * delta
    jumps = np.concatenate([[v[0]], v[1:] - right[:-1]])  # at edges[0..N-1]
    atoms_x = np.concatenate([edges[:-1], [1.0]])
    atoms_w = np.concatenate([-jumps, [right[-1]]])

    total = 0.0
    for x, wx in zip(atoms_x, atoms_w):
        for y, wy in zip(atoms_x, atoms_w):
            total += wx * wy * fbm_cov(x, y, H)
    for x, wx in zip(atoms_x, atoms_w):
        for i in range(pieces):
            if g[i] == 0.0:
                continue
            val, _ = integrate.quad(lambda y: fbm_cov(x, y, H),
                                    edges[i], edges[i + 1], epsabs=1e-13)
            total += 2.0 * wx * (-g[i]) * val
    for i in range(pieces):
        for j in range(pieces):
            if g[i] == 0.0 or g[j] == 0.0:
                continue
            val, _ = integrate.dblquad(lambda y, z: fbm_cov(z, y, H),
                                       edges[i], edges[i + 1],
                                       edges[j], edges[j + 1], epsabs=1e-12)
            total += g[i] * g[j] * val
    return total


def step_second_moment_oracle(breakpoints, values, H, samples=None, rng=None):
    """Var(int f dW) for a step function, via the increment covariance.

    Cross-checks the closed form through fresh quadratic-form algebra; with
    `samples` set, returns a Monte Carlo estimate instead.
    """
    bp = np.asarray(breakpoints, dtype=float)
    vals = np.asarray(values, dtype=float)
    r = fbm_cov(bp[:, None], bp[None, :], H)
    cov = r[1:, 1:] - r[1:, :-1] - r[:-1, 1:] + r[:-1, :-1]
    if samples is None:
        return float(vals @ cov @ vals)
    factor = np.linalg.cholesky(cov)
    draws = rng.standard_normal((samples, len(vals))) @ factor.T
    return float((draws @ vals).var(ddof=1))


def ito_isometry_via_covariance(f, g=None, hurst=None):
    """E[ int f dW int g dW ] for step functions as f^T C g, where C collects
    the covariances of the fBm increments over the common refinement of the
    breakpoints.  O(N^2) in the piece count."""
    if hurst is None:
        raise TypeError("hurst is required")
    g = f if g is None else g
    edges = np.union1d(f.breakpoints, g.breakpoints)
    mids = 0.5 * (edges[:-1] + edges[1:])
    r = fbm_covariance(edges[:, None], edges[None, :], hurst)
    cov = r[1:, 1:] - r[1:, :-1] - r[:-1, 1:] + r[:-1, :-1]
    return float(f(mids) @ cov @ g(mids))


def apply_greens_operator(phi, grid, points=None):
    """(K phi)(points) for phi a GridFunction or a vectorized callable.

    Cell-kind grid functions integrate exactly against G through its cell
    integrals; nodal functions and callables go through the per-cell
    two-point Gauss rule on phi's grid (or `grid` for callables).
    """
    pts = grid.nodes() if points is None else np.asarray(points, dtype=float)
    if isinstance(phi, GridFunction):
        if phi.kind == "cell":
            return greens_cell_integrals(pts, phi.grid) @ phi.values
        grid = phi.grid
        values = phi(grid.gauss_points())
    else:
        values = np.asarray(phi(grid.gauss_points()), dtype=float)
    return gauss_weight_matrix(grid, pts) @ values


def stochastic_convolution(path, points=None):
    """(K noise)(x) for the piecewise constant noise of a path, exactly.

    Returns the nodal GridFunction on the path's grid when `points` is
    omitted, else the values at `points`.
    """
    density = step_noise(path).values
    if points is None:
        values = greens_cell_integrals(path.grid.nodes(), path.grid) @ density
        return GridFunction(path.grid, values, kind="nodal")
    return greens_cell_integrals(np.asarray(points, dtype=float), path.grid) @ density


def simpson_l2_error(f, g):
    """L2 distance of two grid functions (rows of stacks) by cellwise Simpson.

    On their least common refinement the difference is linear per cell, so
    Simpson's rule on its square, with both functions sampled at every
    fine cell's left end, midpoint and right end (one-sided at jumps), is
    exact.
    """
    fine = UniformGrid(math.lcm(f.grid.n, g.grid.n))
    nodes = fine.nodes()
    points = (nodes[:-1], 0.5 * (nodes[:-1] + nodes[1:]), nodes[1:])

    def samples(fn):
        if fn.kind == "cell":
            return [np.repeat(fn.values, fine.n // fn.grid.n, axis=-1)] * 3
        return [fn(x) for x in points]

    cellwise = 0.0
    for weight, fs, gs in zip((1.0, 4.0, 1.0), samples(f), samples(g)):
        cellwise = cellwise + weight * (fs - gs) ** 2
    return np.sqrt(fine.h / 6.0 * np.sum(cellwise, axis=-1))


def slope_h1_seminorm(f):
    """L2 norm of a nodal grid function's derivative from its slopes, row by row."""
    dv = np.diff(f.values, axis=-1)
    return np.sqrt(np.sum(dv * dv, axis=-1) / f.grid.h)


def slope_h1_error(f, g):
    """L2 distance of two nodal grid functions' derivatives, row by row.

    Both slope sequences are repeated onto the least common refinement.
    """
    fine = UniformGrid(math.lcm(f.grid.n, g.grid.n))
    slopes = [np.repeat(np.diff(fn.values, axis=-1) / fn.grid.h, fine.n // fn.grid.n, axis=-1)
              for fn in (f, g)]
    return np.sqrt(fine.h * np.sum((slopes[0] - slopes[1]) ** 2, axis=-1))
