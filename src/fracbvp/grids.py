"""Uniform grids on [0, 1] and exact norms of piecewise polynomial functions.

Everything downstream (noise paths, both solvers, the convergence harness)
shares these two types.  Grid functions are either piecewise linear in the
nodal values ("nodal") or piecewise constant on the cells ("cell"); norms and
errors are computed exactly for those classes, never by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GAUSS_OFFSETS",
    "UniformGrid",
    "GridFunction",
    "discrete_l2_error",
    "discrete_h1_error",
    "gauss_values",
]

# local coordinates of the two-point Gauss rule on each cell
GAUSS_OFFSETS = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


@dataclass(frozen=True)
class UniformGrid:
    """Uniform partition of [0, 1] into n cells of width h = 1/n."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise TypeError(f"cell count must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"cell count must be >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def nodes(self) -> np.ndarray:
        """All n+1 nodes including both endpoints; exact 0.0 and 1.0 ends."""
        return np.linspace(0.0, 1.0, self.n + 1)

    def midpoints(self) -> np.ndarray:
        nodes = self.nodes()
        return 0.5 * (nodes[:-1] + nodes[1:])

    def gauss_points(self) -> np.ndarray:
        """All 2n Gauss points, cell-major: (i, 0) then (i, 1) for cell i."""
        left = self.nodes()[:-1]
        pts = np.empty(2 * self.n)
        pts[0::2] = left + GAUSS_OFFSETS[0] * self.h
        pts[1::2] = left + GAUSS_OFFSETS[1] * self.h
        return pts

    def divides(self, finer: "UniformGrid") -> bool:
        """True if every cell of this grid is a union of cells of `finer`."""
        return finer.n % self.n == 0


def _row_sums(values: np.ndarray):
    """np.sum of one function's values, or of each row of a stack.

    A last-axis sum of a C-contiguous stack rounds every row exactly as the
    1-D np.sum of that row; a strided last axis may be summed in another
    order, so the stack is made contiguous first.
    """
    return np.sum(np.ascontiguousarray(values), axis=-1)


@dataclass(frozen=True)
class GridFunction:
    """Piecewise polynomial function attached to a uniform grid, or a stack of them.

    kind "nodal": piecewise linear, `values` holds the n+1 nodal values.
    kind "cell": piecewise constant, `values` holds the n cell values, with
    the convention that cell i covers (x_i, x_{i+1}] and the value at x=0 is
    the first cell's.
    A 2-D `values` holds one function per row; evaluations and norms then
    return one row, or one number, per function.
    """

    grid: UniformGrid
    values: np.ndarray
    kind: str = "nodal"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        expected = self.grid.n + 1 if self.kind == "nodal" else self.grid.n
        if self.kind not in ("nodal", "cell"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if values.ndim not in (1, 2) or values.shape[-1] != expected:
            raise ValueError(
                f"{self.kind} function on {self.grid.n} cells needs "
                f"{expected} values per row, got shape {values.shape}"
            )
        object.__setattr__(self, "values", values)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise ValueError("evaluation points must lie in [0, 1]")
        if self.kind == "nodal":
            return self._interp(x)
        idx = np.clip(np.ceil(x * self.grid.n).astype(int) - 1, 0, self.grid.n - 1)
        return self.values[..., idx]

    def _interp(self, x: np.ndarray) -> np.ndarray:
        """np.interp(x, nodes, row) for every row at once, with np.interp's arithmetic.

        x_j <= x < x_{j+1} picks the segment; a hit on a node, the right
        end included, takes the nodal value as it is, and any other point
        slope_j * (x - x_j) + v_j, the slope being (v_{j+1} - v_j) /
        (x_{j+1} - x_j), so every row rounds exactly as np.interp rounds it.
        """
        nodes, v = self.grid.nodes(), self.values
        j = np.searchsorted(nodes, x, side="right") - 1
        hit = nodes[j] == x
        seg = np.minimum(j, self.grid.n - 1)
        slopes = (v[..., 1:] - v[..., :-1]) / (nodes[1:] - nodes[:-1])
        out = slopes[..., seg] * (x - nodes[seg]) + v[..., seg]
        out = np.where(hit, v[..., j], out)
        return out[()] if out.ndim == 0 else out

    def l2_norm(self):
        """Exact L2 norm of the piecewise polynomial; one per row of a stack."""
        h, v = self.grid.h, self.values
        if self.kind == "cell":
            return np.sqrt(h * _row_sums(v * v))
        # int of a linear segment squared: h/3 (a^2 + a b + b^2)
        a, b = v[..., :-1], v[..., 1:]
        return np.sqrt(h / 3.0 * _row_sums(a * a + a * b + b * b))

    def h1_seminorm(self):
        """Exact L2 norm of the derivative; defined for the nodal kind only."""
        if self.kind != "nodal":
            raise ValueError("piecewise constant functions have no H1 seminorm")
        dv = np.diff(self.values, axis=-1)
        return np.sqrt(_row_sums(dv * dv) / self.grid.h)

    def h1_norm(self):
        norms = np.stack([self.l2_norm(), self.h1_seminorm()], axis=-1)
        return np.sqrt(_row_sums(norms * norms))


def gauss_values(nodal: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Piecewise linear interpolant of n+1 nodal values at the 2n Gauss points.

    Works along the last axis, so a stack of nodal rows maps row by row;
    the result goes to `out` when it is given.
    """
    t_lo, t_hi = GAUSS_OFFSETS
    left, right = nodal[..., :-1], nodal[..., 1:]
    if out is None:
        out = np.empty(left.shape[:-1] + (2 * left.shape[-1],))
    out[..., 0::2] = (1.0 - t_lo) * left + t_lo * right
    out[..., 1::2] = (1.0 - t_hi) * left + t_hi * right
    return out


def _segment_samples(f: GridFunction, fine: UniformGrid):
    """Left/mid/right values of f on each cell of `fine` (one-sided at jumps).

    Requires f's grid to divide `fine`, so f is a polynomial on every fine
    cell and cellwise Simpson on the difference of two such functions is
    exact.
    """
    if not f.grid.divides(fine):
        raise ValueError(
            f"grid with {f.grid.n} cells does not divide the common "
            f"refinement with {fine.n} cells"
        )
    if f.kind == "cell":
        parent = np.arange(fine.n) // (fine.n // f.grid.n)
        vals = f.values[..., parent]
        return vals, vals, vals
    nodes = fine.nodes()
    # evaluated one at a time, so a stack holds one set of samples at once
    return (f(x) for x in (nodes[:-1], fine.midpoints(), nodes[1:]))


def discrete_l2_error(f: GridFunction, g: GridFunction):
    """Exact L2 distance between two grid functions, row by row for stacks.

    The grids need not match; the difference is integrated on the least
    common refinement, where it is polynomial of degree <= 1 per cell and
    cellwise Simpson is exact.  A stack of functions gives one distance per
    row.
    """
    fine = UniformGrid(math.lcm(f.grid.n, g.grid.n))
    # Simpson weights 1, 4, 1 on the left ends, midpoints and right ends
    cellwise = 0.0
    for weight, fs, gs in zip((1.0, 4.0, 1.0), _segment_samples(f, fine),
                              _segment_samples(g, fine)):
        d = fs - gs
        cellwise = cellwise + weight * d * d
    return np.sqrt(np.maximum(fine.h / 6.0 * _row_sums(cellwise), 0.0))


def discrete_h1_error(f: GridFunction, g: GridFunction):
    """Exact L2 distance between the derivatives of two nodal grid functions.

    Row by row for stacks, like discrete_l2_error.
    """
    if f.kind != "nodal" or g.kind != "nodal":
        raise ValueError("H1 distance requires nodal (piecewise linear) functions")
    fine = UniformGrid(math.lcm(f.grid.n, g.grid.n))
    slopes = []
    for fn in (f, g):
        factor = fine.n // fn.grid.n
        s = np.repeat(np.diff(fn.values, axis=-1) / fn.grid.h, factor, axis=-1)
        slopes.append(s)
    ds = slopes[0] - slopes[1]
    return np.sqrt(fine.h * _row_sums(ds * ds))
