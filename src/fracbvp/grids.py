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


def _require_unit_interval(what: str, *points) -> None:
    """ValueError "<what> must lie in [0, 1]" unless every point does; NaN does not."""
    for x in map(np.asarray, points):
        if not np.all((x >= 0.0) & (x <= 1.0)):
            raise ValueError(f"{what} must lie in [0, 1]")


# einsum reduces in buffers of 8192 elements and may split a stack's rows
# otherwise than a row alone; so may it sum a strided last axis.
_DOT_BLOCK = 8192


def _row_dot(a: np.ndarray, b: np.ndarray):
    """Dot product along the last axis, one per row of a (broadcast) stack.

    Taken by einsum's own loops (no BLAS) in blocks of _DOT_BLOCK added in
    order, a strided last axis made contiguous, so each row rounds as alone.
    """
    if a.strides[-1] != a.itemsize:
        a = np.ascontiguousarray(a)
    if b.strides[-1] != b.itemsize:
        b = np.ascontiguousarray(b)
    if a.shape[-1] <= _DOT_BLOCK:
        return np.einsum("...i,...i->...", a, b)
    dots = [np.einsum("...i,...i->...", a[..., k:k + _DOT_BLOCK], b[..., k:k + _DOT_BLOCK])
            for k in range(0, a.shape[-1], _DOT_BLOCK)]
    return sum(dots[1:], dots[0])


def _shifted_stiffness(grid: UniformGrid, shift: float):
    """(q, s) of the shifted stiffness A + shift M of the interior nodes.

    A = tridiag(-1, 2, -1)/h is the stiffness and M = h tridiag(1, 4, 1)/6
    the P1 mass, so A + c M = s tridiag(-1, beta, -1) with s = n - c h/6
    and beta = 2 + 2 eps, eps = c h/(2 s).  q holds the n + 1 values
    q_0 = 0, q_1 = 1, q_(i+1) = beta q_i - q_(i-1): the pivots of its
    elimination are q_(i+1)/q_i, and row j of its inverse on the interior
    nodes is q_min(i,j) q_(n-max(i,j)) / (s q_n).  With beta = 2 cosh theta,
    q_i = sinh(i theta)/sinh(theta), and for c < 0, with beta = 2 cos theta,
    q_i = sin(i theta)/sin(theta).  theta is taken from eps, never from
    acosh(beta/2), which would lose eps to the rounding of beta; n theta
    stays near sqrt|c| < pi, so every q_i > 0 for |c| < 2.  c = 0 is the
    family's limit, exactly: q_i = i and s = n, the stiffness alone.
    """
    scale = grid.n - shift * grid.h / 6.0
    half = 0.25 * shift * grid.h / scale  # eps/2 = sinh^2(theta/2), or -sin^2(theta/2)
    q = np.arange(grid.n + 1.0)  # the limit at c = 0, q_i = i
    if half > 0.0:
        q = np.sinh(2.0 * math.asinh(math.sqrt(half)) * q)
    elif half < 0.0:
        q = np.sin(2.0 * math.asin(math.sqrt(-half)) * q)
    return q / q[1], scale


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
        _require_unit_interval("evaluation points", x)
        if self.kind == "cell":
            idx = np.clip(np.ceil(x * self.grid.n).astype(int) - 1, 0, self.grid.n - 1)
            return self.values[..., idx]
        nodes = self.grid.nodes()
        if self.values.ndim == 1:
            return np.interp(x, nodes, self.values)
        rows = [np.interp(x, nodes, row) for row in self.values]
        return np.reshape(rows, self.values.shape[:1] + x.shape)

    def l2_norm(self):
        """Exact L2 norm of the piecewise polynomial; one per row of a stack."""
        return _linear_l2(self.grid.h, *_cell_ends(self, self.grid))

    def h1_seminorm(self):
        """Exact L2 norm of the derivative; defined for the nodal kind only."""
        return _derivative(self).l2_norm()

    def h1_norm(self):
        norms = np.stack([self.l2_norm(), self.h1_seminorm()], axis=-1)
        return np.sqrt(_row_dot(norms, norms))


def _linear_l2(h: float, a: np.ndarray, b: np.ndarray):
    """Exact L2 norm of a function linear on each cell of width h; one per row.

    a and b hold its one-sided values at the left and right end of every
    cell, along the last axis; a linear segment squared integrates to
    h/3 (a^2 + a b + b^2), summed as the three row dots a.a + a.b + b.b.
    """
    return np.sqrt(h / 3.0 * (_row_dot(a, a) + _row_dot(a, b) + _row_dot(b, b)))


def _cell_ends(f: GridFunction, fine: UniformGrid):
    """One-sided values of f at the left and right end of every cell of `fine`.

    f's grid divides `fine`, r cells of `fine` to each of its own, so f is
    linear on every cell of `fine`: a cell f repeats each value r times, and
    a nodal f takes v_k + (v_(k+1) - v_k) (j/r) at node k r + j, by one
    broadcast over (rows, cells, r), and v_n at the last node.  On dyadic
    grids that is np.interp's value bit for bit, the same product rounded once.
    """
    r = fine.n // f.grid.n
    if f.kind == "cell":
        values = np.repeat(f.values, r, axis=-1)
        return values, values
    values = f.values
    if r > 1:
        inner = np.diff(values, axis=-1)[..., None] * (np.arange(r) / r)
        inner += values[..., :-1, None]
        values = np.concatenate([inner.reshape(values.shape[:-1] + (fine.n,)),
                                 values[..., -1:]], axis=-1)
    return values[..., :-1], values[..., 1:]


def _derivative(f: GridFunction) -> GridFunction:
    """The piecewise constant derivative of a nodal grid function, row by row."""
    if f.kind != "nodal":
        raise ValueError("H1 quantities require nodal (piecewise linear) functions")
    return GridFunction(f.grid, np.diff(f.values, axis=-1) / f.grid.h, kind="cell")


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


def discrete_l2_error(f: GridFunction, g: GridFunction):
    """Exact L2 distance between two grid functions, row by row for stacks.

    The grids need not match; the difference is linear on every cell of
    the least common refinement, and integrated there exactly.  A stack of
    functions gives one distance per row.
    """
    fine = UniformGrid(math.lcm(f.grid.n, g.grid.n))
    (f_left, f_right), (g_left, g_right) = _cell_ends(f, fine), _cell_ends(g, fine)
    return _linear_l2(fine.h, f_left - g_left, f_right - g_right)


def discrete_h1_error(f: GridFunction, g: GridFunction):
    """Exact L2 distance between the derivatives of two nodal grid functions.

    Row by row for stacks, like discrete_l2_error.
    """
    return discrete_l2_error(_derivative(f), _derivative(g))
