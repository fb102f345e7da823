"""Problem data for -u'' + f(x, u) = g + noise on (0, 1), u(0) = u(1) = 0.

The reaction term f must satisfy f(x, 0) = 0, a one-sided (monotonicity)
condition (f(x,r) - f(x,s))(r - s) >= -L (r-s)^2 with L < 2, and linear
growth |f(x,r) - f(x,s)| <= beta (1 + |r-s|).  The constant 2 is the
coercivity constant of the Green's operator on (0, 1); both solvers are
well posed exactly when L stays below it.

Both solvers are one damped fixed-point iteration on the mild form
u + K f(., u) = K (g + noise) at the grid nodes (damped_fixed_point), and
return one Solution type; they differ only in the discrete Green's operator
K they pass in, the Galerkin one or the Green's-function quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonConvergenceError
from .grids import GridFunction, UniformGrid, gauss_values
from .noise import HurstIndex, _as_hurst

__all__ = [
    "COERCIVITY",
    "FORCINGS",
    "REACTIONS",
    "ProblemSpec",
    "ReactionTerm",
    "Solution",
    "damped_fixed_point",
    "linear_reaction",
    "make_forcing",
    "make_reaction",
    "sin_reaction",
    "sqrt_clip_reaction",
    "zero_reaction",
]

# (K phi, phi) >= COERCIVITY * ||K phi||^2 for the Green's operator of -u''.
COERCIVITY = 2.0


@dataclass(frozen=True)
class Solution:
    """Nodal solution on a grid, zero boundary data included; either solver's result.

    For a stack of noise paths `values` holds one solution per row;
    row_residuals and row_iterations hold every row's final residual and
    iteration count (one entry for a single solve).
    """

    grid: UniformGrid
    values: np.ndarray
    row_residuals: np.ndarray
    row_iterations: np.ndarray

    @property
    def residual(self) -> float:
        """Final residual; the largest over the rows of a stack."""
        return float(self.row_residuals.max())

    @property
    def iterations(self) -> int:
        """Iteration count; the sum over the rows of a stack."""
        return int(self.row_iterations.sum())

    @property
    def interior(self) -> np.ndarray:
        return self.values[..., 1:-1]

    @property
    def nodal_values(self) -> np.ndarray:
        return self.values

    @property
    def grid_function(self) -> GridFunction:
        return GridFunction(self.grid, self.values, kind="nodal")


def damped_fixed_point(problem: ProblemSpec, grid: UniformGrid, rhs: np.ndarray,
                       apply_k: Callable, tol: float, max_iters: int,
                       label: str) -> Solution:
    """Solve u + K f(., u) = rhs at the nodes by u <- u - theta (u + K f(., u) - rhs).

    The one solver iteration; the two solvers differ only in their discrete
    Green's operator K and right-hand side.  apply_k maps values at the
    grid's Gauss points (a stack of rows) to nodal values with zero ends,
    into `out` when it is given; rhs holds nodal rows with zero ends, one
    per noise path (a 1-D rhs is a single solve).  theta is the reaction's
    step_size, and every row starts from zero.  Only the rows still
    iterating are worked on, in Gauss-value and defect buffers set up once
    per call, their leading rows being the active ones.  A row stops at the
    first iterate whose step has an exact L2 norm <= tol, a rule that does
    not depend on the grid (the step of a contraction bounds the distance
    to its fixed point), exactly as it would alone, and is frozen from then
    on.

    Returns the Solution, a residual being the L2 norm of the row's last
    step.  Raises ValueError for a negative or NaN tol or a negative
    max_iters, and NonConvergenceError for the first row still above tol
    after max_iters steps.
    """
    if not tol >= 0.0:
        raise ValueError(f"tolerance must be a number >= 0, got {tol}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    rhs_rows = np.atleast_2d(rhs)
    gauss = grid.gauss_points()
    theta = problem.reaction.step_size
    # the buffers before the iterates: allocated after them, they cost a
    # Green's study 2.4 times the minor page faults per op
    at_gauss = np.empty((len(rhs_rows), 2 * grid.n))
    defects = np.empty_like(rhs_rows)
    u = np.zeros_like(rhs_rows)
    rows = np.arange(len(u))
    residuals = np.full(len(u), math.inf)
    iterations = np.zeros(len(u), dtype=int)
    active = u  # iterates of the rows in `rows`
    for iteration in range(max_iters + 1):
        # f(., u) at the Gauss points is freed as soon as K has mapped it
        d = apply_k(problem.reaction(gauss, gauss_values(active, out=at_gauss[:len(rows)])),
                    out=defects[:len(rows)])
        d += active  # u + K f(., u), summed in either order alike
        d -= rhs_rows[rows]
        # u + theta * (-d) rounds exactly like u - theta * d, and -d has the norm of d
        step = np.negative(d)
        residual = GridFunction(grid, step).l2_norm()
        residuals[rows] = residual
        iterations[rows] = iteration
        going = ~(residual <= tol)  # a NaN residual keeps its row going
        if not going.all():
            u[rows] = active
            rows, active, step = rows[going], active[going], step[going]
            if not len(rows):
                return Solution(grid, u.reshape(np.shape(rhs)), residuals, iterations)
        if iteration < max_iters:
            step *= theta
            active += step
    row = int(rows[0])
    raise NonConvergenceError(
        f"{label} stalled at residual {residuals[row]:.3e} after {max_iters} iterations",
        residual=float(residuals[row]),
        iterations=max_iters,
        row=row,
    )


@dataclass(frozen=True)
class ReactionTerm:
    """Reaction nonlinearity with its structure constants.

    Attributes:
        fn: vectorized callable f(x, r).
        monotone_constant: smallest L with (f(x,r)-f(x,s))(r-s) >= -L(r-s)^2.
        growth_constant: beta in |f(x,r)-f(x,s)| <= beta (1 + |r-s|).
        lipschitz_constant: global Lipschitz constant in r, or None.
        name: registry label used in reports.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    monotone_constant: float
    growth_constant: float
    lipschitz_constant: Optional[float] = None
    name: str = "custom"

    def __post_init__(self):
        if self.monotone_constant >= COERCIVITY:
            raise ValueError(
                f"one-sided constant {self.monotone_constant} must stay below "
                f"the coercivity constant {COERCIVITY}"
            )
        if self.lipschitz_constant is not None and self.lipschitz_constant >= COERCIVITY:
            raise ValueError(
                f"Lipschitz constant {self.lipschitz_constant} must stay below "
                f"the coercivity constant {COERCIVITY}"
            )

    def __call__(self, x, r) -> np.ndarray:
        return self.fn(np.asarray(x, dtype=float), np.asarray(r, dtype=float))

    @property
    def damping_constant(self) -> float:
        """Constant entering the damped-iteration step size.

        Without a Lipschitz constant the growth constant stands in: a
        monotone-only reaction can have unbounded local slope (sqrt-clip at
        the origin), and the undamped iteration then oscillates around zero
        crossings instead of converging.
        """
        if self.lipschitz_constant is not None:
            return self.lipschitz_constant
        return max(self.monotone_constant, self.growth_constant, 0.0)

    @property
    def step_size(self) -> float:
        """Damped-iteration step theta = min(1, 2/(2 + L)), L the damping constant."""
        return min(1.0, COERCIVITY / (COERCIVITY + self.damping_constant))

    def spot_check(self, rng: np.random.Generator, trials: int = 200) -> None:
        """Randomized check of f(x,0)=0, the one-sided bound, and growth."""
        x = rng.uniform(0.0, 1.0, size=trials)
        r = rng.normal(scale=5.0, size=trials)
        s = rng.normal(scale=5.0, size=trials)
        zeros = self(x, np.zeros(trials))
        if np.any(np.abs(zeros) > 1e-12):
            raise AssertionError(f"{self.name}: f(x, 0) != 0")
        df = self(x, r) - self(x, s)
        slack = 1e-9 * (1.0 + (r - s) ** 2)
        if np.any(df * (r - s) < -self.monotone_constant * (r - s) ** 2 - slack):
            raise AssertionError(f"{self.name}: one-sided condition violated")
        if np.any(np.abs(df) > self.growth_constant * (1.0 + np.abs(r - s)) + 1e-9):
            raise AssertionError(f"{self.name}: growth condition violated")
        if self.lipschitz_constant is not None:
            if np.any(np.abs(df) > self.lipschitz_constant * np.abs(r - s) + 1e-9):
                raise AssertionError(f"{self.name}: Lipschitz condition violated")


def zero_reaction() -> ReactionTerm:
    return ReactionTerm(lambda x, r: np.zeros_like(r), 0.0, 0.0, 0.0, name="zero")


def linear_reaction(slope: float) -> ReactionTerm:
    """f(x, r) = slope * r; requires |slope| < 2 so both solvers contract."""
    slope = float(slope)
    return ReactionTerm(
        lambda x, r: slope * r,
        monotone_constant=max(-slope, 0.0),
        growth_constant=abs(slope),
        lipschitz_constant=abs(slope),
        name=f"linear:{slope:g}",
    )


def sin_reaction() -> ReactionTerm:
    return ReactionTerm(
        lambda x, r: np.sin(r),
        monotone_constant=1.0,
        growth_constant=1.0,
        lipschitz_constant=1.0,
        name="sin",
    )


def sqrt_clip_reaction() -> ReactionTerm:
    """f(x, r) = sign(r) min(sqrt|r|, 1): monotone and bounded, not Lipschitz."""
    return ReactionTerm(
        lambda x, r: np.sign(r) * np.minimum(np.sqrt(np.abs(r)), 1.0),
        monotone_constant=0.0,
        growth_constant=2.0,
        lipschitz_constant=None,
        name="sqrt-clip",
    )


REACTIONS = {
    "zero": zero_reaction,
    "sin": sin_reaction,
    "sqrt-clip": sqrt_clip_reaction,
}


def make_reaction(label: str) -> ReactionTerm:
    """Reaction from a registry label: zero | linear:<slope> | sin | sqrt-clip."""
    if label in REACTIONS:
        term = REACTIONS[label]()
    elif label.startswith("linear:"):
        try:
            term = linear_reaction(float(label.split(":", 1)[1]))
        except ValueError as exc:
            raise ValueError(f"bad linear reaction label {label!r}") from exc
    else:
        choices = " | ".join([*REACTIONS, "linear:<slope>"])
        raise ValueError(f"unknown reaction {label!r}; choose from {choices}")
    term.spot_check(np.random.default_rng(0))
    return term


FORCINGS = {
    "zero": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    "one": lambda x: np.ones_like(np.asarray(x, dtype=float)),
    "sinpi": lambda x: np.sin(np.pi * np.asarray(x, dtype=float)),
}


def make_forcing(label: str) -> Callable[[np.ndarray], np.ndarray]:
    if label not in FORCINGS:
        raise ValueError(f"unknown forcing {label!r}; "
                         f"choose from {' | '.join(FORCINGS)}")
    return FORCINGS[label]


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem data; the grid travels with the noise path, not here."""

    hurst: HurstIndex
    reaction: ReactionTerm
    forcing: Callable[[np.ndarray], np.ndarray]
    reaction_label: str = ""
    forcing_label: str = ""

    @classmethod
    def from_labels(cls, hurst, reaction: str, forcing: str) -> "ProblemSpec":
        return cls(
            hurst=_as_hurst(hurst),
            reaction=make_reaction(reaction),
            forcing=make_forcing(forcing),
            reaction_label=reaction,
            forcing_label=forcing,
        )
