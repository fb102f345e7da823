"""Problem data for -u'' + f(x, u) = g + noise on (0, 1), u(0) = u(1) = 0.

The reaction term f must satisfy f(x, 0) = 0, a one-sided (monotonicity)
condition (f(x,r) - f(x,s))(r - s) >= -L (r-s)^2 with L < 2, and linear
growth |f(x,r) - f(x,s)| <= beta (1 + |r-s|).  The constant 2 is the
coercivity constant of the Green's operator on (0, 1); both solvers are
well posed exactly when L stays below it.

Both solvers are one fixed-point iteration on the mild form
u + K f(., u) = K (g + noise) at the grid nodes (damped_fixed_point): the
damped step, Anderson-accelerated with depth ANDERSON_DEPTH.  They return
one Solution type and differ only in the discrete Green's operator K they
pass in, the Galerkin one or the Green's-function quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonConvergenceError
from .grids import GridFunction, UniformGrid, _linear_l2, gauss_values
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
    def grid_function(self) -> GridFunction:
        return GridFunction(self.grid, self.values, kind="nodal")


# Anderson acceleration (Walker & Ni 2011) of the damped step: each step
# mixes in the residual differences of up to this many earlier steps.
ANDERSON_DEPTH = 3
# The Gram system of a row is solved with this multiple of its trace added
# to the diagonal (Tikhonov), and its history restarts when an elimination
# pivot falls to this share of the pivot's diagonal entry.
_TIKHONOV = 1e-12
_PIVOT_FLOOR = 1e-10


def _solve_gram(gram: np.ndarray, right: np.ndarray):
    """Solve the Gram systems gram[:, :, r] c = right[:, r] of rows r.

    The rows are the last axis.  Each system gets a Tikhonov term, its trace
    times _TIKHONOV, and is solved by Gauss-Jordan elimination without
    pivoting, elementwise over the rows, so every row is solved by the same
    arithmetic as when it is alone.  An empty slot, a zero diagonal entry,
    gets a unit one, so its coefficient is 0.

    Returns (c, collapsed, full): the solutions, True for the rows an
    elimination pivot fell to _PIVOT_FLOOR of its diagonal entry in, and
    True for the rows without an empty slot.
    """
    depth = len(gram)
    system = np.empty((depth, depth + 1, gram.shape[-1]))
    system[:, :depth] = gram
    system[:, depth] = right
    diagonal = system.reshape(-1, gram.shape[-1])[::depth + 2]
    empty = diagonal == 0.0
    trace = np.add.reduce(diagonal, axis=0)
    diagonal += empty
    diagonal += _TIKHONOV * trace
    floor = _PIVOT_FLOOR * diagonal
    pivots = np.empty_like(floor)
    for p in range(depth):
        pivots[p] = system[p, p]
        pivot_row = system[p] / system[p, p]
        system -= system[:, p, None] * pivot_row
        system[p] = pivot_row
    return system[:, depth], (pivots <= floor).any(axis=0), ~empty.any(axis=0)


def damped_fixed_point(problem: ProblemSpec, grid: UniformGrid, rhs: np.ndarray,
                       apply_k: Callable, tol: float, max_iters: int,
                       label: str) -> Solution:
    """Solve u + K f(., u) = rhs at the nodes by Anderson-accelerated damped steps.

    The one solver iteration; the two solvers differ only in their discrete
    Green's operator K and right-hand side.  apply_k maps values at the
    grid's Gauss points (a stack of rows) to nodal values with zero ends,
    into `out` when it is given; rhs holds nodal rows with zero ends, one
    per noise path (a 1-D rhs is a single solve).  Every row starts from
    zero.

    The step is Anderson acceleration of depth ANDERSON_DEPTH with mixing
    theta, the reaction's step_size, on the map u -> rhs - K f(., u)
    (Walker & Ni, SIAM J. Numer. Anal. 49, 2011): with the residual
    f = rhs - K f(., u) - u, the damped step u + theta f is corrected by the
    combination of the last differences of the damped iterates u + theta f
    whose residual differences best cancel f.  Each row keeps its own
    history of those differences, and restarts it (one plain damped step)
    when a pivot of its Gram system collapses or a step taken with a full
    history lets its residual grow.

    Only the rows still iterating are worked on, in buffers set up once per
    call, their leading rows being the active ones.  A row stops at the
    first iterate whose residual has an exact L2 norm <= tol, a rule that
    does not depend on the grid, exactly as it would alone, and is frozen
    from then on.  Each row's arithmetic is elementwise or a sum along its
    own last axis, so every row of a stack solves bit for bit as alone.

    Returns the Solution, a residual being the L2 norm of the row's last
    residual f.  Raises ValueError for a negative or NaN tol, a negative
    max_iters or a non-finite rhs (a non-finite noise path or forcing), and
    NonConvergenceError for the first row whose residual turns non-finite,
    or else the first row still above tol after max_iters steps.
    """
    if not tol >= 0.0:
        raise ValueError(f"tolerance must be a number >= 0, got {tol}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    rhs_rows = np.atleast_2d(rhs)
    finite = np.isfinite(rhs_rows).all(axis=-1)
    if not finite.all():
        raise ValueError(f"right-hand side of row {int(np.argmin(finite))} is not finite: "
                         "the noise path or the forcing holds an inf or NaN")
    gauss = grid.gauss_points()
    theta = problem.reaction.step_size
    depth = ANDERSON_DEPTH
    size, width = rhs_rows.shape
    # Slot j % depth of a history holds the differences between iterates j
    # and j + 1: filled with iterate j's terms at step j, completed at step
    # j + 1, overwritten at step j + depth.  The histories,
    # the scratch buffer (Gauss values, consumed by K, and then the products
    # of the Gram update) and the defects are one allocation, made before
    # the iterates: as separate arrays, freed and regrown on every solve,
    # they cost a Green's study some 50 times the minor page faults per op.
    history = size * depth * width
    spare = size * max(depth * width, 2 * grid.n)
    work = np.zeros(2 * history + spare + size * width)
    f_history = work[:history].reshape(size, depth, width)  # differences of the residuals f
    # differences of the damped iterates u + theta f
    g_history = work[history:2 * history].reshape(size, depth, width)
    scratch = work[2 * history:2 * history + spare]
    defects = work[2 * history + spare:].reshape(size, width)
    gram = np.zeros((depth, depth, size))  # the rows last, for the elimination
    u = np.zeros_like(rhs_rows)
    rows = np.arange(size)
    residuals = np.full(size, math.inf)
    iterations = np.zeros(size, dtype=int)
    # iterates, right sides and last residuals of the rows in `rows`
    active, target, residual = u, rhs_rows, residuals.copy()
    for iteration in range(max_iters + 1):
        count = len(rows)
        # f(., u) at the Gauss points is freed as soon as K has mapped it;
        # d = u + K f(., u) - rhs is the residual f negated
        at_gauss = scratch[:count * 2 * grid.n].reshape(count, 2 * grid.n)
        d = apply_k(problem.reaction(gauss, gauss_values(active, out=at_gauss)),
                    out=defects[:count])
        d += active
        d -= target
        residual, last = _linear_l2(grid.h, d[:, :-1], d[:, 1:]), residual
        finite = np.isfinite(residual)
        if not finite.all():
            raise NonConvergenceError(
                f"{label} reached a non-finite residual at iteration {iteration}",
                residual=math.nan, iterations=iteration, row=int(rows[np.argmin(finite)]))
        going = residual > tol
        if not going.all():
            u[rows] = active
            residuals[rows] = residual
            iterations[rows] = iteration
            rows, active, target, residual, last, d = (
                array[going] for array in (rows, active, target, residual, last, d))
            gram = gram[..., going]
            for history in (f_history, g_history):
                history[:len(rows)] = history[:count][going]
            count = len(rows)
            if not count:
                return Solution(grid, u.reshape(np.shape(rhs)), residuals, iterations)
        if iteration == max_iters:
            break
        pairs = scratch[:count * depth * width].reshape(count, depth, width)
        df, dg = f_history[:count], g_history[:count]
        newest, oldest = (iteration - 1) % depth, iteration % depth
        damped = np.multiply(d, theta, out=pairs[:, 0])  # -theta f
        active -= damped  # the damped step u + theta f
        if iteration:
            df[:, newest] -= d
            dg[:, newest] -= damped
            # the newest slot's Gram entries and the right sides df . d, as
            # sums along each row's last axis
            np.multiply(df, df[:, newest, None], out=pairs)
            gram[newest] = gram[:, newest] = np.add.reduce(pairs, axis=-1).T
            np.multiply(df, d[:, None], out=pairs)
            gamma, collapsed, full = _solve_gram(gram, np.add.reduce(pairs, axis=-1).T)
            # a full history whose step let the residual grow restarts; a row
            # still refilling its history after a restart does not, or the
            # plain damped steps it takes could cycle (sqrt-clip's do)
            restart = collapsed | (full & (residual > last))
            if restart.any():
                gamma[:, restart] = gram[..., restart] = 0.0
                df[restart] = dg[restart] = 0.0
            # the combination of the history corrects the damped step, and
            # goes to the oldest slot, which no longer takes part
            np.multiply(dg, gamma.T[:, :, None], out=pairs)
            step = dg[:, oldest]
            np.copyto(step, pairs[:, 0])
            for j in range(1, depth):
                step += pairs[:, j]
            active += step
        df[:, oldest] = d
    residuals[rows] = residual
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
