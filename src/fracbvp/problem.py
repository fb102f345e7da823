"""Problem data for -u'' + f(x, u) = g + noise on (0, 1), u(0) = u(1) = 0.

The reaction term f must satisfy f(x, 0) = 0 exactly (ProblemSpec checks
it when it is built), a one-sided (monotonicity) condition
(f(x,r) - f(x,s))(r - s) >= -L (r-s)^2 with L < 2, and linear growth
|f(x,r) - f(x,s)| <= beta (1 + |r-s|).  The constant 2 is the coercivity
constant of the Green's operator on (0, 1); both solvers are well posed
exactly when L stays below it.

Both solvers are one fixed-point iteration on the mild form
u + K f(., u) = K (g + noise) at the grid nodes (damped_fixed_point),
Anderson-accelerated with depth ANDERSON_DEPTH.  Its mixing is 1 for a
Lipschitz reaction: the discrete K has L2 norm <= 1/pi^2, so the plain
map u -> K (g + noise) - K f(., u) contracts at rate <= L/pi^2.  A
monotone-only reaction takes the damped step 2/(2 + L).  The solvers
return one Solution type and differ only in the discrete Green's operator
K they pass in, the Galerkin one or the Green's-function quadrature.

A reaction with a slope at zero, c = df/dr(x, 0) (ReactionTerm.slope_at_zero),
is iterated in the shifted mild form u + K_c (f(., u) - c u) = K_c (g + noise),
K_c = (I + c K)^-1 K: the same equation, whose discrete solution is the
same, with the linear part of f moved into the operator.  The solvers build
K_c from their own K (the Galerkin solve of -u'' + c u, and its Green's
function).  The remainder f - c u has slope <= 2 L, and K_c has L2 norm
<= 1/(pi^2 - |c|), so the plain map contracts at rate <= 2 L/(pi^2 - L)
< 0.51 for any L < 2, and near the origin much faster: for sin,
|cos r - 1| <= r^2/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonConvergenceError
from .grids import UniformGrid, _linear_l2, _row_dot, gauss_values
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


# Anderson acceleration (Walker & Ni 2011) of the fixed-point step: each step
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


def _residual_norm(grid: UniformGrid, d: np.ndarray) -> np.ndarray:
    """Exact L2 norm of every nodal row of d, piecewise linear on the grid."""
    return _linear_l2(grid.h, d[:, :-1], d[:, 1:])


def _anderson_correction(df: np.ndarray, dg: np.ndarray, gram: np.ndarray, d: np.ndarray,
                         damped: np.ndarray, grew: np.ndarray, iteration: int,
                         out: np.ndarray) -> np.ndarray:
    """The Anderson correction of each row's damped step at an iteration >= 1, into out.

    df and dg (rows, depth, width) hold the rows' histories of residual and
    damped-iterate differences, gram (depth, depth, rows) their Gram
    matrices; d is the residual negated, damped the step's -theta f, and
    grew is True for the rows whose residual grew.  The newest slot,
    (iteration - 1) % depth, is completed with d and damped, its Gram
    entries and the right sides df . d are dot products along each row's
    last axis, and the correction is the slots' combination by the Gram
    solution.  All of it runs on the live slots, the first
    min(iteration, depth): the others still hold the zeros they started
    with, and would add only exact zeros.  A row restarts (its history and
    Gram matrix are zeroed and its correction is 0) when a pivot of its
    Gram system collapses, or when its residual grew and its history is
    full.  A history with an empty slot is never full, whether it still
    fills after the start or refills after a restart, or the plain damped
    steps its row takes could cycle (sqrt-clip's do).
    """
    depth = df.shape[1]
    live = min(iteration, depth)
    newest = (iteration - 1) % depth
    df[:, newest] -= d
    dg[:, newest] -= damped
    history = df[:, :live]
    gram[newest, :live] = gram[:live, newest] = _row_dot(history, df[:, newest, None]).T
    gamma, collapsed, full = _solve_gram(gram[:live, :live], _row_dot(history, d[:, None]).T)
    restart = collapsed | (full & grew) if live == depth else collapsed
    if restart.any():
        gamma[:, restart] = gram[..., restart] = 0.0
        df[restart] = dg[restart] = 0.0
    return np.einsum("rji,jr->ri", dg[:, :live], gamma, out=out)


def damped_fixed_point(problem: ProblemSpec, grid: UniformGrid, rhs: np.ndarray,
                       apply_k: Callable, tol: float, max_iters: int,
                       label: str, gauss: np.ndarray = None) -> Solution:
    """Solve u + K f(., u) = rhs at the nodes by Anderson-accelerated fixed-point steps.

    The one solver iteration; the two solvers differ only in their discrete
    Green's operator K and right-hand side.  apply_k maps values at the
    grid's Gauss points (a stack of rows) to nodal values with zero ends,
    into `out` when it is given; rhs holds nodal rows with zero ends, one
    per noise path (a 1-D rhs is a single solve).  gauss holds the grid's
    Gauss points, taken from grid.gauss_points() when it is None.  Every
    row starts from zero, whose residual is rhs exactly as f(., 0) = 0: the
    zero start calls neither the reaction nor K.

    With the reaction's shift c (ReactionTerm.shift, its slope at zero) the
    loop solves the shifted mild form u + K_c (f(., u) - c u) = rhs_c: apply_k
    and rhs must then be K_c = (I + c K)^-1 K and rhs_c = (I + c K)^-1 rhs,
    the same equation.  The reaction is still called once per step, and the
    loop subtracts c times the Gauss values itself; with c = 0 that
    subtraction does not run.  As the residual of the unshifted equation is
    (I + c K) times the loop's, and K has L2 norm <= 1/pi^2, a row stops at
    a loop residual <= tol / (1 + max(c, 0)/pi^2), which keeps
    ||u + K f(., u) - rhs|| <= tol; at c = 0 that bound is tol itself.

    The step is Anderson acceleration of depth ANDERSON_DEPTH with mixing
    theta, the reaction's step_size (1 for a Lipschitz reaction), on the
    map u -> rhs - K f(., u) (Walker & Ni, SIAM J. Numer. Anal. 49, 2011):
    with the residual f = rhs - K f(., u) - u, the step u + theta f is
    corrected by the combination of the last differences of the iterates
    u + theta f whose residual differences best cancel f.  Each row keeps
    its own history of those differences, and restarts it (one plain step)
    when a pivot of its Gram system collapses or a step taken with a full
    history lets its residual grow.  The update (_anderson_correction) runs
    on the live slots only, the first min(iteration, ANDERSON_DEPTH): the
    others still hold their starting zeros, which would add exact zeros,
    and a history with such a slot is never full.

    Only the rows still iterating are worked on, in buffers set up once per
    call, their leading rows being the active ones.  A row stops at the
    first iterate whose residual has an exact L2 norm <= tol, a rule that
    does not depend on the grid, exactly as it would alone, and is frozen
    from then on.  Each row's arithmetic is elementwise or a dot product along
    its own last axis, so every row of a stack solves bit for bit as alone.

    Returns the Solution, a residual being the L2 norm of the row's last
    residual f (of the shifted form when c != 0).  Raises ValueError for a
    negative or NaN tol, a negative max_iters, an empty stack or a
    non-finite rhs (a non-finite noise path or forcing), and
    NonConvergenceError for the first row whose residual
    turns non-finite, or else the first row still above tol after
    max_iters steps.
    """
    if not tol >= 0.0:
        raise ValueError(f"tolerance must be a number >= 0, got {tol}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    rhs_rows = np.atleast_2d(rhs)
    if not len(rhs_rows):
        raise ValueError(f"{label} got an empty stack: no right-hand side row to solve")
    finite = np.isfinite(rhs_rows).all(axis=-1)
    if not finite.all():
        raise ValueError(f"right-hand side of row {int(np.argmin(finite))} is not finite: "
                         "the noise path or the forcing holds an inf or NaN")
    if gauss is None:
        gauss = grid.gauss_points()
    theta = problem.reaction.step_size
    shift = problem.reaction.shift
    # the equation's residual is (I + c K) times the loop's, and K has L2
    # norm <= 1/pi^2, so this bound on the loop's keeps it within tol
    tol = tol / (1.0 + max(shift, 0.0) / math.pi ** 2)
    depth = ANDERSON_DEPTH
    size, width = rhs_rows.shape
    # Slot j % depth of a history holds the differences between iterates j
    # and j + 1: filled with iterate j's terms at step j, completed at step
    # j + 1, overwritten at step j + depth.  The histories, the scratch
    # buffer (Gauss values, consumed by K, then -theta f and the history's
    # combination), the defects and the iterates and right sides of the
    # rows still going are one allocation, made before the result: as
    # separate arrays, freed and regrown on every solve, they cost a
    # Green's study some 50 times the minor page faults per op.
    history = size * depth * width
    spare = size * max(width, 2 * grid.n)
    work = np.zeros(2 * history + spare + 3 * size * width)
    f_history = work[:history].reshape(size, depth, width)  # differences of the residuals f
    # differences of the damped iterates u + theta f
    g_history = work[history:2 * history].reshape(size, depth, width)
    scratch = work[2 * history:2 * history + spare]
    defects, iterates, targets = work[2 * history + spare:].reshape(3, size, width)
    targets[:] = rhs_rows
    gram = np.zeros((depth, depth, size))  # the rows last, for the elimination
    u = np.zeros_like(rhs_rows)
    rows = np.arange(size)
    residuals = np.full(size, math.inf)
    iterations = np.zeros(size, dtype=int)
    # iterates, right sides and last residuals of the rows in `rows`
    active, target, residual = iterates, targets, residuals.copy()
    for iteration in range(max_iters + 1):
        count = len(rows)
        # d = u + K f(., u) - rhs is the residual f negated
        if iteration:
            # f(., u) at the Gauss points is freed as soon as K has mapped it
            # (with a shift, as soon as f(., u) - c u is in the scratch)
            at_gauss = scratch[:count * 2 * grid.n].reshape(count, 2 * grid.n)
            values = problem.reaction(gauss, gauss_values(active, out=at_gauss))
            if shift:
                # f(., u) - c u, into the scratch; a reaction that returned
                # (a view of) its argument is copied before it is scaled
                if np.may_share_memory(values, at_gauss):
                    values = values.copy()
                if shift != 1.0:  # u times 1.0 is u, bit for bit
                    at_gauss *= shift
                values = np.subtract(values, at_gauss, out=at_gauss)
            d = apply_k(values, out=defects[:count])
            del values
            d += active
            d -= target
        else:
            # the zero start needs no reaction or K: f(., 0) = 0, so d = -rhs
            d = np.subtract(0.0, target, out=defects[:count])
        residual, last = _residual_norm(grid, d), residual
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
            rows, residual, last = (array[going] for array in (rows, residual, last))
            gram = gram[..., going]
            # the kept rows move up within their buffers, so no copy outlives the step
            for buffer in (iterates, targets, defects, f_history, g_history):
                buffer[:len(rows)] = buffer[:count][going]
            count = len(rows)
            if not count:
                return Solution(grid, u.reshape(np.shape(rhs)), residuals, iterations)
            active, target, d = iterates[:count], targets[:count], defects[:count]
        if iteration == max_iters:
            break
        df, dg = f_history[:count], g_history[:count]
        oldest = iteration % depth
        step_out = scratch[:count * width].reshape(count, width)
        damped = d if theta == 1.0 else np.multiply(d, theta, out=step_out)
        active -= damped  # damped is -theta f: the damped step u + theta f
        if iteration:
            # formed in the scratch, as the oldest slot may be one of its
            # terms, the correction then takes that slot
            step = dg[:, oldest] = _anderson_correction(df, dg, gram, d, damped,
                                                        residual > last, iteration, step_out)
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
        slope_at_zero: c = df/dr(x, 0), the same at every x, or None.  The
            solvers move c u into their discrete Green's operator (see
            damped_fixed_point); only a Lipschitz reaction may set it, with
            |c| <= L.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    monotone_constant: float
    growth_constant: float
    lipschitz_constant: Optional[float] = None
    name: str = "custom"
    slope_at_zero: Optional[float] = None

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
        if self.slope_at_zero is not None and not (
                self.lipschitz_constant is not None
                and abs(self.slope_at_zero) <= self.lipschitz_constant):
            raise ValueError(
                f"slope at zero {self.slope_at_zero} needs a Lipschitz constant "
                f"of at least its size, got {self.lipschitz_constant}"
            )

    def __call__(self, x, r) -> np.ndarray:
        return self.fn(np.asarray(x, dtype=float), np.asarray(r, dtype=float))

    @property
    def step_size(self) -> float:
        """Mixing theta of the fixed-point steps: 1 for a Lipschitz reaction.

        The discrete Green's operator has L2 norm <= 1/pi^2 (the Galerkin
        eigenvalues of -d^2/dx^2 are >= pi^2), so with a Lipschitz constant
        L < 2 the undamped map u -> rhs - K f(., u) contracts at rate
        <= L/pi^2 < 0.21, and its shifted form (slope_at_zero) at rate
        <= 2 L/(pi^2 - L) < 0.51.  A monotone-only reaction takes the
        damped step theta = min(1, 2/(2 + L)) with L = max(monotone, growth
        constant):
        its local slope can be unbounded (sqrt-clip at the origin), and the
        undamped iteration then oscillates around zero crossings instead of
        converging.
        """
        if self.lipschitz_constant is not None:
            return 1.0
        slope = max(self.monotone_constant, self.growth_constant, 0.0)
        return min(1.0, COERCIVITY / (COERCIVITY + slope))

    @property
    def shift(self) -> float:
        """The slope c moved into the solvers' Green's operator: slope_at_zero, or 0."""
        return float(self.slope_at_zero or 0.0)

    def spot_check(self, rng: np.random.Generator) -> None:
        """Randomized check of f(x,0)=0, the one-sided bound, growth, and the slope at zero."""
        trials = 200  # random points (x, r, s), each condition tested at all of them
        x = rng.uniform(0.0, 1.0, size=trials)
        r = rng.normal(scale=5.0, size=trials)
        s = rng.normal(scale=5.0, size=trials)
        # exactly zero: the fixed-point loop takes the defect of its zero start as -rhs
        if np.any(self(x, np.zeros(trials)) != 0.0):
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
        if self.slope_at_zero is not None:
            # central differences at r = 0, exact to about 1e-10 for a smooth f
            step = np.full(trials, 1e-6)
            slopes = (self(x, step) - self(x, -step)) / (2.0 * step)
            if np.any(np.abs(slopes - self.slope_at_zero) > 1e-6):
                raise AssertionError(f"{self.name}: slope at zero is not {self.slope_at_zero}")


def zero_reaction() -> ReactionTerm:
    return ReactionTerm(lambda x, r: np.zeros_like(r), 0.0, 0.0, 0.0, name="zero")


def linear_reaction(slope: float) -> ReactionTerm:
    """f(x, r) = slope * r; requires |slope| < 2 so both solvers contract.

    Its slope at zero is left unset although it is known: moved into K it
    would solve the equation in one step, and the linear reactions are the
    ones whose rows exercise the acceleration's history over several steps
    (the stacked-solve tests rely on their rows stopping at different steps).
    """
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
        slope_at_zero=1.0,
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

    def __post_init__(self):
        # the solver loop takes its zero start's defect as -rhs without calling
        # the reaction, which is right only if f(., 0) vanishes exactly
        x = np.linspace(0.0, 1.0, 65)
        if np.any(self.reaction(x, np.zeros_like(x)) != 0.0):
            raise ValueError(f"reaction {self.reaction.name!r} has f(x, 0) != 0; "
                             "the problem needs f(x, 0) = 0 exactly")

    @classmethod
    def from_labels(cls, hurst, reaction: str, forcing: str) -> "ProblemSpec":
        return cls(
            hurst=_as_hurst(hurst),
            reaction=make_reaction(reaction),
            forcing=make_forcing(forcing),
        )
