"""Monte Carlo convergence studies and deterministic verification checks.

Studies couple all discretization levels to one fine noise path per sample
(coarse increments are exact sums of fine ones), estimate root-mean-square
errors level by level, and fit algebraic rates by least squares in log-log
coordinates.  Consecutive samples are drawn together, as the rows of a
chunk whose fine increments stay within a fixed byte budget; every grid then
solves the chunk in blocks of rows sized by that grid, so each solver step
works on a whole block, and the coarse grids solve many rows per call.
Every study is reproducible: sample m is always sample m of the seed
(IncrementSampler.sample, which draws it from default_rng([seed, m])), each
row of a block is computed exactly as it would be alone, and accumulation
runs in sample order, so reports are byte-identical for any
--threads value, chunk size and block size (on a fixed BLAS build and BLAS
thread count, which round the Cholesky sampler's products).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import FactorizationError, GridMismatchError, NonConvergenceError
from .fem import _set_up as _fem_set_up
from .fem import ritz_projection, solve_nonlinear_fem
from .greens import _set_up as _greens_set_up
from .greens import convolution_error_second_moment, solve_hammerstein
from .grids import GridFunction, UniformGrid, discrete_h1_error, discrete_l2_error
from .noise import (
    HurstIndex,
    IncrementPath,
    IncrementSampler,
    StepFunction,
    _TILE,
    _as_hurst,
    aggregate_increments,
    fbm_covariance,
    ito_isometry,
    singular_kernel_pair_sum,
    singular_kernel_pair_sum_bound,
)
from .problem import ProblemSpec

__all__ = [
    "ConvergenceReport",
    "StudyConfig",
    "Verdict",
    "estimate_rate",
    "kernel_pair_sum_quadrature",
    "run_convergence_study",
    "run_h1_blowup_study",
    "run_superconvergence_study",
    "run_verification_suite",
    "verify_convolution_error_decay",
    "verify_isometry",
    "verify_kernel_pair_sum",
    "verify_noise_norm",
    "verify_solver_agreement",
]


@dataclass(frozen=True)
class StudyConfig:
    """Declarative description of one Monte Carlo study."""

    hurst: float
    reaction: str = "zero"
    forcing: str = "zero"
    n0: int = 16
    levels: int = 3
    ref_extra: int = 2
    samples: int = 100
    seed: int = 0
    solver: str = "fem"
    sampler: str = "cholesky"
    tol: float = 1e-10
    max_iters: int = 500

    def __post_init__(self):
        HurstIndex(self.hurst)  # range check
        for name in ("n0", "levels", "ref_extra", "samples", "seed", "max_iters"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.n0 < 2:
            raise ValueError("n0 must be >= 2 (the FEM grid needs interior nodes)")
        if self.levels < 2:
            raise ValueError("levels must be >= 2 (every study fits a rate)")
        if self.ref_extra < 1:
            raise ValueError("ref_extra must be >= 1 (the reference grid must be strictly finer)")
        if self.samples < 2:
            raise ValueError("need at least 2 samples for error bars")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not self.tol >= 0.0:
            raise ValueError(f"tol must be >= 0, got {self.tol!r}")
        if self.solver not in ("fem", "greens", "both"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.sampler not in ("cholesky", "davies-harte"):
            raise ValueError(f"unknown sampler {self.sampler!r}")

    def level_ns(self) -> list:
        return [self.n0 * 2**i for i in range(self.levels)]

    @property
    def reference_n(self) -> int:
        return self.n0 * 2 ** (self.levels - 1 + self.ref_extra)

    def to_dict(self) -> dict:
        return asdict(self)

    def problem(self) -> ProblemSpec:
        return ProblemSpec.from_labels(self.hurst, self.reaction, self.forcing)


@dataclass
class ConvergenceReport:
    """Per-level RMS errors and fitted rates, one block per solver."""

    config: StudyConfig
    results: dict  # solver -> {"levels": [...], "fitted_rate", "rate_stderr"}
    wall_time: float

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {"config": self.config.to_dict(), "results": self.results}
        if include_timing:
            out["wall_time"] = self.wall_time
        return out


def estimate_rate(hs, values) -> tuple:
    """Least-squares slope of log2(values) against log2(hs).

    Returns (slope, stderr); stderr is 0.0 with only two points.  Positive
    slopes mean decay as h decreases.
    """
    hs = np.asarray(hs, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(hs) != len(values) or len(hs) < 2:
        raise ValueError("need at least two (h, value) pairs")
    if not np.all((hs > 0.0) & (hs < np.inf) & (values > 0.0) & (values < np.inf)):
        raise ValueError("rate estimation needs finite, positive values")
    x, y = np.log2(hs), np.log2(values)
    xc = x - x.mean()
    denom = float(np.dot(xc, xc))
    if denom == 0.0:
        raise ValueError("all grid sizes equal; cannot fit a rate")
    slope = float(np.dot(xc, y)) / denom
    if len(hs) == 2:
        return slope, 0.0
    fitted = y.mean() + slope * xc
    ssr = float(np.dot(y - fitted, y - fitted))
    stderr = math.sqrt(ssr / (len(hs) - 2) / denom)
    return slope, stderr


def _level_path(fine: IncrementPath, n: int) -> IncrementPath:
    """A fine path, or a block of them, aggregated onto the level with n cells.

    The fine level is `fine` itself; every other level sums the fine
    increments directly, so coarse increments are exact sums of fine ones.
    A level that does not divide the fine grid raises GridMismatchError.
    """
    if fine.grid.n % n:
        raise GridMismatchError(f"level n={n} does not divide the fine grid n={fine.grid.n}")
    return fine if n == fine.grid.n else aggregate_increments(fine, fine.grid.n // n)


# A block's largest array, (rows, 2 n) float64 values on a grid with n cells,
# stays within this many bytes, and so do the solver loop's buffers of one row
# length, whatever the grid.  The loop holds about ten such arrays, and a
# study's peak memory is reached inside a block solve, so the budget is small;
# a grid's solver set-up is built once per _solved_blocks call, not per block,
# so more blocks cost little time.
_BLOCK_BYTES = 128 * 1024
# A chunk's fine increments, (rows, fine_n) float64 values, stay within this
# many bytes: the chunk's level solutions are of the same order, each coarse
# path is built where its level is solved, its reference solution is never
# whole (each block is measured as it is solved), and none of them grows with
# the number of samples.
_CHUNK_BYTES = 1024 * 1024


def _block_rows(n: int) -> int:
    """Rows solved together on a grid with n cells."""
    return max(1, _BLOCK_BYTES // (16 * n))


def _blocks(rows: int, n: int) -> list:
    """Slices of _block_rows(n) consecutive rows (the last may be shorter) covering `rows` rows."""
    step = _block_rows(n)
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def _chunk_rows(fine_n: int, level_ns) -> int:
    """Samples drawn together on paths with fine_n cells coupled to level_ns.

    As many as _CHUNK_BYTES of fine increments hold, capped at one block of the
    coarsest level, and at least one fine-grid block, at any thread count.
    """
    return max(_block_rows(fine_n),
               min(_block_rows(min(level_ns)), _CHUNK_BYTES // (8 * fine_n)))


def _solved_blocks(solver: str, problem: ProblemSpec, path: IncrementPath, grid=None,
                   **options):
    """Nodal solutions of a stack of paths, yielded as (rows, GridFunction) block by block.

    solve_nonlinear_fem or solve_hammerstein solves the rows in blocks of
    _block_rows(n) rows, n the solver grid's cells, all with the one solver
    set-up of the grid built here (Gauss points, forcing or stiffness, K
    map).  rows is the block's slice of the stack, and a caller that
    measures each block as it comes never holds the whole solution.  A
    stall names the solver and the grid, and carries its row in the stack.
    """
    if solver == "fem":
        solve, set_up = solve_nonlinear_fem, _fem_set_up
    else:
        solve, set_up = solve_hammerstein, _greens_set_up
    grid = grid or path.grid
    setup = set_up(problem, grid)
    for block in _blocks(len(path.increments), grid.n):
        try:
            solution = solve(problem, IncrementPath(path.grid, path.increments[block]),
                             grid=grid, setup=setup, **options)
        except NonConvergenceError as exc:
            raise NonConvergenceError(f"{solver} solver, level n={grid.n}: {exc}",
                                      exc.residual, exc.iterations,
                                      block.start + exc.row) from exc
        yield block, GridFunction(grid, solution.values)
        del solution  # only the caller may keep a block through the next solve


def _solve(solver: str, problem: ProblemSpec, path: IncrementPath, grid=None,
           **options) -> GridFunction:
    """The blocks of _solved_blocks stacked into one GridFunction, for a whole solution."""
    grid = grid or path.grid
    values = np.empty((len(path.increments), grid.n + 1))
    for block, solution in _solved_blocks(solver, problem, path, grid, **options):
        values[block] = solution.values
        del solution  # freed before the next block is solved
    return GridFunction(grid, values)


def _rows(function: GridFunction, block: slice) -> GridFunction:
    """The rows `block` of a stack of functions."""
    return GridFunction(function.grid, function.values[block], function.kind)


def _coupled_samples(statistic: Callable, config: StudyConfig, fine_n: int,
                     threads: int) -> np.ndarray:
    """Per-sample statistics of the config's coupled paths, stacked in sample order.

    Sample m < config.samples is sample m of config.seed drawn by
    config.sampler on the grid with fine_n cells (IncrementSampler.sample).
    Consecutive samples form chunks of _chunk_rows(fine_n, config.level_ns())
    rows, up to threads of them at a time; Cholesky chunks round up to whole
    _TILE-row sampler tiles, ending on tile boundaries.  A chunk is drawn as
    one block, sample(seed, start, rows), and contributes the rows
    statistic(fine), one per sample.  fine is the drawn chunk itself: the
    statistic builds each level's path from it (_level_path) where it solves
    that level, so a coarse path lives only while its level is solved, and
    solves every grid n in blocks of _block_rows(n) rows (_solved_blocks),
    measuring each block as it comes.  Every row is computed as it would be
    alone and chunks are collected in index order, so the result depends
    neither on threads nor on the chunk or block size.  A stall raises
    NonConvergenceError naming the seed, the sample, the level and the
    solver, and a failed factorization of the sampler FactorizationError
    naming the seed, the sampler and fine_n.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    level_ns, samples, seed = config.level_ns(), config.samples, config.seed
    try:
        sampler = IncrementSampler(UniformGrid(fine_n), config.hurst, config.sampler)
    except FactorizationError as exc:
        raise FactorizationError(f"seed {seed}, {config.sampler} sampler, "
                                 f"reference n={fine_n}: {exc}") from exc
    rows = _chunk_rows(fine_n, level_ns)
    if config.sampler == "cholesky":
        rows = -(-rows // _TILE) * _TILE

    def worker(start: int) -> np.ndarray:
        try:
            return statistic(sampler.sample(seed, start, min(rows, samples - start)))
        except NonConvergenceError as exc:
            raise NonConvergenceError(f"seed {seed}, sample m={start + exc.row}, {exc}",
                                      exc.residual, exc.iterations) from exc

    starts = range(0, samples, rows)
    workers = min(threads, len(starts))
    if workers == 1:
        return np.concatenate([worker(start) for start in starts])
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(worker, starts)))


def _rms_levels(level_ns, squared_errors: np.ndarray) -> list:
    """Level summaries from per-sample squared errors (samples, levels)."""
    samples = squared_errors.shape[0]
    means = squared_errors.mean(axis=0)
    rms = np.sqrt(means)
    # delta method: se(sqrt(m)) = se(m) / (2 sqrt(m))
    se_mean = squared_errors.std(axis=0, ddof=1) / math.sqrt(samples)
    stderr = np.where(rms > 0.0, se_mean / np.maximum(2.0 * rms, 1e-300), 0.0)
    return [
        {"n": int(n), "h": 1.0 / n, "rms_error": float(r), "stderr": float(s)}
        for n, r, s in zip(level_ns, rms, stderr)
    ]


def _rate_block(level_ns, squared: np.ndarray) -> dict:
    """Level summaries of squared errors (samples, levels) plus the fitted rate."""
    levels = _rms_levels(level_ns, squared)
    rate, rate_se = estimate_rate([lv["h"] for lv in levels],
                                  [lv["rms_error"] for lv in levels])
    return {"levels": levels, "fitted_rate": rate, "rate_stderr": rate_se}


def run_convergence_study(config: StudyConfig, threads: int = 1) -> ConvergenceReport:
    """RMS L2 error against a coupled fine-grid reference, per level.

    Each sample draws one path on the reference grid, aggregates it to every
    level where that level is solved, finest first, then solves the reference
    with the same solver(s), and records exact L2 distances, reference block
    by reference block.  Expected rates: H + 1/2 for
    Lipschitz reactions, at least H/2 + 1/4 for monotone bounded ones.

    threads bounds how many chunks run at once and is not part of the study:
    per-sample RNG streams and index-ordered accumulation make the report
    byte-identical (wall time aside) at any thread count.
    """
    started = time.perf_counter()
    problem = config.problem()
    solvers = ["fem", "greens"] if config.solver == "both" else [config.solver]
    level_ns = config.level_ns()
    options = dict(tol=config.tol, max_iters=config.max_iters)

    def squared_errors(fine: IncrementPath) -> np.ndarray:
        solutions = {}
        for n in sorted(level_ns, reverse=True):
            path = _level_path(fine, n)
            for solver in solvers:
                solutions[solver, n] = _solve(solver, problem, path, **options)
        del path
        out = np.empty((len(fine.increments), len(solvers), len(level_ns)))
        for i, solver in enumerate(solvers):
            # each reference block is measured as it leaves the solver, so no
            # reference solution is ever whole
            for block, reference in _solved_blocks(solver, problem, fine, **options):
                for j, n in enumerate(level_ns):
                    out[block, i, j] = np.square(discrete_l2_error(
                        _rows(solutions[solver, n], block), reference))
                del reference  # freed before the next block is solved
        return out

    rows = _coupled_samples(squared_errors, config, config.reference_n, threads)
    results = {solver: _rate_block(level_ns, rows[:, i]) for i, solver in enumerate(solvers)}
    return ConvergenceReport(config, results, time.perf_counter() - started)


def run_h1_blowup_study(config: StudyConfig, threads: int = 1) -> dict:
    """Mean squared H1 norm of the solution per level, with its h-slope.

    Uses coupled paths drawn on the finest level (no reference solve).  The
    energy estimate guarantees E||u||_1^2 <= C h^{2H-2}, i.e. fitted slope
    >= 2H - 2; the bound is far from sharp, though: the solution operator
    smooths the noise enough that the measured means saturate at a finite
    limit (slope near 0; exactly computable at f = 0 from the increment
    covariance, which the tests do).  The h^{2H-2} growth lives in the
    noise itself and in second derivatives, not in the H1 norm.
    """
    if config.solver == "both":
        raise ValueError("the H1 study runs one solver; choose fem or greens")
    problem = config.problem()
    level_ns = config.level_ns()
    options = dict(tol=config.tol, max_iters=config.max_iters)

    def h1_squared(fine: IncrementPath) -> np.ndarray:
        out = np.empty((len(fine.increments), len(level_ns)))
        for j, n in enumerate(level_ns):
            for block, u in _solved_blocks(config.solver, problem, _level_path(fine, n),
                                           **options):
                out[block, j] = np.square(u.h1_norm())
        return out

    rows = _coupled_samples(h1_squared, config, max(level_ns), threads)
    means = rows.mean(axis=0)
    stderr = rows.std(axis=0, ddof=1) / math.sqrt(config.samples)
    hs = [1.0 / n for n in level_ns]
    slope, slope_se = estimate_rate(hs, means)
    return {
        "levels": [
            {"n": int(n), "h": h, "mean_h1_sq": float(v), "stderr": float(s)}
            for n, h, v, s in zip(level_ns, hs, means, stderr)
        ],
        "fitted_slope": slope,
        "slope_stderr": slope_se,
    }


def run_superconvergence_study(config: StudyConfig, threads: int = 1) -> dict:
    """Distance between the FEM solution and the Ritz projection of a proxy.

    For each level n the noise stays on grid n while a proxy solution is
    computed on the once-refined mesh 2n; the H1-seminorm distance between
    the Ritz projection of the proxy and the level-n FEM solution decays one
    power of h faster than the error itself (rate H + 1 or better in RMS).
    """
    if config.solver != "fem":
        raise ValueError("the superconvergence study runs the FEM solver only")
    problem = config.problem()
    level_ns = config.level_ns()
    options = dict(tol=config.tol, max_iters=config.max_iters)

    def projection_gaps(fine: IncrementPath) -> np.ndarray:
        out = np.empty((len(fine.increments), len(level_ns)))
        for j, n in enumerate(level_ns):
            path = _level_path(fine, n)
            fem = _solve("fem", problem, path, **options)
            # each proxy block on 2n is measured as it comes, so no proxy is whole
            for block, proxy in _solved_blocks("fem", problem, path, grid=UniformGrid(2 * n),
                                               **options):
                u = _rows(fem, block)
                out[block, j] = np.square(discrete_h1_error(ritz_projection(proxy, u.grid), u))
        return out

    rows = _coupled_samples(projection_gaps, config, max(level_ns), threads)
    return _rate_block(level_ns, rows)


# ---------------------------------------------------------------------------
# Verification checks: each returns a Verdict for the PASS/FAIL table.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """Outcome of one verification check."""

    check: str
    target: float
    estimate: float
    statistic: float  # z-score or fitted rate, depending on the check
    passed: bool
    details: str = ""

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def verify_noise_norm(hurst, n: int = 64, samples: int = 10000,
                      seed: int = 2024) -> Verdict:
    """Monte Carlo check of E ||noise||_{L2}^2 = h^{2H-2}.

    The squared L2 norm of the piecewise constant noise is sum DW_i^2 / h;
    its expectation is n h^{2H-1} = h^{2H-2} exactly, at every n and H.
    """
    hurst = _as_hurst(hurst)
    grid = UniformGrid(n)
    sampler = IncrementSampler(grid, hurst, "cholesky")
    draws = sampler.sample_many(np.random.default_rng([seed, 0]), samples)
    norms_sq = (draws * draws).sum(axis=1) / grid.h
    target = grid.h ** (2.0 * hurst.value - 2.0)
    estimate = float(norms_sq.mean())
    se = float(norms_sq.std(ddof=1)) / math.sqrt(samples)
    z = (estimate - target) / se
    return Verdict(
        check=f"noise-norm[n={n},H={hurst.value:g}]",
        target=target,
        estimate=estimate,
        statistic=z,
        passed=abs(z) <= 4.0,
        details=f"{samples} samples, z={z:.2f}",
    )


def verify_isometry(f: StepFunction, hurst, samples: int = 100000,
                    seed: int = 2024, label: str = "f") -> Verdict:
    """Sample variance of int f dW against the closed-form second moment.

    Draws the increments over f's own pieces from their exact joint
    covariance, so the only discrepancy is Monte Carlo fluctuation; the
    z-score uses the Gaussian variance-of-variance se = target sqrt(2/(M-1)).
    """
    hurst = _as_hurst(hurst)
    target = ito_isometry(f, hurst=hurst)
    edges = f.breakpoints
    r = fbm_covariance(edges[:, None], edges[None, :], hurst)
    cov = r[1:, 1:] - r[1:, :-1] - r[:-1, 1:] + r[:-1, :-1]
    factor = np.linalg.cholesky(cov)
    rng = np.random.default_rng([seed, 1])
    draws = rng.standard_normal((samples, len(f.values))) @ factor.T
    integrals = draws @ f.values
    estimate = float(integrals.var(ddof=1))
    se = target * math.sqrt(2.0 / (samples - 1))
    z = (estimate - target) / se
    return Verdict(
        check=f"isometry[{label},H={hurst.value:g}]",
        target=target,
        estimate=estimate,
        statistic=z,
        passed=abs(z) <= 4.0,
        details=f"{samples} samples, z={z:.2f}",
    )


def kernel_pair_sum_quadrature(grid: UniformGrid, hurst) -> float:
    """Adaptive-quadrature route to the singular kernel pair sum.

    Integrates, per lag, the analytic inner antiderivative of
    |x - y|^{2H-2} with an adaptive Gauss-Kronrod rule (up to 512
    subdivisions), independent of the closed-form second differences.
    scipy is imported here, so only this oracle needs it.
    """
    from scipy import integrate

    H = _as_hurst(hurst).value
    if H == 0.5:
        raise ValueError("pair sum requires H < 1/2")
    h = grid.h
    two_h = 2.0 * H

    def inner(x: float, k: int) -> float:
        # int over the lag-k cell of (y - x)^{2H-2} dy for x in the base cell
        hi = ((k + 1) * h - x) ** (two_h - 1.0)
        lo = (k * h - x) ** (two_h - 1.0)
        return (hi - lo) / (two_h - 1.0)

    total = 0.0
    for k in range(1, grid.n):
        value, _ = integrate.quad(inner, 0.0, h, args=(k,), limit=512,
                                  epsabs=0.0, epsrel=1e-10)
        total += 2.0 * (grid.n - k) * value
    return total


def verify_kernel_pair_sum(n: int, hurst) -> Verdict:
    """Closed form vs adaptive quadrature within 1e-6 relative, plus the analytic upper bound."""
    hurst = _as_hurst(hurst)
    grid = UniformGrid(n)
    closed = singular_kernel_pair_sum(grid, hurst)
    oracle = kernel_pair_sum_quadrature(grid, hurst)
    bound = singular_kernel_pair_sum_bound(grid, hurst)
    rel = abs(closed - oracle) / abs(oracle)
    passed = rel <= 1e-6 and closed <= bound * (1.0 + 1e-12)
    return Verdict(
        check=f"kernel-pair-sum[n={n},H={hurst.value:g}]",
        target=oracle,
        estimate=closed,
        statistic=rel,
        passed=passed,
        details=f"rel={rel:.2e}, bound margin={bound - closed:.3e}",
    )


def verify_convolution_error_decay(hurst, level_ns=(16, 32, 64, 128, 256)) -> Verdict:
    """Fitted decay rate of the kernel-averaging error against 2H + 1.

    The worst of the probe points 0.1, 0.2, ..., 0.9 is tracked per level;
    the rate must reach 2H + 1 - 0.15.
    """
    hurst = _as_hurst(hurst)
    worst = []
    for n in level_ns:
        grid = UniformGrid(n)
        worst.append(max(convolution_error_second_moment(x, grid, hurst)
                         for x in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)))
    rate, _ = estimate_rate([1.0 / n for n in level_ns], worst)
    target = 2.0 * hurst.value + 1.0
    return Verdict(
        check=f"conv-error-decay[H={hurst.value:g}]",
        target=target,
        estimate=rate,
        statistic=rate,
        passed=rate >= target - 0.15,
        details=f"levels {list(level_ns)}, worst-probe fit",
    )


def verify_solver_agreement(hurst, reaction: str = "sin", forcing: str = "one",
                            level_ns=(16, 32, 64, 128), samples: int = 100,
                            seed: int = 2024, threads: int = 1,
                            tol: float = 1e-10) -> Verdict:
    """RMS distance between the FEM and mild solutions on coupled paths.

    Both solvers discretize the same realization, and in one dimension the
    two schemes are nodally equivalent: the Galerkin solve of each
    hat-assembled point load reproduces G at the nodes, so with matching
    quadrature the fixed-point equations coincide and the gap bottoms out at
    the iteration tolerance, not at a power of h.  The check passes when the
    worst level's RMS gap stays within that floor, 100 tol.

    It runs the StudyConfig of solver "both" on the doubling ladder level_ns
    through the studies' driver; what that config refuses, and a tol that is
    not > 0 (its floor would be 0), raises ValueError.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    ladder = list(level_ns)
    if not ladder:
        raise ValueError("level_ns must not be empty")
    config = StudyConfig(_as_hurst(hurst).value, reaction, forcing, n0=ladder[0],
                         levels=len(ladder), samples=samples, seed=seed, solver="both", tol=tol)
    level_ns = config.level_ns()
    if level_ns != ladder:
        raise ValueError(f"level_ns must be a doubling ladder n0, 2 n0, ..., got {ladder}")
    problem, options = config.problem(), dict(tol=config.tol, max_iters=config.max_iters)

    def squared_gaps(fine: IncrementPath) -> np.ndarray:
        out = np.empty((len(fine.increments), len(level_ns)))
        for j, n in enumerate(level_ns):
            path = _level_path(fine, n)
            fem = _solve("fem", problem, path, **options)
            for block, mild in _solved_blocks("greens", problem, path, **options):
                out[block, j] = np.square(discrete_l2_error(_rows(fem, block), mild))
        return out

    rows = _coupled_samples(squared_gaps, config, max(level_ns), threads)
    worst = max(lv["rms_error"] for lv in _rms_levels(level_ns, rows))
    floor = 100.0 * tol
    return Verdict(
        check=f"solver-agreement[H={config.hurst:g},f={reaction}]",
        target=floor,
        estimate=worst,
        statistic=worst / floor,
        passed=worst <= floor,
        details=(f"{samples} coupled samples, levels {level_ns}; worst RMS gap "
                 f"against the solver-tolerance floor (nodal equivalence)"),
    )


def run_verification_suite(hurst, samples_scale: float = 1.0,
                           seed: int = 2024) -> list:
    """The standard check battery behind the `verify` CLI subcommand."""
    hurst = _as_hurst(hurst)
    scale = lambda m: max(16, int(round(m * samples_scale)))
    verdicts = [
        verify_noise_norm(hurst, n=64, samples=scale(10000), seed=seed),
        verify_isometry(StepFunction.constant(1.0), hurst,
                        samples=scale(100000), seed=seed, label="one"),
        verify_isometry(StepFunction.indicator(0.0, 0.5), HurstIndex(0.5),
                        samples=scale(100000), seed=seed, label="half-indicator"),
        verify_isometry(StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0])),
                        hurst, samples=scale(100000), seed=seed, label="haar"),
    ]
    if not hurst.is_white:
        for n in (4, 16, 64):
            verdicts.append(verify_kernel_pair_sum(n, hurst))
    else:
        # pair sums are undefined at H = 1/2; run the standard matrix instead
        for n in (4, 16, 64):
            for h_check in (0.1, 0.25, 0.4):
                verdicts.append(verify_kernel_pair_sum(n, h_check))
    verdicts.append(verify_convolution_error_decay(hurst))
    return verdicts
