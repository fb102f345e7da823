"""Fractional Gaussian noise on [0, 1] for Hurst index H <= 1/2.

The driving noise is the distributional derivative of fractional Brownian
motion W with covariance

    R(x, y) = (x^{2H} + y^{2H} - |x - y|^{2H}) / 2,

restricted here to 0 < H <= 1/2, where increments are negatively correlated
(H < 1/2) or independent (H = 1/2).  The module provides exact increment
sampling (Cholesky and circulant embedding), aggregation of fine increments
onto coarser grids, the spreading of a path over a finer solver grid, and
closed forms for the second moments of stochastic integrals of step and
piecewise linear functions.

For a step function f the second moment of int f dW is

    Psi(f, f) = H(1-2H)/2 * iint (f(x)-f(y))^2 |x-y|^{2H-2} dx dy
              + H * int f(x)^2 (x^{2H-1} + (1-x)^{2H-1}) dx,

which degenerates to the classical int f^2 dx at H = 1/2 (the first term
carries the factor 1-2H and vanishes).  All power-law integrals are evaluated
in closed form; the only approximation anywhere is Monte Carlo sampling.

Numerical note: x^{2H} has unbounded derivative at x = 0 for small H, so a
few ulps of error in an endpoint that should be exactly 0 produce errors of
order eps^{2H} (about 5e-4 for H = 0.1).  Every evaluation near the singular
endpoints therefore uses breakpoints taken verbatim from arrays whose ends
are exactly 0.0 and 1.0, mirrored as 1 - edges, never recomputed by
arithmetic like 1 - b - delta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FactorizationError, GridMismatchError
from .grids import GridFunction, UniformGrid, _require_unit_interval
from .seeding import pcg64_states

__all__ = [
    "HurstIndex",
    "IncrementPath",
    "IncrementSampler",
    "StepFunction",
    "aggregate_increments",
    "fbm_covariance",
    "increments_on",
    "ito_isometry",
    "plinear_self_isometry",
    "singular_kernel_pair_sum",
    "singular_kernel_pair_sum_bound",
]


@dataclass(frozen=True)
class HurstIndex:
    """Hurst index restricted to the rough-to-white range (0, 1/2]."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not (0.0 < v <= 0.5):
            raise ValueError(f"Hurst index must lie in (0, 1/2], got {self.value}")
        object.__setattr__(self, "value", v)

    @property
    def is_white(self) -> bool:
        """True at H = 1/2, where the noise is white and increments independent."""
        return self.value == 0.5


def _as_hurst(hurst) -> HurstIndex:
    return hurst if isinstance(hurst, HurstIndex) else HurstIndex(hurst)


def fbm_covariance(x, y, hurst) -> np.ndarray:
    """Covariance R(x, y) of fractional Brownian motion, vectorized.

    Args:
        x, y: points in [0, 1] (arrays broadcast against each other).
        hurst: HurstIndex or float in (0, 1/2].

    Returns:
        (x^{2H} + y^{2H} - |x-y|^{2H}) / 2 with the broadcast shape.
    """
    H = _as_hurst(hurst).value
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_unit_interval("fbm_covariance arguments", x, y)
    two_h = 2.0 * H
    return 0.5 * (x**two_h + y**two_h - np.abs(x - y) ** two_h)


def _increment_autocovariance(lags: np.ndarray, h: float, H: float) -> np.ndarray:
    """Cov(DW_i, DW_{i+k}) for equal-width increments, k in `lags` (k >= 0)."""
    k = np.asarray(lags, dtype=float)
    two_h = 2.0 * H
    return 0.5 * h**two_h * ((k + 1.0) ** two_h + np.abs(k - 1.0) ** two_h - 2.0 * k**two_h)


# A grid whose dense n x n factor, 8 n^2 bytes, would exceed this budget
# (n > 4096) is refused before allocating; the packed factor holds about half
# of that, and its build no more than one 8 n _SCHUR_ROWS byte block besides.
CHOLESKY_BYTES_BUDGET = 128 * 2**20
# The factor U = L^T is kept in column panels of this many columns, each
# holding only the rows above its diagonal block's end, U[:end, start:end].
_PANEL = 64
# The Schur recursion writes this many rows at a time into a buffer, whose
# columns are then copied into the panels they belong to.
_SCHUR_ROWS = 16


# Factorizations are deterministic in (n, H), so the last one is cached per
# process: a study draws from one grid, and the cache then holds no more bytes
# than the budget, where four factors at the budget would take 512 MiB.
@functools.lru_cache(maxsize=1)
def _cholesky_factor(n: int, H: float) -> tuple:
    """The upper Cholesky factor U = L^T of the n increments' covariance, in panels.

    Panel J holds U[:end, start:end] for columns start = _PANEL J up to
    end = min(start + _PANEL, n), read-only.  The covariance is Toeplitz,
    so the Schur algorithm factors it in O(n^2) from its autocovariance
    rho, without the dense matrix (Bojanczyk, Brent, de Hoog & Sweet, SIMAX
    16, 1995): row 0 of U is a = rho / sqrt(rho_0), the second generator b
    is a with b_0 = 0, and row k is (a - r b)/c with a the row before
    shifted by one column, b = b[k:], r = b_0/a_0 and c = sqrt((1 - r)(1 + r)),
    after which b becomes c b - r U[k, k:].  |r| < 1 at every step exactly
    when the covariance is positive definite; FactorizationError otherwise.
    """
    nbytes = 8 * n * n
    if nbytes > CHOLESKY_BYTES_BUDGET:
        raise ValueError(
            f"Cholesky factor for n={n} takes {nbytes} bytes, over the budget of "
            f"{CHOLESKY_BYTES_BUDGET} bytes; sample with method davies-harte instead"
        )
    rho = _increment_autocovariance(np.arange(n), 1.0 / n, H)
    panels = [np.zeros((min(start + _PANEL, n), min(_PANEL, n - start)))
              for start in range(0, n, _PANEL)]
    # rows[1 + i] is row first + i of U, and rows[0] the row before first
    rows = np.zeros((1 + _SCHUR_ROWS, n))
    rows[1] = rho / math.sqrt(rho[0])
    b = rows[1].copy()
    b[0] = 0.0
    scratch = np.empty(n)
    for first in range(0, n, _SCHUR_ROWS):
        last = min(first + _SCHUR_ROWS, n)
        for k in range(max(first, 1), last):
            a = rows[k - first, k - 1:n - 1]
            beta = b[k:]
            r = beta[0] / a[0]
            if not abs(r) < 1.0:
                raise FactorizationError(
                    f"increment covariance not positive definite for n={n}, H={H}: "
                    f"reflection coefficient {r} at step {k}")
            c = math.sqrt((1.0 - r) * (1.0 + r))
            row = np.multiply(beta, r, out=rows[1 + k - first, k:])
            np.subtract(a, row, out=row)
            row /= c
            beta *= c
            beta -= np.multiply(row, r, out=scratch[k:])
        for panel in panels[first // _PANEL:]:
            end = len(panel)
            panel[first:last] = rows[1:1 + last - first, end - panel.shape[1]:end]
        rows[0] = rows[last - first]
        rows[1:] = 0.0
    for panel in panels:
        panel.flags.writeable = False
    return tuple(panels)


@functools.lru_cache(maxsize=4)
def _circulant_scale(n: int, H: float) -> np.ndarray:
    """sqrt of the circulant-embedding spectrum, length n+1, for size-2n FFTs."""
    rho = _increment_autocovariance(np.arange(n + 1), 1.0 / n, H)
    row = np.concatenate([rho, rho[-2:0:-1]])  # circulant first row, length 2n
    eig = np.fft.rfft(row).real
    floor = -1e-10 * max(eig.max(), 1e-300)
    if eig.min() < floor:
        raise FactorizationError(
            f"circulant embedding has negative eigenvalue {eig.min():.3e} "
            f"for n={n}, H={H}"
        )
    return np.sqrt(np.clip(eig, 0.0, None))


@dataclass(frozen=True)
class IncrementPath:
    """One sampled path of fBm increments DW_i over the cells of a grid.

    A 2-D `increments` array is a stack of paths on the same grid, one per
    row; the solvers then solve every row.
    """

    grid: UniformGrid
    increments: np.ndarray

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim not in (1, 2) or inc.shape[-1] != self.grid.n:
            raise ValueError(
                f"expected {self.grid.n} increments per row, got shape {inc.shape}"
            )
        object.__setattr__(self, "increments", inc)


# Cholesky draws transform their standard normals in tiles of this many rows,
# aligned to sample indices: tile t holds samples _TILE t .. _TILE t + _TILE - 1,
# so sample m is always computed as row m % _TILE of a (_TILE, n) product.
_TILE = 32
# Davies-Harte draws transform blocks of this many rows in one irfft each; the
# FFT rounds every row alike, and blocks of 8 rows are as fast as larger ones
# at n = 1024 with temporaries a quarter the size of a 32-row block's.
_FFT_ROWS = 8


class IncrementSampler:
    """Exact sampler for fBm increments on a fixed grid.

    method "cholesky" factorizes the Toeplitz covariance once by the Schur
    algorithm (O(n^2) setup and per draw, no dense covariance);
    "davies-harte" embeds it in a circulant of size 2n and samples through
    FFTs (O(n log n) per draw).
    Both are exact in distribution; for H <= 1/2 the circulant spectrum is
    provably nonnegative, and a FactorizationError is raised if that is ever
    violated numerically.

    Every sample has an index m and consumes one standard_normal block of
    draws_per_sample values: in sample() the normals of default_rng([seed, m]),
    drawn from PCG64 states computed once per call (tests/test_seeding.py
    pins them to default_rng's bit for bit), and in sample_many() from one
    Generator's stream.  Draws are transformed a
    block of rows at a time: Cholesky as one product of a (_TILE, n) tile
    with each panel of the factor, sample m at row m % _TILE of a
    zero-padded tile, Davies-Harte as one irfft of up to _FFT_ROWS rows.  A
    blocked matrix product rounds a row by its shape and its place in the
    tile, not by the other rows, and the FFT rounds every row alike, so
    sample m comes out bit for bit the same whether it is drawn alone
    (sample(seed, m)) or in a block with any neighbours.
    """

    def __init__(self, grid: UniformGrid, hurst, method: str = "cholesky"):
        if method not in ("cholesky", "davies-harte"):
            raise ValueError(f"unknown sampling method {method!r}")
        self.grid = grid
        self.hurst = _as_hurst(hurst)
        self.method = method
        if method == "cholesky":
            self._factor = _cholesky_factor(grid.n, self.hurst.value)
        else:
            self._scale = _circulant_scale(grid.n, self.hurst.value)

    @property
    def draws_per_sample(self) -> int:
        """Standard normals consumed per sample."""
        return self.grid.n if self.method == "cholesky" else 2 * self.grid.n

    def _transform(self, raw: np.ndarray, out=None) -> np.ndarray:
        """Map standard normal rows (m, draws_per_sample) to increments (m, n), into out."""
        n = self.grid.n
        if self.method == "cholesky":
            # x = L z is z U by column panels; a panel's rows stop at its last
            # column, as U's rows below it are zero there
            if out is None:
                out = np.empty((len(raw), n))
            for panel in self._factor:
                end = len(panel)
                np.matmul(raw[:, :end], panel, out=out[:, end - panel.shape[1]:end])
            return out
        m = 2 * n
        spec = np.empty((raw.shape[0], n + 1), dtype=complex)
        spec[:, 0] = self._scale[0] * raw[:, 0]
        spec[:, n] = self._scale[n] * raw[:, 1]
        # the other normals pair up as the real and imaginary parts of
        # frequencies 1 .. n - 1; the view needs raw's rows contiguous
        np.multiply(self._scale[1:n] / math.sqrt(2.0), raw[:, 2:].view(np.complex128),
                    out=spec[:, 1:n])
        return np.multiply(math.sqrt(m), np.fft.irfft(spec, n=m, axis=1)[:, :n], out=out)

    def _draw(self, fill: Callable, rows: int, first: int) -> np.ndarray:
        """Increments (rows, n) of samples first .. first + rows - 1, one block at a time.

        fill(part) writes the standard normals of the next len(part) samples
        into the rows of part, one row per sample.  A block holds the samples
        of one tile (Cholesky) or up to _FFT_ROWS samples (Davies-Harte).
        """
        cholesky = self.method == "cholesky"
        size = _TILE if cholesky else _FFT_ROWS
        out = np.empty((rows, self.grid.n))
        tile = np.zeros((size, self.draws_per_sample))
        start = 0
        while start < rows:
            place = (first + start) % size
            stop = min(start + size - place, rows)
            part = tile[place:place + stop - start]
            if cholesky and len(part) < size:
                tile.fill(0.0)
            fill(part)
            if not cholesky:
                self._transform(part, out=out[start:stop])
            elif len(part) == size:
                self._transform(tile, out=out[start:stop])
            else:
                out[start:stop] = self._transform(tile)[place:place + len(part)]
            start = stop
        return out

    def sample(self, seed: int, first: int = 0, count: int = None) -> IncrementPath:
        """Sample `first` of a seed, or the stack of its samples first .. first + count - 1.

        Sample m always takes the standard normals of default_rng([seed, m]),
        so a study's chunk, a single solve and a replay of one sample draw
        the same path for it.  count None returns one path, an int a stack
        of count rows.  No Generator is made per row: every row's PCG64
        state is computed once per call (seeding.pcg64_states), and one
        PCG64 and Generator pair, set to each state in turn, fills the rows;
        the normals are default_rng's bit for bit (tests/test_seeding.py).
        ValueError for a negative seed or sample index.
        """
        rows = 1 if count is None else count
        states = pcg64_states(seed, first, rows)
        bits = np.random.PCG64(0)
        normals = np.random.Generator(bits)

        def fill(part):
            for row in part:
                state, inc = next(states)
                bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                              "has_uint32": 0, "uinteger": 0}
                normals.standard_normal(out=row)

        draws = self._draw(fill, rows, first)
        return IncrementPath(self.grid, draws[0] if count is None else draws)

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """(count, n) array of increments: samples 0 .. count - 1 of one generator's stream."""
        return self._draw(lambda part: rng.standard_normal(out=part), count, 0)


def aggregate_increments(path: IncrementPath, factor: int) -> IncrementPath:
    """Sum fine increments in groups of `factor` onto the coarser grid.

    Coarse increment j is exactly the sum of the factor fine increments in
    coarse cell j, so coarse and fine paths are couplings of the same
    Brownian path.  A stack of paths is aggregated row by row.
    """
    if factor < 1:
        raise ValueError(f"aggregation factor must be >= 1, got {factor}")
    if path.grid.n % factor != 0:
        raise GridMismatchError(
            f"cannot aggregate {path.grid.n} increments by factor {factor}"
        )
    coarse = UniformGrid(path.grid.n // factor)
    inc = path.increments
    summed = inc.reshape(inc.shape[:-1] + (coarse.n, factor)).sum(axis=-1)
    return IncrementPath(coarse, summed)


def increments_on(path: IncrementPath, grid: UniformGrid) -> np.ndarray:
    """The path's increments spread over the cells of a solver grid.

    The noise may live on `grid` or on any coarser grid that divides it;
    each cell of `grid` inherits an equal share of its parent's increment,
    so the noise density stays the same.  Any other grid raises
    GridMismatchError.  A stack of paths is spread row by row.
    """
    if path.grid.n == grid.n:
        return path.increments
    if not path.grid.divides(grid):
        raise GridMismatchError(
            f"noise on {path.grid.n} cells does not divide the solver grid "
            f"with {grid.n} cells")
    factor = grid.n // path.grid.n
    return np.repeat(path.increments / factor, factor, axis=-1)


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function on (0, 1] with arbitrary breakpoints.

    Piece j takes `values[j]` on (breakpoints[j], breakpoints[j+1]]; the
    value at x = 0 is values[0] by convention (a set of measure zero, so no
    integral below depends on it).
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or len(bp) < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must run from exactly 0.0 to exactly 1.0")
        if np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if vals.shape != (len(bp) - 1,):
            raise ValueError(
                f"{len(bp) - 1} pieces need {len(bp) - 1} values, got {vals.shape}"
            )
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, value: float) -> "StepFunction":
        return cls(np.array([0.0, 1.0]), np.array([float(value)]))

    @classmethod
    def indicator(cls, a: float, b: float) -> "StepFunction":
        """Indicator of (a, b]; breakpoints at 0, a, b, 1 as needed."""
        if not (0.0 <= a < b <= 1.0):
            raise ValueError(f"need 0 <= a < b <= 1, got a={a}, b={b}")
        bp = [0.0]
        vals = []
        if a > 0.0:
            bp.append(a)
            vals.append(0.0)
        bp.append(b)
        vals.append(1.0)
        if b < 1.0:
            bp.append(1.0)
            vals.append(0.0)
        return cls(np.array(bp), np.array(vals))

    @classmethod
    def from_cells(cls, grid: UniformGrid, values) -> "StepFunction":
        return cls(grid.nodes(), np.asarray(values, dtype=float))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        _require_unit_interval("evaluation points", x)
        idx = np.searchsorted(self.breakpoints, x, side="left") - 1
        return self.values[np.clip(idx, 0, len(self.values) - 1)]


def _as_step(f) -> StepFunction:
    if isinstance(f, StepFunction):
        return f
    if isinstance(f, GridFunction) and f.kind == "cell":
        return StepFunction.from_cells(f.grid, f.values)
    raise TypeError(f"expected a step function, got {type(f).__name__}")


def _common_refinement(f: StepFunction, g: StepFunction):
    """Union breakpoints and both value vectors on the refined pieces."""
    edges = np.union1d(f.breakpoints, g.breakpoints)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return edges, f(mids), g(mids)


def ito_isometry(f, g=None, hurst=None) -> float:
    """Exact second-moment pairing E[ int f dW int g dW ] for step functions.

    Args:
        f, g: StepFunction (or cell-kind GridFunction); g defaults to f.
        hurst: HurstIndex or float in (0, 1/2].

    Returns:
        Psi(f, g), evaluated in closed form.  At H = 1/2 this is the
        classical L2 pairing int f g dx.
    """
    if hurst is None:
        raise TypeError("hurst is required")
    H = _as_hurst(hurst).value
    f = _as_step(f)
    g = f if g is None else _as_step(g)
    edges, fv, gv = _common_refinement(f, g)
    widths = np.diff(edges)
    if H == 0.5:
        return float(math.fsum(fv * gv * widths))

    two_h = 2.0 * H
    # Off-diagonal double integral: for pieces i < j the kernel integral over
    # the rectangle is a second difference of Q(t) = t^{2H}; the diagonal
    # contributes nothing because f and g are constant there.
    q = np.abs(edges[:, None] - edges[None, :]) ** two_h
    brack = q[:-1, 1:] + q[1:, :-1] - q[:-1, :-1] - q[1:, 1:]
    df = fv[:, None] - fv[None, :]
    dg = gv[:, None] - gv[None, :]
    t1 = float(np.sum(df * dg * brack)) / (two_h * (two_h - 1.0))
    # Boundary term: int f g (x^{2H-1} + (1-x)^{2H-1}) dx, antiderivatives
    # x^{2H}/2H evaluated on edges and mirrored edges (exact singular ends).
    rising = edges**two_h
    falling = (1.0 - edges) ** two_h
    w2 = (rising[1:] - rising[:-1]) + (falling[:-1] - falling[1:])
    t2 = float(math.fsum(fv * gv * w2)) / two_h
    return H * (1.0 - two_h) / 2.0 * t1 + H * t2


def singular_kernel_pair_sum(grid: UniformGrid, hurst) -> float:
    """Sum over distinct cell pairs of iint |x - y|^{2H-2} dx dy.

    Closed form via second differences of t^{2H} per lag; equals
    h^{2H} (n - n^{2H}) / (H(1-2H)) and is bounded by
    h^{2H-1} / (H(1-2H)).  Undefined at H = 1/2 (the kernel is not
    integrable against itself there); raises ValueError.
    """
    H = _as_hurst(hurst).value
    if H == 0.5:
        raise ValueError("pair sum of |x-y|^{2H-2} requires H < 1/2")
    n = grid.n
    if n == 1:
        return 0.0
    two_h = 2.0 * H
    # rectangle integral at lag k >= 1: (Q(k+1) - 2Q(k) + Q(k-1)) h^{2H} / (2H(2H-1))
    lag = np.arange(1, n, dtype=float)
    second_diff = (lag + 1.0) ** two_h - 2.0 * lag**two_h + (lag - 1.0) ** two_h
    rect = grid.h**two_h * second_diff / (two_h * (two_h - 1.0))
    return float(math.fsum(2.0 * (n - lag) * rect))


def singular_kernel_pair_sum_bound(grid: UniformGrid, hurst) -> float:
    """Upper bound h^{2H-1} / (H(1-2H)) for the pair sum, H < 1/2."""
    H = _as_hurst(hurst).value
    if H == 0.5:
        raise ValueError("bound requires H < 1/2")
    return grid.h ** (2.0 * H - 1.0) / (H * (1.0 - 2.0 * H))


# ---------------------------------------------------------------------------
# Second moment of int d dW for piecewise linear d on a uniform partition.
#
# With pieces d(y) = v_i + g_i (y - edge_i) of width delta, the double
# integral against |y-z|^{2H-2} splits by lag k = |i-j| into six moment
# integrals J_pq(k) = iint s^p t^q (k delta + t - s)^{2H-2} ds dt over the
# local square (0,delta)^2.  Substituting w = k delta + t - s reduces each to
# a weighted single integral of w^{2H-2} against a cubic whose coefficients
# are tabulated below, in the regimes omega = w - k delta < 0 ("A") and > 0
# ("B").  Everything else is lag bookkeeping done by cumulative sums and
# np.correlate.
# ---------------------------------------------------------------------------

def _inner_cubics(delta: float):
    """Cubic coefficients (in omega) of the inner line integrals, per (p, q)."""
    d1, d2, d3 = delta, delta * delta / 2.0, delta**3 / 3.0
    regime_a = {
        (0, 0): (d1, 1.0, 0.0, 0.0),
        (1, 0): (d2, 0.0, -0.5, 0.0),
        (0, 1): (d2, d1, 0.5, 0.0),
        (2, 0): (d3, 0.0, 0.0, 1.0 / 3.0),
        (1, 1): (d3, d2, 0.0, -1.0 / 6.0),
        (0, 2): (d3, 2.0 * d2, d1, 1.0 / 3.0),
    }
    regime_b = {
        (0, 0): (d1, -1.0, 0.0, 0.0),
        (1, 0): (d2, -d1, 0.5, 0.0),
        (0, 1): (d2, 0.0, -0.5, 0.0),
        (2, 0): (d3, -2.0 * d2, d1, -1.0 / 3.0),
        (1, 1): (d3, -d2, 0.0, 1.0 / 6.0),
        (0, 2): (d3, 0.0, 0.0, -1.0 / 3.0),
    }
    return regime_a, regime_b


def _shift_cubic(coeffs, c: np.ndarray) -> np.ndarray:
    """Re-expand sum a_j (r - c)^j in powers of r; returns shape (4, len(c))."""
    a0, a1, a2, a3 = coeffs
    return np.stack([
        a0 - a1 * c + a2 * c * c - a3 * c**3,
        (a1 - 2.0 * a2 * c + 3.0 * a3 * c * c) * np.ones_like(c),
        (a2 - 3.0 * a3 * c) * np.ones_like(c),
        a3 * np.ones_like(c),
    ])


def _moment_tables(pieces: int, delta: float, H: float) -> dict:
    """J_pq(k) for k = 1..pieces-1, exact power-law antiderivatives."""
    k = np.arange(1, pieces)
    c = k * delta
    exponents = 2.0 * H - 1.0 + np.arange(4.0)[:, None]

    def antiderivative(r: np.ndarray) -> np.ndarray:
        # r^{2H-1+m}/(2H-1+m); the m=0 term at r=0 (lag 1 lower limit) is
        # masked because its coefficient is analytically zero there.
        with np.errstate(divide="ignore"):
            out = r**exponents / exponents
        out[~np.isfinite(out)] = 0.0
        return out

    lo, mid, hi = antiderivative(c - delta), antiderivative(c), antiderivative(c + delta)
    regime_a, regime_b = _inner_cubics(delta)
    tables = {}
    for pq, coeffs_a in regime_a.items():
        at = _shift_cubic(coeffs_a, c)
        bt = _shift_cubic(regime_b[pq], c)
        at[0, 0] = 0.0  # lag 1: constant r-coefficient vanishes analytically
        tables[pq] = (at * (mid - lo)).sum(axis=0) + (bt * (hi - mid)).sum(axis=0)
    return tables


def _lag_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L[k] = sum_i a_i b_{i+k} for k = 0..N-1 (C-speed via correlate)."""
    return np.correlate(b, a, "full")[len(a) - 1:]


def plinear_self_isometry(left_values, slopes, hurst) -> float:
    """Second moment of int d dW for piecewise linear d with jumps.

    d is defined on a uniform partition of [0, 1] into N pieces: on piece i,
    d(y) = left_values[i] + slopes[i] * (y - edge_i).  Evaluated in closed
    form (power-law moment tables plus lag sums); cost O(N log N) memory-wise
    with the dominant work in np.correlate.

    Args:
        left_values, slopes: arrays of length N.
        hurst: HurstIndex or float in (0, 1/2].

    Returns:
        Psi(d, d) >= 0.
    """
    v = np.asarray(left_values, dtype=float)
    g = np.asarray(slopes, dtype=float)
    if v.ndim != 1 or v.shape != g.shape or len(v) == 0:
        raise ValueError("left_values and slopes must be equal-length 1d arrays")
    H = _as_hurst(hurst).value
    pieces = len(v)
    edges = np.linspace(0.0, 1.0, pieces + 1)
    delta = 1.0 / pieces

    if H == 0.5:
        # int d^2 dy, exact per piece
        return float(math.fsum(delta * (v * v + v * g * delta + g * g * delta * delta / 3.0)))

    two_h = 2.0 * H
    # Boundary term against x^{2H-1} + (1-x)^{2H-1}, exact singular ends.
    def weighted_square(const, lin, lo, hi):
        powers = [(hi ** (two_h + m) - lo ** (two_h + m)) / (two_h + m) for m in range(3)]
        return const * const * powers[0] + 2.0 * const * lin * powers[1] + lin * lin * powers[2]

    b = edges[:-1]
    t2 = weighted_square(v - g * b, g, edges[:-1], edges[1:])
    t2 = t2 + weighted_square(v + g * (1.0 - b), -g, 1.0 - edges[1:], 1.0 - edges[:-1])
    t2_total = float(math.fsum(t2))

    # Double integral: diagonal squares carry only the slope terms.
    t1_diag = float(np.dot(g, g)) * 2.0 * delta ** (two_h + 2.0) / ((two_h + 1.0) * (two_h + 2.0))
    t1_off = 0.0
    if pieces > 1:
        tables = _moment_tables(pieces, delta, H)
        k = np.arange(1, pieces)
        cs_vv = np.concatenate([[0.0], np.cumsum(v * v)])
        cs_vg = np.concatenate([[0.0], np.cumsum(v * g)])
        cs_gg = np.concatenate([[0.0], np.cumsum(g * g)])
        head_vv, tail_vv = cs_vv[pieces - k], cs_vv[pieces] - cs_vv[k]
        head_vg, tail_vg = cs_vg[pieces - k], cs_vg[pieces] - cs_vg[k]
        head_gg, tail_gg = cs_gg[pieces - k], cs_gg[pieces] - cs_gg[k]
        lag_vv = _lag_sums(v, v)[1:]
        lag_gv = _lag_sums(g, v)[1:]  # sum_i g_i v_{i+k}
        lag_vg = _lag_sums(v, g)[1:]  # sum_i v_i g_{i+k}
        lag_gg = _lag_sums(g, g)[1:]
        per_lag = (
            tables[(0, 0)] * (head_vv + tail_vv - 2.0 * lag_vv)
            + 2.0 * tables[(1, 0)] * (head_vg - lag_gv)
            - 2.0 * tables[(0, 1)] * (lag_vg - tail_vg)
            + tables[(2, 0)] * head_gg
            - 2.0 * tables[(1, 1)] * lag_gg
            + tables[(0, 2)] * tail_gg
        )
        t1_off = 2.0 * float(math.fsum(per_lag))

    return H * (1.0 - two_h) / 2.0 * (t1_diag + t1_off) + H * t2_total
