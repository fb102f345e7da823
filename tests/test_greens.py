"""Green's function machinery and the mild (Hammerstein) solver."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import solve_banded

from fracbvp import (
    GridFunction,
    IncrementPath,
    IncrementSampler,
    ProblemSpec,
    UniformGrid,
    aggregate_increments,
    convolution_error_second_moment,
    discrete_l2_error,
    estimate_rate,
    greens_cell_integrals,
    greens_function,
    plinear_self_isometry,
    ito_isometry,
    solve_hammerstein,
    solve_nonlinear_fem,
)
from fracbvp import fem, greens
from fracbvp.errors import GridMismatchError, NonConvergenceError
from fracbvp.noise import StepFunction

from oracles import (apply_greens_operator, from_callable, gauss_weight_matrix,
                     plinear_second_moment_oracle, sample_increments, step_noise,
                     stochastic_convolution)


class TestGreensFunction:
    def test_closed_form(self):
        assert greens_function(0.3, 0.6) == pytest.approx(0.3 - 0.18)
        assert greens_function(0.6, 0.3) == pytest.approx(0.3 - 0.18)

    def test_boundary_rows_vanish(self):
        y = np.linspace(0, 1, 11)
        assert np.allclose(greens_function(0.0, y), 0.0)
        assert np.allclose(greens_function(1.0, y), 0.0)

    def test_symmetry_and_positivity(self, rng):
        x = rng.uniform(0, 1, 20)
        y = rng.uniform(0, 1, 20)
        assert np.allclose(greens_function(x, y), greens_function(y, x))
        assert np.all(greens_function(x, y) >= 0.0)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            greens_function(-0.1, 0.5)


class TestCellIntegrals:
    @pytest.mark.parametrize("x", [0.0, 0.17, 0.5, 0.75, 1.0])
    def test_against_quadrature(self, x):
        grid = UniformGrid(8)
        exact = greens_cell_integrals(x, grid)
        nodes = grid.nodes()
        for i in range(grid.n):
            val, _ = integrate.quad(lambda y: greens_function(x, y),
                                    nodes[i], nodes[i + 1], epsabs=1e-14,
                                    points=[x] if nodes[i] < x < nodes[i + 1] else None)
            assert exact[i] == pytest.approx(val, abs=1e-14), (x, i)

    def test_row_sum_identity(self):
        # int_0^1 G(x, y) dy = x(1-x)/2
        grid = UniformGrid(13)
        x = np.linspace(0, 1, 31)
        sums = greens_cell_integrals(x, grid).sum(axis=1)
        assert np.allclose(sums, x * (1 - x) / 2, atol=1e-15)

    def test_vector_and_scalar_shapes(self):
        grid = UniformGrid(4)
        assert greens_cell_integrals(0.3, grid).shape == (4,)
        assert greens_cell_integrals(np.array([0.1, 0.9]), grid).shape == (2, 4)


class TestApplyOperator:
    def test_constant_density_gives_parabola(self):
        # K 1 = x(1-x)/2, exactly, for the cell route
        grid = UniformGrid(7)
        phi = GridFunction(grid, np.ones(7), kind="cell")
        got = apply_greens_operator(phi, grid)
        nodes = grid.nodes()
        assert np.allclose(got, nodes * (1 - nodes) / 2, atol=1e-15)

    def test_nodal_function_exact_at_nodes(self):
        # product of two piecewise linears is quadratic per cell: two-point
        # Gauss is exact, so K phi at the nodes matches fine quadrature
        grid = UniformGrid(6)
        phi = from_callable(grid, lambda x: x * (1 - x))
        got = apply_greens_operator(phi, grid)
        for j, x in enumerate(grid.nodes()):
            val, _ = integrate.quad(lambda y: greens_function(x, y) * float(phi(y)),
                                    0, 1, limit=100, epsabs=1e-13)
            assert got[j] == pytest.approx(val, abs=1e-12), j

    def test_callable_route(self):
        grid = UniformGrid(64)
        got = apply_greens_operator(np.sin, grid)
        x = grid.nodes()[32]
        val, _ = integrate.quad(lambda y: greens_function(x, y) * math.sin(y), 0, 1)
        # 2-pt Gauss error O(h^4) per cell for smooth integrands
        assert got[32] == pytest.approx(val, abs=1e-9)

    def test_positivity_preserved(self, rng):
        grid = UniformGrid(9)
        phi = GridFunction(grid, rng.uniform(0.0, 1.0, 9), kind="cell")
        assert np.all(apply_greens_operator(phi, grid) >= -1e-15)


class TestStochasticConvolution:
    def test_matches_manual_sum(self, rng):
        path = sample_increments(UniformGrid(8), 0.25, rng)
        conv = stochastic_convolution(path)
        density = step_noise(path)
        x = path.grid.nodes()[3]
        manual = sum(
            float(density.values[i]) * greens_cell_integrals(x, path.grid)[i]
            for i in range(8)
        )
        assert conv.values[3] == pytest.approx(manual, rel=1e-14)
        assert conv.values[0] == 0.0 and conv.values[-1] == 0.0

    def test_variance_identity(self):
        # Var[(K noise)(x)] equals the isometry of the averaged kernel row
        grid = UniformGrid(16)
        H, m, x = 0.3, 40000, grid.nodes()[5]
        avg = StepFunction.from_cells(grid, greens_cell_integrals(x, grid) / grid.h)
        target = ito_isometry(avg, hurst=H)
        from fracbvp import IncrementSampler
        draws = IncrementSampler(grid, H).sample_many(np.random.default_rng(5), m)
        weights = greens_cell_integrals(x, grid) / grid.h
        values = draws @ weights
        estimate = values.var(ddof=1)
        z = (estimate - target) / (target * math.sqrt(2.0 / (m - 1)))
        print(f"convolution variance: target={target:.3e} est={estimate:.3e} z={z:.2f}")
        assert abs(z) < 4.0


class TestConvolutionErrorMoment:
    def test_zero_at_boundary_points(self):
        grid = UniformGrid(8)
        assert convolution_error_second_moment(0.0, grid, 0.25) == pytest.approx(0.0, abs=1e-18)
        assert convolution_error_second_moment(1.0, grid, 0.25) == pytest.approx(0.0, abs=1e-18)

    def test_white_case_exact_l2(self):
        # at H = 1/2 the second moment is the L2 norm of the kernel error;
        # probe on a grid node so the kink sits on the fine partition
        grid = UniformGrid(8)
        x = grid.nodes()[3]
        got = convolution_error_second_moment(x, grid, 0.5, refine=16)
        avg = greens_cell_integrals(x, grid) / grid.h
        parts = []
        for i in range(grid.n):
            lo, hi = grid.nodes()[i], grid.nodes()[i + 1]
            val, _ = integrate.quad(
                lambda y: (greens_function(x, y) - avg[i]) ** 2, lo, hi,
                epsabs=1e-16)
            parts.append(val)
        assert got == pytest.approx(math.fsum(parts), rel=1e-9)

    def test_against_oracle_rough_case(self):
        # small grid so the O(N^2) oracle stays cheap; x on the fine partition
        grid = UniformGrid(2)
        x, H, refine = 0.25, 0.25, 2
        pieces = refine * grid.n
        edges = np.linspace(0, 1, pieces + 1)
        vals = greens_function(x, edges)
        avg = np.repeat(greens_cell_integrals(x, grid) / grid.h, refine)
        left, right = vals[:-1] - avg, vals[1:] - avg
        slopes = (right - left) * pieces
        got = convolution_error_second_moment(x, grid, H, refine=refine)
        expected = plinear_second_moment_oracle(left, slopes, H)
        assert got == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("H", [0.1, 0.25, 0.45])
    def test_decay_rate(self, H):
        ns = [16, 32, 64, 128]
        worst = [
            max(convolution_error_second_moment(x, UniformGrid(n), H)
                for x in (0.3, 0.5, 0.7))
            for n in ns
        ]
        rate, _ = estimate_rate([1 / n for n in ns], worst)
        print(f"H={H}: kernel-averaging decay rate {rate:.3f} (theory {2*H+1:.2f})")
        assert rate >= 2 * H + 1 - 0.15


def _fd_reference(n: int, forcing, reaction_slope: float = 0.0) -> np.ndarray:
    """Second-order finite differences for -u'' + c u = g, an independent
    discretization used only as a cross-check."""
    h = 1.0 / n
    x = np.linspace(0, 1, n + 1)[1:-1]
    banded = np.zeros((3, n - 1))
    banded[0, 1:] = -1.0 / h**2
    banded[1, :] = 2.0 / h**2 + reaction_slope
    banded[2, :-1] = -1.0 / h**2
    interior = solve_banded((1, 1), banded, forcing(x))
    return np.concatenate([[0.0], interior, [0.0]])


class TestHammersteinSolver:
    def test_poisson_constant_forcing(self):
        # -u'' = 1: u = x(1-x)/2; K applied to g=1 is exact here
        problem = ProblemSpec.from_labels(0.25, "zero", "one")
        solution = solve_hammerstein(problem, grid=UniformGrid(32))
        nodes = solution.grid.nodes()
        assert solution.iterations == 1
        assert solution.residual <= 1e-10
        assert np.allclose(solution.values, nodes * (1 - nodes) / 2, atol=1e-13)

    def test_linear_reaction_vs_finite_differences(self):
        # -u'' + u = 1 has u = 1 - cosh(x-1/2)/cosh(1/2); both schemes are
        # second order, so they sit within O(h^2) of each other
        n = 64
        problem = ProblemSpec.from_labels(0.25, "linear:1", "one")
        mild = solve_hammerstein(problem, grid=UniformGrid(n))
        fd = _fd_reference(n, lambda x: np.ones_like(x), reaction_slope=1.0)
        x = np.linspace(0, 1, n + 1)
        exact = 1.0 - np.cosh(x - 0.5) / np.cosh(0.5)
        h = 1.0 / n
        assert np.abs(mild.values - exact).max() < 5 * h**2
        assert np.abs(mild.values - fd).max() < 5 * h**2

    def test_sin_reaction_converges(self, rng):
        path = sample_increments(UniformGrid(32), 0.25, rng)
        problem = ProblemSpec.from_labels(0.25, "sin", "one")
        solution = solve_hammerstein(problem, path)
        assert solution.residual <= 1e-10
        assert solution.iterations < 100

    def test_sqrt_clip_reaction_converges(self, rng):
        for _ in range(5):
            path = sample_increments(UniformGrid(32), 0.25, rng)
            problem = ProblemSpec.from_labels(0.25, "sqrt-clip", "zero")
            solution = solve_hammerstein(problem, path)
            assert solution.residual <= 1e-10

    def test_zero_forcing_zero_noise_gives_zero(self):
        problem = ProblemSpec.from_labels(0.25, "sin", "zero")
        solution = solve_hammerstein(problem, grid=UniformGrid(16))
        assert np.allclose(solution.values, 0.0)

    def test_nonconvergence_raises_with_diagnostics(self, rng):
        path = sample_increments(UniformGrid(16), 0.25, rng)
        problem = ProblemSpec.from_labels(0.25, "sin", "one")
        with pytest.raises(NonConvergenceError) as excinfo:
            solve_hammerstein(problem, path, max_iters=1)
        assert excinfo.value.iterations == 1
        assert excinfo.value.residual > 0.0

    @pytest.mark.parametrize("controls", [dict(max_iters=-1), dict(tol=-1.0),
                                          dict(tol=math.nan)])
    def test_invalid_iteration_controls_rejected(self, rng, controls):
        path = sample_increments(UniformGrid(16), 0.25, rng)
        problem = ProblemSpec.from_labels(0.25, "sin", "one")
        with pytest.raises(ValueError):
            solve_hammerstein(problem, path, **controls)

    def test_energy_bound(self, rng):
        # ||u|| <= ||F|| / (2 - L) with L the one-sided constant (sin: L=1)
        grid = UniformGrid(32)
        problem = ProblemSpec.from_labels(0.25, "sin", "one")
        for _ in range(5):
            path = sample_increments(grid, 0.25, rng)
            solution = solve_hammerstein(problem, path)
            noise = step_noise(path)
            force_sq = float(np.sum((1.0 + noise.values) ** 2)) * grid.h
            bound = math.sqrt(force_sq) / (2.0 - 1.0)
            norm = GridFunction(solution.grid, solution.values).l2_norm()
            assert norm <= bound + 1e-12, (norm, bound)


class TestHammersteinOperators:
    """The Green's solver applies K at the nodes with running sums over the
    cells, the FEM solver by a stiffness solve of the Gauss-rule load; the
    dense Gauss-weight matrix of the oracles is the reference for both, which
    is the nodal equivalence that lets them share one iteration."""

    @staticmethod
    def _dense_apply(grid, phi, rows=512):
        # the oracle matrix a block of nodes at a time, to bound its memory
        nodes = grid.nodes()
        return np.concatenate([gauss_weight_matrix(grid, nodes[i:i + rows]) @ phi
                               for i in range(0, grid.n + 1, rows)])

    @pytest.mark.parametrize("nodal_apply, n", [
        *[pytest.param(greens._nodal_apply, n, id=str(n)) for n in (1, 2, 16, 1024, 4096)],
        *[pytest.param(fem._nodal_apply, n, id=f"fem-{n}") for n in (2, 16, 1024, 4096)],
    ])
    def test_apply_matches_dense_oracle(self, nodal_apply, n):
        grid = UniformGrid(n)
        apply = nodal_apply(grid)
        phi = np.random.default_rng(n).normal(size=2 * n)
        exact = self._dense_apply(grid, phi)
        got = apply(phi)
        assert got.shape == (n + 1,)
        assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()
        assert got[0] == got[-1] == 0.0
        # a stack of rows maps row by row
        stack = np.random.default_rng([n, 3]).normal(size=(3, 2 * n))
        exact = self._dense_apply(grid, stack.T).T
        got = apply(stack)
        assert got.shape == (3, n + 1)
        assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()
        assert np.all(got[:, [0, -1]] == 0.0)

    def test_apply_matches_cell_integrals_on_a_fine_grid(self):
        # a per-cell constant phi integrates exactly against G(node, .)
        grid = UniformGrid(16384)
        cells = np.random.default_rng(7).normal(size=grid.n)
        sampled = np.linspace(0, grid.n, 64).round().astype(int)
        exact = greens_cell_integrals(grid.nodes()[sampled], grid) @ cells
        got = greens._nodal_apply(grid)(np.repeat(cells, 2))[sampled]
        assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()

    def test_oracle_gauss_weights_sum_to_cell_integrals(self):
        grid = UniformGrid(16)
        weights = gauss_weight_matrix(grid)
        assert weights.shape == (17, 32)
        # G(node, .) is linear on each cell, so the two Gauss weights of a
        # cell add up to the exact integral of G over it
        cells = greens_cell_integrals(grid.nodes(), grid)
        assert np.abs(weights[:, 0::2] + weights[:, 1::2] - cells).max() <= 1e-15 * cells.max()

    def test_one_set_up_serves_two_threads_at_once(self):
        # the K map keeps no state between calls, so two threads solving
        # blocks of different sizes on one set-up get every row as alone.
        # Frequent switches give the interleavings a chance: a K map that
        # kept its running sums between calls failed dozens of these solves
        grid = UniformGrid(256)
        problem = ProblemSpec.from_labels(0.25, "sin", "one")
        setup = greens._discretize(problem, grid)
        sampler = IncrementSampler(grid, 0.25, "davies-harte")
        blocks = [sampler.sample(1, 0, 3), sampler.sample(2, 0, 5)]
        alone = [np.array([solve_hammerstein(problem, IncrementPath(grid, row)).values
                           for row in block.increments]) for block in blocks]
        start = Barrier(2)

        def solve(block):
            start.wait()
            return [solve_hammerstein(problem, block, setup=setup).values for _ in range(100)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                shared = list(pool.map(solve, blocks))
        finally:
            sys.setswitchinterval(interval)
        for runs, expected in zip(shared, alone):
            for values in runs:
                assert np.array_equal(values, expected)

    def test_no_solve_reaches_the_cell_integrals(self, rng, monkeypatch):
        # K is applied without a kernel matrix, so no solve evaluates G or
        # its cell integrals, whatever grid its noise lives on
        grid = UniformGrid(16)
        path = sample_increments(grid, 0.25, rng)
        problem = ProblemSpec.from_labels(0.25, "sin", "one")

        def must_not_run(*args, **kwargs):
            raise AssertionError("solve_hammerstein built a kernel matrix")

        monkeypatch.setattr(greens, "greens_cell_integrals", must_not_run)
        monkeypatch.setattr(greens, "greens_function", must_not_run)
        solve_hammerstein(problem, path)
        solve_hammerstein(problem, aggregate_increments(path, 4), grid=grid)
        solve_hammerstein(problem, grid=grid)


class TestHammersteinNoiseTerm:
    """With f = 0 and g = 0 the mild solution is the noise term K noise,
    which the solver applies through its Gauss weights; the oracle
    integrates G exactly over the cells of the path's grid."""

    @staticmethod
    def _noise_term(path, grid=None):
        solution = solve_hammerstein(ProblemSpec.from_labels(0.25, "zero", "zero"), path,
                                     grid=grid)
        assert solution.iterations == 1
        return solution.values

    @pytest.mark.parametrize("n", [2, 16, 1024])
    def test_matches_exact_convolution(self, n):
        path = sample_increments(UniformGrid(n), 0.25, np.random.default_rng(n))
        exact = stochastic_convolution(path).values
        got = self._noise_term(path)
        assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()

    @pytest.mark.parametrize("n", [4, 16, 1024])
    def test_coarse_path_matches_exact_convolution(self, n):
        grid = UniformGrid(n)
        path = sample_increments(UniformGrid(n // 4), 0.25, np.random.default_rng(n))
        exact = stochastic_convolution(path, points=grid.nodes())
        got = self._noise_term(path, grid)
        assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()

    @pytest.mark.parametrize("noise_n", [6, 32])
    def test_non_dividing_noise_grid_rejected_by_both_solvers(self, noise_n):
        path = sample_increments(UniformGrid(noise_n), 0.25, np.random.default_rng(noise_n))
        problem = ProblemSpec.from_labels(0.25, "sin", "one")
        grid = UniformGrid(16)
        with pytest.raises(GridMismatchError, match=f"{noise_n} cells"):
            solve_hammerstein(problem, path, grid=grid)
        with pytest.raises(GridMismatchError, match=f"{noise_n} cells"):
            solve_nonlinear_fem(problem, path, grid=grid)
