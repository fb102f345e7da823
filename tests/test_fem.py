"""Galerkin discretization: assembly, solves, Ritz projection."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import solve_banded

from fracbvp import (
    GridFunction,
    IncrementPath,
    IncrementSampler,
    ProblemSpec,
    StudyConfig,
    UniformGrid,
    assemble_load,
    ritz_projection,
    run_superconvergence_study,
    solve_hammerstein,
    solve_nonlinear_fem,
)
from fracbvp import experiments
from fracbvp.errors import GridMismatchError, NonConvergenceError
from fracbvp.fem import Tridiagonal

from oracles import (band_matvec, from_callable, sample_increments, solve_linear_fem,
                     stiffness_bands)


class TestTridiagonal:
    """The stiffness tridiag(-1, 2, -1)/h of one grid; nothing else is a Tridiagonal."""

    def test_solve_round_trip(self, rng):
        stiffness = Tridiagonal(UniformGrid(10))
        b = rng.normal(size=9)
        x = stiffness.solve(b)
        assert np.allclose(band_matvec(stiffness_bands(stiffness.grid), x), b, atol=1e-12)

    def test_built_from_a_grid_only(self):
        with pytest.raises(TypeError):
            Tridiagonal(-np.ones(2), 4.0 * np.ones(3), -np.ones(2))


class TestTridiagonalSolve:
    """The stiffness solve is two running sums; scipy's solve_banded, a
    general LAPACK band solve, is its oracle."""

    @pytest.mark.parametrize("m", [1, 2, 7, 511, 4095, 16383])
    def test_agrees_with_solve_banded(self, rng, m):
        stiffness = Tridiagonal(UniformGrid(m + 1))
        rhs = rng.normal(size=m)
        before = rhs.copy()
        x = stiffness.solve(rhs)
        bands = stiffness_bands(stiffness.grid)
        oracle = solve_banded((1, 1), bands, rhs)
        assert np.array_equal(rhs, before)
        # cond(A) grows like m^2; the drift stays far below that
        assert np.abs(x - oracle).max() <= 1e-14 * m * np.abs(oracle).max()
        # and the residual stays within 1.5 times the LAPACK solve's
        residual = np.linalg.norm(rhs - band_matvec(bands, x))
        floor = np.linalg.norm(rhs - band_matvec(bands, oracle))
        assert residual <= 1.5 * floor + 8 * np.finfo(float).eps * np.linalg.norm(rhs)

    @pytest.mark.parametrize("m", [1, 2, 7, 511, 4095, 16383])
    def test_stiffness_solve_bit_identical(self, rng, m):
        # a stack of right-hand sides solves bit for bit as its rows alone
        stiffness = Tridiagonal(UniformGrid(m + 1))
        rhs = rng.normal(size=(5, m))
        assert np.array_equal(stiffness.solve(rhs),
                              np.stack([stiffness.solve(row) for row in rhs]))

    @pytest.mark.parametrize("m", [1, 7])
    def test_non_finite_input_rejected(self, m):
        stiffness = Tridiagonal(UniformGrid(m + 1))
        for bad in (np.nan, np.inf, -np.inf):
            rhs = np.ones((2, m))
            rhs[-1, -1] = bad
            with pytest.raises(ValueError):
                stiffness.solve(rhs)
            with pytest.raises(ValueError):
                stiffness.solve(rhs[-1])

    def test_huge_finite_input_accepted(self):
        # squares overflow here, so the exact elementwise test must decide
        stiffness = Tridiagonal(UniformGrid(4))
        rhs = np.array([1e300, -1e300, 1e300])
        x = stiffness.solve(rhs)
        oracle = solve_banded((1, 1), stiffness_bands(stiffness.grid), rhs)
        assert np.abs(x - oracle).max() <= 1e-15 * np.abs(oracle).max()

    def test_shape_mismatch_rejected(self):
        stiffness = Tridiagonal(UniformGrid(2))
        with pytest.raises(ValueError):
            stiffness.solve(np.ones(3))
        with pytest.raises(ValueError):
            stiffness.solve(np.float64(1.0))


class TestAssembly:
    def test_stiffness_entries(self):
        grid = UniformGrid(4)
        bands = stiffness_bands(grid)
        assert np.allclose(bands[1], 2.0 / grid.h)
        assert np.allclose(bands[0, 1:], -1.0 / grid.h)

    def test_stiffness_needs_interior_nodes(self):
        with pytest.raises(ValueError):
            Tridiagonal(UniformGrid(1))

    def test_constant_forcing_load(self):
        # (1, phi_j) = h exactly; the hat integrates to h
        grid = UniformGrid(8)
        load = assemble_load(grid, forcing=lambda x: np.ones_like(x))
        assert np.allclose(load, grid.h)

    def test_linear_forcing_load(self):
        # (x, phi_j) = h * x_j for interior hats (2-pt Gauss exact on cubics)
        grid = UniformGrid(8)
        load = assemble_load(grid, forcing=lambda x: x)
        assert np.allclose(load, grid.h * grid.nodes()[1:-1], atol=1e-15)

    def test_noise_load_same_grid(self, rng):
        # (dW/h, phi_j) integrates the hat against cell densities:
        # each interior hat takes half of each neighbouring increment
        grid = UniformGrid(8)
        path = sample_increments(grid, 0.3, rng)
        load = assemble_load(grid, path=path)
        inc = path.increments
        assert np.allclose(load, (inc[:-1] + inc[1:]) / 2.0, atol=1e-15)

    def test_noise_load_coarser_noise(self, rng):
        # noise held cellwise constant on a coarser grid: distributing each
        # increment uniformly over the finer cells must reproduce the load
        coarse, fine = UniformGrid(4), UniformGrid(8)
        path = sample_increments(coarse, 0.3, rng)
        load = assemble_load(fine, path=path)
        spread = np.repeat(path.increments / 2, 2)
        assert np.allclose(load, (spread[:-1] + spread[1:]) / 2.0, atol=1e-15)

    def test_noise_load_mismatch_raises(self, rng):
        path = sample_increments(UniformGrid(8), 0.3, rng)
        with pytest.raises(GridMismatchError):
            assemble_load(UniformGrid(4), path=path)
        with pytest.raises(GridMismatchError):
            assemble_load(UniformGrid(12), path=path)

    def test_combined_load_is_sum(self, rng):
        grid = UniformGrid(8)
        path = sample_increments(grid, 0.3, rng)
        combined = assemble_load(grid, forcing=lambda x: np.ones_like(x), path=path)
        separate = assemble_load(grid, forcing=lambda x: np.ones_like(x)) \
            + assemble_load(grid, path=path)
        assert np.allclose(combined, separate, atol=1e-15)


class TestLinearSolve:
    @pytest.mark.parametrize("n", [2, 17, 128])
    def test_poisson_nodally_exact(self, n):
        # -u'' = 1: the Galerkin solution interpolates x(1-x)/2 at the nodes
        grid = UniformGrid(n)
        load = assemble_load(grid, forcing=lambda x: np.ones_like(x))
        solution = solve_linear_fem(grid, load)
        nodes = grid.nodes()
        assert np.abs(solution.values - nodes * (1 - nodes) / 2).max() < 1e-12

    def test_residual_reported(self, rng):
        grid = UniformGrid(16)
        load = assemble_load(grid, forcing=lambda x: np.cos(3 * x))
        solution = solve_linear_fem(grid, load)
        assert solution.residual < 1e-10
        assert solution.iterations == 0

    def test_stack_of_loads_solves_row_by_row_at_residual_zero(self, rng):
        # the loop's residual for f = 0 is exactly 0 at the stiffness solve
        grid = UniformGrid(32)
        loads = rng.normal(size=(4, grid.n - 1))
        solution = solve_linear_fem(grid, loads)
        assert solution.row_residuals.tolist() == [0.0] * 4
        assert solution.row_iterations.tolist() == [0] * 4
        for values, load in zip(solution.values, loads):
            assert np.array_equal(values, solve_linear_fem(grid, load).values)


class TestNonlinearSolve:
    def test_zero_reaction_matches_linear(self, rng):
        grid = UniformGrid(16)
        path = sample_increments(grid, 0.25, rng)
        problem = ProblemSpec.from_labels(0.25, "zero", "one")
        nl = solve_nonlinear_fem(problem, path)
        load = assemble_load(grid, forcing=problem.forcing, path=path)
        lin = solve_linear_fem(grid, load)
        assert np.allclose(nl.values, lin.values, atol=1e-12)
        assert nl.iterations <= 2

    def test_linear_reaction_vs_direct_solve(self, rng):
        # -u'' + u = g: assemble mass exactly as the scheme quadrature sees
        # it and solve the coupled system directly with a banded factorization
        n = 32
        grid = UniformGrid(n)
        problem = ProblemSpec.from_labels(0.25, "linear:1", "sinpi")
        solution = solve_nonlinear_fem(problem, grid=grid, tol=1e-13)

        h = grid.h
        banded = np.zeros((3, n - 1))
        banded[0, 1:] = -1.0 / h + h / 6.0
        banded[1, :] = 2.0 / h + 2.0 * h / 3.0
        banded[2, :-1] = -1.0 / h + h / 6.0
        load = assemble_load(grid, forcing=problem.forcing)
        direct = solve_banded((1, 1), banded, load)
        assert np.abs(solution.values[1:-1] - direct).max() < 1e-11

    def test_sin_reaction_second_order_accurate(self):
        # smooth nonlinear problem: compare against a fine-grid reference
        problem = ProblemSpec.from_labels(0.25, "sin", "sinpi")
        fine = solve_nonlinear_fem(problem, grid=UniformGrid(512))
        fine = GridFunction(fine.grid, fine.values)
        errors = []
        for n in (8, 16, 32):
            sol = solve_nonlinear_fem(problem, grid=UniformGrid(n))
            errors.append(float(np.abs(sol.values - fine(sol.grid.nodes())).max()))
        ratio = errors[0] / errors[1]
        print(f"nonlinear FEM max-error ratios: {errors[0]/errors[1]:.2f}, "
              f"{errors[1]/errors[2]:.2f} (want ~4)")
        assert 3.0 < ratio < 5.0

    def test_sqrt_clip_converges(self, rng):
        problem = ProblemSpec.from_labels(0.25, "sqrt-clip", "zero")
        for _ in range(5):
            path = sample_increments(UniformGrid(32), 0.25, rng)
            solution = solve_nonlinear_fem(problem, path)
            assert solution.residual <= 1e-10

    @pytest.mark.parametrize("n", [2, 16, 512, 1024, 2048, 8192, 16384])
    def test_zero_reaction_exits_after_one_iteration(self, n):
        # the first step is the exact linear solve, so every row of seeded
        # noise stops at the next step, a stiffness solve of rounding errors
        # whose L2 norm does not grow with n
        problem = ProblemSpec.from_labels(0.25, "zero", "one")
        sampler = IncrementSampler(UniformGrid(n), 0.25, "davies-harte")
        paths = IncrementPath(UniformGrid(n), sampler.sample_many(np.random.default_rng(n), 16))
        solution = solve_nonlinear_fem(problem, paths)
        assert solution.row_iterations.tolist() == [1] * 16
        assert solve_nonlinear_fem(problem, grid=UniformGrid(n)).iterations == 1

    @pytest.mark.parametrize("n", [2048, 8192, 16384])
    @pytest.mark.parametrize("reaction", ["zero", "sin", "sqrt-clip"])
    def test_fine_grids_converge(self, n, reaction):
        # the stopping rule does not depend on h, so fine grids reach the
        # default tolerance like coarse ones
        problem = ProblemSpec.from_labels(0.25, reaction, "one")
        sampler = IncrementSampler(UniformGrid(n), 0.25, "davies-harte")
        paths = IncrementPath(UniformGrid(n), sampler.sample_many(np.random.default_rng(n), 4))
        solution = solve_nonlinear_fem(problem, paths)
        assert (solution.row_residuals <= 1e-10).all()
        assert solution.row_iterations.max() < 40

    def test_nonconvergence_raises(self, rng):
        path = sample_increments(UniformGrid(16), 0.25, rng)
        problem = ProblemSpec.from_labels(0.25, "sin", "one")
        with pytest.raises(NonConvergenceError):
            solve_nonlinear_fem(problem, path, max_iters=0)

    @pytest.mark.parametrize("controls", [dict(max_iters=-1), dict(tol=-1.0),
                                          dict(tol=math.nan)])
    def test_invalid_iteration_controls_rejected(self, rng, controls):
        path = sample_increments(UniformGrid(16), 0.25, rng)
        problem = ProblemSpec.from_labels(0.25, "sin", "one")
        with pytest.raises(ValueError):
            solve_nonlinear_fem(problem, path, **controls)

    def test_nodally_equivalent_to_mild_solver(self, rng):
        # the Galerkin solve of each hat point load reproduces G at the
        # nodes, so with matching quadrature the two schemes define the same
        # nodal fixed point; they agree to the iteration tolerance, noise
        # included
        problem = ProblemSpec.from_labels(0.25, "sin", "sinpi")
        for n in (16, 64):
            path = sample_increments(UniformGrid(n), 0.25, rng)
            fem = solve_nonlinear_fem(problem, path, tol=1e-12)
            mild = solve_hammerstein(problem, path, tol=1e-12)
            gap = np.abs(fem.values - mild.values).max()
            print(f"n={n}: max nodal gap {gap:.2e}")
            assert gap < 1e-10

    def test_zero_reaction_equivalence_is_exact(self, rng):
        # without a reaction both solvers are single linear solves of the
        # same equations; only roundoff separates them
        problem = ProblemSpec.from_labels(0.25, "zero", "one")
        path = sample_increments(UniformGrid(32), 0.25, rng)
        fem = solve_nonlinear_fem(problem, path)
        mild = solve_hammerstein(problem, path)
        assert np.abs(fem.values - mild.values).max() < 1e-13


class TestRitzProjection:
    def test_projection_is_nodal_interpolation(self):
        # 1d identity: for w vanishing at both ends, the Ritz projection onto
        # a nested coarser space keeps the shared nodal values
        fine, coarse = UniformGrid(32), UniformGrid(8)
        w = from_callable(fine, lambda x: np.sin(2.5 * x) * x * (1 - x))
        proj = ritz_projection(w, coarse)
        assert np.allclose(proj.values, w(coarse.nodes()), atol=1e-10)

    def test_projection_onto_same_grid_is_identity(self):
        grid = UniformGrid(16)
        w = from_callable(grid, lambda x: x * (1 - x) * np.exp(x))
        proj = ritz_projection(w, grid)
        assert np.allclose(proj.values, w.values, atol=1e-10)

    def test_energy_orthogonality(self, rng):
        # (w - Pw)' is L2-orthogonal to slopes of coarse hat functions
        fine, coarse = UniformGrid(24), UniformGrid(6)
        w = GridFunction(fine, np.concatenate([[0.0], rng.normal(size=23), [0.0]]))
        proj = ritz_projection(w, coarse)
        fine_slopes = np.diff(w.values) / fine.h
        proj_slopes = np.repeat(np.diff(proj.values) / coarse.h, 4)
        defect = fine_slopes - proj_slopes
        # integrate defect against each coarse hat's slope (piecewise const)
        for j in range(1, coarse.n):
            hat = np.zeros(coarse.n)
            hat[j - 1], hat[j] = 1.0 / coarse.h, -1.0 / coarse.h
            inner = float(np.sum(defect * np.repeat(hat, 4)) * fine.h)
            assert abs(inner) < 1e-12, j

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    def test_closed_form_matches_the_stiffness_solve(self, rng, n):
        # a stack of w with nonzero ends: the projection solves A p = (w', phi_j')
        # with zero boundary values, here densely from the oracle's bands and a
        # right-hand side integrated from w's fine slopes
        fine, coarse = UniformGrid(4 * n), UniformGrid(n)
        w = GridFunction(fine, rng.normal(size=(3, fine.n + 1)))
        proj = ritz_projection(w, coarse)
        assert proj.values.shape == (3, n + 1)
        assert np.all(proj.values[:, [0, -1]] == 0.0)
        if n == 1:
            return  # no interior node
        slopes = np.diff(w.values) / fine.h
        hats = np.zeros((n - 1, n))
        hats[np.arange(n - 1), np.arange(n - 1)] = 1.0 / coarse.h
        hats[np.arange(n - 1), np.arange(1, n)] = -1.0 / coarse.h
        rhs = slopes @ np.repeat(hats, 4, axis=1).T * fine.h
        bands = stiffness_bands(coarse)
        stiffness = (np.diag(bands[1]) + np.diag(bands[0, 1:], 1)
                     + np.diag(bands[2, :-1], -1))
        oracle = np.linalg.solve(stiffness, rhs.T).T
        assert np.allclose(proj.values[:, 1:-1], oracle, rtol=0.0,
                           atol=1e-12 * np.abs(oracle).max())

    def test_non_finite_values_raise(self):
        w = GridFunction(UniformGrid(8), np.array([0.0] * 8 + [np.nan]))
        with pytest.raises(ValueError):
            ritz_projection(w, UniformGrid(4))

    @pytest.mark.parametrize("r", [2, 4])
    @pytest.mark.parametrize("n", [16, 17, 100, 128])
    def test_nested_nodal_functions_read_their_nodes_as_evaluation_does(self, rng, n, r):
        # a nodal w on a grid refining the target r times gives its every
        # r-th value; on these grids evaluating w there gives them bit for bit
        w = GridFunction(UniformGrid(r * n), rng.normal(size=(5, r * n + 1)))
        read = ritz_projection(w, UniformGrid(n))
        evaluated = ritz_projection(lambda x: w(x), UniformGrid(n))
        assert np.array_equal(read.values, evaluated.values)

    def test_non_dyadic_nodes_are_read_exactly(self, rng):
        # at n = 10, r = 3 the target's nodes j/10 and w's nodes 3j/30 differ
        # by rounding, so evaluation interpolates between w's values; reading
        # takes them as they are
        w = GridFunction(UniformGrid(30), rng.normal(size=(5, 31)))
        read = ritz_projection(w, UniformGrid(10))
        evaluated = ritz_projection(lambda x: w(x), UniformGrid(10))
        x = UniformGrid(10).nodes()
        exact = w.values[:, ::3] - w.values[:, :1] * (1.0 - x) - w.values[:, -1:] * x
        assert np.array_equal(read.values, exact)
        assert np.abs(read.values - evaluated.values).max() <= 1e-13

    def test_superconvergence_study_is_unchanged_by_reading_nodes(self, monkeypatch):
        # criterion 9's study: every proxy is a nodal function on the grid
        # 2n, so reading its nodes gives the report that evaluation gave
        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=16, levels=4,
                             samples=200, seed=2024, solver="fem")
        read = run_superconvergence_study(config)
        project = experiments.ritz_projection
        monkeypatch.setattr(experiments, "ritz_projection",
                            lambda w, grid: project(lambda x: w(x), grid))
        assert run_superconvergence_study(config) == read
