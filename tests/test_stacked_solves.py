"""A stack of noise paths solves to exactly what its rows solve to alone.

Studies solve blocks of Monte Carlo samples as the rows of one stack; a
report is reproducible only if every row of a stacked solve is bit for bit
the single solve of that row, with the same iteration count and residual.
"""

import numpy as np
import pytest

from fracbvp import (IncrementPath, IncrementSampler, ProblemSpec, UniformGrid,
                     aggregate_increments, discrete_h1_error, discrete_l2_error,
                     ritz_projection, solve_hammerstein, solve_nonlinear_fem)
from fracbvp.errors import NonConvergenceError
from fracbvp.fem import Tridiagonal

SOLVERS = {"fem": solve_nonlinear_fem, "greens": solve_hammerstein}


def _values(solution):
    return solution.grid_function.values


def _stack(n, rows=6, seed=11):
    """Seeded paths on n cells, rows scaled apart so they need different iteration counts."""
    sampler = IncrementSampler(UniformGrid(n), 0.3, "davies-harte")
    paths = sampler.sample_many(np.random.default_rng(seed), rows)
    scales = np.array([0.0, 1.0, 4.0, 0.25, 12.0, 1.0])[:rows]
    return IncrementPath(UniformGrid(n), paths * scales[:, None])


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("n", [2, 3, 16, 512])
@pytest.mark.parametrize("reaction", ["zero", "sin", "sqrt-clip", "linear:-1.5"])
def test_stacked_solve_equals_row_by_row_solves(solver, n, reaction):
    solve = SOLVERS[solver]
    problem = ProblemSpec.from_labels(0.3, reaction, "one")
    stack = _stack(n)
    stacked = solve(problem, stack)
    assert _values(stacked).shape[0] == len(stack.increments)
    for row, increments in enumerate(stack.increments):
        alone = solve(problem, IncrementPath(stack.grid, increments))
        assert np.array_equal(_values(stacked)[row], _values(alone))
        assert stacked.row_iterations[row] == alone.iterations
        assert stacked.row_residuals[row] == alone.residual
    assert stacked.iterations == sum(stacked.row_iterations)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_rows_that_stop_early_are_frozen(solver):
    problem = ProblemSpec.from_labels(0.3, "sin", "one")
    stacked = SOLVERS[solver](problem, _stack(64))
    # the zero-noise row and the strongly forced row stop at different steps,
    # so the loop carries on without some rows
    assert len(set(stacked.row_iterations.tolist())) > 1


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_stacked_solve_on_a_refined_grid(solver):
    problem = ProblemSpec.from_labels(0.3, "sqrt-clip", "one")
    stack = _stack(8)
    fine = UniformGrid(32)
    stacked = SOLVERS[solver](problem, stack, grid=fine)
    for row, increments in enumerate(stack.increments):
        alone = SOLVERS[solver](problem, IncrementPath(stack.grid, increments), grid=fine)
        assert np.array_equal(_values(stacked)[row], _values(alone))


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_stall_names_the_row(solver):
    problem = ProblemSpec.from_labels(0.3, "sin", "one")
    stack = _stack(16)
    stacked = SOLVERS[solver](problem, stack)
    # a cap between the fewest and the most iterations stalls some rows only
    cap = int(stacked.row_iterations.max()) - 1
    first = int(np.flatnonzero(stacked.row_iterations > cap)[0])
    with pytest.raises(NonConvergenceError) as excinfo:
        SOLVERS[solver](problem, stack, max_iters=cap)
    assert excinfo.value.row == first
    assert excinfo.value.iterations == cap


@pytest.mark.parametrize("n", [16, 512, 4096])
@pytest.mark.parametrize("reaction", ["zero", "sin", "sqrt-clip", "linear:-1.5"])
def test_both_solvers_take_the_same_iterations(n, reaction):
    # in 1D the stiffness-preconditioned FEM step is the Hammerstein step at
    # the nodes, and both solvers stop on its L2 norm
    problem = ProblemSpec.from_labels(0.3, reaction, "one")
    stack = _stack(n)
    fem, mild = solve_nonlinear_fem(problem, stack), solve_hammerstein(problem, stack)
    assert fem.row_iterations.tolist() == mild.row_iterations.tolist()


def test_stacked_tridiagonal_solve_equals_single_solves(rng):
    m = 511
    tri = Tridiagonal(UniformGrid(m + 1))
    rhs = rng.normal(size=(7, m))
    x = tri.solve(rhs)
    assert np.array_equal(x, np.stack([tri.solve(row) for row in rhs]))
    assert np.array_equal(tri.matvec(x), np.stack([tri.matvec(row) for row in x]))


def test_stacked_errors_and_projections_equal_single_ones():
    problem = ProblemSpec.from_labels(0.3, "sin", "one")
    fine = _stack(48)
    coarse = aggregate_increments(fine, 4)
    u_fine = solve_nonlinear_fem(problem, fine).grid_function
    u_coarse = solve_nonlinear_fem(problem, coarse).grid_function
    projected = ritz_projection(u_fine, coarse.grid)
    l2 = discrete_l2_error(u_coarse, u_fine)
    h1 = discrete_h1_error(projected, u_coarse)
    norms = u_coarse.h1_norm()
    for row in range(len(fine.increments)):
        alone_fine = solve_nonlinear_fem(
            problem, IncrementPath(fine.grid, fine.increments[row])).grid_function
        alone_coarse = solve_nonlinear_fem(
            problem, IncrementPath(coarse.grid, coarse.increments[row])).grid_function
        assert l2[row] == discrete_l2_error(alone_coarse, alone_fine)
        assert h1[row] == discrete_h1_error(ritz_projection(alone_fine, coarse.grid),
                                            alone_coarse)
        assert norms[row] == alone_coarse.h1_norm()


def test_path_shape_is_checked():
    grid = UniformGrid(4)
    with pytest.raises(ValueError):
        IncrementPath(grid, np.zeros((2, 5)))
    with pytest.raises(ValueError):
        IncrementPath(grid, np.zeros((2, 2, 4)))


def _study_stack(n, rows, seed=11):
    """Seeded paths on n cells in a study's block shape, rows scaled apart so they stop at
    different steps, some of them part way through filling the acceleration history."""
    sampler = IncrementSampler(UniformGrid(n), 0.3, "davies-harte")
    paths = sampler.sample_many(np.random.default_rng(seed), rows)
    scales = np.resize([0.0, 1.0, 4.0, 0.25, 12.0, 1.0], rows)
    return IncrementPath(UniformGrid(n), paths * scales[:, None])


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("n, rows", [(512, 32), (1024, 16)])
@pytest.mark.parametrize("reaction", ["sin", "linear:1.5", "linear:-1.5", "sqrt-clip"])
def test_study_sized_stack_equals_row_by_row_solves(solver, n, rows, reaction):
    # the block shapes of studies with a reference of 512 and 1024 cells
    solve = SOLVERS[solver]
    problem = ProblemSpec.from_labels(0.3, reaction, "one")
    stack = _study_stack(n, rows)
    stacked = solve(problem, stack)
    assert len(set(stacked.row_iterations.tolist())) > 2
    for row, increments in enumerate(stack.increments):
        alone = solve(problem, IncrementPath(stack.grid, increments))
        assert np.array_equal(_values(stacked)[row], _values(alone))
        assert stacked.row_iterations[row] == alone.iterations
        assert stacked.row_residuals[row] == alone.residual
