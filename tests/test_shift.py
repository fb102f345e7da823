"""The reaction's slope at zero moved into both discrete Green's operators.

A reaction with slope_at_zero = c is iterated as u + K_c (f(., u) - c u) =
K_c (g + noise) with K_c = (I + c K)^-1 K, the same equation as
u + K f(., u) = K (g + noise).  These tests check each solver's K_c against
dense oracles built independently of the solvers, and that the solutions
still meet the unshifted equation to the stated tolerance.
"""

import numpy as np
import pytest

from fracbvp import (GridFunction, HurstIndex, IncrementPath, IncrementSampler, ProblemSpec,
                     ReactionTerm, UniformGrid, make_forcing, make_reaction, solve_hammerstein,
                     solve_nonlinear_fem)
from fracbvp import fem, greens, problem
from fracbvp.errors import NonConvergenceError
from fracbvp.fem import Tridiagonal, assemble_load
from fracbvp.grids import _shifted_stiffness, gauss_values

from oracles import band_matvec, gauss_weight_matrix, shifted_bands

SOLVERS = {"fem": solve_nonlinear_fem, "greens": solve_hammerstein}
SHIFTS = [-1.99, -1.0, 1.0, 1.99]


class TestShiftedTridiagonal:
    @pytest.mark.parametrize("c", SHIFTS)
    @pytest.mark.parametrize("n", [2, 3, 16, 512, 4096, 16384])
    def test_solve_inverts_stiffness_plus_mass(self, rng, n, c):
        grid = UniformGrid(n)
        bands = shifted_bands(grid, c)
        shifted = Tridiagonal(grid, c)
        rhs = rng.normal(size=n - 1)
        x = shifted.solve(rhs)
        # normwise backward error at rounding level, as for a LAPACK band solve
        norm = np.abs(bands).sum(axis=0).max()
        backward = np.abs(rhs - band_matvec(bands, x)).max()
        assert backward <= 8 * np.finfo(float).eps * (norm * np.abs(x).max()
                                                      + np.abs(rhs).max())

    @pytest.mark.parametrize("c", SHIFTS)
    @pytest.mark.parametrize("n", [2, 3, 16, 64])
    def test_solve_matches_dense_solve(self, rng, n, c):
        grid = UniformGrid(n)
        bands = shifted_bands(grid, c)
        dense = np.diag(bands[1]) + np.diag(bands[0, 1:], 1) + np.diag(bands[2, :-1], -1)
        rhs = rng.normal(size=(3, n - 1))
        x = Tridiagonal(grid, c).solve(rhs)
        exact = np.linalg.solve(dense, rhs.T).T
        # the stiffness solve's bound: cond grows like m^2, the drift far slower
        assert np.abs(x - exact).max() <= 1e-14 * (n - 1) * np.abs(exact).max()

    @pytest.mark.parametrize("n", [2, 3, 16, 512, 4096, 16384])
    def test_zero_shift_keeps_the_stiffness_weights(self, n):
        ramp = np.arange(1.0, n)
        for stiffness in (Tridiagonal(UniformGrid(n)), Tridiagonal(UniformGrid(n), 0.0)):
            assert np.array_equal(stiffness._ramp, ramp)
            assert np.array_equal(stiffness._back, 1.0 / (ramp * (ramp + 1.0)))
            assert np.array_equal(stiffness._scale, ramp / n)

    @pytest.mark.parametrize("c", SHIFTS)
    def test_stacked_rows_solve_as_alone(self, rng, c):
        shifted = Tridiagonal(UniformGrid(512), c)
        rhs = rng.normal(size=(5, 511))
        assert np.array_equal(shifted.solve(rhs), np.stack([shifted.solve(row) for row in rhs]))


class TestShiftedGreensOperator:
    @staticmethod
    def _dense_kc(grid, c):
        """(I + c K G)^-1 K from the oracle's Gauss weights, G the Gauss-point interpolation."""
        weights = gauss_weight_matrix(grid)  # Gauss values -> nodal K phi
        interpolate = gauss_values(np.eye(grid.n + 1)).T  # nodal -> Gauss values
        return np.linalg.solve(np.eye(grid.n + 1) + c * weights @ interpolate, weights)

    # on 49 and 93 cells 1/(1/n) != n and linspace != arange/n
    @pytest.mark.parametrize("c", [*SHIFTS, 0.0])
    @pytest.mark.parametrize("module, n", [
        *[pytest.param(greens, n, id=str(n)) for n in (1, 2, 3, 16, 49, 93, 128, 512)],
        *[pytest.param(fem, n, id=f"fem-{n}") for n in (2, 3, 16, 49, 93, 128, 512)],
    ])
    def test_apply_matches_dense_oracle(self, module, n, c):
        grid = UniformGrid(n)
        phi = np.random.default_rng(n).normal(size=(3, 2 * n))
        exact = phi @ self._dense_kc(grid, c).T
        got = module._nodal_apply(grid, c)(phi)
        assert got.shape == (3, n + 1)
        assert np.abs(got - exact).max() <= 1e-13 * max(np.abs(exact).max(), 1e-300)
        assert np.all(got[:, [0, -1]] == 0.0)


class TestZeroShiftIsTheLimit:
    @pytest.mark.parametrize("n", [1, 2, 3, 49, 93, 512])
    def test_zero_shift_gives_the_stiffness_exactly(self, n):
        q, s = _shifted_stiffness(UniformGrid(n), 0.0)
        assert np.array_equal(q, np.arange(n + 1.0))
        assert s == float(n)

    @pytest.mark.parametrize("c", [-1e-12, 1e-12])
    @pytest.mark.parametrize("n", [1, 2, 3, 49, 93, 512])
    def test_weights_are_continuous_at_zero(self, n, c):
        q, _ = _shifted_stiffness(UniformGrid(n), c)
        assert np.allclose(q, np.arange(n + 1.0), rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("c", [-1e-9, 1e-9])
    @pytest.mark.parametrize("module, n", [(greens, 1), (greens, 49), (fem, 2), (fem, 49),
                                           (greens, 512), (fem, 512)])
    def test_operators_are_continuous_at_zero(self, module, n, c):
        grid = UniformGrid(n)
        unit = np.eye(2 * n)  # every Gauss value alone: K's columns
        limit = module._nodal_apply(grid, 0.0)(unit)
        got = module._nodal_apply(grid, c)(unit)
        assert np.abs(got - limit).max() <= 1e-8 * np.abs(limit).max()


def _paths(n, rows=3, seed=5):
    sampler = IncrementSampler(UniformGrid(n), 0.25, "davies-harte")
    return IncrementPath(UniformGrid(n), sampler.sample_many(np.random.default_rng(seed), rows))


def _unshifted_residual(solver, spec, path, u):
    """L2 norm of u + K f(., u) - rhs per row, with the solver's own unshifted K and rhs."""
    grid = path.grid
    if solver == "fem":
        load = assemble_load(grid, forcing=spec.forcing, path=path)
        rhs = fem._with_boundary(Tridiagonal(grid).solve(load))
        apply_k = fem._nodal_apply(grid)
    else:
        apply_k = greens._nodal_apply(grid)
        density = spec.forcing(grid.gauss_points()) + np.repeat(path.increments / grid.h, 2,
                                                                  axis=-1)
        rhs = apply_k(density)
    defect = u + apply_k(spec.reaction(grid.gauss_points(), gauss_values(u))) - rhs
    return GridFunction(grid, defect).l2_norm()


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("n", [2, 16, 512, 4096, 16384])
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_shifted_solutions_meet_the_unshifted_equation(solver, n, tol):
    spec = ProblemSpec.from_labels(0.25, "sin", "one")
    assert spec.reaction.shift == 1.0
    path = _paths(n)
    solution = SOLVERS[solver](spec, path, tol=tol)
    assert np.all(_unshifted_residual(solver, spec, path, solution.values) <= tol)


def _dense_unshifted_residual(spec, path, u):
    """L2 norm of u + K f(., u) - K (g + noise), K the dense Green's weights of the oracle."""
    grid = path.grid
    weights = gauss_weight_matrix(grid)
    gauss = grid.gauss_points()
    density = spec.forcing(gauss) + np.repeat(path.increments / grid.h, 2, axis=-1)
    defect = u + (spec.reaction(gauss, gauss_values(u)) - density) @ weights.T
    return GridFunction(grid, defect).l2_norm()


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("n", [16, 512])
@pytest.mark.parametrize("steps", [1, 2])
def test_shifted_stop_keeps_the_unshifted_residual_within_tol(solver, n, steps):
    # tol sits just above the loop's residual after `steps` steps, so that
    # residual lies in (tol / (1 + 1/pi^2), tol]: a loop that stopped on
    # tol itself would stop there, where the unshifted residual, (I + K)
    # times the loop's, exceeds tol
    spec = ProblemSpec.from_labels(0.25, "sin", "one")
    path = _paths(n, rows=1)
    with pytest.raises(NonConvergenceError) as excinfo:
        SOLVERS[solver](spec, path, tol=0.0, max_iters=steps)
    reached = excinfo.value.residual
    tol = 1.001 * reached
    assert tol / (1.0 + 1.0 / np.pi ** 2) < reached <= tol
    solution = SOLVERS[solver](spec, path, tol=tol)
    assert _dense_unshifted_residual(spec, path, solution.values)[0] <= tol
    assert solution.iterations > steps


def _unshifted_sin():
    return ReactionTerm(lambda x, r: np.sin(r), 1.0, 1.0, 1.0, name="sin")


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("n", [16, 512])
def test_shift_keeps_the_discrete_solution(solver, n):
    # both iterations stop within tol of the same discrete solution, and the
    # map contracts by far more than half, so they agree to a few tol
    tol = 1e-10
    path = _paths(n)
    shifted = SOLVERS[solver](ProblemSpec.from_labels(0.25, "sin", "one"), path, tol=tol)
    plain = SOLVERS[solver](ProblemSpec(HurstIndex(0.25), _unshifted_sin(), make_forcing("one")),
                            path, tol=tol)
    gap = GridFunction(path.grid, shifted.values - plain.values).l2_norm()
    assert np.all(gap <= 3 * tol)
    assert shifted.iterations < plain.iterations


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_sin_rows_take_at_most_four_steps_on_the_scan_grid(solver):
    counts = []
    for n in (8, 32, 128, 512):
        grid = UniformGrid(n)
        for hurst in (0.1, 0.25, 0.4):
            sampler = IncrementSampler(grid, hurst, "davies-harte")
            stack = IncrementPath(grid, np.stack([
                sampler.sample(seed).increments
                for seed in range(1, 25)]))
            for forcing in ("zero", "one", "sinpi"):
                spec = ProblemSpec.from_labels(hurst, "sin", forcing)
                counts.extend(SOLVERS[solver](spec, stack).row_iterations.tolist())
    assert len(counts) == 864
    assert max(counts) <= 4


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_reaction_returning_its_argument_is_shifted_correctly(solver):
    # f(x, r) = r handed back as the very array the loop passed in; the loop
    # must not scale it in place.  With c = 1 the shifted reaction vanishes,
    # so one step solves -u'' + u = load exactly, as 1.0 * r does
    path = _paths(32)
    same = ReactionTerm(lambda x, r: r, 0.0, 1.0, 1.0, name="identity", slope_at_zero=1.0)
    scaled = ReactionTerm(lambda x, r: 1.0 * r, 0.0, 1.0, 1.0, name="scaled", slope_at_zero=1.0)
    got = SOLVERS[solver](ProblemSpec(HurstIndex(0.25), same, make_forcing("one")), path)
    want = SOLVERS[solver](ProblemSpec(HurstIndex(0.25), scaled, make_forcing("one")), path)
    assert np.array_equal(got.values, want.values)
    assert got.row_iterations.tolist() == [1, 1, 1]


class TestSlopeAtZero:
    def test_registry_sets_it_for_sin_only(self):
        assert make_reaction("sin").slope_at_zero == 1.0
        for label in ("zero", "sqrt-clip", "linear:1.5", "linear:-1.5"):
            assert make_reaction(label).slope_at_zero is None
            assert make_reaction(label).shift == 0.0

    @pytest.mark.parametrize("slope", [0.5, -1.0, 0.0])
    def test_spot_check_rejects_a_wrong_slope(self, slope):
        term = ReactionTerm(lambda x, r: np.sin(r), 1.0, 1.0, 1.0, slope_at_zero=slope)
        with pytest.raises(AssertionError, match="slope at zero"):
            term.spot_check(np.random.default_rng(0))

    def test_spot_check_accepts_the_right_slope(self):
        term = ReactionTerm(lambda x, r: np.sin(r), 1.0, 1.0, 1.0, slope_at_zero=1.0)
        term.spot_check(np.random.default_rng(0))

    def test_needs_a_lipschitz_constant_of_its_size(self):
        with pytest.raises(ValueError, match="slope at zero"):
            ReactionTerm(lambda x, r: np.sin(r), 1.0, 1.0, None, slope_at_zero=1.0)
        with pytest.raises(ValueError, match="slope at zero"):
            ReactionTerm(lambda x, r: np.sin(r), 1.0, 1.0, 0.5, slope_at_zero=1.0)

    def test_unset_slope_takes_no_shift(self):
        assert _unshifted_sin().shift == 0.0
        assert problem.sin_reaction().shift == 1.0
