"""Every L2 norm and error goes through one exact per-cell formula.

A function linear on each cell between one-sided end values a and b has
the square integral h/3 (a^2 + a b + b^2) per cell; the norms, the L2 and
H1 errors and the solvers' residuals all take it.  Cellwise Simpson and the
slope formulas in `oracles` are the checks; the error reaches the common
refinement without evaluating any function at points, and the solver loop
builds no GridFunction.
"""

import numpy as np
import pytest

from fracbvp import (GridFunction, IncrementPath, IncrementSampler, ProblemSpec, UniformGrid,
                     discrete_h1_error, discrete_l2_error, solve_hammerstein,
                     solve_nonlinear_fem)

from oracles import simpson_l2_error, slope_h1_error, slope_h1_seminorm


def _random(n, rows, kind="nodal", seed=0):
    size = n + 1 if kind == "nodal" else n
    values = np.random.default_rng([n, rows, seed]).normal(size=(rows, size))
    return GridFunction(UniformGrid(n), values, kind)


@pytest.mark.parametrize("first, second", [
    ((16, "nodal", 8), (512, "nodal", 8)),
    ((128, "nodal", 8), (512, "nodal", 8)),
    ((4, "nodal", 1), (6, "nodal", 1)),
    ((8, "cell", 3), (32, "nodal", 3)),
])
def test_l2_error_matches_simpson(first, second):
    (n_f, kind_f, rows), (n_g, kind_g, _) = first, second
    f, g = _random(n_f, rows, kind_f, seed=1), _random(n_g, rows, kind_g, seed=2)
    for a, b in ((f, g), (g, f)):
        expected = simpson_l2_error(a, b)
        assert discrete_l2_error(a, b) == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n_f, n_g, rows", [(16, 512, 8), (128, 512, 8), (4, 6, 1)])
def test_h1_error_and_seminorm_match_slope_formulas(n_f, n_g, rows):
    f, g = _random(n_f, rows, seed=3), _random(n_g, rows, seed=4)
    assert discrete_h1_error(f, g) == pytest.approx(slope_h1_error(f, g), rel=1e-13, abs=0.0)
    for fn in (f, g):
        assert fn.h1_seminorm() == pytest.approx(slope_h1_seminorm(fn), rel=1e-13, abs=0.0)


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(GridFunction, name)

    def counted(self, *args, **kwargs):
        calls.append(self.grid.n)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(GridFunction, name, counted)
    return calls


def test_l2_error_evaluates_once_on_the_common_refinement(monkeypatch):
    level, reference = _random(16, 8), _random(512, 8)
    cell = _random(512, 8, kind="cell")
    calls = _count_calls(monkeypatch, "__call__")
    for f, g in ((level, reference), (reference, level), (reference, reference),
                 (cell, reference), (reference, cell)):
        discrete_l2_error(f, g)
    assert calls == []  # the coarse level reaches the refinement by a broadcast


@pytest.mark.parametrize("solve", [solve_nonlinear_fem, solve_hammerstein])
def test_stacked_solve_builds_no_grid_function(monkeypatch, solve):
    grid = UniformGrid(512)
    stack = IncrementPath(grid, IncrementSampler(grid, 0.25).sample_many(
        np.random.default_rng(17), 32))
    problem = ProblemSpec.from_labels(0.25, "sin", "one")
    built = _count_calls(monkeypatch, "__post_init__")
    solution = solve(problem, stack)
    assert solution.row_iterations.min() > 1 and built == []
    GridFunction(grid, solution.values)  # the counter sees a construction
    assert built == [512]
