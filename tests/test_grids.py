"""Grid and norm plumbing: everything here must be exact, not approximate."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from fracbvp import GridFunction, UniformGrid, discrete_h1_error, discrete_l2_error
from fracbvp.grids import _cell_ends, _linear_l2, _row_dot, gauss_values

from oracles import from_callable


class TestUniformGrid:
    def test_basic_geometry(self):
        grid = UniformGrid(4)
        assert grid.h == 0.25
        assert np.allclose(grid.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert grid.nodes()[0] == 0.0 and grid.nodes()[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformGrid(0)
        with pytest.raises(TypeError):
            UniformGrid(2.5)

    def test_divides(self):
        assert UniformGrid(4).divides(UniformGrid(12))
        assert not UniformGrid(4).divides(UniformGrid(6))

    def test_gauss_rule_exact_for_cubics(self):
        grid = UniformGrid(5)
        pts = grid.gauss_points()
        assert pts.shape == (10,) and np.all(np.diff(pts) > 0.0)
        assert 0.5 * grid.h * np.sum(pts**3 - pts**2) == pytest.approx(0.25 - 1.0 / 3.0)

    def test_gauss_values_interpolate_nodal_values(self):
        grid = UniformGrid(6)
        nodal = np.sin(3.0 * grid.nodes())
        expected = GridFunction(grid, nodal)(grid.gauss_points())
        assert np.allclose(gauss_values(nodal), expected, atol=1e-15)


class TestGridFunction:
    def test_shape_validation(self):
        grid = UniformGrid(3)
        with pytest.raises(ValueError):
            GridFunction(grid, np.zeros(3), kind="nodal")
        with pytest.raises(ValueError):
            GridFunction(grid, np.zeros(4), kind="cell")

    def test_nodal_evaluation_is_linear_interpolation(self):
        grid = UniformGrid(4)
        f = GridFunction(grid, np.array([0.0, 1.0, 0.0, 2.0, 0.0]))
        assert f(0.125) == pytest.approx(0.5)
        assert f(0.625) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 1023])
    @pytest.mark.parametrize("factor", [1, 2, 3, 8])
    def test_stacked_nodal_evaluation_equals_np_interp(self, n, factor):
        # the points the error norms evaluate at on a refinement, plus both
        # ends on their own; every row rounds as np.interp rounds it alone
        grid, fine = UniformGrid(n), UniformGrid(n * factor)
        rng = np.random.default_rng([n, factor])
        values = rng.normal(size=(5, n + 1)) * np.array([1.0, 1e-8, 1e8, -3.0, 0.0])[:, None]
        f = GridFunction(grid, values)
        midpoints = 0.5 * (fine.nodes()[:-1] + fine.nodes()[1:])
        for x in (fine.nodes(), midpoints, fine.nodes()[:-1], fine.nodes()[1:],
                  np.array([0.0, 1.0]), 0.0, 1.0, np.float64(midpoints[0])):
            expected = np.array([np.interp(x, grid.nodes(), row) for row in values])
            assert np.array_equal(f(x), expected)
            single = GridFunction(grid, values[0])(x)
            assert np.array_equal(single, np.interp(x, grid.nodes(), values[0]))
            assert np.shape(single) == np.shape(x)

    def test_evaluation_of_an_empty_stack_keeps_its_shape(self):
        f = GridFunction(UniformGrid(4), np.zeros((0, 5)))
        for x in (np.linspace(0.0, 1.0, 7), 0.5, np.zeros((2, 3))):
            assert f(x).shape == (0,) + np.shape(x)
        assert discrete_l2_error(f, GridFunction(UniformGrid(8), np.zeros((0, 9)))).shape == (0,)

    def test_cell_evaluation_half_open_convention(self):
        grid = UniformGrid(4)
        f = GridFunction(grid, np.array([1.0, 2.0, 3.0, 4.0]), kind="cell")
        # cell i covers (x_i, x_{i+1}]
        assert f(0.25) == 1.0
        assert f(0.2500001) == 2.0
        assert f(1.0) == 4.0
        assert f(0.0) == 1.0

    def test_l2_norm_nodal_exact(self):
        # hat function on [0,1] with peak 1 at x=1/2: ||f||^2 = 1/6... compute:
        # int_0^{1/2} (2x)^2 = 4/3 * 1/8 = 1/6; symmetric -> total 1/3
        grid = UniformGrid(2)
        f = GridFunction(grid, np.array([0.0, 1.0, 0.0]))
        assert f.l2_norm() == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-15)

    def test_h1_seminorm_exact(self):
        grid = UniformGrid(2)
        f = GridFunction(grid, np.array([0.0, 1.0, 0.0]))
        # slope +-2 on halves: int (f')^2 = 4
        assert f.h1_seminorm() == pytest.approx(2.0, abs=1e-15)

    def test_cell_norm(self):
        grid = UniformGrid(4)
        f = GridFunction(grid, np.array([1.0, -1.0, 2.0, 0.0]), kind="cell")
        assert f.l2_norm() == pytest.approx(math.sqrt(0.25 * 6.0), abs=1e-15)
        with pytest.raises(ValueError):
            f.h1_seminorm()

    @given(values=st.lists(st.floats(-10, 10), min_size=3, max_size=9))
    @settings(max_examples=25, deadline=None)
    def test_l2_norm_matches_quadrature(self, values):
        grid = UniformGrid(len(values) - 1)
        f = GridFunction(grid, np.array(values))
        # tell the quadrature where the kinks sit, or it can miss narrow ones
        expected, _ = integrate.quad(lambda x: float(f(x)) ** 2, 0, 1,
                                     limit=200, epsabs=1e-13,
                                     points=list(grid.nodes()[1:-1]))
        assert f.l2_norm() ** 2 == pytest.approx(expected, abs=1e-9)


ROW_DOT_WIDTHS = [1, 2, 3, 513, 1025, *np.random.default_rng(14).integers(4, 2101, 6).tolist(),
                  8193, 16385]


@pytest.mark.parametrize("width", ROW_DOT_WIDTHS)
def test_row_dot_rounds_each_row_as_its_own_dot(width):
    # norms of a stack must equal the norms of its rows alone, wherever the
    # rows lie in memory: numpy may sum a strided last axis in another order,
    # and split a row longer than its 8192-element buffer otherwise
    rng = np.random.default_rng(width)
    rows = rng.normal(size=(6, width)) * 10.0 ** np.arange(-3, 3)[:, None]
    others = rng.normal(size=(6, width))
    alone = [float(_row_dot(row.copy(), other.copy())) for row, other in zip(rows, others)]
    stride = width + 2 - width % 2  # even, so every row starts at an odd 8-byte offset
    shared = np.zeros(6 * stride + 1)
    offset = shared[1:].reshape(6, stride)[:, :width]
    offset[:] = rows
    layouts = (offset, np.asfortranarray(rows), np.repeat(rows, 2, axis=-1)[:, ::2],
               np.asfortranarray(np.repeat(rows, 2, axis=0))[::2])
    for stack in layouts:
        assert _row_dot(stack, others).tolist() == alone
        assert _row_dot(others, stack).tolist() == alone
    # the Gram form of the solver loop: every history row against one of them
    history = np.stack([rows, others, rows * others], axis=1)  # (rows, depth, width)
    gram = _row_dot(history, history[:, 1, None])
    assert gram.tolist() == [[float(_row_dot(h.copy(), r[1].copy())) for h in r]
                             for r in history]


@pytest.mark.parametrize("n", [1, 2, 7, 64, 1025])
def test_linear_l2_matches_an_exactly_rounded_sum(n):
    rng = np.random.default_rng(n)
    a, b = rng.normal(size=(2, 4, n)) * 10.0 ** np.arange(-2, 2)[:, None]
    h = 1.0 / n
    norms = _linear_l2(h, a, b)
    for row_a, row_b, norm in zip(a, b, norms):
        terms = [x * x + x * y + y * y for x, y in zip(row_a, row_b)]
        assert norm == pytest.approx(math.sqrt(h / 3.0 * math.fsum(terms)), rel=1e-14, abs=0.0)


def _prolonged(n, r):
    """Nodal rows on n cells scaled by 1, 1e-8, 1e8, -3 and 0, with their
    values at the nodes of n r cells, as a stack and for the first row alone."""
    values = np.random.default_rng([n, r]).normal(size=(5, n + 1))
    values *= np.array([1.0, 1e-8, 1e8, -3.0, 0.0])[:, None]
    grid, fine = UniformGrid(n), UniformGrid(n * r)
    nodal = [np.concatenate([left, right[..., -1:]], axis=-1) for left, right in
             (_cell_ends(GridFunction(grid, v), fine) for v in (values, values[0]))]
    return grid, fine, values, *nodal


@pytest.mark.parametrize("n", [1, 2, 16, 1024])
@pytest.mark.parametrize("r", [2, 4, 32, 64])
def test_dyadic_prolongation_equals_np_interp(n, r):
    grid, fine, values, stacked, single = _prolonged(n, r)
    expected = np.array([np.interp(fine.nodes(), grid.nodes(), row) for row in values])
    assert np.array_equal(stacked, expected)
    assert np.array_equal(single, expected[0])


@pytest.mark.parametrize("n", [3, 5, 10, 17, 100, 1023])
@pytest.mark.parametrize("r", [2, 3, 8])
def test_prolongation_is_within_rounding_of_the_exact_value(n, r):
    # np.interp misses by up to 1e-13 here, through the rounding of linspace's cell widths
    _, _, values, stacked, single = _prolonged(n, r)
    assert np.array_equal(single, stacked[0])
    for row, got in zip(values, stacked):
        v = [Fraction(x) for x in row]
        exact = [v[i // r] + (v[i // r + 1] - v[i // r]) * Fraction(i % r, r)
                 for i in range(n * r)] + [v[n]]
        miss = max(abs(Fraction(x) - e) for x, e in zip(got, exact))
        assert miss <= Fraction(4e-16) * max(map(abs, v))


class TestErrors:
    def test_l2_error_between_different_grids(self):
        # f = x on 2 cells, g = x on 3 cells: identical functions, zero error
        f = from_callable(UniformGrid(2), lambda x: x)
        g = from_callable(UniformGrid(3), lambda x: x)
        assert discrete_l2_error(f, g) == pytest.approx(0.0, abs=1e-15)

    def test_l2_error_nodal_vs_cell(self):
        # pw-linear x minus constant 1/2 on one cell: int (x - 1/2)^2 = 1/12
        f = from_callable(UniformGrid(2), lambda x: x)
        g = GridFunction(UniformGrid(1), np.array([0.5]), kind="cell")
        assert discrete_l2_error(f, g) == pytest.approx(math.sqrt(1.0 / 12.0), abs=1e-15)

    def test_l2_error_against_quadrature(self, rng):
        f = GridFunction(UniformGrid(4), rng.normal(size=5))
        g = GridFunction(UniformGrid(6), rng.normal(size=7))
        expected, _ = integrate.quad(lambda x: (float(f(x)) - float(g(x))) ** 2,
                                     0, 1, limit=200, epsabs=1e-13)
        assert discrete_l2_error(f, g) ** 2 == pytest.approx(expected, rel=1e-10)

    def test_h1_error_exact(self, rng):
        f = GridFunction(UniformGrid(4), rng.normal(size=5))
        g = GridFunction(UniformGrid(8), rng.normal(size=9))
        fine = UniformGrid(8)
        fs = np.repeat(np.diff(f.values) / f.grid.h, 2)
        gs = np.diff(g.values) / g.grid.h
        expected = math.sqrt(fine.h * np.sum((fs - gs) ** 2))
        assert discrete_h1_error(f, g) == pytest.approx(expected, abs=1e-14)

    def test_h1_error_rejects_cell_functions(self):
        f = GridFunction(UniformGrid(2), np.zeros(2), kind="cell")
        g = GridFunction(UniformGrid(2), np.zeros(3))
        with pytest.raises(ValueError):
            discrete_h1_error(f, g)
