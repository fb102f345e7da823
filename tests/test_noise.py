"""Noise layer: exact covariances, samplers, and second-moment formulas.

The closed forms are cross-checked against three independent routes: the
increment-covariance quadratic form, the covariance-functional oracle (slow
quadrature), and Monte Carlo.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from fracbvp import (
    GridFunction,
    HurstIndex,
    IncrementSampler,
    StepFunction,
    UniformGrid,
    aggregate_increments,
    fbm_covariance,
    increment_covariance_matrix,
    ito_isometry,
    plinear_self_isometry,
    singular_kernel_pair_sum,
    singular_kernel_pair_sum_bound,
)
from fracbvp import noise as noise_module
from fracbvp.errors import GridMismatchError

from oracles import (cumulative, ito_isometry_via_covariance, plinear_second_moment_oracle,
                     sample_increments, step_noise, step_second_moment_oracle)

HURSTS = [0.1, 0.25, 0.4, 0.5]


class TestHurstIndex:
    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.51, 1.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            HurstIndex(bad)

    def test_white_flag(self):
        assert HurstIndex(0.5).is_white
        assert not HurstIndex(0.25).is_white


class TestFbmCovariance:
    def test_white_noise_case_is_brownian(self):
        # at H = 1/2: R(x, y) = min(x, y)
        x = np.array([0.2, 0.7, 1.0])
        y = np.array([0.5, 0.5, 0.5])
        assert np.allclose(fbm_covariance(x, y, 0.5), np.minimum(x, y))

    def test_variance_on_diagonal(self):
        for H in HURSTS:
            assert fbm_covariance(0.3, 0.3, H) == pytest.approx(0.3 ** (2 * H))

    def test_domain_check(self):
        with pytest.raises(ValueError):
            fbm_covariance(1.2, 0.5, 0.25)

    def test_symmetry_and_psd(self, rng):
        x = rng.uniform(0, 1, size=12)
        m = fbm_covariance(x[:, None], x[None, :], 0.3)
        assert np.allclose(m, m.T)
        eigs = np.linalg.eigvalsh(m)
        assert eigs.min() > -1e-12


class TestIncrementCovariance:
    @pytest.mark.parametrize("H", HURSTS)
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_matches_bridge_of_covariance_function(self, n, H):
        grid = UniformGrid(n)
        nodes = grid.nodes()
        r = fbm_covariance(nodes[:, None], nodes[None, :], H)
        expected = r[1:, 1:] - r[1:, :-1] - r[:-1, 1:] + r[:-1, :-1]
        got = increment_covariance_matrix(grid, H)
        assert np.allclose(got, expected, atol=1e-14), (
            f"increment covariance disagrees with second differences at n={n}, H={H}")

    @pytest.mark.parametrize("H", HURSTS)
    @pytest.mark.parametrize("n", [1, 2, 512])
    def test_bit_identical_to_scipy_toeplitz(self, n, H):
        grid = UniformGrid(n)
        rho = noise_module._increment_autocovariance(np.arange(n), grid.h, H)
        assert np.array_equal(increment_covariance_matrix(grid, H), toeplitz(rho))

    def test_diagonal_value(self):
        grid = UniformGrid(8)
        cov = increment_covariance_matrix(grid, 0.25)
        assert np.allclose(np.diag(cov), grid.h**0.5)

    def test_off_diagonal_negative_for_rough_noise(self):
        cov = increment_covariance_matrix(UniformGrid(6), 0.25)
        off = cov[~np.eye(6, dtype=bool)]
        assert np.all(off < 0.0), "anti-persistent increments must anticorrelate"

    def test_white_case_diagonal(self):
        cov = increment_covariance_matrix(UniformGrid(6), 0.5)
        assert np.allclose(cov, np.eye(6) / 6.0)


class TestSamplers:
    @pytest.mark.parametrize("method", ["cholesky", "davies-harte"])
    @pytest.mark.parametrize("H", [0.1, 0.25, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_sampler_map_reproduces_covariance(self, n, H, method):
        # both samplers are linear maps raw -> increments; the implied
        # covariance B B^T must equal the exact one, deterministically
        sampler = IncrementSampler(UniformGrid(n), H, method)
        basis = np.eye(sampler.draws_per_sample)
        image = sampler._transform(basis)  # rows: images of basis vectors
        implied = image.T @ image
        exact = increment_covariance_matrix(UniformGrid(n), H)
        assert np.allclose(implied, exact, atol=1e-12), (
            f"{method} covariance off by {np.abs(implied - exact).max():.2e}")

    def test_batch_equals_sequential(self):
        for method in ("cholesky", "davies-harte"):
            sampler = IncrementSampler(UniformGrid(8), 0.3, method)
            batch = sampler.sample_many(np.random.default_rng(7), 5)
            rng = np.random.default_rng(7)
            rows = [sampler.sample(rng).increments for _ in range(5)]
            assert np.array_equal(batch, np.array(rows)), method

    def test_same_seed_same_path(self):
        a = sample_increments(UniformGrid(16), 0.25, np.random.default_rng(3))
        b = sample_increments(UniformGrid(16), 0.25, np.random.default_rng(3))
        assert np.array_equal(a.increments, b.increments)

    def test_methods_agree_in_distribution(self):
        # quick two-moment check on a modest batch
        n, H, m = 8, 0.25, 4000
        chol = IncrementSampler(UniformGrid(n), H, "cholesky")
        dh = IncrementSampler(UniformGrid(n), H, "davies-harte")
        a = chol.sample_many(np.random.default_rng(11), m)
        b = dh.sample_many(np.random.default_rng(12), m)
        assert abs(a.var() - b.var()) < 5e-3

    def test_factor_caches_are_bounded(self):
        # six distinct (n, H) pairs per method overflow the four-entry caches
        for n, H in [(3, 0.1), (4, 0.1), (5, 0.2), (6, 0.3), (7, 0.4), (8, 0.45)]:
            for method in ("cholesky", "davies-harte"):
                IncrementSampler(UniformGrid(n), H, method)
        for factor in (noise_module._cholesky_factor, noise_module._circulant_scale):
            assert 1 <= factor.cache_info().currsize <= 4

    def test_cholesky_over_budget_refused_before_allocating(self):
        # 8 * 8192^2 bytes = 512 MiB for the factor alone, four times the budget
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"n=8192 takes 536870912 bytes.*"
                                                 r"budget of 134217728 bytes.*davies-harte"):
                IncrementSampler(UniformGrid(8192), 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


class TestAggregation:
    def test_exact_coupling(self, rng):
        path = sample_increments(UniformGrid(32), 0.25, rng)
        coarse = aggregate_increments(path, 4)
        assert coarse.grid.n == 8
        assert np.allclose(coarse.increments,
                           path.increments.reshape(8, 4).sum(axis=1))
        # same Brownian endpoint
        assert cumulative(coarse)[-1] == pytest.approx(cumulative(path)[-1])

    def test_rejects_non_divisor(self, rng):
        path = sample_increments(UniformGrid(10), 0.25, rng)
        with pytest.raises(GridMismatchError):
            aggregate_increments(path, 3)

    def test_step_noise_density(self, rng):
        path = sample_increments(UniformGrid(4), 0.5, rng)
        noise = step_noise(path)
        assert noise.kind == "cell"
        assert np.allclose(noise.values, path.increments * 4)
        assert noise.l2_norm() ** 2 == pytest.approx(
            float(np.sum(path.increments**2)) * 4)


class TestStepFunction:
    def test_indicator_pieces(self):
        f = StepFunction.indicator(0.25, 0.75)
        assert f(0.25) == 0.0  # half-open (a, b]
        assert f(0.26) == 1.0
        assert f(0.75) == 1.0
        assert f(0.76) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0, 0.5]), np.array([1.0]))  # must end at 1
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0, 0.5, 0.5, 1.0]), np.array([1.0, 2.0, 3.0]))


class TestItoIsometry:
    def test_constant_function_all_h(self):
        # int dW = W(1) with variance 1^{2H} = 1 for every H
        f = StepFunction.constant(1.0)
        for H in HURSTS:
            assert ito_isometry(f, hurst=H) == pytest.approx(1.0, abs=1e-12), H

    def test_half_indicator_against_variance(self):
        # int chi dW = W(1/2): variance (1/2)^{2H}
        f = StepFunction.indicator(0.0, 0.5)
        for H in HURSTS:
            assert ito_isometry(f, hurst=H) == pytest.approx(0.5 ** (2 * H), abs=1e-12)

    def test_haar_function_against_increment_algebra(self):
        # f = +1 on (0,1/2], -1 on (1/2,1]: variance of DW_0 - DW_1
        f = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0]))
        for H in HURSTS:
            cov = increment_covariance_matrix(UniformGrid(2), H)
            expected = cov[0, 0] + cov[1, 1] - 2 * cov[0, 1]
            assert ito_isometry(f, hurst=H) == pytest.approx(expected, rel=1e-13)

    def test_white_case_is_l2_pairing(self, rng):
        grid = UniformGrid(6)
        f = StepFunction.from_cells(grid, rng.normal(size=6))
        g = StepFunction.from_cells(grid, rng.normal(size=6))
        expected = float(np.sum(f.values * g.values)) / 6.0
        assert ito_isometry(f, g, hurst=0.5) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("H", [0.1, 0.25, 0.4])
    def test_closed_form_vs_covariance_route(self, H, rng):
        # different breakpoint sets force a genuine common refinement
        f = StepFunction(np.array([0.0, 0.3, 0.8, 1.0]), rng.normal(size=3))
        g = StepFunction(np.array([0.0, 0.5, 1.0]), rng.normal(size=2))
        a = ito_isometry(f, g, hurst=H)
        b = ito_isometry_via_covariance(f, g, hurst=H)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-13), (
            f"closed form {a} vs covariance route {b} at H={H}")

    @pytest.mark.parametrize("H", [0.1, 0.25, 0.4])
    def test_self_pairing_vs_oracle(self, H, rng):
        grid = UniformGrid(5)
        vals = rng.normal(size=5)
        f = StepFunction.from_cells(grid, vals)
        expected = step_second_moment_oracle(grid.nodes(), vals, H)
        assert ito_isometry(f, hurst=H) == pytest.approx(expected, rel=1e-11)

    def test_monte_carlo_agreement(self):
        f = StepFunction(np.array([0.0, 0.2, 0.9, 1.0]),
                         np.array([2.0, -1.0, 0.5]))
        H, m = 0.25, 200000
        target = ito_isometry(f, hurst=H)
        estimate = step_second_moment_oracle(f.breakpoints, f.values, H,
                                             samples=m,
                                             rng=np.random.default_rng(99))
        se = target * math.sqrt(2.0 / (m - 1))
        z = (estimate - target) / se
        print(f"isometry MC: target={target:.6f} estimate={estimate:.6f} z={z:.2f}")
        assert abs(z) < 4.0

    @given(
        vals=st.lists(st.floats(-3, 3), min_size=2, max_size=6),
        H=st.sampled_from([0.1, 0.25, 0.4, 0.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_bilinearity_and_positivity(self, vals, H):
        grid = UniformGrid(len(vals))
        f = StepFunction.from_cells(grid, vals)
        # positivity of the second moment
        assert ito_isometry(f, hurst=H) >= -1e-12
        # bilinearity: psi(2f, f) = 2 psi(f, f)
        doubled = StepFunction.from_cells(grid, 2.0 * np.asarray(vals))
        assert ito_isometry(doubled, f, hurst=H) == pytest.approx(
            2.0 * ito_isometry(f, hurst=H), rel=1e-9, abs=1e-12)


class TestKernelPairSum:
    @pytest.mark.parametrize("H", [0.1, 0.25, 0.4])
    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    def test_closed_identity(self, n, H):
        # lag-sum closed form equals h^{2H} (n - n^{2H}) / (H(1-2H))
        grid = UniformGrid(n)
        got = singular_kernel_pair_sum(grid, H)
        expected = grid.h ** (2 * H) * (n - n ** (2 * H)) / (H * (1 - 2 * H))
        assert got == pytest.approx(expected, rel=1e-12), (n, H)

    def test_spec_value_small_case(self):
        # n=2, H=1/4: 2 * int int |x-y|^{-3/2} over adjacent half cells
        got = singular_kernel_pair_sum(UniformGrid(2), 0.25)
        assert got == pytest.approx(3.3137084989847603, rel=1e-12)

    @pytest.mark.parametrize("H", [0.1, 0.25, 0.4])
    @pytest.mark.parametrize("n", [2, 16, 128])
    def test_upper_bound(self, n, H):
        grid = UniformGrid(n)
        assert singular_kernel_pair_sum(grid, H) <= singular_kernel_pair_sum_bound(grid, H)

    def test_rejects_white_case(self):
        with pytest.raises(ValueError):
            singular_kernel_pair_sum(UniformGrid(4), 0.5)
        with pytest.raises(ValueError):
            singular_kernel_pair_sum_bound(UniformGrid(4), 0.5)

    def test_single_cell_is_zero(self):
        assert singular_kernel_pair_sum(UniformGrid(1), 0.25) == 0.0


class TestPlinearIsometry:
    @pytest.mark.parametrize("H", [0.1, 0.25, 0.4])
    @pytest.mark.parametrize("pieces", [1, 2, 3, 6])
    def test_against_covariance_functional_oracle(self, pieces, H, rng):
        v = rng.normal(size=pieces)
        g = rng.normal(size=pieces)
        got = plinear_self_isometry(v, g, H)
        expected = plinear_second_moment_oracle(v, g, H)
        assert got == pytest.approx(expected, rel=1e-6, abs=1e-9), (
            f"pieces={pieces}, H={H}")

    def test_reduces_to_step_case_when_slopes_vanish(self, rng):
        vals = rng.normal(size=8)
        f = StepFunction.from_cells(UniformGrid(8), vals)
        for H in [0.1, 0.25, 0.4, 0.5]:
            a = plinear_self_isometry(vals, np.zeros(8), H)
            b = ito_isometry(f, hurst=H)
            assert a == pytest.approx(b, rel=1e-11), H

    def test_white_case_is_l2_norm(self, rng):
        v = rng.normal(size=5)
        g = rng.normal(size=5)
        delta = 0.2
        expected = float(np.sum(delta * (v * v + v * g * delta + g * g * delta**2 / 3)))
        assert plinear_self_isometry(v, g, 0.5) == pytest.approx(expected, rel=1e-14)

    def test_singular_endpoint_regression(self):
        # last-piece mirrored endpoint must be computed exactly: a few ulps of
        # roundoff in (1 - b - delta) show up as (5.6e-17)^{2H} ~ 5e-4 at H=0.1
        v = np.array([0.0, 0.0, 1.0])
        g = np.zeros(3)
        got = plinear_self_isometry(v, g, 0.1)
        f = StepFunction.from_cells(UniformGrid(3), v)
        expected = ito_isometry(f, hurst=0.1)
        assert got == pytest.approx(expected, rel=1e-11)
