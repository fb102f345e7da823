"""The Cholesky sampler's factor: the Schur recursion into packed panels.

The factor U = L^T of the Toeplitz increment covariance is built from the
autocovariance alone and kept in column panels holding only U's upper
triangle; assembled, it must be LAPACK's factor of the dense covariance to
rounding, built without any n x n array.
"""

import tracemalloc

import numpy as np
import pytest

from fracbvp import FactorizationError, IncrementSampler, UniformGrid
from fracbvp import noise as noise_module

from oracles import increment_covariance_matrix


def _assembled(n: int, H: float) -> np.ndarray:
    """U as a dense n x n array, from the panels of the cached factor."""
    upper = np.zeros((n, n))
    for panel in noise_module._cholesky_factor(n, H):
        end = len(panel)
        upper[:end, end - panel.shape[1]:end] = panel
    return upper


@pytest.mark.parametrize("H", [0.05, 0.25, 0.5])
@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 100, 512, 1024])
def test_panels_assemble_to_the_lapack_factor(n, H):
    lower = np.linalg.cholesky(increment_covariance_matrix(UniformGrid(n), H))
    upper = _assembled(n, H)
    assert np.abs(upper.T - lower).max() <= 1e-13 * np.abs(lower).max()


def test_panels_hold_the_upper_triangle_only():
    # n = 100: a full panel of columns 0 .. 63 with 64 rows, and one of
    # columns 64 .. 99 with 100 rows, read-only
    panels = noise_module._cholesky_factor(100, 0.25)
    assert [panel.shape for panel in panels] == [(64, 64), (100, 36)]
    assert all(not panel.flags.writeable for panel in panels)
    # at n = 512 the factor takes 9/16 of the dense 2 MiB
    nbytes = sum(panel.nbytes for panel in noise_module._cholesky_factor(512, 0.25))
    assert nbytes == 8 * 64 * 64 * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8)


def test_building_the_factor_holds_no_dense_matrix():
    # the dense covariance and LAPACK's factor took 2 x 8 n^2 bytes; the
    # packed panels take about half of one, and the recursion a few rows
    n = 1024
    noise_module._cholesky_factor.cache_clear()
    tracemalloc.start()
    try:
        noise_module._cholesky_factor(n, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * 8 * n * n, peak


def test_an_indefinite_autocovariance_is_refused(monkeypatch):
    # a lag-one covariance above the variance has a reflection coefficient
    # beyond 1 at the first step
    def indefinite(lags, h, H):
        rho = np.zeros(len(lags))
        rho[:2] = 1.0, 1.5
        return rho

    monkeypatch.setattr(noise_module, "_increment_autocovariance", indefinite)
    noise_module._cholesky_factor.cache_clear()
    with pytest.raises(FactorizationError,
                       match=r"^increment covariance not positive definite for n=8, H=0\.25"):
        IncrementSampler(UniformGrid(8), 0.25)
    noise_module._cholesky_factor.cache_clear()


def test_the_budget_refuses_exactly_the_grids_over_4096_cells():
    assert 8 * 4096 ** 2 <= noise_module.CHOLESKY_BYTES_BUDGET < 8 * 4097 ** 2
    with pytest.raises(ValueError, match=r"n=4097 takes 134283272 bytes"):
        IncrementSampler(UniformGrid(4097), 0.25)
