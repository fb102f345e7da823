"""Monte Carlo harness: coupling, rate fits, determinism, verification checks."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import weakref
from collections import defaultdict

import numpy as np
import pytest

from fracbvp import (
    IncrementSampler,
    StudyConfig,
    UniformGrid,
    estimate_rate,
    greens_cell_integrals,
    run_convergence_study,
    run_h1_blowup_study,
    run_superconvergence_study,
    run_verification_suite,
    verify_convolution_error_decay,
    verify_isometry,
    verify_kernel_pair_sum,
    verify_noise_norm,
    verify_solver_agreement,
)
from fracbvp import experiments
from fracbvp import fem as fem_module
from fracbvp import noise as noise_module
from fracbvp.errors import FactorizationError, GridMismatchError, NonConvergenceError
from fracbvp.experiments import _level_path, kernel_pair_sum_quadrature
from fracbvp.noise import (IncrementPath, StepFunction, aggregate_increments,
                           singular_kernel_pair_sum)
from fracbvp.problem import damped_fixed_point

from oracles import increment_covariance_matrix


@pytest.fixture
def drawn_chunks(monkeypatch):
    """Rows of every chunk a study draws, in the order they are drawn."""
    rows, sample = [], IncrementSampler.sample

    def spy(self, seed, first=0, count=None):
        rows.append(count)
        return sample(self, seed, first, count)

    monkeypatch.setattr(IncrementSampler, "sample", spy)
    return rows


def _chunks_of(monkeypatch, rows: int, fine_n: int):
    """Make studies on fine_n cells draw chunks of `rows` rows, one fine block each."""
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", 1)
    monkeypatch.setattr(experiments, "_BLOCK_BYTES", 16 * fine_n * rows)
    monkeypatch.setattr(experiments, "_TILE", 1)  # not rounded up to 32-row sampler tiles


_POOL_IMPORT_CHECK = """
import sys
from fracbvp import StudyConfig, experiments, run_convergence_study

print("concurrent.futures" in sys.modules)
config = StudyConfig(hurst=0.25, n0=4, levels=2, samples=8, seed=1)
run_convergence_study(config, threads=8)
print("concurrent.futures" in sys.modules)
experiments._CHUNK_BYTES, experiments._TILE = 1, 1  # chunks of one two-row fine block
experiments._BLOCK_BYTES = 16 * config.reference_n * 2
run_convergence_study(config, threads=2)
print("concurrent.futures" in sys.modules)
"""


class TestEstimateRate:
    def test_exact_power_law(self):
        hs = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
        rate, se = estimate_rate(hs, [3.0 * h**1.5 for h in hs])
        assert rate == pytest.approx(1.5, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-10)

    def test_two_points_no_stderr(self):
        rate, se = estimate_rate([0.5, 0.25], [1.0, 0.25])
        assert rate == pytest.approx(2.0)
        assert se == 0.0

    def test_noisy_power_law(self, rng):
        hs = np.array([2.0**-k for k in range(3, 10)])
        values = 2.0 * hs**0.75 * np.exp(rng.normal(0.0, 0.02, hs.size))
        rate, se = estimate_rate(hs, values)
        assert rate == pytest.approx(0.75, abs=0.1)
        assert se > 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            estimate_rate([0.5], [1.0])
        with pytest.raises(ValueError):
            estimate_rate([0.5, 0.25], [1.0, -1.0])
        with pytest.raises(ValueError):
            estimate_rate([0.5, 0.5], [1.0, 2.0])
        with pytest.raises(ValueError):
            estimate_rate([0.5, 0.25, 0.125], [1.0, 0.5])

    @pytest.mark.parametrize("points", [3, 6])
    def test_stderr_is_the_least_squares_slope_error(self, rng, points):
        # np.polyfit scales its covariance by the residual sum over n - 2
        hs = np.array([2.0**-k for k in range(3, 3 + points)])
        values = hs**0.7 * np.exp(rng.normal(0.0, 0.1, points))
        rate, se = estimate_rate(hs, values)
        coefficients, cov = np.polyfit(np.log2(hs), np.log2(values), 1, cov=True)
        assert rate == pytest.approx(coefficients[0], rel=1e-12)
        assert se == pytest.approx(np.sqrt(cov[0, 0]), rel=1e-10)

    @pytest.mark.parametrize("hs, values", [
        ([0.5, 0.25], [1.0, np.nan]),
        ([0.5, 0.25], [np.inf, 1.0]),
        ([0.5, 0.25], [1.0, 0.0]),
        ([0.5, np.nan], [1.0, 0.5]),
        ([np.inf, 0.25], [1.0, 0.5]),
        ([0.5, -0.25], [1.0, 0.5]),
    ])
    def test_rejects_values_that_are_not_finite_and_positive(self, hs, values):
        with pytest.raises(ValueError, match="finite, positive"):
            estimate_rate(hs, values)


def test_level_stderr_is_the_delta_method_value():
    # level 8: mean 7.5, squared deviations 42.25 + 12.25 + 2.25 + 72.25 = 129,
    # so the sample variance (ddof=1) is 43 and se(mean) = sqrt(43/4); the delta
    # method gives se(sqrt(mean)) = se(mean) / (2 sqrt(7.5)), squared 43/120.
    # Level 16 has every error 0, so its stderr is 0 too.
    squared = np.array([[1.0, 0.0], [4.0, 0.0], [9.0, 0.0], [16.0, 0.0]])
    levels = experiments._rms_levels([8, 16], squared)
    assert [(lv["n"], lv["h"]) for lv in levels] == [(8, 0.125), (16, 0.0625)]
    assert levels[0]["rms_error"] == pytest.approx(np.sqrt(7.5), rel=1e-15)
    assert levels[0]["stderr"] == pytest.approx(np.sqrt(43.0 / 120.0), rel=1e-14)
    assert levels[1]["rms_error"] == levels[1]["stderr"] == 0.0


class TestStudyConfig:
    def test_ladder_and_reference(self):
        config = StudyConfig(hurst=0.25, n0=16, levels=4, ref_extra=2)
        assert config.level_ns() == [16, 32, 64, 128]
        assert config.reference_n == 512

    def test_round_trip(self):
        config = StudyConfig(hurst=0.3, reaction="sin", forcing="one",
                             samples=50, seed=11, solver="both")
        assert StudyConfig(**config.to_dict()) == config

    @pytest.mark.parametrize("kwargs", [
        {"hurst": 0.7},
        {"hurst": 0.25, "n0": 1},
        {"hurst": 0.25, "levels": 0},
        {"hurst": 0.25, "ref_extra": 0},
        {"hurst": 0.25, "samples": 1},
        {"hurst": 0.25, "solver": "spectral"},
        {"hurst": 0.25, "sampler": "hosking"},
        {"hurst": 0.25, "samples": 10.5},
        {"hurst": 0.25, "n0": 8.0},
        {"hurst": 0.25, "ref_extra": 2.0},
        {"hurst": 0.25, "max_iters": 50.0},
        {"hurst": 0.25, "seed": -1},
        {"hurst": 0.25, "seed": True},
        {"hurst": 0.25, "levels": 1},
        {"hurst": 0.25, "levels": True},
        {"hurst": 0.25, "max_iters": -1},
        {"hurst": 0.25, "tol": np.nan},
        {"hurst": 0.25, "tol": -1e-12},
    ])
    def test_validation(self, kwargs):
        # rejected when built, before any sampler or solve, naming the field
        field = next((name for name in kwargs if name != "hurst"), "Hurst")
        with pytest.raises(ValueError, match=field):
            StudyConfig(**kwargs)

    def test_thread_count_is_not_study_state(self):
        # thread count is execution context; it never appears in the config
        # echo, so reports can be compared byte for byte across runs
        config = StudyConfig(hurst=0.25)
        assert "threads" not in config.to_dict()
        with pytest.raises(ValueError):
            run_convergence_study(config, threads=0)

    def test_problem_construction(self):
        config = StudyConfig(hurst=0.25, reaction="linear:0.5", forcing="sinpi")
        problem = config.problem()
        assert problem.reaction.lipschitz_constant == 0.5


class TestCoupling:
    def test_levels_share_the_fine_path(self, rng):
        fine = IncrementPath(UniformGrid(64),
                             IncrementSampler(UniformGrid(64), 0.25).sample_many(rng, 1)[0])
        for n in [8, 16, 32, 64]:
            path = _level_path(fine, n)
            assert path.grid.n == n
            # each coarse increment is the exact sum of its fine children
            blocks = fine.increments.reshape(n, 64 // n).sum(axis=1)
            assert np.allclose(path.increments, blocks, atol=1e-15)

    def test_chained_aggregation_agrees_on_a_study_chunk(self):
        # a study-sized Cholesky chunk: 200 rows on 512 cells, levels 16..128
        sampler = IncrementSampler(UniformGrid(512), 0.25)
        chunk = sampler.sample(2024, 0, 200)
        paths = {n: _level_path(chunk, n) for n in [16, 32, 64, 128, 512]}
        assert paths[512] is chunk
        for n in (16, 32, 64):
            # halving the next finer level sums the same increments in another order
            chained = aggregate_increments(paths[2 * n], 2)
            assert chained.grid.n == n
            assert np.allclose(chained.increments, paths[n].increments,
                               rtol=1e-12, atol=1e-14), n

    @pytest.mark.parametrize("level", [16, 48])
    def test_level_that_does_not_divide_the_fine_grid_is_refused(self, level):
        # floor division would hand level 16 the fine path itself
        fine = IncrementPath(UniformGrid(24), np.ones((2, 24)))
        with pytest.raises(GridMismatchError, match=f"level n={level} .* fine grid n=24"):
            _level_path(fine, level)


class TestConvergenceStudy:
    def test_zero_reaction_rate(self):
        config = StudyConfig(hurst=0.25, reaction="zero", forcing="one",
                             n0=8, levels=3, ref_extra=2, samples=32, seed=3)
        report = run_convergence_study(config)
        block = report.results["fem"]
        rates = [lv["rms_error"] for lv in block["levels"]]
        print(f"levels: {rates}, rate {block['fitted_rate']:.3f}")
        assert block["fitted_rate"] == pytest.approx(0.75, abs=0.25)
        assert rates[0] > rates[1] > rates[2]
        assert report.wall_time > 0.0

    def test_sqrt_clip_coarse_level_converges(self):
        # on sample m=36, level n=8 the plain damped step theta = 0.5 cycles
        # at residual 3.596e-05 in both solvers
        config = StudyConfig(hurst=0.3, reaction="sqrt-clip", forcing="one", n0=8,
                             levels=3, samples=40, seed=7, solver="both")
        run_convergence_study(config)

    @pytest.mark.parametrize("sampler, factor", [("cholesky", "_cholesky_factor"),
                                                 ("davies-harte", "_circulant_scale")])
    def test_factorization_error_names_the_study(self, monkeypatch, sampler, factor):
        def fail(n, hurst):
            raise FactorizationError(f"forced for n={n}")

        monkeypatch.setattr(noise_module, factor, fail)
        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=8, levels=2,
                             samples=4, seed=77, sampler=sampler)
        with pytest.raises(FactorizationError) as excinfo:
            run_convergence_study(config)
        assert str(excinfo.value) == f"seed 77, {sampler} sampler, reference n=64: forced for n=64"
        assert isinstance(excinfo.value.__cause__, FactorizationError)

    def test_levels_are_freed_one_by_one_and_the_reference_is_never_whole(self, monkeypatch):
        # the criterion-6 study; its traced peak read 3.31 MB when the whole
        # reference solution (0.82 MB) was held, and 2.69 MB measured block by block
        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=16, levels=4,
                             ref_extra=2, samples=200, seed=2, solver="fem")
        run_convergence_study(dataclasses.replace(config, seed=1))  # set-up caches
        tracemalloc.start()
        try:
            run_convergence_study(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0e6, peak

        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=8, levels=3,
                             samples=40, seed=5, solver="both")
        coarse, solves = {}, []
        aggregate, solve = experiments.aggregate_increments, experiments._solve

        def aggregate_spy(fine, factor):
            path = aggregate(fine, factor)
            coarse[path.grid.n] = weakref.ref(path.increments)
            return path

        def solve_spy(solver, problem, path, grid=None, **options):
            dead = sorted(n for n, increments in coarse.items() if increments() is None)
            solves.append((solver, path.grid.n, dead))
            return solve(solver, problem, path, grid, **options)

        monkeypatch.setattr(experiments, "aggregate_increments", aggregate_spy)
        monkeypatch.setattr(experiments, "_solve", solve_spy)
        run_convergence_study(config)
        # finest level first, by both solvers; a level's path is dead before
        # the next level is solved, and the reference is never solved whole
        assert solves == [("fem", 32, []), ("greens", 32, []), ("fem", 16, [32]),
                          ("greens", 16, [32]), ("fem", 8, [16, 32]), ("greens", 8, [16, 32])]

    def test_both_solvers_reported(self):
        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one",
                             n0=8, levels=2, samples=4, seed=5, solver="both")
        report = run_convergence_study(config)
        assert set(report.results) == {"fem", "greens"}

    def test_thread_count_invisible_in_report(self, monkeypatch, drawn_chunks):
        # identical config must give byte-identical reports at any thread
        # count; only wall time may differ.  Chunks of four rows give the
        # pool three chunks to run at once.
        _chunks_of(monkeypatch, 4, fine_n=64)
        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one",
                             n0=8, levels=3, ref_extra=1, samples=12, seed=9)
        serial = run_convergence_study(config, threads=1)
        pooled = run_convergence_study(config, threads=4)
        assert drawn_chunks == [4] * 6
        a = json.dumps(serial.to_dict(include_timing=False), sort_keys=True)
        b = json.dumps(pooled.to_dict(include_timing=False), sort_keys=True)
        assert a == b

    def test_shared_greens_operators_invisible_across_threads(self, monkeypatch, drawn_chunks):
        # the threads share the problem and the sampler; four chunks, more
        # threads than cores and frequent switches give interleavings a chance
        _chunks_of(monkeypatch, 2, fine_n=64)
        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=8, levels=3,
                             ref_extra=1, samples=8, seed=4, solver="greens")
        serial = run_convergence_study(config, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run_convergence_study(config, threads=2)
            crowded = run_convergence_study(config, threads=6)
        finally:
            sys.setswitchinterval(interval)
        assert drawn_chunks == [2] * 12
        a = json.dumps(serial.to_dict(include_timing=False), sort_keys=True)
        b = json.dumps(pooled.to_dict(include_timing=False), sort_keys=True)
        c = json.dumps(crowded.to_dict(include_timing=False), sort_keys=True)
        assert a == b == c

    def test_timing_excluded_on_request(self):
        config = StudyConfig(hurst=0.25, n0=4, levels=2, samples=2, seed=1)
        report = run_convergence_study(config)
        assert "wall_time" in report.to_dict()
        assert "wall_time" not in report.to_dict(include_timing=False)


class TestOtherStudies:
    def test_h1_means_match_exact_gaussian_values(self):
        # f = 0, g = 0: the solution is linear in the increments, so
        # E||u||_1^2 is a trace against the increment covariance -- an exact,
        # sampling-free oracle for the study's level means
        H = 0.25
        config = StudyConfig(hurst=H, reaction="zero", forcing="zero",
                             n0=16, levels=3, samples=64, seed=2)
        result = run_h1_blowup_study(config)
        for level in result["levels"]:
            n = level["n"]
            grid = UniformGrid(n)
            coeffs = greens_cell_integrals(grid.nodes(), grid) / grid.h
            cov = increment_covariance_matrix(grid, H)
            nodal_cov = coeffs @ cov @ coeffs.T
            slopes_cov = np.diff(np.diff(nodal_cov, axis=0), axis=1) / grid.h**2
            seminorm_sq = grid.h * np.trace(slopes_cov)
            mass = (np.diag(np.full(n + 1, 2 * grid.h / 3))
                    + np.diag(np.full(n, grid.h / 6), 1)
                    + np.diag(np.full(n, grid.h / 6), -1))
            mass[0, 0] = mass[-1, -1] = grid.h / 3
            l2_sq = float(np.sum(mass * nodal_cov))
            exact = l2_sq + seminorm_sq
            z = (level["mean_h1_sq"] - exact) / level["stderr"]
            print(f"n={n}: mean {level['mean_h1_sq']:.4f} exact {exact:.4f} z={z:+.2f}")
            assert abs(z) < 4.0

    def test_h1_growth_respects_energy_bound(self):
        # the energy estimate caps growth at h^{2H-2}; the observed means
        # saturate near a finite limit instead of attaining it, so the slope
        # sits close to zero, far above the guaranteed floor
        config = StudyConfig(hurst=0.25, reaction="zero", forcing="zero",
                             n0=16, levels=4, samples=48, seed=2)
        result = run_h1_blowup_study(config)
        slope = result["fitted_slope"]
        print(f"H1 growth slope {slope:.3f} (guaranteed >= {2 * 0.25 - 2:.2f})")
        assert slope >= 2 * 0.25 - 2
        assert -0.5 < slope <= 0.05

    def test_superconvergence_rate(self):
        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one",
                             n0=8, levels=3, samples=24, seed=4)
        result = run_superconvergence_study(config)
        print(f"superconvergence rate {result['fitted_rate']:.3f}")
        assert result["fitted_rate"] >= 0.25 + 1 - 0.2

    def test_superconvergence_proxy_is_never_whole(self):
        # criterion 9's study; its traced peak read 2.50 MB when each level's
        # whole proxy on 2n (0.41 MB at n = 128) was held, and 1.99 MB
        # measured block by block
        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=16, levels=4,
                             samples=200, seed=2024)
        run_superconvergence_study(dataclasses.replace(config, seed=1))  # set-up caches
        tracemalloc.start()
        try:
            run_superconvergence_study(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25e6, peak

    def test_single_solver_studies_reject_solvers_they_do_not_run(self):
        config = dict(hurst=0.25, n0=4, levels=2, samples=2, seed=1)
        with pytest.raises(ValueError):
            run_h1_blowup_study(StudyConfig(**config, solver="both"))
        for solver in ("greens", "both"):
            with pytest.raises(ValueError):
                run_superconvergence_study(StudyConfig(**config, solver=solver))


class TestBlocks:
    """Samples are solved in blocks of rows; the block size must not show."""

    SAMPLES = 17

    @staticmethod
    def _outputs(threads: int = 1) -> dict:
        samples = TestBlocks.SAMPLES
        base = dict(hurst=0.3, reaction="sin", forcing="one", n0=4, levels=3,
                    samples=samples, seed=6)
        out = {}
        for solver in ("fem", "greens", "both"):
            config = StudyConfig(**base, ref_extra=2, solver=solver, sampler="davies-harte")
            out[solver] = run_convergence_study(config, threads).to_dict(include_timing=False)
        out["h1"] = run_h1_blowup_study(StudyConfig(**base, solver="greens"), threads)
        out["super"] = run_superconvergence_study(StudyConfig(**base), threads)
        out["agreement"] = repr(verify_solver_agreement(0.3, level_ns=(4, 8, 16),
                                                        samples=samples, threads=threads))
        return json.loads(json.dumps(out, sort_keys=True))

    def test_block_size_does_not_change_results(self, monkeypatch):
        reports = {}
        for rows in (1, 7, self.SAMPLES):
            monkeypatch.setattr(experiments, "_block_rows", lambda fine_n: rows)
            reports[rows] = self._outputs()
            if rows == 7:
                # three uneven blocks, run by a pool
                assert self._outputs(threads=3) == reports[rows]
        assert reports[1] == reports[7] == reports[self.SAMPLES]

    def test_blocks_that_start_inside_a_chunk_do_not_change_results(self, monkeypatch):
        # the grids of 16 cells and more (every study's fine grid, the
        # proxies on 32 and the reference on 64) solve blocks of 3 rows while
        # one chunk holds all the samples, so most blocks start inside it
        unpatched = json.dumps(self._outputs(), sort_keys=True)
        block_rows = experiments._block_rows
        monkeypatch.setattr(experiments, "_block_rows", lambda n: 3 if n >= 16 else block_rows(n))
        assert experiments._chunk_rows(16, [4, 8, 16]) >= self.SAMPLES
        assert experiments._chunk_rows(64, [4, 8, 16]) >= self.SAMPLES
        assert json.dumps(self._outputs(), sort_keys=True) == unpatched

    def test_rows_per_block_follow_the_sampling_grid(self):
        # one (rows, 2n) float64 array of a block stays within 128 KiB
        assert experiments._block_rows(512) == 16
        assert experiments._block_rows(1024) == 8
        assert experiments._block_rows(1 << 20) == 1

    @pytest.mark.parametrize("solver", ["fem", "greens"])
    def test_stall_names_seed_sample_level_and_solver(self, monkeypatch, solver):
        monkeypatch.setattr(experiments, "_block_rows", lambda fine_n: 2)
        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=4, levels=2,
                             samples=5, seed=4321, solver=solver, max_iters=1)
        with pytest.raises(NonConvergenceError) as excinfo:
            run_convergence_study(config)
        message = str(excinfo.value)
        # the first solve of the first block is the finest level's solve of sample 0
        assert "seed 4321" in message
        assert "sample m=0" in message
        assert f"level n={max(config.level_ns())}" in message
        assert f"{solver} solver" in message
        assert excinfo.value.iterations == 1

    def test_stall_in_a_later_block_names_its_sample(self, monkeypatch):
        monkeypatch.setattr(experiments, "_block_rows", lambda fine_n: 2)
        blocks = []

        def statistic(fine):
            blocks.append(len(fine.increments))
            if len(blocks) == 2:  # rows 2 and 3; the second one stalls
                raise NonConvergenceError("stalled", residual=1.0, iterations=9, row=1)
            return np.zeros((len(fine.increments), 1))

        # Davies-Harte chunks keep their two rows; Cholesky ones fill a sampler tile
        with pytest.raises(NonConvergenceError) as excinfo:
            experiments._coupled_samples(statistic, StudyConfig(0.25, n0=4, levels=2, samples=5,
                                                                seed=77, sampler="davies-harte"),
                                         fine_n=8, threads=1)
        assert str(excinfo.value) == "seed 77, sample m=3, stalled"
        assert blocks == [2, 2]

    @pytest.mark.parametrize("solver", ["fem", "greens"])
    def test_stall_in_a_later_block_of_a_coarse_level_names_its_sample(self, monkeypatch,
                                                                        solver):
        # chunks of four samples; level n=4 solves them two rows at a time
        monkeypatch.setattr(experiments, "_block_rows", lambda n: 2 if n == 4 else 4)
        name = "solve_nonlinear_fem" if solver == "fem" else "solve_hammerstein"
        solve, calls = getattr(experiments, name), []

        def stalling(problem, path, grid=None, **options):
            if path.grid.n == 4:
                calls.append(len(path.increments))
                if len(calls) == 4:  # the second chunk's second block
                    raise NonConvergenceError("stalled", residual=1.0, iterations=9, row=1)
            return solve(problem, path, grid=grid, **options)

        monkeypatch.setattr(experiments, name, stalling)
        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=4, levels=2,
                             ref_extra=1, samples=10, seed=31, solver=solver)
        with pytest.raises(NonConvergenceError) as excinfo:
            run_convergence_study(config)
        # sample 4 + 2 + 1: chunk start, block offset, row in the block
        assert str(excinfo.value) == f"seed 31, sample m=7, {solver} solver, level n=4: stalled"
        assert calls == [2, 2, 2, 2]

    @pytest.mark.parametrize("solver", ["fem", "greens"])
    def test_forcing_is_evaluated_once_per_solve_call(self, monkeypatch, solver):
        # three blocks of two rows share their grid's set-up and its forcing
        monkeypatch.setattr(experiments, "_block_rows", lambda n: 2)
        problem = StudyConfig(hurst=0.25, reaction="sin", forcing="one").problem()
        evaluated = []

        def forcing(x):
            evaluated.append(len(x))
            return problem.forcing(x)

        path = IncrementSampler(UniformGrid(8), 0.25, "davies-harte").sample(3, 0, 5)
        counted = dataclasses.replace(problem, forcing=forcing)
        values = experiments._solve(solver, counted, path).values
        assert evaluated == [16]  # two Gauss points on each of 8 cells
        assert np.array_equal(values, experiments._solve(solver, problem, path).values)

    def test_each_grid_solves_blocks_sized_by_itself(self, monkeypatch):
        rows = defaultdict(list)

        def spy(problem, disc, rhs, *args):
            rows[disc.grid.n].append(len(rhs))
            return damped_fixed_point(problem, disc, rhs, *args)

        monkeypatch.setattr(fem_module, "damped_fixed_point", spy)
        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=16, levels=4,
                             ref_extra=2, samples=200, seed=2024, solver="fem")
        run_convergence_study(config)
        assert sorted(rows) == [16, 32, 64, 128, 512]
        for n, counts in rows.items():
            assert max(counts) <= experiments._block_rows(n), n
            assert sum(counts) == config.samples, n
        # the coarsest levels solve every sample in one call, the others in blocks
        assert rows[16] == rows[32] == [config.samples]
        assert rows[64] == [128, 72]
        assert rows[128] == [64] * 3 + [8]
        assert rows[512] == [16] * 12 + [8]

    @pytest.mark.parametrize("case, thread_counts, chunks", [
        # the criterion-6 study: 200 paths of 512 cells fit in one chunk
        pytest.param(dict(n0=16, levels=4, ref_extra=2, samples=200, seed=2024),
                     (1, 4, 8), [200], id="criterion-6"),
        # 32 Davies-Harte paths of 4096 cells fill a chunk's 1 MiB, so memory
        # alone splits 70 samples
        pytest.param(dict(n0=16, levels=2, ref_extra=7, samples=70, seed=3,
                          sampler="davies-harte"), (1, 3), [32, 32, 6], id="memory-split"),
    ])
    def test_chunks_do_not_depend_on_threads(self, drawn_chunks, case, thread_counts, chunks):
        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", solver="fem", **case)
        reports = set()
        for threads in thread_counts:
            drawn_chunks.clear()
            report = run_convergence_study(config, threads)
            reports.add(json.dumps(report.to_dict(include_timing=False), sort_keys=True))
            assert sorted(drawn_chunks, reverse=True) == chunks, threads
        assert len(reports) == 1

    @pytest.mark.parametrize("threads, chunks", [(1, [200]), (4, [64] * 3 + [8]),
                                                 (8, [32] * 6 + [8])])
    def test_every_thread_gets_a_chunk(self, monkeypatch, drawn_chunks, threads, chunks):
        # the criterion-6 study split into chunks of chunks[0] rows; the pool
        # starts no more threads than there are chunks, and none at one thread
        import concurrent.futures

        pools = []

        class SpyPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyPool)
        _chunks_of(monkeypatch, chunks[0], fine_n=512)
        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=16, levels=4,
                             ref_extra=2, samples=200, seed=2024, solver="fem")
        run_convergence_study(config, threads)
        assert sorted(drawn_chunks, reverse=True) == chunks
        assert pools == ([] if threads == 1 else [min(threads, len(chunks))])

    def test_thread_pool_is_imported_only_when_it_runs(self):
        src = str(pathlib.Path(experiments.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        child = subprocess.run([sys.executable, "-c", _POOL_IMPORT_CHECK], env=env,
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        # after the import, after one chunk at threads=8, after four chunks at threads=2
        assert child.stdout.split() == ["False", "False", "True"]

    def test_study_memory_does_not_grow_with_the_sample_count(self):
        base = dict(hurst=0.25, reaction="sin", forcing="one", n0=16, levels=2, ref_extra=5,
                    solver="greens", sampler="davies-harte", seed=8)
        fine_n = StudyConfig(**base).reference_n
        chunk = experiments._chunk_rows(fine_n, StudyConfig(**base).level_ns())
        run_convergence_study(StudyConfig(**base, samples=2))  # set-up caches
        peaks = {}
        for samples in (300, 900):
            assert samples > chunk
            tracemalloc.start()
            try:
                run_convergence_study(StudyConfig(**base, samples=samples))
                peaks[samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[900] <= 1.1 * peaks[300], peaks


class TestVerificationChecks:
    def test_noise_norm_passes(self):
        verdict = verify_noise_norm(0.25, n=32, samples=4000)
        assert verdict.passed and verdict.status == "PASS"
        assert verdict.target == pytest.approx(32.0 ** 1.5)

    def test_isometry_passes(self):
        f = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0]))
        verdict = verify_isometry(f, 0.25, samples=20000, label="haar")
        assert verdict.passed

    def test_kernel_pair_sum_quadrature_independent_route(self):
        grid = UniformGrid(8)
        closed = singular_kernel_pair_sum(grid, 0.25)
        oracle = kernel_pair_sum_quadrature(grid, 0.25)
        assert closed == pytest.approx(oracle, rel=1e-9)

    def test_kernel_pair_sum_verdict(self):
        verdict = verify_kernel_pair_sum(16, 0.1)
        assert verdict.passed
        assert verdict.statistic < 1e-6

    def test_convolution_decay_verdict(self):
        verdict = verify_convolution_error_decay(0.25, level_ns=(16, 32, 64))
        assert verdict.passed
        assert verdict.estimate >= 1.5 - 0.15

    @pytest.mark.parametrize("bad", [
        dict(seed=-1), dict(samples=10.5), dict(samples=1), dict(level_ns=(16,)),
        dict(level_ns=(16, 16)), dict(level_ns=(16, 24)), dict(level_ns=()), dict(tol=0.0),
    ], ids=repr)
    def test_solver_agreement_refuses_bad_input_before_sampling(self, monkeypatch, bad):
        built, sampler = [], experiments.IncrementSampler

        def spy(*args, **kwargs):
            built.append(args)
            return sampler(*args, **kwargs)

        monkeypatch.setattr(experiments, "IncrementSampler", spy)
        with pytest.raises(ValueError):
            verify_solver_agreement(0.25, **{"level_ns": (4, 8, 16), **bad})
        assert built == []

    def test_solver_agreement_floor_regime(self):
        verdict = verify_solver_agreement(0.25, samples=8)
        assert verdict.passed
        # nodally equivalent schemes: gap is tolerance, not discretization
        assert verdict.estimate <= verdict.target
        assert "floor" in verdict.details

    def test_suite_composition(self):
        verdicts = run_verification_suite(0.25, samples_scale=0.02)
        names = [v.check for v in verdicts]
        assert any(name.startswith("noise-norm") for name in names)
        assert sum(name.startswith("isometry") for name in names) == 3
        assert sum(name.startswith("kernel-pair-sum") for name in names) == 3
        assert names[-1].startswith("conv-error-decay")

    def test_suite_white_noise_runs_standard_kernel_matrix(self):
        verdicts = run_verification_suite(0.5, samples_scale=0.02)
        kernel = [v for v in verdicts if v.check.startswith("kernel-pair-sum")]
        assert len(kernel) == 9  # 3 sizes x 3 rough H values
        assert all(v.passed for v in kernel)
