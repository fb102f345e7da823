"""Monte Carlo harness: coupling, rate fits, determinism, verification checks."""

import json
import sys

import numpy as np
import pytest

from fracbvp import (
    IncrementSampler,
    StudyConfig,
    UniformGrid,
    estimate_rate,
    greens_cell_integrals,
    increment_covariance_matrix,
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
from fracbvp.errors import NonConvergenceError
from fracbvp.experiments import _coupled_paths, kernel_pair_sum_quadrature
from fracbvp.noise import StepFunction, singular_kernel_pair_sum


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
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
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
        fine = IncrementSampler(UniformGrid(64), 0.25).sample(rng)
        paths = _coupled_paths(fine, [8, 16, 32, 64])
        for n, path in paths.items():
            assert path.grid.n == n
            # each coarse increment is the exact sum of its fine children
            blocks = fine.increments.reshape(n, 64 // n).sum(axis=1)
            assert np.allclose(path.increments, blocks, atol=1e-15)


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

    def test_both_solvers_reported(self):
        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one",
                             n0=8, levels=2, samples=4, seed=5, solver="both")
        report = run_convergence_study(config)
        assert set(report.results) == {"fem", "greens"}

    def test_thread_count_invisible_in_report(self):
        # identical config must give byte-identical reports at any thread
        # count; only wall time may differ
        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one",
                             n0=8, levels=3, ref_extra=1, samples=12, seed=9)
        serial = run_convergence_study(config, threads=1)
        pooled = run_convergence_study(config, threads=4)
        a = json.dumps(serial.to_dict(include_timing=False), sort_keys=True)
        b = json.dumps(pooled.to_dict(include_timing=False), sort_keys=True)
        assert a == b

    def test_shared_greens_operators_invisible_across_threads(self):
        # the threads share the problem and the sampler; more threads than
        # cores and frequent switches give interleavings a chance
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

    def test_rows_per_block_follow_the_sampling_grid(self):
        # one (rows, 2n) float64 array of a block stays within 256 KiB
        assert experiments._block_rows(512) == 32
        assert experiments._block_rows(1024) == 16
        assert experiments._block_rows(1 << 20) == 1

    @pytest.mark.parametrize("solver", ["fem", "greens"])
    def test_stall_names_seed_sample_level_and_solver(self, monkeypatch, solver):
        monkeypatch.setattr(experiments, "_block_rows", lambda fine_n: 2)
        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=4, levels=2,
                             samples=5, seed=4321, solver=solver, max_iters=1)
        with pytest.raises(NonConvergenceError) as excinfo:
            run_convergence_study(config)
        message = str(excinfo.value)
        # the first solve of the first block is the reference solve of sample 0
        assert "seed 4321" in message
        assert "sample m=0" in message
        assert f"level n={config.reference_n}" in message
        assert f"{solver} solver" in message
        assert excinfo.value.iterations == 1

    def test_stall_in_a_later_block_names_its_sample(self, monkeypatch):
        monkeypatch.setattr(experiments, "_block_rows", lambda fine_n: 2)
        blocks = []

        def statistic(fine_path, paths):
            blocks.append(len(fine_path.increments))
            if len(blocks) == 2:  # rows 2 and 3; the second one stalls
                raise NonConvergenceError("stalled", residual=1.0, iterations=9, row=1)
            return np.zeros((len(fine_path.increments), 1))

        with pytest.raises(NonConvergenceError) as excinfo:
            experiments._coupled_samples(statistic, 8, [8], 0.25, "cholesky",
                                         samples=5, seed=77, threads=1)
        assert str(excinfo.value) == "seed 77, sample m=3, stalled"
        assert blocks == [2, 2]


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
