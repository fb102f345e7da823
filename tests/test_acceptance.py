"""Acceptance battery: one test per pinned criterion, one verdict line each.

Every check here has its tolerance pinned in the assertion; the printed
lines are collected and re-emitted in the terminal summary so a plain
pytest run shows the full scoreboard.  Seeds are fixed: reruns are
byte-for-byte repeatable.

Criterion 8 is expected to fail, and the failure is kept deliberately: the
energy estimate caps the mean squared H1 norm by h^{2H-2}, but the cap is
not attained -- the solution operator smooths the noise and the measured
means saturate at a finite limit (slope near 0, exactly computable from the
increment covariance; see test_experiments).  The h^{2H-2} growth is real
for the noise norm itself, which criterion 1 checks as an exact identity.
A two-sided fit against the cap therefore cannot pass, and relaxing the
assertion would hide that finding.
"""

import json
import math
import time

import numpy as np
import pytest

from fracbvp import (
    StepFunction,
    StudyConfig,
    UniformGrid,
    assemble_load,
    ito_isometry,
    run_convergence_study,
    run_h1_blowup_study,
    run_superconvergence_study,
    verify_convolution_error_decay,
    verify_isometry,
    verify_kernel_pair_sum,
    verify_noise_norm,
    verify_solver_agreement,
)

from oracles import increment_covariance_matrix, solve_linear_fem

_LINES = []


def _report(number: int, passed: bool, detail: str) -> None:
    line = f"criterion {number:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    _LINES.append(line)
    print(line)


class TestAcceptance:
    def test_criterion_01_noise_norm_identity(self):
        started = time.perf_counter()
        verdict = verify_noise_norm(0.25, n=64, samples=10**4, seed=2024)
        elapsed = time.perf_counter() - started
        detail = (f"E||noise||^2 = {verdict.estimate:.2f} vs 512 exactly, "
                  f"z={verdict.statistic:+.2f} (|z|<=4), {elapsed:.1f}s (<10s)")
        ok = verdict.passed and verdict.target == 512.0 and elapsed < 10.0
        _report(1, ok, detail)
        assert verdict.target == 512.0
        assert verdict.passed
        assert elapsed < 10.0

    def test_criterion_02_ito_isometry(self):
        started = time.perf_counter()
        m = 10**5
        one = StepFunction.constant(1.0)
        half = StepFunction.indicator(0.0, 0.5)
        haar = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0]))

        # closed-form targets have independent values: exact for the first
        # two, increment-covariance algebra for the third
        assert ito_isometry(one, hurst=0.25) == pytest.approx(1.0, abs=1e-14)
        assert ito_isometry(half, hurst=0.5) == pytest.approx(0.5, abs=1e-14)
        cov = increment_covariance_matrix(UniformGrid(2), 0.25)
        var_diff = cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1]
        assert ito_isometry(haar, hurst=0.25) == pytest.approx(var_diff, rel=1e-13)

        verdicts = [
            verify_isometry(one, 0.25, samples=m, seed=2024, label="one"),
            verify_isometry(half, 0.5, samples=m, seed=2024, label="half-indicator"),
            verify_isometry(haar, 0.25, samples=m, seed=2024, label="haar"),
        ]
        elapsed = time.perf_counter() - started
        zs = ", ".join(f"{v.statistic:+.2f}" for v in verdicts)
        ok = all(v.passed for v in verdicts) and elapsed < 30.0
        _report(2, ok, f"M=1e5 variances vs closed forms, z = {zs} "
                       f"(|z|<=4 each), {elapsed:.1f}s (<30s)")
        assert all(v.passed for v in verdicts)
        assert elapsed < 30.0

    def test_criterion_03_singular_kernel_pair_sum(self):
        started = time.perf_counter()
        worst = 0.0
        for n in (4, 16, 64):
            for hurst in (0.1, 0.25, 0.4):
                verdict = verify_kernel_pair_sum(n, hurst)
                worst = max(worst, verdict.statistic)
                assert verdict.passed, (n, hurst, verdict.details)
        elapsed = time.perf_counter() - started
        ok = worst < 1e-6 and elapsed < 10.0
        _report(3, ok, f"closed form vs adaptive quadrature on 9 (n,H) pairs, "
                       f"worst rel err {worst:.2e} (<1e-6), bound satisfied, "
                       f"{elapsed:.1f}s (<10s)")
        assert worst < 1e-6
        assert elapsed < 10.0

    def test_criterion_04_kernel_averaging_decay(self):
        started = time.perf_counter()
        rates = {}
        for hurst in (0.1, 0.25, 0.45):
            verdict = verify_convolution_error_decay(hurst)
            rates[hurst] = verdict.estimate
            assert verdict.passed, verdict.details
        elapsed = time.perf_counter() - started
        summary = ", ".join(f"H={h:g}: {r:.2f}>={2*h+1-0.15:.2f}"
                            for h, r in rates.items())
        ok = elapsed < 60.0
        _report(4, ok, f"second-moment decay rates {summary}, "
                       f"{elapsed:.1f}s (<60s)")
        assert elapsed < 60.0

    def test_criterion_05_fem_poisson_exactness(self):
        worst = 0.0
        for n in (2, 17, 128):
            grid = UniformGrid(n)
            load = assemble_load(grid, forcing=lambda x: np.ones_like(x))
            solution = solve_linear_fem(grid, load)
            nodes = grid.nodes()
            gap = float(np.abs(solution.values - nodes * (1 - nodes) / 2).max())
            worst = max(worst, gap)
        ok = worst < 1e-12
        _report(5, ok, f"-u''=1 nodal values x(1-x)/2 on n in {{2,17,128}}, "
                       f"worst error {worst:.2e} (<1e-12)")
        assert worst < 1e-12

    def test_criterion_06_lipschitz_rate(self):
        details = []
        ok = True
        for hurst in (0.25, 0.5):
            config = StudyConfig(hurst=hurst, reaction="sin", forcing="one",
                                 n0=16, levels=4, ref_extra=2, samples=200,
                                 seed=2024, solver="fem")
            block = run_convergence_study(config).results["fem"]
            rate, target = block["fitted_rate"], hurst + 0.5
            details.append(f"H={hurst:g}: rate {rate:.3f} in {target:.2f}+/-0.2")
            ok = ok and abs(rate - target) <= 0.2
        _report(6, ok, f"f=sin, ladder 16..128, ref 512, M=200: "
                       + "; ".join(details))
        assert ok

    def test_criterion_07_monotone_rate(self):
        config = StudyConfig(hurst=0.25, reaction="sqrt-clip", forcing="one",
                             n0=16, levels=4, ref_extra=2, samples=200,
                             seed=2024, solver="fem")
        block = run_convergence_study(config).results["fem"]
        rate = block["fitted_rate"]
        ok = rate >= 0.275
        _report(7, ok, f"f=sqrt-clip (monotone, non-Lipschitz), H=0.25: "
                       f"rate {rate:.3f} >= 0.275 (H/2+1/4-0.1)")
        assert ok

    def test_criterion_08_h1_norm_growth(self):
        config = StudyConfig(hurst=0.25, reaction="zero", forcing="zero",
                             n0=16, levels=5, samples=200, seed=2024,
                             solver="fem")
        result = run_h1_blowup_study(config)
        slope = result["fitted_slope"]
        band = 2 * 0.25 - 2
        ok = abs(slope - band) <= 0.3
        _report(8, ok, f"mean ||u||_1^2 slope {slope:+.3f} vs required "
                       f"{band:+.1f}+/-0.3; measured norm saturates at a "
                       f"finite limit, so the growth cap is respected but "
                       f"never attained (the h^(2H-2) growth lives in the "
                       f"noise norm, criterion 1)")
        assert ok, (
            "two-sided fit against the growth cap cannot pass: the H1 norm "
            "stays bounded (exact trace values in test_experiments); kept "
            "failing rather than weakened"
        )

    def test_criterion_09_superconvergence(self):
        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one",
                             n0=16, levels=4, samples=200, seed=2024,
                             solver="fem")
        result = run_superconvergence_study(config)
        rate = result["fitted_rate"]
        ok = rate >= 0.25 + 1 - 0.2
        _report(9, ok, f"||(Ritz proxy - FEM)'|| RMS rate {rate:.3f} >= 1.05 "
                       f"(H+1-0.2), coupled one-level-finer proxy, M=200")
        assert ok

    def test_criterion_10_cross_solver_equivalence(self):
        verdict = verify_solver_agreement(0.25, samples=100, seed=2024)
        ok = verdict.passed
        _report(10, ok, f"FEM vs Hammerstein on 100 coupled paths: worst RMS "
                        f"gap {verdict.estimate:.2e} at the solver-tolerance "
                        f"floor (<= {verdict.target:.0e})")
        assert ok

    def test_criterion_11_thread_determinism(self):
        config = StudyConfig(hurst=0.25, reaction="sin", forcing="one",
                             n0=16, levels=4, ref_extra=2, samples=200,
                             seed=2024, solver="fem")
        serial = run_convergence_study(config, threads=1)
        pooled = run_convergence_study(config, threads=8)
        a = json.dumps(serial.to_dict(include_timing=False), sort_keys=True)
        b = json.dumps(pooled.to_dict(include_timing=False), sort_keys=True)
        ok = a == b
        _report(11, ok, f"criterion-6 study at threads 1 vs 8: reports "
                        f"byte-identical excluding wall time "
                        f"({len(a)} bytes compared)")
        assert ok
