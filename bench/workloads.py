"""The benchmark's workloads: what one operation runs and how its output is checked.

Operation i of a run with seed S uses seed S + i, so no operation repeats an
earlier one.  Every workload keeps the library defaults for tol and max_iters
and runs its study with threads=1.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from fracbvp import StudyConfig, run_convergence_study

# Criterion-6 band: a study's fitted L2 rate must lie in H + 1/2 +- RATE_BAND.
RATE_BAND = 0.2


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class Study:
    """A coupled Monte Carlo study; one op is one run_convergence_study call."""

    name: str
    config: dict  # StudyConfig fields except the seed
    # Rough op time on a 2-core Xeon; sizes the fixed op count of a traced run.
    nominal_op_s: float

    def setup_args(self) -> tuple:
        """(hurst, reaction, forcing, n, method) of the set-up a CLI run pays."""
        config = StudyConfig(**self.config)
        return (config.hurst, config.reaction, config.forcing,
                config.reference_n, config.sampler)

    def op_seed(self, seed: int, index: int) -> int:
        """Library seed of operation `index` in a run seeded with `seed`."""
        return seed + index

    def run(self, seed: int, index: int):
        config = StudyConfig(**self.config, seed=self.op_seed(seed, index))
        return run_convergence_study(config, threads=1)

    def check(self, report) -> list:
        """Problems found in one report; empty when it is correct."""
        problems = []
        hurst = report.config.hurst
        for solver, block in report.results.items():
            for level in block["levels"]:
                rms = level["rms_error"]
                if not (math.isfinite(rms) and rms > 0.0):
                    problems.append(f"{solver} n={level['n']}: rms_error {rms!r}")
            rate = block["fitted_rate"]
            if not abs(rate - (hurst + 0.5)) <= RATE_BAND:
                problems.append(f"{solver}: fitted rate {rate:.4f} outside "
                                f"{hurst + 0.5:g} +- {RATE_BAND:g}")
        return problems

    def digest(self, report) -> str:
        """sha256 of the report without timings; shows numeric drift, gates nothing."""
        return _sha256(report.to_dict(include_timing=False))


_STUDY = dict(hurst=0.25, reaction="sin", forcing="one", n0=16, levels=4)

# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w for w in (
        Study("study-fem",
              dict(_STUDY, ref_extra=2, samples=200, solver="fem", sampler="cholesky"),
              nominal_op_s=1.8),
        # M=64: at M=16 the fitted rate leaves the criterion-6 band in ~2% of
        # ops (rate sd 0.073); at M=64 the sd is 0.037, 4.7 sd inside the band.
        # Reference 1024, not 2048, keeps an M=64 op near 5.5 s rather than 20-30 s.
        Study("study-greens-fine",
              dict(_STUDY, ref_extra=3, samples=64, solver="greens", sampler="davies-harte"),
              nominal_op_s=6.0),
    )
}
