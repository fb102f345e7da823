"""The benchmark's span tracer still sees every layer of a coupled study.

bench/tracing.py wraps public functions under the names callers resolve them
by.  A refactor that renames a wrapped function, or that captures a solver at
import time (in a dict or a default argument), leaves the traced benchmark
silently short of spans; the exact counts below catch both.  A study solves
its samples in blocks of rows, so the counts follow the blocks: one solve per
block and grid, one reaction call per stacked defect after the zero start,
one tridiagonal solve per such FEM defect plus one for the FEM right-hand
side of each solve, iteration totals that equal those of row-by-row
solves, and one sampler draw per chunk of samples.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from fracbvp import (IncrementSampler, StudyConfig, UniformGrid, aggregate_increments,
                     run_convergence_study, solve_hammerstein, solve_nonlinear_fem)
from fracbvp import experiments

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    return tracing


def _row_iterations(config, solve) -> np.ndarray:
    """(samples, grids) iteration counts of every sample solved alone, reference first."""
    problem = config.problem()
    sampler = IncrementSampler(UniformGrid(config.reference_n), config.hurst, config.sampler)
    counts = []
    for m in range(config.samples):
        fine = sampler.sample(config.seed, m)
        paths = [fine] + [aggregate_increments(fine, config.reference_n // n)
                          for n in config.level_ns()]
        counts.append([solve(problem, path, tol=config.tol,
                             max_iters=config.max_iters).iterations for path in paths])
    return np.array(counts)


def test_tiny_both_solver_study_is_fully_traced(tracing, monkeypatch):
    rows = 2
    monkeypatch.setattr(experiments, "_block_rows", lambda fine_n: rows)
    config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=4, levels=2,
                         ref_extra=1, samples=3, seed=5, solver="both")
    samples, levels = config.samples, config.levels
    blocks = -(-samples // rows)
    untraced = run_convergence_study(config).to_dict(include_timing=False)
    fem_rows = _row_iterations(config, solve_nonlinear_fem)
    greens_rows = _row_iterations(config, solve_hammerstein)
    # a stacked solve steps until its slowest row stops
    steps = lambda counts: sum(int(counts[start:start + rows].max(axis=0).sum())
                               for start in range(0, samples, rows))

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op(1):
            traced = run_convergence_study(config).to_dict(include_timing=False)
        with tracer.op(2):
            config.problem()  # the reaction calls a study makes before any solve
    finally:
        tracer.uninstall()

    count = lambda name, op=1: tracer.counts[(op, name)]
    assert json.dumps(traced, sort_keys=True) == json.dumps(untraced, sort_keys=True)
    # a both-solver study passes through every wrapped function but the
    # kernel and its cell integrals, which only the closed-form convolution
    # moments use
    spans = {name for name, start, end, parent, op in tracer.spans if op == 1}
    assert spans == ({target[2] for target in tracing.TARGETS}
                     - {"greens.cell_integrals", "greens.kernel"} | {tracing.ROOT_SPAN})
    # one block draw per chunk: a Cholesky chunk is rounded up to whole
    # 32-row sampler tiles, so the three samples are one chunk
    assert count("noise.draws") == 1
    assert count("fem.solves") == count("greens.solves") == blocks * (levels + 1)
    assert count("grids.l2_error_calls") == 2 * blocks * levels
    assert count("fem.iterations") == fem_rows.sum() > 0
    assert count("greens.iterations") == greens_rows.sum() > 0
    # one tridiagonal solve and one reaction call per stacked defect: every
    # step ends in one, on which the next step or the stop rests, while the
    # zero start's defect is -rhs and costs neither; FEM solves once more per
    # stacked solve for its right-hand side A^-1 L
    assert count("fem.tridiag_solves") == steps(fem_rows) + blocks * (levels + 1)
    defects = steps(fem_rows) + steps(greens_rows)
    assert count("problem.reaction_calls") == defects + count("problem.reaction_calls", 2)
    assert count("fem.nonconverged") == count("greens.nonconverged") == 0
