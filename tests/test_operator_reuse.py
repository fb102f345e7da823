"""Studies build the dense Green's operators once per grid, not once per solve.

Counted with the benchmark's span tracer (bench/tracing.py), which records
the bytes of every dense matrix greens_function and greens_cell_integrals
return: a study that rebuilt the operators per solve would count them once
per sample and level instead of once per grid.
"""

import pathlib
import sys

import pytest

from fracbvp import (StudyConfig, run_convergence_study, run_h1_blowup_study,
                     verify_solver_agreement)

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    return tracing


def _traced(tracing, run):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op(1):
            run()
    finally:
        tracer.uninstall()
    return tracer


def _span_count(tracer, name):
    return sum(1 for span in tracer.spans if span[0] == name and span[4] == 1)


def test_greens_study_builds_operators_once_per_grid(tracing):
    config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=4, levels=2,
                         ref_extra=1, samples=3, seed=5, solver="greens")
    grids = config.level_ns() + [config.reference_n]
    tracer = _traced(tracing, lambda: run_convergence_study(config))
    assert tracer.counts[(1, "greens.solves")] == config.samples * len(grids)
    assert tracer.counts[(1, "greens.operator_bytes")] == sum(16 * (n + 1) * n for n in grids)
    assert _span_count(tracer, "greens.cell_integrals") == 0
    assert _span_count(tracer, "greens.kernel") == len(grids)


def test_h1_study_and_solver_agreement_build_once_per_grid(tracing):
    config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=4, levels=3,
                         samples=3, seed=2, solver="greens")
    tracer = _traced(tracing, lambda: run_h1_blowup_study(config))
    assert tracer.counts[(1, "greens.solves")] == config.samples * config.levels
    assert _span_count(tracer, "greens.cell_integrals") == 0
    assert _span_count(tracer, "greens.kernel") == config.levels

    level_ns = (4, 8, 16)
    tracer = _traced(tracing, lambda: verify_solver_agreement(0.25, level_ns=level_ns,
                                                              samples=3, seed=2))
    assert tracer.counts[(1, "greens.solves")] == 3 * len(level_ns)
    assert _span_count(tracer, "greens.cell_integrals") == 0
    assert _span_count(tracer, "greens.kernel") == len(level_ns)
