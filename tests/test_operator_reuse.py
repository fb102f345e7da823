"""Studies that run the mild solver build no dense Green's operator.

Counted with the benchmark's span tracer (bench/tracing.py), which records
the bytes of every dense matrix greens_function and greens_cell_integrals
return: the solver applies K with running sums over the cells, so a study
that evaluated a kernel matrix anywhere would count its bytes and spans.
"""

import pathlib
import sys

import pytest

from fracbvp import (StudyConfig, experiments, run_convergence_study, run_h1_blowup_study,
                     verify_solver_agreement)
from fracbvp.experiments import _block_rows, _chunk_rows

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    return tracing


@pytest.fixture
def small_blocks(monkeypatch):
    # blocks of 4 rows on 4 cells, 2 on 8 and 1 on 16, and chunks of 2 rows
    # for a fine grid of 16 cells, so a few samples span several of each
    # (Cholesky chunks not rounded up to whole 32-row sampler tiles)
    monkeypatch.setattr(experiments, "_BLOCK_BYTES", 16 * 16)
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", 8 * 16 * 2)
    monkeypatch.setattr(experiments, "_TILE", 1)


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


def _solves(samples, fine_n, grids):
    """Solves of a study: per chunk, ceil(chunk / _block_rows(n)) on every grid n."""
    rows = _chunk_rows(fine_n, grids)
    chunks = [min(rows, samples - start) for start in range(0, samples, rows)]
    return sum(-(-chunk // _block_rows(n)) for chunk in chunks for n in grids)


def _assert_no_kernel_matrix(tracer):
    assert tracer.counts[(1, "greens.operator_bytes")] == 0
    assert _span_count(tracer, "greens.cell_integrals") == 0
    assert _span_count(tracer, "greens.kernel") == 0


def test_greens_study_builds_no_kernel_matrix(tracing, small_blocks):
    config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=4, levels=2,
                         ref_extra=1, samples=5, seed=5, solver="greens")
    grids = config.level_ns() + [config.reference_n]
    tracer = _traced(tracing, lambda: run_convergence_study(config))
    assert tracer.counts[(1, "greens.solves")] == _solves(config.samples, config.reference_n,
                                                          grids)
    _assert_no_kernel_matrix(tracer)


def test_h1_study_and_solver_agreement_build_no_kernel_matrix(tracing, small_blocks):
    config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=4, levels=3,
                         samples=5, seed=2, solver="greens")
    tracer = _traced(tracing, lambda: run_h1_blowup_study(config))
    level_ns = config.level_ns()
    assert tracer.counts[(1, "greens.solves")] == _solves(config.samples, max(level_ns),
                                                          level_ns)
    _assert_no_kernel_matrix(tracer)

    level_ns = (4, 8, 16)
    tracer = _traced(tracing, lambda: verify_solver_agreement(0.25, level_ns=level_ns,
                                                              samples=5, seed=2))
    assert tracer.counts[(1, "greens.solves")] == _solves(5, max(level_ns), level_ns)
    _assert_no_kernel_matrix(tracer)
