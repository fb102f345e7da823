"""The benchmark's span tracer still sees every layer of a coupled study.

bench/tracing.py wraps public functions under the names callers resolve them
by.  A refactor that renames a wrapped function, or that captures a solver at
import time (in a dict or a default argument), leaves the traced benchmark
silently short of spans; the exact counts below catch both.
"""

import json
import pathlib
import sys

import pytest

from fracbvp import StudyConfig, run_convergence_study

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    return tracing


def test_tiny_both_solver_study_is_fully_traced(tracing):
    config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=4, levels=2,
                         ref_extra=1, samples=3, seed=5, solver="both")
    samples, levels = config.samples, config.levels
    untraced = run_convergence_study(config).to_dict(include_timing=False)

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
    assert count("noise.draws") == samples
    assert count("fem.solves") == count("greens.solves") == samples * (levels + 1)
    assert count("grids.l2_error_calls") == 2 * samples * levels
    # one tridiagonal solve per FEM step, one reaction call per defect
    assert count("fem.tridiag_solves") == count("fem.iterations") > 0
    defects = sum(count(f"{layer}.{kind}") for layer in ("fem", "greens")
                  for kind in ("solves", "iterations"))
    assert count("problem.reaction_calls") == defects + count("problem.reaction_calls", 2)
    assert count("fem.nonconverged") == count("greens.nonconverged") == 0
