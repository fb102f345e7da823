"""Solving and running studies load no scipy module; only the verify oracle does.

A fresh interpreter imports fracbvp, solves with both solvers, runs every
study and the CLI's solve and converge, and then lists the scipy modules it
holds.  Only after that does it call the quadrature oracle, which must still
work.
"""

import os
import pathlib
import subprocess
import sys

import fracbvp

SCRIPT = """
import contextlib, io, sys
import fracbvp
from fracbvp import (IncrementSampler, ProblemSpec, StudyConfig, UniformGrid,
                     run_convergence_study, run_h1_blowup_study,
                     run_superconvergence_study, solve_hammerstein, solve_nonlinear_fem)
from fracbvp.cli import main
from fracbvp.experiments import kernel_pair_sum_quadrature

problem = ProblemSpec.from_labels(0.25, "sin", "one")
for method in ("cholesky", "davies-harte"):
    path = IncrementSampler(UniformGrid(16), 0.25, method).sample(1)
    solve_nonlinear_fem(problem, path)
    solve_hammerstein(problem, path)
tiny = dict(hurst=0.25, reaction="sin", forcing="one", n0=4, levels=2, samples=4)
for solver, sampler in (("fem", "cholesky"), ("greens", "davies-harte"), ("both", "cholesky")):
    run_convergence_study(StudyConfig(**tiny, solver=solver, sampler=sampler))
run_h1_blowup_study(StudyConfig(**tiny, solver="greens"))
run_superconvergence_study(StudyConfig(**tiny))
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["solve", "--hurst", "0.25", "--n", "16", "--solver", solver,
                   "--f", "sin", "--g", "one"]) for solver in ("fem", "greens")]
    codes.append(main(["converge", "--hurst", "0.25", "--ladder", "4:2", "--samples", "4",
                       "--f", "sin", "--g", "one", "--solver", "both"]))
print(codes)
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
print(kernel_pair_sum_quadrature(UniformGrid(8), 0.25) > 0.0)
"""


def test_solves_and_studies_import_no_scipy():
    src = str(pathlib.Path(fracbvp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    child = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    codes, scipy_modules, oracle_ok = child.stdout.splitlines()
    assert codes == "[0, 0, 0]"
    assert scipy_modules == "[]"
    assert oracle_ok == "True"
