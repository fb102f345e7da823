"""Mutation check of what a study report prints: which tier-1 tests kill each mutant.

Run by hand from the root of a checkout (pytest does not collect this file):

    python tests/mutants.py              # every mutant
    python tests/mutants.py ddof-0 roll  # the named ones

Each mutant is one textual edit of src/fracbvp.  It is applied to a fresh copy
of the checkout in a temporary directory, never to the checkout itself, and
the copy's tier-1 suite runs there.  The script prints, per mutant, the tests
that fail beyond those that already fail unmutated (criterion 8 fails by
construction), or SURVIVED when there are none.  It exits 1 if any mutant
survives.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]

# name -> (file under src/fracbvp, text it must hold exactly once, replacement)
MUTANTS = {
    # _rms_levels takes the sample std with ddof=0
    "ddof-0": ("experiments.py",
               "squared_errors.std(axis=0, ddof=1)",
               "squared_errors.std(axis=0, ddof=0)"),
    # _rms_levels drops the 2 of the delta method, doubling every stderr
    "delta-2": ("experiments.py",
                "se_mean / np.maximum(2.0 * rms, 1e-300)",
                "se_mean / np.maximum(rms, 1e-300)"),
    # estimate_rate divides the residual sum by n - 1 in place of n - 2
    "rate-dof": ("experiments.py",
                 "ssr / (len(hs) - 2) / denom",
                 "ssr / (len(hs) - 1) / denom"),
    # damped_fixed_point stops shifted rows at the unconverted tol
    "shift-tol": ("problem.py",
                  "tol = tol / (1.0 + max(shift, 0.0) / math.pi ** 2)",
                  "tol = tol"),
    # coarse paths sum the fine increments rolled by one cell
    "roll": ("experiments.py",
             "else aggregate_increments(fine, fine.grid.n // n)",
             "else aggregate_increments(IncrementPath(fine.grid, np.roll("
             "fine.increments, 1, axis=-1)), fine.grid.n // n)"),
    # the FEM noise load weighs each touching cell by 0.55 in place of 1/2
    "load-0.55": ("fem.py",
                  "0.5 * (inc[..., :-1] + inc[..., 1:])",
                  "0.55 * (inc[..., :-1] + inc[..., 1:])"),
    # the loop stops a hundred times too early
    "stop-100": ("problem.py",
                 "going = residual > tol",
                 "going = residual > 100 * tol"),
    # the Davies-Harte Nyquist term takes the zero frequency's normal
    "nyquist": ("noise.py",
                "spec[:, n] = self._scale[n] * raw[:, 1]",
                "spec[:, n] = self._scale[n] * raw[:, 0]"),
    # the Schur factor is built from the autocovariance at 1.02 H
    "schur-h": ("noise.py",
                "rho = _increment_autocovariance(np.arange(n), 1.0 / n, H)",
                "rho = _increment_autocovariance(np.arange(n), 1.0 / n, 1.02 * H)"),
    # each reference block is measured against the level rows of the block
    # before it (the first block against its own)
    "previous-rows": ("experiments.py",
                      "_rows(solutions[solver, n], block), reference))",
                      "_rows(solutions[solver, n], slice("
                      "max(block.start - _block_rows(fine.grid.n), 0), "
                      "max(block.start - _block_rows(fine.grid.n), 0) + block.stop - block.start"
                      ")), reference))"),
    # PCG64 takes each sample's stream increment as its state, and the reverse
    "pcg-swap": ("noise.py",
                 '"state": {"state": state, "inc": inc}',
                 '"state": {"state": inc, "inc": state}'),
    # a history with an empty slot counts as full, so a row whose residual
    # grows restarts while its history still fills
    "empty-full": ("problem.py",
                   "restart = collapsed | (full & grew) if live == depth else collapsed",
                   "restart = collapsed | (full & grew)"),
}


def _copy(destination: pathlib.Path) -> pathlib.Path:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    "out")
    shutil.copytree(ROOT, destination, ignore=ignore)
    return destination


def _failures(checkout: pathlib.Path) -> set:
    """Ids of the tier-1 tests that fail or error in a checkout."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE",
                          "-p", "no:cacheprovider", "--continue-on-collection-errors"],
                         cwd=checkout, env=env, capture_output=True, text=True)
    failed = set()
    for line in run.stdout.splitlines():
        for status in ("FAILED ", "ERROR "):
            if line.startswith(status):
                failed.add(line[len(status):].split(" - ")[0])
    if run.returncode not in (0, 1) and not failed:
        raise RuntimeError(f"pytest exited {run.returncode}:\n{run.stdout}\n{run.stderr}")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help=f"mutants to run (default all: {', '.join(MUTANTS)})")
    names = parser.parse_args(argv).names or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        parser.error(f"unknown mutants {unknown}")
    survivors = []
    with tempfile.TemporaryDirectory(prefix="fracbvp-mutants-") as scratch:
        started = time.perf_counter()
        baseline = _failures(_copy(pathlib.Path(scratch, "baseline")))
        print(f"unmutated: {len(baseline)} failing ({time.perf_counter() - started:.0f} s)")
        for test in sorted(baseline):
            print(f"    {test}")
        for name in names:
            filename, old, new = MUTANTS[name]
            checkout = _copy(pathlib.Path(scratch, name))
            source = checkout / "src" / "fracbvp" / filename
            text = source.read_text()
            if text.count(old) != 1:
                raise RuntimeError(f"{name}: {filename} holds its text {text.count(old)} times")
            source.write_text(text.replace(old, new))
            started = time.perf_counter()
            killed = sorted(_failures(checkout) - baseline)
            elapsed = time.perf_counter() - started
            print(f"{name} ({filename}): "
                  + (f"{len(killed)} failing" if killed else "SURVIVED")
                  + f" ({elapsed:.0f} s)", flush=True)
            for test in killed:
                print(f"    {test}")
            if not killed:
                survivors.append(name)
            shutil.rmtree(checkout)
    print(f"survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
