"""Samplers draw in index-aligned tiles, bit for bit as sample by sample.

A Cholesky draw transforms its standard normals 32 rows at a time, one
matrix product per tile and factor panel, sample m at row m % 32; a blocked
product rounds a row by its shape and its place in the tile, so every sample
must come out exactly as it does when drawn alone at that place of a
zero-padded tile.
Davies-Harte transforms a block of rows in one irfft, which must round every
row as a one-row transform does.  Studies draw their chunks through these
blocks, so their reports must not depend on the thread count or on where
the chunks start.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fracbvp
from fracbvp import IncrementSampler, StudyConfig, UniformGrid, run_convergence_study
from fracbvp import experiments
from fracbvp import noise as noise_module
from fracbvp.cli import main

# A block that starts and ends inside a tile and holds one whole tile: its
# samples 20 .. 83 sit at every row of a tile at least once.
_ALIGNMENT_CHECK = """
import sys
import numpy as np
from fracbvp import IncrementSampler, UniformGrid

first, rows = 20, 64
for n in map(int, sys.argv[1:]):
    sampler = IncrementSampler(UniformGrid(n), 0.25, "cholesky")
    block = sampler.sample(9, first, rows).increments
    for i, m in enumerate(range(first, first + rows)):
        alone = sampler.sample(9, m).increments
        if not np.array_equal(block[i], alone):
            print(f"n={n}: sample {m} differs from its draw alone", flush=True)
            sys.exit(1)
print("ok")
"""


# Digests of a small seeded Cholesky study and of its reference draws; a BLAS
# that split the factor's panel products by its thread count would round them
# otherwise.
_STUDY_DIGEST = """
import hashlib
import json
from fracbvp import IncrementSampler, StudyConfig, UniformGrid, run_convergence_study

config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=16, levels=4,
                     ref_extra=2, samples=20, seed=3, solver="fem")
draws = IncrementSampler(UniformGrid(config.reference_n), config.hurst, "cholesky")
print(hashlib.sha256(draws.sample(config.seed, 0, config.samples).increments.tobytes())
      .hexdigest())
report = run_convergence_study(config).to_dict(include_timing=False)
print(hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest())
"""


def _child_env(blas_threads: int) -> dict:
    src = str(pathlib.Path(fracbvp.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                OPENBLAS_NUM_THREADS=str(blas_threads))


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_cholesky_tile_rows_equal_rows_drawn_alone(blas_threads):
    ns = [2, 3, 7, 16, 100, 128, 500, 512, 1024, 4096]
    child = subprocess.run([sys.executable, "-c", _ALIGNMENT_CHECK, *map(str, ns)],
                           env=_child_env(blas_threads), capture_output=True, text=True,
                           timeout=600)
    assert child.returncode == 0, child.stdout + child.stderr
    assert child.stdout.strip() == "ok"


def test_seeded_cholesky_study_does_not_depend_on_blas_threads():
    digests = {}
    for blas_threads in (1, 2):
        child = subprocess.run([sys.executable, "-c", _STUDY_DIGEST],
                               env=_child_env(blas_threads), capture_output=True, text=True,
                               timeout=600)
        assert child.returncode == 0, child.stdout + child.stderr
        digests[blas_threads] = child.stdout.split()
        assert len(digests[blas_threads]) == 2, child.stdout
    assert digests[1] == digests[2]


@pytest.mark.parametrize("n", [2, 7, 16, 128, 500])
def test_a_single_draw_is_one_row_of_a_zero_padded_tile(n):
    sampler = IncrementSampler(UniformGrid(n), 0.25, "cholesky")
    for m in (0, 5, 31, 32, 77):
        tile = np.zeros((noise_module._TILE, n))
        np.random.default_rng([4, m]).standard_normal(out=tile[m % noise_module._TILE])
        product = sampler._transform(tile)[m % noise_module._TILE]
        alone = sampler.sample(4, m).increments
        assert np.array_equal(alone, product), m


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 100, 512, 1024, 4096])
def test_davies_harte_block_equals_row_by_row_draws(n):
    sampler = IncrementSampler(UniformGrid(n), 0.25, "davies-harte")
    rows = 40
    block = sampler.sample(6, 0, rows).increments
    for m in range(rows):
        raw = np.random.default_rng([6, m]).standard_normal((1, sampler.draws_per_sample))
        assert np.array_equal(block[m], sampler._transform(raw)[0]), m
        assert np.array_equal(block[m], sampler.sample(6, m).increments), m


def _study(**overrides) -> str:
    config = StudyConfig(hurst=0.25, reaction="sin", forcing="one", n0=16, levels=2,
                         ref_extra=2, samples=70, seed=13, solver="fem")
    report = run_convergence_study(config, **overrides)
    return json.dumps(report.to_dict(include_timing=False), sort_keys=True)


def test_study_report_does_not_depend_on_threads_or_chunks(monkeypatch):
    reference = _study()
    for threads in (3, 8):
        assert _study(threads=threads) == reference, threads
    # three-row chunks and blocks
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", 1)
    monkeypatch.setattr(experiments, "_BLOCK_BYTES", 16 * 128 * 3)
    assert _study() == reference
    # and chunks that start off the tile boundaries, so tiles span two chunks
    monkeypatch.setattr(experiments, "_TILE", 1)
    assert _study() == reference
    assert _study(threads=3) == reference


def test_solve_draws_the_path_of_study_sample_zero(monkeypatch, tmp_path):
    paths = []
    solve = fracbvp.cli.solve_nonlinear_fem

    def spy(problem, path, **options):
        paths.append(path.increments)
        return solve(problem, path, **options)

    monkeypatch.setattr(fracbvp.cli, "solve_nonlinear_fem", spy)
    assert main(["solve", "--hurst", "0.25", "--n", "512", "--seed", "11",
                 "--out", str(tmp_path / "u.csv")]) == 0
    chunks = []

    def statistic(fine):
        chunks.append(fine.increments)
        return np.zeros((len(fine.increments), 1))

    experiments._coupled_samples(statistic, StudyConfig(0.25, n0=256, levels=2, samples=40,
                                                        seed=11),
                                 fine_n=512, threads=1)
    assert np.array_equal(paths[0], chunks[0][0])
