"""The one solver loop, problem.damped_fixed_point, and its Anderson step.

Both solvers hand the loop only their Green's operator K and right-hand
side, so what is checked here holds for both: the accelerated step does not
cycle where the plain damped step did, non-finite data fails alike and
early, the Gram systems are solved as stated, and the loop's memory stays
within the buffers it sets up.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracbvp import (IncrementPath, IncrementSampler, ProblemSpec, ReactionTerm, UniformGrid,
                     aggregate_increments, make_forcing, solve_hammerstein,
                     solve_nonlinear_fem)
from fracbvp import experiments, fem, greens, problem
from fracbvp.errors import NonConvergenceError
from fracbvp.grids import _row_dot

SOLVERS = {"fem": solve_nonlinear_fem, "greens": solve_hammerstein}
# history entries of either sign from 1e-100 to 1e100, or zero: no Gram
# entry, product or Tikhonov term of theirs underflows or overflows
FINITE = st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_no_coarse_sqrt_clip_solve_stalls(solver):
    # the scan on which the plain damped step theta = 0.5 cycled in 8 of
    # 3,600 solves: 300 Cholesky paths on 128 cells at seed 7, aggregated
    # onto every coarse grid
    worst = 0
    for hurst in (0.1, 0.3, 0.5):
        problem_spec = ProblemSpec.from_labels(hurst, "sqrt-clip", "one")
        sampler = IncrementSampler(UniformGrid(128), hurst, "cholesky")
        fine = sampler.sample(7, 0, 300)
        for n in (4, 8, 16, 32):
            solution = SOLVERS[solver](problem_spec, aggregate_increments(fine, 128 // n))
            worst = max(worst, int(solution.row_iterations.max()))
    assert worst <= 40


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("reaction", ["sin", "linear:1.5", "linear:-1.5", "sqrt-clip"])
def test_iterations_do_not_grow_with_the_grid(solver, reaction):
    # one stack of paths on 4096 cells, aggregated onto every grid from 16 up
    problem_spec = ProblemSpec.from_labels(0.25, reaction, "one")
    sampler = IncrementSampler(UniformGrid(4096), 0.25, "davies-harte")
    fine = IncrementPath(sampler.grid, sampler.sample_many(np.random.default_rng(4), 8))
    means = []
    for n in (16, 64, 256, 1024, 4096):
        solution = SOLVERS[solver](problem_spec, aggregate_increments(fine, 4096 // n))
        assert solution.row_iterations.max() <= 13
        means.append(solution.row_iterations.mean())
    assert max(means) - min(means) <= 1.0


# Most undamped Anderson steps a Lipschitz reaction may take; the map
# u -> rhs - K f(., u) contracts at L/pi^2 < 0.21 in L2.
UNDAMPED_STEPS = {"sin": 5, "linear:1.5": 6, "linear:-1.5": 6, "linear:1.99": 6,
                  "linear:-1.99": 6}


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("reaction", sorted(UNDAMPED_STEPS))
def test_lipschitz_reactions_converge_in_a_few_undamped_steps(solver, reaction):
    # 8 seeded paths per grid and Hurst index; a stall raises
    worst = 0
    for hurst in (0.1, 0.5):
        for n in (2, 16, 1024, 4096):
            sampler = IncrementSampler(UniformGrid(n), hurst, "davies-harte")
            paths = IncrementPath(sampler.grid,
                                  sampler.sample_many(np.random.default_rng([n, 8]), 8))
            for forcing in ("one", "zero", "sinpi"):
                spec = ProblemSpec.from_labels(hurst, reaction, forcing)
                worst = max(worst, int(SOLVERS[solver](spec, paths).row_iterations.max()))
    assert worst <= UNDAMPED_STEPS[reaction]


def _counting(reaction: ReactionTerm, calls: list) -> ReactionTerm:
    def fn(x, r):
        calls.append(len(r))
        return reaction.fn(x, r)

    return ReactionTerm(fn, reaction.monotone_constant, reaction.growth_constant,
                        reaction.lipschitz_constant, name=reaction.name)


@pytest.mark.parametrize("bad", ["nan noise", "inf noise", "nan forcing"])
def test_non_finite_data_fails_alike_before_any_step(bad):
    grid = UniformGrid(16)
    increments = np.random.default_rng(5).normal(scale=0.1, size=(3, 16))
    forcing = make_forcing("one")
    if bad == "nan noise":
        increments[2, 7] = np.nan
    elif bad == "inf noise":
        increments[2, 7] = np.inf
    else:
        forcing = lambda x: np.where(x > 0.5, np.nan, 1.0)
    messages = []
    for solve in SOLVERS.values():
        calls = []
        spec = dataclasses.replace(ProblemSpec.from_labels(0.3, "sin", "one"), forcing=forcing,
                                   reaction=_counting(problem.sin_reaction(), calls))
        calls.clear()  # building the spec checks f(., 0) = 0 once
        with pytest.raises(ValueError) as excinfo:
            solve(spec, IncrementPath(grid, increments))
        assert calls == []  # raised before the first defect
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    # a forcing reaches every row, a noise path only its own
    assert f"row {0 if bad == 'nan forcing' else 2}" in messages[0]


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_an_empty_stack_is_refused_before_the_loop(solver):
    calls = []
    spec = dataclasses.replace(ProblemSpec.from_labels(0.3, "sin", "one"),
                               reaction=_counting(problem.sin_reaction(), calls))
    calls.clear()  # building the spec checks f(., 0) = 0 once
    with pytest.raises(ValueError, match="empty stack"):
        SOLVERS[solver](spec, IncrementPath(UniformGrid(16), np.zeros((0, 16))))
    assert calls == []


def _nan_off_zero() -> ProblemSpec:
    """f = 0, no forcing, and a reaction that turns NaN wherever the iterate leaves zero."""
    reaction = ReactionTerm(lambda x, r: np.where(r == 0.0, 0.0, np.nan), 0.0, 1.0, 1.0,
                            name="nan-off-zero")
    return dataclasses.replace(ProblemSpec.from_labels(0.3, "zero", "zero"), reaction=reaction)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_non_finite_residual_names_its_row_and_step(solver):
    grid = UniformGrid(16)
    noise = np.random.default_rng(5).normal(scale=0.1, size=16)
    # row 0 is all zero and stops at once; row 1 leaves zero after one step
    path = IncrementPath(grid, np.stack([0.0 * noise, noise]))
    spec = _nan_off_zero()
    with pytest.raises(NonConvergenceError) as excinfo:
        SOLVERS[solver](spec, path)
    assert excinfo.value.row == 1
    assert excinfo.value.iterations == 1
    assert "non-finite residual at iteration 1" in str(excinfo.value)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_study_names_the_sample_of_a_non_finite_residual(monkeypatch, solver):
    monkeypatch.setattr(experiments, "_block_rows", lambda fine_n: 2)
    spec = _nan_off_zero()
    blocks = []

    def statistic(fine):
        blocks.append(len(fine.increments))
        # the second block's first row keeps zero noise and stops at once
        scale = np.array([0.0, 1.0]) if len(blocks) == 2 else np.zeros(2)
        path = IncrementPath(fine.grid, fine.increments * scale[:, None])
        experiments._solve(solver, spec, path)
        return np.zeros((2, 1))

    # Davies-Harte chunks keep their two rows; Cholesky ones fill a sampler tile
    with pytest.raises(NonConvergenceError) as excinfo:
        experiments._coupled_samples(statistic,
                                     experiments.StudyConfig(0.3, n0=4, levels=2, samples=4,
                                                             seed=77, sampler="davies-harte"),
                                     fine_n=8, threads=1)
    assert str(excinfo.value).startswith(f"seed 77, sample m=3, {solver} solver, level n=8: ")
    assert "non-finite residual at iteration 1" in str(excinfo.value)


class TestGramSolve:
    DEPTH = problem.ANDERSON_DEPTH

    def _solve(self, basis, right):
        # Gram matrices of the rows' histories; _solve_gram takes the rows last
        gram = np.einsum("rik,rjk->rij", basis, basis)
        coefficients, collapsed, full = problem._solve_gram(gram.transpose(1, 2, 0), right.T)
        return gram, coefficients.T, collapsed, full

    def test_solves_the_regularized_systems(self, rng):
        right = rng.normal(size=(5, self.DEPTH))
        gram, coefficients, collapsed, full = self._solve(
            rng.normal(size=(5, self.DEPTH, 40)), right)
        trace = np.trace(gram, axis1=1, axis2=2)
        regularized = gram + problem._TIKHONOV * trace[:, None, None] * np.eye(self.DEPTH)
        expected = np.linalg.solve(regularized, right[..., None])[..., 0]
        assert np.allclose(coefficients, expected, rtol=1e-10, atol=0.0)
        assert not collapsed.any()
        assert full.all()

    def test_empty_slots_take_no_part(self, rng):
        basis = rng.normal(size=(2, self.DEPTH, 40))
        basis[:, 1] = 0.0  # slot 1 is empty in both rows
        basis[1] = 0.0  # row 1 has no history at all
        right = np.einsum("rik,k->ri", basis, rng.normal(size=40))
        _, coefficients, collapsed, full = self._solve(basis, right)
        assert coefficients[0, 1] == 0.0
        assert (coefficients[1] == 0.0).all()
        assert not collapsed.any()
        assert not full.any()

    @given(basis=arrays(np.float64, st.tuples(st.integers(1, 4), st.just(DEPTH), st.integers(1, 9)),
                        elements=FINITE),
           d=arrays(np.float64, 9, elements=FINITE), live=st.integers(1, DEPTH - 1))
    @settings(max_examples=300, deadline=None)
    def test_live_slots_solve_as_the_whole_system(self, basis, d, live):
        # the loop solves only the live slots while its history fills (the
        # first `live`); the empty ones, as the whole system holds them,
        # must change no coefficient of a live slot by a bit, nor a flag
        basis[:, live:] = 0.0
        gram = _row_dot(basis[:, :, None], basis[:, None, :]).transpose(1, 2, 0)
        right = _row_dot(basis, d[:basis.shape[-1]]).T
        whole, whole_collapsed, _ = problem._solve_gram(gram, right)
        part, part_collapsed, _ = problem._solve_gram(gram[:live, :live], right[:live])
        assert part.tobytes() == whole[:live].tobytes()
        assert part_collapsed.tolist() == whole_collapsed.tolist()

    def test_dependent_slots_collapse_a_pivot(self, rng):
        basis = rng.normal(size=(2, self.DEPTH, 40))
        basis[1, -1] = basis[1, 0]  # row 1 holds the same difference twice
        _, _, collapsed, _ = self._solve(basis, rng.normal(size=(2, self.DEPTH)))
        assert collapsed.tolist() == [False, True]


@pytest.mark.parametrize("iteration", [1, 2, 3, 4])
def test_growth_restarts_a_row_only_once_its_history_is_full(iteration, rng):
    # row 0's residual grew, row 1's did not.  Growth restarts a row (its
    # history is zeroed and its correction is 0) only once every slot is
    # live; while the history still fills, its empty slots never count it
    # as full, as a damped step refilling a history could otherwise cycle
    depth, rows, width = problem.ANDERSON_DEPTH, 2, 9
    live = min(iteration, depth)
    f_history, g_history = np.zeros((2, rows, depth, width))
    f_history[:, :live] = rng.normal(size=(rows, live, width))
    g_history[:, :live] = rng.normal(size=(rows, live, width))
    gram = np.einsum("rik,rjk->ijr", f_history, f_history)
    d = rng.normal(size=(rows, width))
    correction = problem._anderson_correction(f_history, g_history, gram, d, d,
                                              np.array([True, False]), iteration,
                                              np.empty((rows, width)))
    restarted = iteration >= depth
    assert (correction[0] == 0.0).all() == restarted
    assert (f_history[0] == 0.0).all() == restarted
    assert (gram[..., 0] == 0.0).all() == restarted
    assert not (correction[1] == 0.0).all()
    assert not (f_history[1] == 0.0).all()


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("reaction", ["zero", "sin", "sqrt-clip", "linear:-1.5", "linear:1.5"])
def test_loop_memory_stays_within_its_buffers(solver, reaction):
    # a unit is one (rows, n + 1) float64 array; the loop owns two histories
    # of ANDERSON_DEPTH units each, a scratch buffer of 2 units (the Gauss
    # values), its defects and its iterates.  On top come the temporaries of
    # the reaction and of K (a few Gauss-point arrays of 2 units) and the
    # copies a compaction makes; a history that grew with the steps, or an
    # array kept from every step, breaks the bound
    rows, n = 32, 512
    grid = UniformGrid(n)
    sampler = IncrementSampler(grid, 0.25, "davies-harte")
    increments = sampler.sample_many(np.random.default_rng(3), rows)
    spec = ProblemSpec.from_labels(0.25, reaction, "one")
    rhs = greens._nodal_apply(grid)(np.repeat(increments / grid.h, 2, axis=-1) + 1.0)
    apply_k = (fem if solver == "fem" else greens)._nodal_apply(grid)
    unit = rows * (n + 1) * 8
    owned = 2 * problem.ANDERSON_DEPTH + 4
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        problem.damped_fixed_point(spec, grid, rhs, apply_k, 1e-10, 500, "loop")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (owned + 12) * unit


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_compaction_keeps_no_copy_of_the_kept_rows(solver):
    # shifted sin rows stop at different steps; the loop moves the kept rows
    # of its iterates and right sides up within its own buffers, so no call
    # of the reaction after a compaction sees more memory held than the
    # first did.  The slack of one row covers the loop's per-row bookkeeping
    # (Gram systems and coefficients, up to about 2 KB); a copy of the
    # kept rows adds two rows for each of them
    rows, n = 8, 1024
    grid = UniformGrid(n)
    sampler = IncrementSampler(grid, 0.3, "davies-harte")
    path = IncrementPath(grid, sampler.sample_many(np.random.default_rng(3), rows))
    spec = ProblemSpec.from_labels(0.3, "sin", "one")
    readings = []

    def fn(x, r):
        readings.append((len(r), tracemalloc.get_traced_memory()[0]))
        return np.sin(r)

    spec = dataclasses.replace(spec, reaction=dataclasses.replace(spec.reaction, fn=fn))
    readings.clear()  # building the spec checks f(., 0) = 0 once
    tracemalloc.start()
    try:
        solution = SOLVERS[solver](spec, path)
    finally:
        tracemalloc.stop()
    assert len(set(solution.row_iterations.tolist())) >= 2  # the rows stop apart
    first = readings[0][1]
    compacted = [held for count, held in readings if count < rows]
    assert compacted
    assert max(compacted) < first + (n + 1) * 8
