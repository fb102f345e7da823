"""Reaction and forcing registry: structure constants and validation."""

import numpy as np
import pytest

from fracbvp import (
    HurstIndex,
    ProblemSpec,
    ReactionTerm,
    UniformGrid,
    linear_reaction,
    make_forcing,
    make_reaction,
)
from fracbvp.grids import gauss_values
from oracles import gauss_weight_matrix


class TestReactionRegistry:
    @pytest.mark.parametrize("label", ["zero", "sin", "sqrt-clip", "linear:1",
                                       "linear:-0.5"])
    def test_labels_build_and_spot_check(self, label):
        term = make_reaction(label)
        assert term.name in (label, f"linear:{float(label.split(':')[1]):g}"
                             if ":" in label else label)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            make_reaction("cubic")
        with pytest.raises(ValueError):
            make_reaction("linear:abc")

    def test_linear_constants(self):
        up = linear_reaction(1.5)
        assert up.monotone_constant == 0.0
        assert up.lipschitz_constant == 1.5
        down = linear_reaction(-0.5)
        assert down.monotone_constant == 0.5

    def test_rejects_constants_at_coercivity_threshold(self):
        with pytest.raises(ValueError):
            linear_reaction(2.0)
        with pytest.raises(ValueError):
            linear_reaction(-2.0)

    def test_damping_constant_prefers_lipschitz(self):
        # no Lipschitz constant: the growth constant 2 bounds the slope, since
        # an undamped step oscillates across the sqrt-clip kink at zero
        assert make_reaction("sqrt-clip").step_size == 2.0 / (2.0 + 2.0) == 0.5

    def test_step_size(self):
        # undamped for a Lipschitz reaction, whose map u -> rhs - K f(., u)
        # contracts at L/pi^2 (the bound on K_h below); else
        # theta = min(1, 2 / (2 + L)) with L = max(monotone, growth constant)
        for label in ("zero", "sin", "linear:1.5", "linear:-1.5"):
            assert make_reaction(label).step_size == 1.0
        assert make_reaction("sqrt-clip").step_size == 0.5

    def test_spot_check_catches_violations(self, rng):
        bad = ReactionTerm(lambda x, r: r + 1.0, 0.0, 2.0, name="shifted")
        with pytest.raises(AssertionError):
            bad.spot_check(rng)

    def test_spot_check_requires_an_exact_zero_at_zero(self, rng):
        # the solver loop takes the defect of its zero start as -rhs
        almost = ReactionTerm(lambda x, r: np.sin(r) + 1e-15, 1.0, 1.0, 1.0, name="almost")
        with pytest.raises(AssertionError, match=r"f\(x, 0\) != 0"):
            almost.spot_check(rng)

    def test_sqrt_clip_shape(self):
        f = make_reaction("sqrt-clip")
        x = np.zeros(4)
        r = np.array([-4.0, -0.25, 0.25, 9.0])
        assert np.allclose(f(x, r), [-1.0, -0.5, 0.5, 1.0])


@pytest.mark.parametrize("n", [2, 3, 16, 128, 1024])
def test_discrete_greens_operator_is_at_most_one_over_pi_squared(n):
    # K_h maps nodal u to K f(., u) for f(x, r) = r: the dense Gauss weights
    # of K times the Gauss values of every hat function.  It is A^-1 M, whose
    # eigenvalues are the inverse Galerkin eigenvalues of -d^2/dx^2, all >= pi^2
    grid = UniformGrid(n)
    k_h = (gauss_weight_matrix(grid) @ gauss_values(np.eye(n + 1)).T)[1:-1, 1:-1]
    eigenvalues = np.linalg.eigvals(k_h)
    assert np.isrealobj(eigenvalues)
    assert eigenvalues.min() > 0.0
    assert eigenvalues.max() <= (1.0 + 1e-12) / np.pi**2


class TestForcings:
    def test_values(self):
        x = np.array([0.0, 0.5, 1.0])
        assert np.allclose(make_forcing("zero")(x), 0.0)
        assert np.allclose(make_forcing("one")(x), 1.0)
        assert np.allclose(make_forcing("sinpi")(x), [0.0, 1.0, 0.0], atol=1e-15)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_forcing("cospi")


class TestProblemSpec:
    def test_from_labels(self):
        spec = ProblemSpec.from_labels(0.25, "sin", "one")
        assert spec.hurst.value == 0.25
        assert spec.reaction.name == "sin"

    def test_reaction_must_vanish_at_zero(self):
        # the solver loop's zero start calls no reaction: with f(x, 0) = 1 it
        # would return u = 0 after 0 iterations
        shifted = ReactionTerm(lambda x, u: np.sin(u) + 1.0, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError, match=r"f\(x, 0\) != 0"):
            ProblemSpec(HurstIndex(0.25), shifted, make_forcing("zero"))
        nan_at_zero = ReactionTerm(lambda x, u: np.where(u == 0.0, np.nan, u), 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ProblemSpec(HurstIndex(0.25), nan_at_zero, make_forcing("zero"))
        ProblemSpec(HurstIndex(0.25), ReactionTerm(lambda x, u: np.sin(u), 1.0, 1.0, 1.0),
                    make_forcing("zero"))

    def test_hurst_validation_propagates(self):
        with pytest.raises(ValueError):
            ProblemSpec.from_labels(0.7, "zero", "zero")
