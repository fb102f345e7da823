"""Reaction and forcing registry: structure constants and validation."""

import numpy as np
import pytest

from fracbvp import (
    ProblemSpec,
    ReactionTerm,
    linear_reaction,
    make_forcing,
    make_reaction,
)


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
        assert make_reaction("sin").damping_constant == 1.0
        # no Lipschitz constant: fall back to the growth constant, since an
        # undamped step oscillates across the sqrt-clip kink at zero
        assert make_reaction("sqrt-clip").damping_constant == 2.0

    def test_step_size(self):
        # theta = min(1, 2 / (2 + L)) with L the damping constant
        assert make_reaction("zero").step_size == 1.0
        assert make_reaction("sin").step_size == 2.0 / 3.0
        assert make_reaction("sqrt-clip").step_size == 0.5

    def test_spot_check_catches_violations(self, rng):
        bad = ReactionTerm(lambda x, r: r + 1.0, 0.0, 2.0, name="shifted")
        with pytest.raises(AssertionError):
            bad.spot_check(rng)

    def test_sqrt_clip_shape(self):
        f = make_reaction("sqrt-clip")
        x = np.zeros(4)
        r = np.array([-4.0, -0.25, 0.25, 9.0])
        assert np.allclose(f(x, r), [-1.0, -0.5, 0.5, 1.0])


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
        assert spec.reaction_label == "sin"
        assert spec.forcing_label == "one"

    def test_hurst_validation_propagates(self):
        with pytest.raises(ValueError):
            ProblemSpec.from_labels(0.7, "zero", "zero")
