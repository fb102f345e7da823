"""The seeding contract of IncrementSampler.sample, pinned to NumPy's own generators.

Sample m of a seed takes its standard normals from default_rng([seed, m]).
sample computes every row's PCG64 state from SeedSequence's hash, once per
call, in place of building that Generator; these tests compare its normals
with default_rng's bit for bit, so a NumPy whose SeedSequence or PCG64
seeding changed fails here loudly.  The seeds and indices take one, two
and three uint32 words, and a chunk crosses from one-word to two-word m.
"""

import numpy as np
import pytest

from fracbvp import IncrementSampler, UniformGrid
from fracbvp.seeding import pcg64_states

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**70 + 11)
INDICES = (0, 1, 31, 32, 2**32 - 1, 2**32, 2**40)
# a chunk starts this many samples before the index it holds
BEFORE = 5


@pytest.fixture
def normals(monkeypatch):
    """sample with its transform the identity: each row is the sample's standard normals."""
    def identity(self, raw, out=None):
        if out is None:
            return raw.copy()
        out[...] = raw
        return out

    monkeypatch.setattr(IncrementSampler, "_transform", identity)

    def draw(sampler, seed, first, count=None):
        return sampler.sample(seed, first, count).increments
    return draw


@pytest.mark.parametrize("k", [512, 2048])
def test_sample_draws_the_normals_of_default_rng(normals, k):
    # a Cholesky sample consumes one normal per cell; both methods fill
    # their rows alike, and only the Cholesky rows have room for the normals
    sampler = IncrementSampler(UniformGrid(k), 0.25, "cholesky")
    assert sampler.draws_per_sample == k
    for seed in SEEDS:
        for m in INDICES:
            expected = np.random.default_rng([seed, m]).standard_normal(k)
            alone = normals(sampler, seed, m)
            assert alone.tobytes() == expected.tobytes(), (seed, m)
            first = max(m - BEFORE, 0)
            chunk = normals(sampler, seed, first, 40)
            assert chunk[m - first].tobytes() == expected.tobytes(), (seed, m)
            # the chunk's other rows hold their own samples' normals
            for row in (0, len(chunk) - 1):
                other = np.random.default_rng([seed, first + row]).standard_normal(k)
                assert chunk[row].tobytes() == other.tobytes(), (seed, first + row)


def test_pcg64_states_are_those_of_default_rng():
    for seed in SEEDS:
        states = pcg64_states(seed, 2**32 - 3, 6)
        for m, (state, inc) in zip(range(2**32 - 3, 2**32 + 3), states):
            expected = np.random.default_rng([seed, m]).bit_generator.state["state"]
            assert (state, inc) == (expected["state"], expected["inc"]), (seed, m)


@pytest.mark.parametrize("seed, first", [(-1, 0), (0, -1)])
def test_a_negative_seed_or_index_raises_what_default_rng_raises(seed, first):
    with pytest.raises(Exception) as expected:
        np.random.default_rng([seed, first])
    with pytest.raises(expected.type):
        IncrementSampler(UniformGrid(8), 0.25).sample(seed, first)
