"""The PCG64 states of NumPy's per-sample generators, for a chunk of samples at once.

IncrementSampler.sample draws sample m of a seed from the normals of
default_rng([seed, m]).  Building that Generator costs about as much as the
normals it then draws, so the sampler computes every row's PCG64 state here
instead, by NumPy's own SeedSequence hash run over the chunk's indices in
uint32 arrays, and sets one PCG64 to each state in turn.  This module is the
one place that follows NumPy's seeding; tests/test_seeding.py compares its
states and normals with default_rng's bit for bit.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["pcg64_states"]


def pcg64_states(seed: int, first: int, rows: int):
    """Yield the PCG64 (state, inc) of default_rng([seed, m]), m = first .. first + rows - 1.

    default_rng([seed, m]) seeds PCG64 with SeedSequence([seed, m]): its
    entropy is the little-endian uint32 words of seed and then of m (0 being
    one word), hashed into a pool of four words, a word missing below the
    pool hashed as 0 and each word past it mixed into every pool word.
    generate_state(4, uint64) hashes the pool into the 128-bit initial state
    s and stream t, and PCG64 starts at inc = 2 t + 1 and
    state = (inc + s) a + inc mod 2^128, a the multiplier of its LCG.  The
    hash runs once for all rows, elementwise in uint32 arrays (a row whose
    m has fewer words skips the later words' mixing), with the constants
    of NumPy's bit_generator.pyx (after O'Neill's seed_seq_fe); the 128-bit
    steps run in Python ints as each row is taken.  ValueError for a
    negative seed or m, as SeedSequence raises.
    """
    pool_size, word_mask, state_mask = 4, 0xFFFFFFFF, (1 << 128) - 1
    hash_a, mult_a, hash_b, mult_b = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
    mix_left, mix_right = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
    lcg_mult = 0x2360ED051FC65DA44385DF649FCCF645
    seed, first = operator.index(seed), operator.index(first)
    if seed < 0 or first < 0:
        raise ValueError(f"seed and sample index must be non-negative, got {seed} and {first}")
    seed_words = max(1, -(-seed.bit_length() // 32))
    m_words = max(1, -(-(first + max(rows, 1) - 1).bit_length() // 32))
    entropy = [np.full(rows, seed >> 32 * j & word_mask, dtype=np.uint32)
               for j in range(seed_words)]
    entropy += [np.fromiter((m >> 32 * j & word_mask for m in range(first, first + rows)),
                            np.uint32, rows) for j in range(m_words)]
    # a row's m has word j > 0 when that word or a later one is nonzero
    lengths, later = seed_words + 1, False
    for word in entropy[:seed_words:-1]:
        later = later | (word != 0)
        lengths = lengths + later
    entropy += [np.zeros(rows, dtype=np.uint32)] * (pool_size - len(entropy))
    const = hash_a

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult_a & word_mask
        value *= np.uint32(const)
        return value ^ value >> 16

    def mix(x, y):
        value = x * mix_left - y * mix_right
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:pool_size]]
    for source in range(pool_size):
        for target in range(pool_size):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    for source in range(pool_size, len(entropy)):
        has_word = lengths > source
        for target in range(pool_size):
            pool[target] = np.where(has_word, mix(pool[target], hashmix(entropy[source])),
                                    pool[target])
    const = hash_b
    state = []
    for word in range(8):
        value = pool[word % pool_size] ^ np.uint32(const)
        const = const * mult_b & word_mask
        value *= np.uint32(const)
        state.append(value ^ value >> 16)
    # uint64 word k is uint32 words 2k (low half) and 2k + 1
    words = [state[2 * k + 1].astype(np.uint64) << 32 | state[2 * k] for k in range(4)]
    for s_high, s_low, t_high, t_low in zip(*words):
        inc = ((int(t_high) << 64 | int(t_low)) << 1 | 1) & state_mask
        yield ((int(s_high) << 64 | int(s_low)) + inc) * lcg_mult + inc & state_mask, inc
