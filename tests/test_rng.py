"""Keyed label streams: the vectorized draw against the per-key SeedSequence."""

from __future__ import annotations

import numpy as np
import pytest

from spectop.rng import keyed_uniform, keyed_uniforms, trial_seed

# 2**96 - 1 fills the 4-word entropy pool exactly; from 2**96 on, the words
# past the pool are mixed in last
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, 2**96 - 1, 2**96, 3**100] + [
    trial_seed(6400, s) for s in range(20)
]


@pytest.mark.parametrize("seed", SEEDS)
def test_keyed_uniforms_bit_identical_to_per_key_stream(seed):
    for n in (0, 1, 5, 1000):
        want = np.array([keyed_uniform(seed, v) for v in range(n)], dtype=np.float64)
        got = keyed_uniforms(seed, n)
        assert got.dtype == np.float64
        assert np.array_equal(got, want), (seed, n)
    # keys of up to 20 bits, the last ones and a strided sample
    n = 2**20
    got = keyed_uniforms(seed, n)
    keys = np.r_[0:n:4093, n - 64:n]
    assert np.array_equal(got[keys], [keyed_uniform(seed, v) for v in keys]), seed


def test_keyed_uniforms_rejects_negative_seed():
    with pytest.raises(ValueError):
        keyed_uniform(-3, 0)
    with pytest.raises(ValueError):
        keyed_uniforms(-3, 5)


def test_keyed_uniforms_rejects_keys_past_one_word():
    with pytest.raises(ValueError):
        keyed_uniforms(0, 2**32 + 1)
