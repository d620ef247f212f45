"""Deterministic seeded-stream helpers.

All randomness in the package flows through numpy's SeedSequence machinery so
that a run is reproducible bit-for-bit from a single master seed.  Per-vertex
and per-trial streams are derived by keying a SeedSequence on the pair
(seed, index) rather than by splitting one sequential stream; this keeps a
vertex's draw independent of how many other vertices were processed first.

``keyed_uniforms`` draws the labels of keys 0..n-1 at once: it runs numpy's
SeedSequence algorithm (entropy mixing into a 4-word pool, then
``generate_state``) with every word that all keys share hashed once as a
Python int and only the key-dependent words as uint32 arrays, and is
bit-identical to ``keyed_uniform`` key by key.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "keyed_uniform",
    "keyed_uniforms",
    "trial_seed",
    "rng_for",
]

_U53 = np.uint64(11)  # drop to 53 mantissa bits
_INV = 2.0 ** -53

# numpy's SeedSequence constants (bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def keyed_uniform(seed: int, key: int) -> float:
    """Uniform double in [0, 1) from the stream keyed by (seed, key)."""
    state = np.random.SeedSequence([int(seed), int(key)]).generate_state(1, dtype=np.uint64)[0]
    return float((state >> _U53) * _INV)


def _uint32_words(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads from an integer."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _wrap(value: int | np.ndarray) -> int | np.ndarray:
    """value mod 2**32: a uint32 array wraps by itself, a Python int is masked."""
    return value & _MASK32 if isinstance(value, int) else value


def _hasher(init: int, mult: int):
    """SeedSequence's hash step: xor with a running constant, which advances
    by ``mult`` on every call, then multiply by it and fold the high half."""
    const = init

    def step(value: int | np.ndarray) -> int | np.ndarray:
        nonlocal const
        value = value ^ const
        const = (const * mult) & _MASK32
        value = _wrap(value * const)
        return value ^ (value >> _XSHIFT)

    return step


def _mix(x: int | np.ndarray, y: int | np.ndarray) -> int | np.ndarray:
    result = _wrap(_wrap(_MIX_MULT_L * x) - _wrap(_MIX_MULT_R * y))
    return result ^ (result >> _XSHIFT)


def keyed_uniforms(seed: int, n: int) -> np.ndarray:
    """Uniform doubles for keys 0..n-1, one independent stream per key.

    Equal to ``[keyed_uniform(seed, v) for v in range(n)]`` bit for bit: the
    entropy of key v is the seed's words followed by the one word v, so n is
    at most 2**32.  A word no key changes (a seed word, the zero padding, and
    every hash and mix of those alone) is a Python int, computed once; the
    rest are uint32 arrays, whose arithmetic wraps mod 2**32 unmasked.
    """
    n = int(n)
    if n > 2 ** 32:
        raise ValueError("keyed_uniforms draws at most 2**32 keys")
    entropy = [*_uint32_words(int(seed)), np.arange(n, dtype=np.uint32)]
    entropy += [0] * (_POOL_SIZE - len(entropy))

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # generate_state(1, dtype=uint64) is (high << 32 | low) >> 11, times 2**-53;
    # both terms below and their sum are exact doubles
    draw = _hasher(_INIT_B, _MULT_B)
    low, high = draw(pool[0]), draw(pool[1])
    return high * 2.0 ** -32 + (low >> 11) * _INV


def trial_seed(master_seed: int, trial: int) -> int:
    """Integer seed for one trial of a sweep, derived from (master seed, trial index)."""
    return int(np.random.SeedSequence([int(master_seed), int(trial)]).generate_state(1)[0])


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))
