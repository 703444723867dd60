"""``np.random.default_rng(seed)`` for many seeds, hashed in one pass.

``default_rng(seed)`` hashes ``seed`` through a ``SeedSequence`` (numpy's
NEP 19 seeding) into four uint64 words and seeds a PCG64 generator with them.
Building one ``SeedSequence`` per seed costs about 10 microseconds, and a
placement search seeds one generator per candidate. :func:`generators`
computes the words of every seed at once, with the same 32-bit arithmetic on
uint32 arrays, and hands each seed's words to PCG64, whose own code does the
rest: each generator is, state for state, the one ``default_rng(seed)``
builds.
"""

from __future__ import annotations

from operator import index

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF


def seed_words(seeds) -> np.ndarray:
    """(len(seeds), 4) uint64: row i is what
    ``SeedSequence(seeds[i]).generate_state(4, np.uint64)`` returns.

    ``seeds`` are non-negative ints of any size; a negative one raises
    ``ValueError``, as in ``SeedSequence``. A seed's entropy is its 32-bit
    words, least significant first, at least one. The pool takes the first
    four, a zero in place of a missing word (``SeedSequence`` hashes a zero
    there too), and the words past the fourth are mixed in only for the seeds
    that have them. The hash constant advances the same way for every seed,
    so it is a scalar.
    """
    seeds = [index(s) for s in seeds]
    if any(s < 0 for s in seeds):
        raise ValueError("expected non-negative integer")
    width = max([_POOL] + [(s.bit_length() + 31) // 32 for s in seeds])
    entropy = b"".join(s.to_bytes(4 * width, "little") for s in seeds)
    words = np.frombuffer(entropy, dtype="<u4").astype(np.uint32).reshape(-1, width)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * _MULT_A) & _MASK
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_L * x - _MIX_R * y
        return result ^ (result >> 16)

    with np.errstate(over="ignore"):
        pool = [hashmix(words[:, i]) for i in range(_POOL)]
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for src in range(_POOL, width):
            # A seed has word src when it has a nonzero word at src or above.
            has = words[:, src:].any(axis=1)
            for dst in range(_POOL):
                pool[dst] = np.where(has, mix(pool[dst], hashmix(words[:, src])), pool[dst])
        const = _INIT_B
        state = []
        for i in range(2 * _POOL):
            value = pool[i % _POOL] ^ const
            const = (const * _MULT_B) & _MASK
            value = value * const
            state.append((value ^ (value >> 16)).astype(np.uint64))
    # Pairs of 32-bit words, low word first, make the uint64 words.
    return np.stack([state[i] | (state[i + 1] << 32) for i in range(0, 2 * _POOL, 2)], axis=-1)


class _Words(ISeedSequence):
    """One seed's hashed words, handed to PCG64 in place of its SeedSequence."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for four uint64 words.
        return self.words


def generators(seeds) -> list:
    """``[np.random.default_rng(s) for s in seeds]``, hashed in one pass."""
    return [Generator(PCG64(_Words(words))) for words in seed_words(seeds)]
