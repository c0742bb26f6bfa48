"""Deterministic seed derivation and shuffling.

All stochastic choices in the package flow through a splitmix64-style
mixer so that (base_seed, index) pairs reproduce bit-identically across
platforms and runs.

``first_uniforms`` replicates the first draws of many
``np.random.default_rng(seed)`` streams with no SeedSequence, PCG64 or
Generator per seed. It mirrors numpy's SeedSequence pool hashing (pool
size 4, the constants of numpy's ``bit_generator.pyx``) and PCG64's
``pcg64_set_seed``; ``tests/test_rng.py`` checks it against numpy
itself (2.4.6 when written), bit for bit.
"""

import itertools
from collections.abc import Iterator

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# numpy's SeedSequence and PCG64 constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _mix(z):
    """splitmix64's finalizer, on a Python int or a uint64 array."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(base_seed: int, index: int) -> int:
    """Mix a base seed with a stream index into an independent 64-bit seed."""
    return _mix((base_seed & _MASK) + ((index + 1) * _GOLDEN & _MASK))


def derive_seeds(base_seeds, count: int) -> np.ndarray:
    """``derive_seed(b, i)`` for each base seed b and i in ``range(count)``,
    as a (len(base_seeds), count) uint64 array; array arithmetic, which
    unlike numpy scalar arithmetic wraps at 2**64 without a warning."""
    bases = np.array([b & _MASK for b in base_seeds], dtype=np.uint64)
    steps = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN
    return _mix(bases[:, None] + steps)


def shuffled_indices(n: int, seed: int) -> np.ndarray:
    """Fisher-Yates permutation of range(n) driven by a splitmix stream:
    the swap at position i draws ``derive_seed(seed, n - 1 - i) % (i + 1)``."""
    idx = np.arange(n, dtype=np.int64)
    draws = (derive_seeds([seed], n - 1)[0] % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
    for i, j in zip(range(n - 1, 0, -1), draws):
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def generator(base_seed: int, index: int = 0) -> np.random.Generator:
    """numpy Generator seeded from the derived (base_seed, index) stream."""
    return np.random.default_rng(derive_seed(base_seed, index))


def _hash(values: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """One SeedSequence hash step on uint32 ``values``: the hashed values
    and the next hash constant, which is the same for every seed."""
    const_next = const * mult & 0xFFFFFFFF
    values = (values ^ const) * const_next
    return values ^ (values >> 16), const_next


def _seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for each uint64
    seed: one row of four words per seed."""
    # a seed's entropy is its 32-bit words, low first; a seed below 2**32
    # has one, and its missing high word hashes as the zero padding does
    low = (seeds & 0xFFFFFFFF).astype(np.uint32)
    pool, const = [], _INIT_A
    for word in [low, (seeds >> 32).astype(np.uint32), np.zeros_like(low), np.zeros_like(low)]:
        word, const = _hash(word, const, _MULT_A)
        pool.append(word)
    for src, dst in itertools.permutations(range(4), 2):
        hashed, const = _hash(pool[src], const, _MULT_A)
        mixed = pool[dst] * _MIX_MULT_L - hashed * _MIX_MULT_R
        pool[dst] = mixed ^ (mixed >> 16)
    state, const = np.empty((len(seeds), 8), dtype="<u4"), _INIT_B
    for i in range(8):
        state[:, i], const = _hash(pool[i % 4], const, _MULT_B)
    return state.view("<u8")  # each word two uint32s, low first, on any host


def pcg64_states(seeds) -> Iterator[dict]:
    """``np.random.PCG64(seed).state`` for each 64-bit seed, in order; all
    seeds are hashed at once, and each state is built as it is yielded."""
    for row in _seed_sequence_words(np.asarray(seeds, dtype=np.uint64)):
        high, low, inc_high, inc_low = row.tolist()
        # pcg64_set_seed: inc = 2 initseq + 1; step, add initstate, step
        inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
        state = ((inc + (high << 64 | low)) * _PCG_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def first_uniforms(seeds, shape) -> Iterator[np.ndarray]:
    """``np.random.default_rng(seed).random(size=shape)`` for each 64-bit
    seed, in order, bit for bit: one PCG64 set to each seed's state draws
    into one float64 buffer, valid until the next draw is yielded."""
    bits = np.random.PCG64(0)
    draw = np.random.Generator(bits).random
    buffer = np.empty(shape)
    for state in pcg64_states(seeds):
        bits.state = state
        draw(out=buffer)
        yield buffer
