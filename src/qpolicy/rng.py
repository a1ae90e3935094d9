"""Counter-based random streams.

Every stochastic operation takes an explicit integer seed. Internally each
logical consumer derives its own Philox stream from (seed, *key), so results
never depend on the order in which consumers happen to draw. Running the
per-pair readouts of one iteration serially or in parallel therefore yields
bit-identical numbers.

A Philox stream depends only on its 128-bit key (Salmon et al. 2011,
"Parallel random numbers: as easy as 1, 2, 3"), which SeedSequence derives
from (seed, *key) with uint32 arithmetic alone. stream makes one generator
the one-off way. streams makes the generators of stream(seed, *key, k) for
k = 0, 1, ... at a fraction of the cost: it runs SeedSequence's hash once
over the words that do not vary with k and once per block of k, vectorised
over the block, and resets one Philox to each derived key in turn.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
# numpy 2 loads numpy.random on first use; every command draws, so load it
# with the package rather than inside the first study's timed work
from numpy.random import Generator, Philox, SeedSequence

SEED_MASK = (1 << 63) - 1  # seeds and keys are read modulo 2**63
_MASK_32 = (1 << 32) - 1

# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

# Keys that streams derives in one pass
_BLOCK = 64


def stream(seed: int, *key: int) -> Generator:
    """Independent Philox generator for the given seed and stream key."""
    ss = SeedSequence(
        entropy=int(seed) & SEED_MASK,
        spawn_key=tuple(int(k) & SEED_MASK for k in key),
    )
    return Generator(Philox(ss))


def streams(seed: int, *key: int) -> Iterator[Generator]:
    """The generators of stream(seed, *key, k) for k = 0, 1, ..., 2**32 - 1,
    each drawing what that one draws.

    Every step yields the same Generator, reset to the next key, so draw
    from one before taking the next. Keys are derived _BLOCK at a time;
    memory does not grow with the number taken.
    """
    entropy = _words(seed)
    # SeedSequence pads the seed to the pool size when a spawn key follows
    entropy += [0] * (_POOL - len(entropy))
    for part in key:
        entropy += _words(part)
    # the hash of the words that do not vary with k, in Python ints
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL]:
        word, const = _hashmix(word, const, _MULT_A)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                word, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    pool, const = _absorb(pool, entropy[_POOL:], const)

    philox = Philox(0)
    generator = Generator(philox)
    # a fresh Philox's state at the key: counter and buffer empty
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    # each k below 2**32 is one word; uint32 arrays from here, whose
    # products wrap without a warning
    for start in range(0, _MASK_32 + 1, _BLOCK):
        ks = np.arange(start, start + _BLOCK, dtype=np.uint32)
        block, _ = _absorb([np.full(_BLOCK, word, np.uint32) for word in pool], [ks], const)
        # generate_state(2, np.uint64): one hashed word per pool word
        const_b, out = _INIT_B, []
        for word in block:
            word, const_b = _hashmix(word, const_b, _MULT_B)
            out.append(word.astype(np.uint64))
        keys = np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=1)
        for philox_key in keys.tolist():
            state["state"]["key"] = philox_key
            philox.state = state
            yield generator


def _words(n: int) -> list[int]:
    """n & SEED_MASK as SeedSequence takes it: 32-bit words, least first."""
    n = int(n) & SEED_MASK
    words = [n & _MASK_32]
    while n > _MASK_32:
        n >>= 32
        words.append(n & _MASK_32)
    return words


def _hashmix(value, const: int, mult: int):
    """SeedSequence's hashmix of a word, or of a uint32 array elementwise;
    returns (hash, next hash constant)."""
    value = value ^ const
    const = const * mult & _MASK_32
    value = value * const & _MASK_32
    return value ^ value >> 16, const


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK_32
    return r ^ r >> 16


def _absorb(pool: list, words, const: int):
    """Mix each word into every pool word, as SeedSequence does with the
    entropy past its pool size; returns (pool, next hash constant)."""
    pool = list(pool)
    for word in words:
        for dst in range(_POOL):
            hashed, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    return pool, const


def child_seed(seed: int, *key: int) -> int:
    """Derived integer seed for operations that take a seed of their own."""
    ss = SeedSequence(
        entropy=int(seed) & SEED_MASK,
        spawn_key=tuple(int(k) & SEED_MASK for k in key),
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0] & SEED_MASK)
