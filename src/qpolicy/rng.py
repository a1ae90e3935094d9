"""Counter-based random streams.

Every stochastic operation takes an explicit integer seed. Internally each
logical consumer derives its own Philox stream from (seed, *key), so results
never depend on the order in which consumers happen to draw. Running the
per-pair readouts of one iteration serially or in parallel therefore yields
bit-identical numbers.
"""
from __future__ import annotations

import numpy as np
# numpy 2 loads numpy.random on first use; every command draws, so load it
# with the package rather than inside the first study's timed work
from numpy.random import Generator, Philox, SeedSequence

_MASK_63 = (1 << 63) - 1


def stream(seed: int, *key: int) -> Generator:
    """Independent Philox generator for the given seed and stream key."""
    ss = SeedSequence(
        entropy=int(seed) & _MASK_63,
        spawn_key=tuple(int(k) & _MASK_63 for k in key),
    )
    return Generator(Philox(ss))


def child_seed(seed: int, *key: int) -> int:
    """Derived integer seed for operations that take a seed of their own."""
    ss = SeedSequence(
        entropy=int(seed) & _MASK_63,
        spawn_key=tuple(int(k) & _MASK_63 for k in key),
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0] & _MASK_63)
