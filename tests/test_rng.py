import numpy as np
import pytest

from qpolicy import rng
from qpolicy.rng import stream, streams

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, -5]
# a key part of one 32-bit word, parts of two words, and none
KEYS = [(1,), (2**40 + 3,), (7, 2**35 + 1), ()]


def _draws(generator):
    # an odd count of uint32 draws first: a reset that kept Philox's spare
    # half word would hand it to the next key's first draw
    return (generator.integers(0, 2**32, size=3, dtype=np.uint32).tolist(),
            generator.random(2).tolist(),
            generator.binomial(512, 0.3, size=3).tolist(),
            generator.uniform(-0.01, 0.01, size=3).tolist())


@pytest.mark.parametrize("key", KEYS, ids=["one_word", "two_words", "two_parts", "none"])
@pytest.mark.parametrize("seed", SEEDS)
def test_streams_draw_what_stream_draws(seed, key):
    """Key k of streams(seed, *key) draws stream(seed, *key, k), across
    blocks of derived keys."""
    generators = streams(seed, *key)
    for k in range(2 * rng._BLOCK + 3):
        assert _draws(next(generators)) == _draws(stream(seed, *key, k)), k


def test_streams_reset_one_generator():
    generators = streams(3, 1)
    first = next(generators)
    assert next(generators) is first
    assert _draws(first) == _draws(stream(3, 1, 1))

