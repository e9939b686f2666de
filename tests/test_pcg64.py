"""fuzzyqp._pcg64 draws the bytes of numpy's default_rng(seed).uniform."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzyqp._pcg64 import uniform

HIGHS = (1.0, 2.5, 1e8, 1e300)
# one and two words, the edges of 2, 3 and 5 words (past the pool of 4), and
# numpy integer seeds
PINNED_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 1, 2**200,
                np.uint8(7), np.int64(5))


def _assert_numpy_bytes(seed, high, n):
    expected = np.random.default_rng(seed).uniform(0.0, high, (8, n))
    drawn = np.array(uniform(seed, high, 8, n))
    assert (drawn.dtype, drawn.shape) == (expected.dtype, expected.shape)
    assert drawn.tobytes() == expected.tobytes()


class TestNumpyStream:
    """numpy's Generator stream is numpy's to change; this one is fixed, so
    these tests say whether the installed numpy still draws it."""

    @pytest.mark.parametrize("seed", PINNED_SEEDS, ids=repr)
    @pytest.mark.parametrize("high", HIGHS)
    def test_pinned_seeds(self, seed, high):
        for n in range(1, 13):
            _assert_numpy_bytes(seed, high, n)

    @given(seed=st.integers(0, 2**256), high=st.sampled_from(HIGHS), n=st.integers(1, 12))
    def test_any_seed(self, seed, high, n):
        _assert_numpy_bytes(seed, high, n)

    def test_negative_seed_raises(self):
        # as numpy does; the seed's words would otherwise never end
        with pytest.raises(ValueError):
            uniform(-1, 1.0, 1, 1)
