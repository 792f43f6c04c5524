"""Seed derivation and the raw-bit Rademacher sign draw."""

import numpy as np
import pytest

from fastsketch import rng
from fastsketch.rng import as_generator, derive_seed, signs, stream


@pytest.mark.parametrize("shape", [(), 1, 63, 64, 1000, (0,), (10, 100), (3, 5, 7)])
def test_signs_shape_and_values(shape):
    out = signs(stream(5), shape)
    assert out.shape == np.empty(shape).shape
    assert out.dtype == np.float64
    assert np.all((out == 1.0) | (out == -1.0))


@pytest.mark.parametrize("n", [1, 64, 1000])
def test_signs_read_raw_bits_least_significant_first(n):
    out = signs(stream(7), (n,))
    words = stream(7).bit_generator.random_raw(-(-n // 64))
    bits = (words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    np.testing.assert_array_equal(out, 1.0 - 2.0 * bits.ravel()[:n])
    # A shaped draw is the same stream in C order.
    np.testing.assert_array_equal(signs(stream(7), (n, 1)), out[:, None])


def test_signs_continue_the_stream_a_word_at_a_time():
    gen = stream(9)
    both = np.concatenate([signs(gen, 64), signs(gen, 128)])
    np.testing.assert_array_equal(both, signs(stream(9), 192))


def test_signs_are_balanced():
    out = signs(stream(derive_seed(11, 0, "balance")), 2**20)
    # The mean of 2^20 fair signs has standard deviation 2^-10.
    assert abs(out.mean()) < 5 * 2.0**-10


def test_as_generator_is_exported_and_passes_generators_through():
    assert set(rng.__all__) == {"derive_seed", "stream", "as_generator"}
    gen = stream(3)
    assert as_generator(gen) is gen
    np.testing.assert_array_equal(as_generator(3).random(4), stream(3).random(4))
