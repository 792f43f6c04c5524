"""Transform kernels against naive quadratic oracles and exact identities."""

import tracemalloc

import numpy as np
import pytest

from fastsketch.transforms import (
    ToeplitzSpec,
    circular_convolve,
    dft,
    fwht,
    is_power_of_two,
    next_power_of_two,
    toeplitz_multiply,
)

# ---------------------------------------------------------------------------
# independent oracles (quadratic, definition-level)


def naive_dft(x):
    """Direct evaluation of y_j = sum_t x_t e^{-2 pi i j t / n}."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    j, t = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * j * t / n) @ x


def sylvester_hadamard(n):
    """H_1 = [1]; H_{2n} = [[H, H], [H, -H]] by explicit recursion."""
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def naive_convolve(z, x):
    z = np.asarray(z, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    out = np.zeros(n, dtype=np.complex128)
    for j in range(n):
        for i in range(n):
            out[j] += z[(j - i) % n] * x[i]
    return out


def dense_toeplitz(first_row, first_column):
    n = len(first_row)
    out = np.empty((n, n), dtype=np.complex128)
    for j in range(n):
        for t in range(n):
            out[j, t] = first_column[j - t] if j >= t else first_row[t - j]
    return out


def random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# dft


class TestDft:
    def test_length_one_identity(self):
        out = dft(np.array([5.0 + 0.0j]))
        np.testing.assert_allclose(out, [5.0 + 0.0j])

    def test_two_point_butterfly(self):
        np.testing.assert_allclose(dft(np.array([1.0, 0.0])), [1.0, 1.0])
        np.testing.assert_allclose(dft(np.array([1.0, -1.0])), [0.0, 2.0])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        for n in (2, 4, 8, 64, 256):
            x = random_complex(rng, n)
            fast = dft(x)
            slow = naive_dft(x)
            np.testing.assert_allclose(fast, slow, atol=1e-12 * max(1.0, np.abs(slow).max()))

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_real_input_matches_naive_oracle(self, direction):
        # real input runs the real FFT and mirrors the conjugate-symmetric half
        rng = np.random.default_rng(43)
        for n in (1, 2, 4, 8, 64, 256):
            for x in (rng.standard_normal(n), rng.integers(-5, 6, n)):
                slow = naive_dft(x) if direction == "forward" else np.conj(naive_dft(x)) / n
                fast = dft(x, direction)
                assert fast.dtype == np.complex128
                np.testing.assert_allclose(fast, slow, atol=1e-12 * max(1.0, np.abs(slow).max()))

    def test_roundtrip_all_power_of_two_sizes(self):
        rng = np.random.default_rng(7)
        for log_n in range(17):
            x = random_complex(rng, 2**log_n)
            back = dft(dft(x), "inverse")
            assert np.abs(back - x).max() <= 1e-12 * np.abs(x).max()

    def test_parseval(self):
        rng = np.random.default_rng(3)
        for n in (4, 128, 4096):
            x = random_complex(rng, n)
            lhs = np.linalg.norm(dft(x)) ** 2
            rhs = n * np.linalg.norm(x) ** 2
            assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_linearity(self):
        rng = np.random.default_rng(11)
        x, y = random_complex(rng, 64), random_complex(rng, 64)
        a, b = 1.7 - 0.3j, -0.2 + 2.1j
        lhs = dft(a * x + b * y)
        rhs = a * dft(x) + b * dft(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.abs(rhs).max())

    def test_batched_rows_match_single(self):
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        batched = dft(xs)
        for i in range(3):
            np.testing.assert_array_equal(batched[i], dft(xs[i]))

    def test_bit_stable(self):
        x = random_complex(np.random.default_rng(9), 256)
        np.testing.assert_array_equal(dft(x), dft(x))

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_strided_input_gives_a_c_contiguous_output(self, direction):
        # A transposed view (the Fourier forward's stride subsequences)
        # transforms to a C-contiguous array, bit-identical to the transform
        # of its contiguous copy, real or complex.
        rng = np.random.default_rng(19)
        for x in (rng.standard_normal((64, 8)), random_complex(rng, 512).reshape(64, 8)):
            view = x.swapaxes(-1, -2)
            out = dft(view, direction)
            assert out.flags.c_contiguous
            np.testing.assert_array_equal(out, dft(np.ascontiguousarray(view), direction))

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_leaves_complex_input_unmodified(self, direction):
        x = random_complex(np.random.default_rng(15), 64)
        before = x.copy()
        out = dft(x, direction)
        assert not np.shares_memory(out, x)
        np.testing.assert_array_equal(x, before)

    def test_real_batch_peak_memory_is_one_output(self):
        # the complex copy is transformed in place, so a real batch costs
        # one complex128 output, not an input copy plus an output
        x = np.random.default_rng(17).standard_normal((64, 4096))
        dft(x)  # first call may build numpy's FFT plan cache
        tracemalloc.start()
        try:
            out = dft(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            dft(np.zeros(12))

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            dft(np.zeros(4), "sideways")


# ---------------------------------------------------------------------------
# fwht


class TestFwht:
    def test_two_point(self):
        np.testing.assert_array_equal(fwht(np.array([1.0, 0.0])), [1.0, 1.0])

    def test_all_ones_concentrates(self):
        np.testing.assert_array_equal(fwht(np.ones(4)), [4.0, 0.0, 0.0, 0.0])

    def test_matches_dense_hadamard(self):
        rng = np.random.default_rng(21)
        for n in (2, 16, 64, 256):
            h = sylvester_hadamard(n)
            x = random_complex(rng, n)
            np.testing.assert_allclose(fwht(x), h @ x, atol=1e-12 * np.abs(x).sum())

    @pytest.mark.parametrize("log_n", range(1, 14))
    def test_matches_sylvester_closed_form(self, log_n):
        # log_n runs through every remainder mod 4, so every order of the
        # last Kronecker block; H[i, j] = (-1)^popcount(i & j), in row chunks.
        n = 2**log_n
        rng = np.random.default_rng(log_n)
        x = np.vstack([rng.standard_normal((2, n)), random_complex(rng, n)])
        out = np.vstack([fwht(x[:2].real), fwht(x[2:])])
        atol = 1e-12 * np.abs(x).sum(axis=-1).max()
        for lo in range(0, n, 1024):
            rows = np.arange(lo, min(n, lo + 1024))
            parity = np.bitwise_count(np.bitwise_and.outer(rows, np.arange(n))) & 1
            np.testing.assert_allclose(out[:, rows], x @ (1.0 - 2.0 * parity).T, rtol=0, atol=atol)

    @pytest.mark.parametrize("log_n", [15, 16, 17, 20])
    def test_long_rows_match_sylvester_closed_form(self, log_n):
        # At and above fwht's block (2^15) a row runs as H_{n/P} (x) H_P, with
        # one outer factor at 2^16 and 2^17 and two at 2^20: a seeded sample of
        # output entries against (-1)^popcount(i & j), real and complex.
        n = 2**log_n
        rng = np.random.default_rng(log_n)
        x = np.vstack([rng.standard_normal((2, n)), random_complex(rng, n)])
        out = np.vstack([fwht(x[:2].real), fwht(x[2:])])
        atol = 1e-12 * np.abs(x).sum(axis=-1).max()
        for i in rng.choice(n, size=16, replace=False):
            row = 1.0 - 2.0 * (np.bitwise_count(np.arange(n) & i) & 1)
            np.testing.assert_allclose(out[:, i], x @ row, rtol=0, atol=atol)
        twice = fwht(fwht(x))
        assert np.abs(twice - n * x).max() <= 1e-10 * n * np.abs(x).max()

    @pytest.mark.parametrize("n", [2**10, 2**15, 2**17])
    def test_batched_rows_match_single(self, n):
        # Below, at and above the block: every row of a 2-D and a 3-D batch is
        # transformed exactly as on its own.
        x = np.random.default_rng(n).standard_normal((2, 3, n))
        batch = fwht(x)
        for pos in np.ndindex(2, 3):
            assert np.array_equal(batch[pos], fwht(x[pos]))
        assert np.array_equal(fwht(x[0]), batch[0])

    @pytest.mark.parametrize(
        "dtype, expected",
        [
            (np.int64, np.float64),
            (np.float32, np.float64),
            (np.float64, np.float64),
            (np.complex64, np.complex128),
            (np.complex128, np.complex128),
        ],
    )
    def test_dtype_contract(self, dtype, expected):
        assert fwht(np.ones((3, 32), dtype=dtype)).dtype == expected

    @pytest.mark.parametrize("n", [1, 16, 128])
    @pytest.mark.parametrize("make", [np.real, lambda z: z], ids=["real", "complex"])
    def test_leaves_input_unmodified(self, n, make):
        # H_1 is the identity, yet the result must still be a new array
        x = np.ascontiguousarray(make(random_complex(np.random.default_rng(n), n)))
        before = x.copy()
        out = fwht(x)
        assert not np.shares_memory(out, x)
        np.testing.assert_array_equal(x, before)

    def test_involution(self):
        rng = np.random.default_rng(13)
        for n in (2, 64, 2048):
            x = random_complex(rng, n)
            twice = fwht(fwht(x))
            assert np.abs(twice - n * x).max() <= 1e-10 * n * np.abs(x).max()

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            fwht(np.zeros(3))


# ---------------------------------------------------------------------------
# circular convolution


class TestCircularConvolve:
    def test_identity_kernel(self):
        rng = np.random.default_rng(31)
        x = random_complex(rng, 8)
        e0 = np.zeros(8)
        e0[0] = 1.0
        np.testing.assert_allclose(circular_convolve(e0, x), x, atol=1e-13)

    def test_shift_kernel(self):
        rng = np.random.default_rng(33)
        x = random_complex(rng, 8)
        e1 = np.zeros(8)
        e1[1] = 1.0
        np.testing.assert_allclose(circular_convolve(e1, x), np.roll(x, 1), atol=1e-13)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(35)
        for n in (8, 64, 256):
            z = rng.choice([-1.0, 1.0], size=n)
            x = random_complex(rng, n)
            fast = circular_convolve(z, x)
            slow = naive_convolve(z, x)
            np.testing.assert_allclose(fast, slow, atol=1e-12 * max(1.0, np.abs(slow).max()))

    def test_real_operands_stay_real(self):
        rng = np.random.default_rng(39)
        for n in (1, 2, 8, 64, 256):
            z, x = rng.choice([-1.0, 1.0], size=n), rng.standard_normal((2, n))
            fast = circular_convolve(z, x)
            assert fast.dtype == np.float64
            slow = np.array([naive_convolve(z, row) for row in x])
            np.testing.assert_allclose(fast, slow, atol=1e-12 * max(1.0, np.abs(slow).max()))

    def test_convolution_theorem(self):
        rng = np.random.default_rng(37)
        z, x = random_complex(rng, 64), random_complex(rng, 64)
        lhs = dft(circular_convolve(z, x))
        rhs = dft(z) * dft(x)
        assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            circular_convolve(np.zeros(8), np.zeros(16))


# ---------------------------------------------------------------------------
# Toeplitz multiplication


class TestToeplitzMultiply:
    def test_identity(self):
        e0 = np.zeros(8)
        e0[0] = 1.0
        spec = ToeplitzSpec(first_row=e0, first_column=e0)
        rng = np.random.default_rng(41)
        x = random_complex(rng, 8)
        np.testing.assert_allclose(toeplitz_multiply(spec, x), x, atol=1e-13)

    def test_one_by_one(self):
        spec = ToeplitzSpec(first_row=np.array([2.5 + 1j]), first_column=np.array([2.5 + 1j]))
        np.testing.assert_allclose(toeplitz_multiply(spec, np.array([3.0])), [7.5 + 3j])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(43)
        for n in (8, 64, 256):
            col = random_complex(rng, n)
            row = random_complex(rng, n)
            row[0] = col[0]
            spec = ToeplitzSpec(first_row=row, first_column=col)
            dense = dense_toeplitz(row, col)
            x = random_complex(rng, n)
            expected = dense @ x
            got = toeplitz_multiply(spec, x)
            np.testing.assert_allclose(got, expected, atol=1e-12 * max(1.0, np.abs(expected).max()))

    def test_non_power_of_two_size(self):
        # the circulant embedding pads internally, so any n works
        rng = np.random.default_rng(45)
        col = random_complex(rng, 12)
        row = random_complex(rng, 12)
        row[0] = col[0]
        spec = ToeplitzSpec(first_row=row, first_column=col)
        x = random_complex(rng, 12)
        np.testing.assert_allclose(
            toeplitz_multiply(spec, x), dense_toeplitz(row, col) @ x, atol=1e-12
        )

    def test_corner_mismatch_rejected(self):
        with pytest.raises(ValueError, match="corner"):
            ToeplitzSpec(first_row=np.array([1.0, 2.0]), first_column=np.array([3.0, 4.0]))

    def test_rejects_wrong_length(self):
        e0 = np.zeros(4)
        e0[0] = 1.0
        spec = ToeplitzSpec(first_row=e0, first_column=e0)
        with pytest.raises(ValueError, match="length"):
            toeplitz_multiply(spec, np.zeros(8))

    def test_caller_arrays_stay_writeable_and_private(self):
        # complex128 vectors need no conversion, so the spec keeps copies and
        # the caller may go on writing to its own; read-only ones are kept.
        rng = np.random.default_rng(47)
        row, col = random_complex(rng, 8), random_complex(rng, 8)
        row[0] = col[0]
        spec = ToeplitzSpec(first_row=row, first_column=col)
        x = random_complex(rng, 8)
        before = toeplitz_multiply(spec, x)
        assert row.flags.writeable and col.flags.writeable
        row *= 2.0
        col *= 2.0
        assert np.array_equal(toeplitz_multiply(spec, x), before)
        assert not (spec.first_row.flags.writeable or spec.first_column.flags.writeable)
        kept = ToeplitzSpec(first_row=spec.first_row, first_column=spec.first_column)
        assert kept.first_row is spec.first_row and kept.first_column is spec.first_column


def test_power_of_two_helpers():
    assert is_power_of_two(1) and is_power_of_two(64)
    assert not is_power_of_two(0) and not is_power_of_two(12)
    assert next_power_of_two(1) == 1
    assert next_power_of_two(5) == 8
    with pytest.raises(ValueError):
        next_power_of_two(0)
