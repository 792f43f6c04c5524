"""Spectral kernels on power-of-two lengths.

Unnormalized complex DFT (on numpy's FFT), fast Walsh-Hadamard
transform, circular convolution, and Toeplitz multiplication via
circulant embedding.  All routines operate along the last axis (leading
axes are treated as a batch) and are restricted to power-of-two
lengths; callers zero-pad.

The forward DFT is unnormalized, y_j = sum_t x_t exp(-2*pi*i*j*t/n), so
that every transform row has entries of modulus exactly one.  The single
isometry normalization lives in :mod:`fastsketch.sketch`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "is_power_of_two",
    "next_power_of_two",
    "dft",
    "fwht",
    "circular_convolve",
    "ToeplitzSpec",
    "toeplitz_multiply",
]


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    if n < 1:
        raise ValueError(f"expected a positive size, got {n}")
    return 1 << (int(n) - 1).bit_length()


def _require_power_of_two(n: int, what: str) -> None:
    if not is_power_of_two(n):
        raise ValueError(
            f"{what} must be a power of two, got {n} (zero-pad the input; "
            "no silent padding is performed)"
        )


def dft(x: np.ndarray, direction: str = "forward") -> np.ndarray:
    """Discrete Fourier transform along the last axis.

    ``forward`` computes the unnormalized sum y_j = sum_t x_t e^{-2pi i jt/n};
    ``inverse`` computes the conjugate transform scaled by 1/n, so that
    ``dft(dft(x), "inverse")`` recovers ``x``.  Length must be a power of
    two.  The input is copied once to complex128 and transformed in place
    by numpy's FFT; output is bit-stable for a fixed input and a fixed
    numpy version.
    """
    x = np.asarray(x)
    if x.ndim == 0:
        raise ValueError("dft expects an array with at least one axis")
    _require_power_of_two(x.shape[-1], "dft length")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    y = np.array(x, dtype=np.complex128)
    if direction == "forward":
        return np.fft.fft(y, out=y)
    return np.fft.ifft(y, out=y)


def fwht(x: np.ndarray) -> np.ndarray:
    """Multiply by the unnormalized Sylvester-Hadamard matrix.

    H_1 = [1], H_{2n} = [[H_n, H_n], [H_n, -H_n]]; entries are +-1 and
    H is its own inverse up to the factor n: ``fwht(fwht(x)) == n * x``.
    Length must be a power of two.
    """
    x = np.asarray(x)
    if x.ndim == 0:
        raise ValueError("fwht expects an array with at least one axis")
    n = x.shape[-1]
    _require_power_of_two(n, "fwht length")
    y = np.array(x, dtype=np.complex128, order="C")
    out_shape = y.shape
    y = y.reshape(-1, n)
    scratch = np.empty((y.shape[0], n // 2), dtype=np.complex128) if n > 1 else None
    size = 2
    while size <= n:
        half = size // 2
        blocks = y.reshape(-1, n // size, size)
        top = blocks[:, :, :half]
        bot = blocks[:, :, half:]
        diff = scratch.reshape(top.shape)
        np.subtract(top, bot, out=diff)
        top += bot
        blocks[:, :, half:] = diff
        size *= 2
    return y.reshape(out_shape)


def circular_convolve(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cyclic convolution y_j = sum_i z_{(j-i) mod n} x_i via the DFT.

    ``z`` and ``x`` must share a power-of-two last-axis length.
    """
    z = np.asarray(z)
    x = np.asarray(x)
    if z.shape[-1] != x.shape[-1]:
        raise ValueError(
            f"convolution length mismatch: kernel has {z.shape[-1]}, input has {x.shape[-1]}"
        )
    _require_power_of_two(x.shape[-1], "convolution length")
    return dft(dft(z) * dft(x), "inverse")


@dataclass(frozen=True)
class ToeplitzSpec:
    """An n x n Toeplitz matrix given by its first row and first column.

    The shared corner entry must match exactly (checked at construction).
    """

    first_row: np.ndarray
    first_column: np.ndarray

    def __post_init__(self) -> None:
        row = np.asarray(self.first_row, dtype=np.complex128)
        col = np.asarray(self.first_column, dtype=np.complex128)
        if row.ndim != 1 or col.ndim != 1 or row.shape != col.shape or row.size == 0:
            raise ValueError("first_row and first_column must be equal-length 1-D vectors")
        if not (np.all(np.isfinite(row)) and np.all(np.isfinite(col))):
            raise ValueError("Toeplitz entries must be finite")
        if row[0] != col[0]:
            raise ValueError(
                f"Toeplitz corner mismatch: first_row[0]={row[0]} != first_column[0]={col[0]}"
            )
        row.setflags(write=False)
        col.setflags(write=False)
        object.__setattr__(self, "first_row", row)
        object.__setattr__(self, "first_column", col)

    @property
    def n(self) -> int:
        return self.first_row.shape[0]


def toeplitz_multiply(spec: ToeplitzSpec, x: np.ndarray) -> np.ndarray:
    """Compute T @ x by embedding T in a circulant of doubled length.

    The circulant's defining vector is ``first_column``, a zero gap, then
    the reversed tail of ``first_row``; the product is read off the first
    n entries of the cyclic convolution.  O(n log n).
    """
    x = np.asarray(x)
    n = spec.n
    if x.shape[-1] != n:
        raise ValueError(f"input length {x.shape[-1]} does not match Toeplitz size {n}")
    size = max(2, next_power_of_two(2 * n - 1))
    kernel = np.zeros(size, dtype=np.complex128)
    kernel[:n] = spec.first_column
    if n > 1:
        kernel[size - n + 1 :] = spec.first_row[1:][::-1]
    padded = np.zeros(x.shape[:-1] + (size,), dtype=np.complex128)
    padded[..., :n] = x
    return circular_convolve(kernel, padded)[..., :n]
