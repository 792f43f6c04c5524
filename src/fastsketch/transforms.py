"""Spectral kernels on power-of-two lengths.

Unnormalized complex DFT (on numpy's FFT), fast Walsh-Hadamard
transform, circular convolution, and Toeplitz multiplication via
circulant embedding.  All routines operate along the last axis (leading
axes are treated as a batch) and are restricted to power-of-two
lengths; callers zero-pad.  The DFT and the Toeplitz product return
complex128; the DFT of real input runs numpy's real FFT and mirrors the
conjugate-symmetric half.  Circular convolution and the Walsh-Hadamard
transform keep real input real (float64) and return complex128 for
complex input.

The forward DFT is unnormalized, y_j = sum_t x_t exp(-2*pi*i*j*t/n), so
that every transform row has entries of modulus exactly one.  The single
isometry normalization lives in :mod:`fastsketch.sketch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    two.  Complex input is copied to C-ordered complex128 and transformed
    in place; real input runs the real FFT into half of the complex128
    output.  The output is C-contiguous for strided input too, so a gather
    from it copies nothing.  It is bit-stable for a fixed input and a
    fixed numpy version.
    """
    x = np.asarray(x)
    if x.ndim == 0:
        raise ValueError("dft expects an array with at least one axis")
    _require_power_of_two(x.shape[-1], "dft length")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    if not np.iscomplexobj(x):
        # y_{n-j} = conj(y_j) for real x: transform half, mirror the rest.
        n = x.shape[-1]
        y = np.empty(x.shape, dtype=np.complex128)
        real_fft = np.fft.rfft if direction == "forward" else np.fft.ihfft
        real_fft(x.astype(np.float64, copy=False), out=y[..., : n // 2 + 1])
        np.conjugate(y[..., n // 2 - 1 : 0 : -1], out=y[..., n // 2 + 1 :])
        return y
    y = np.array(x, dtype=np.complex128, order="C")
    if direction == "forward":
        return np.fft.fft(y, out=y)
    return np.fft.ifft(y, out=y)


def _frozen(value: np.ndarray, given) -> np.ndarray:
    """``value``, the validated form of ``given``, made read-only for an object to keep.

    A writeable array that shares memory with ``given`` (the caller's own,
    which needed no conversion) is copied first, so the caller's later
    writes cannot reach the object and the caller's array stays
    writeable.  A fresh conversion is kept as it is, and so is an array
    that is already read-only, as the samplers hand theirs over, at no copy.
    """
    if value.flags.writeable and np.may_share_memory(value, given):
        value = value.copy()
    value.setflags(write=False)
    return value


def _by_parts(real_op, x: np.ndarray) -> np.ndarray:
    """``real_op(x)`` for a real linear map ``real_op`` (real in, real out).

    Complex x is mapped part by part, so a zero imaginary part stays
    exactly zero, and no real operand (a Gaussian matrix, the circulant
    spectrum, a Sylvester block) is ever cast to complex.
    """
    if not np.iscomplexobj(x):
        return real_op(x)
    re = real_op(x.real)
    out = np.empty(re.shape, dtype=np.complex128)
    out.real = re
    del re  # so the imaginary part is not mapped while the real one is held
    out.imag = real_op(x.imag)
    return out


@lru_cache(maxsize=4)
def _parity_table(d: int) -> np.ndarray:
    """(-1)^popcount(p) for p in [0, d), as read-only int8.

    The one Sylvester rule: the Hadamard entry of row i and column j is
    this table at i & j.  Built by Sylvester doubling (the second half of
    each prefix is the negated first half); a small cache keeps the
    tables of the last few sizes, d bytes each.
    """
    table = np.ones(d, dtype=np.int8)
    n = 1
    while n < d:
        np.negative(table[:n], out=table[n : 2 * n])
        n *= 2
    table.setflags(write=False)
    return table


#: H_16 and the smaller blocks a last factor may need, as float64.
_SYLVESTER = {
    n: _parity_table(16)[np.bitwise_and.outer(np.arange(n), np.arange(n))].astype(np.float64)
    for n in (1, 2, 4, 8, 16)
}

#: Longest row (256 KB of float64) that ``fwht`` transforms in whole-row
#: passes; a longer row is transformed in pieces of this length first.
#: Pieces of 2^14 were no faster above 2^15, and 10 % slower at 2^15, where
#: they add a pass (2-core Xeon with 2 MB of L2 per core, numpy 2.4.6).
_FWHT_BLOCK = 2**15


def fwht(x: np.ndarray) -> np.ndarray:
    """Multiply by the unnormalized Sylvester-Hadamard matrix.

    H_1 = [1], H_{2n} = [[H_n, H_n], [H_n, -H_n]]; entries are +-1 and
    H is its own inverse up to the factor n: ``fwht(fwht(x)) == n * x``.
    Length must be a power of two.  Real input is transformed in float64
    and returns float64; complex input returns complex128, mapped part by
    part.  The input is not modified.

    H_P is the Kronecker product of 16 x 16 Sylvester blocks and one
    block of order 2^(log2 P mod 4), so each pass multiplies the leading
    factor axis by one block and rotates that axis to the end.  A row of
    length n <= ``_FWHT_BLOCK`` runs these passes whole (P = n).  A longer
    row runs as H_{n/P} (x) H_P with P = ``_FWHT_BLOCK``: the passes on
    each contiguous length-P piece, which stays in cache, then one
    ``H_f @ y.reshape(-1, f, s)`` product per remaining outer factor
    f <= 16, on contiguous runs of s >= P entries.  Every row is
    transformed on its own, so it does not depend on the batch it is in.
    """
    x = np.asarray(x)
    if x.ndim == 0:
        raise ValueError("fwht expects an array with at least one axis")
    n = x.shape[-1]
    _require_power_of_two(n, "fwht length")
    if np.iscomplexobj(x):
        return _by_parts(fwht, x)
    P = min(n, _FWHT_BLOCK)
    y = np.asarray(x, dtype=np.float64).reshape(-1, P)
    rest = P
    while True:  # at least one pass, so the result never aliases x
        f = min(16, rest)
        y = (y.reshape(-1, f, P // f).transpose(0, 2, 1) @ _SYLVESTER[f]).reshape(-1, P)
        rest //= f
        if rest == 1:
            break
    s = n
    while s > P:
        f = min(16, s // P)
        s //= f
        y = _SYLVESTER[f] @ y.reshape(-1, f, s)
    return y.reshape(x.shape)


def circular_convolve(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cyclic convolution y_j = sum_i z_{(j-i) mod n} x_i via the DFT.

    ``z`` and ``x`` must share a power-of-two last-axis length.  When
    both are real the product runs on the real FFT and returns float64;
    otherwise it returns complex128.
    """
    z = np.asarray(z)
    x = np.asarray(x)
    if z.shape[-1] != x.shape[-1]:
        raise ValueError(
            f"convolution length mismatch: kernel has {z.shape[-1]}, input has {x.shape[-1]}"
        )
    _require_power_of_two(x.shape[-1], "convolution length")
    # np.multiply, not *: numpy may evaluate a * b in the memory of a large
    # temporary b as b * a, whose complex rounding differs, so the operand
    # order (x_hat first) would move with the size and the batch shape.
    if not (np.iscomplexobj(z) or np.iscomplexobj(x)):
        spectrum = np.multiply(
            np.fft.rfft(x.astype(np.float64, copy=False)),
            np.fft.rfft(z.astype(np.float64, copy=False)),
        )
        return np.fft.irfft(spectrum, x.shape[-1])
    return dft(np.multiply(dft(x), dft(z)), "inverse")


@dataclass(frozen=True)
class ToeplitzSpec:
    """An n x n Toeplitz matrix given by its first row and first column.

    The shared corner entry must match exactly (checked at construction).
    Both vectors are kept read-only as complex128; a writeable complex128
    array the caller passed is copied (``_frozen``).
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
        object.__setattr__(self, "first_row", _frozen(row, self.first_row))
        object.__setattr__(self, "first_column", _frozen(col, self.first_column))

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
