"""Structured row ensembles: sampling, fast application, and closed-form columns.

A :class:`RowSource` is a compact description of an M x d matrix A whose
rows come from one of four families:

* ``partial_fourier`` / ``partial_hadamard`` -- M rows of the unnormalized
  DFT or Sylvester-Hadamard matrix, with row indices sampled i.i.d.
  uniformly from [0, d) (a multiset; duplicates allowed).
* ``partial_circulant`` -- the first M rows of the circulant matrix of a
  uniform sign vector eps in {+-1}^d, i.e. row j is eps cyclically
  shifted by j.
* ``dense_gaussian`` -- an explicit matrix of i.i.d. N(0, 1) reals, kept
  as an unstructured experimental control.

All structured rows have entrywise modulus exactly one, so a single row
satisfies E |<a, x>|^2 = ||x||^2 for fixed unit x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fastsketch.rng import as_generator
from fastsketch.transforms import circular_convolve, dft, fwht, is_power_of_two, next_power_of_two

__all__ = [
    "KINDS",
    "DENSIFY_CAP",
    "RowSource",
    "normalize_kind",
    "sample_bounded_orthogonal",
    "sample_partial_circulant",
    "sample_dense_gaussian",
    "apply_rows",
    "apply_rows_adjoint",
    "densify",
]

KINDS = ("partial_fourier", "partial_hadamard", "partial_circulant", "dense_gaussian")

_KIND_ALIASES = {
    "fourier": "partial_fourier",
    "hadamard": "partial_hadamard",
    "circulant": "partial_circulant",
    "gaussian": "dense_gaussian",
}

#: Default cap on M * d for densification (entries, not bytes).
DENSIFY_CAP = 2**24


def normalize_kind(kind: str) -> str:
    """Map shorthand ensemble names onto the canonical kind strings."""
    canonical = _KIND_ALIASES.get(kind, kind)
    if canonical not in KINDS:
        raise ValueError(f"unknown ensemble kind {kind!r}; expected one of {KINDS}")
    return canonical


@dataclass(frozen=True)
class RowSource:
    """Immutable description of a structured M x d row ensemble.

    Exactly one payload field is populated, depending on ``kind``:
    ``indices`` (0-based row indices, shape (M,)) for the bounded
    orthogonal kinds, ``eps`` (+-1 vector, shape (d,)) for the circulant
    kind, ``matrix`` (shape (M, d)) for the Gaussian baseline.
    """

    kind: str
    d: int
    M: int
    indices: np.ndarray | None = None
    eps: np.ndarray | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", normalize_kind(self.kind))
        if not is_power_of_two(self.d):
            raise ValueError(f"signal dimension d must be a power of two, got {self.d}")
        if self.M < 1:
            raise ValueError(f"row count M must be positive, got {self.M}")
        if self.kind in ("partial_fourier", "partial_hadamard"):
            if self.indices is None:
                raise ValueError(f"{self.kind} source needs an indices payload")
            idx = np.asarray(self.indices, dtype=np.intp)
            if idx.shape != (self.M,):
                raise ValueError(f"indices must have shape ({self.M},), got {idx.shape}")
            if idx.min() < 0 or idx.max() >= self.d:
                raise ValueError("row indices out of range [0, d)")
            idx.setflags(write=False)
            object.__setattr__(self, "indices", idx)
        elif self.kind == "partial_circulant":
            if self.M > self.d:
                raise ValueError(
                    f"partial circulant needs M <= d, got M={self.M}, d={self.d}; "
                    f"zero-pad the signal to d = {next_power_of_two(self.M)} first"
                )
            eps = np.asarray(self.eps, dtype=np.float64)
            if eps.shape != (self.d,):
                raise ValueError(f"eps must have shape ({self.d},), got {eps.shape}")
            if not np.all(np.abs(eps) == 1.0):
                raise ValueError("eps entries must be +1 or -1")
            eps.setflags(write=False)
            object.__setattr__(self, "eps", eps)
        else:
            mat = np.asarray(self.matrix, dtype=np.float64)
            if mat.shape != (self.M, self.d):
                raise ValueError(
                    f"gaussian payload must have shape ({self.M}, {self.d}), got {mat.shape}"
                )
            if not np.all(np.isfinite(mat)):
                raise ValueError("gaussian payload entries must be finite")
            mat.setflags(write=False)
            object.__setattr__(self, "matrix", mat)


def sample_bounded_orthogonal(
    d: int, M: int, kind: str, rng: int | np.random.Generator
) -> RowSource:
    """Sample M row indices i.i.d. uniform from [0, d), with replacement."""
    kind = normalize_kind(kind)
    if kind not in ("partial_fourier", "partial_hadamard"):
        raise ValueError(f"bounded orthogonal kinds are fourier/hadamard, got {kind!r}")
    gen = as_generator(rng)
    indices = gen.integers(0, d, size=M)
    return RowSource(kind=kind, d=d, M=M, indices=indices)


def sample_partial_circulant(d: int, M: int, rng: int | np.random.Generator) -> RowSource:
    """Draw eps uniform over {+-1}^d; the row set is fixed to {0, ..., M-1}."""
    gen = as_generator(rng)
    eps = gen.integers(0, 2, size=d).astype(np.float64) * 2.0 - 1.0
    return RowSource(kind="partial_circulant", d=d, M=M, eps=eps)


def sample_dense_gaussian(d: int, M: int, rng: int | np.random.Generator) -> RowSource:
    """Unstructured i.i.d. N(0, 1) baseline used as an experimental control."""
    gen = as_generator(rng)
    matrix = gen.standard_normal((M, d))
    return RowSource(kind="dense_gaussian", d=d, M=M, matrix=matrix)


def _check_last_axis(x: np.ndarray, length: int, what: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim == 0 or x.shape[-1] != length:
        raise ValueError(f"{what}: expected last-axis length {length}, got shape {x.shape}")
    return x


def _cached(src: RowSource, name: str, make) -> np.ndarray:
    """``make(src)``, computed once and cached on the (immutable) source.

    The value is a pure function of the source, so the benign first-use
    race under concurrent readers recomputes identical values.
    """
    cached = getattr(src, name, None)
    if cached is None:
        cached = make(src)
        cached.setflags(write=False)
        object.__setattr__(src, name, cached)
    return cached


def _eps_spectrum(src: RowSource) -> np.ndarray:
    """DFT of the circulant sign vector."""
    return _cached(src, "_spectrum", lambda s: dft(s.eps))


def _roots_of_unity(src: RowSource) -> np.ndarray:
    """exp(-2 pi i p / d) for p in [0, d): the entries of a Fourier source."""
    return _cached(src, "_roots", lambda s: np.exp((-2j * np.pi / s.d) * np.arange(s.d)))


def _real_matmul(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """x @ mat for a real ``mat``; complex x is multiplied part by part,
    as numpy would cast the whole of ``mat`` to complex on every call."""
    if not np.iscomplexobj(x):
        return x @ mat
    out = np.empty(x.shape[:-1] + mat.shape[1:], dtype=np.complex128)
    out.real = x.real @ mat
    out.imag = x.imag @ mat
    return out


def apply_rows(src: RowSource, x: np.ndarray) -> np.ndarray:
    """Compute A @ x along the last axis in O(d log d), as complex128.

    Fourier/Hadamard sources run the full transform and gather the
    sampled rows; circulant sources convolve with eps and keep the first
    M entries; Gaussian sources multiply by the real matrix.  These keep
    real input real, so only the M gathered rows are cast to complex128.
    """
    x = _check_last_axis(x, src.d, "apply_rows")
    if src.kind == "partial_fourier":
        y = dft(x)[..., src.indices]
    elif src.kind == "partial_hadamard":
        y = fwht(x)[..., src.indices]
    elif src.kind == "dense_gaussian":
        y = _real_matmul(x, src.matrix.T)
    else:
        y = circular_convolve(src.eps, x)[..., : src.M]
    return y.astype(np.complex128, copy=False)


def apply_rows_adjoint(src: RowSource, y: np.ndarray) -> np.ndarray:
    """Compute the conjugate-transpose product A* @ y along the last axis.

    Real input on a real source (Hadamard, circulant, Gaussian) stays
    real and returns float64; Fourier sources and complex input return
    complex128.
    """
    y = _check_last_axis(y, src.M, "apply_rows_adjoint")
    real = not np.iscomplexobj(y)
    if src.kind in ("partial_fourier", "partial_hadamard"):
        w = np.zeros(y.shape[:-1] + (src.d,), dtype=np.float64 if real else np.complex128)
        # One 1-D scatter per row: numpy's fast path for np.add.at.
        for w_row, y_row in zip(w.reshape(-1, src.d), y.reshape(-1, src.M)):
            np.add.at(w_row, src.indices, y_row)
        if src.kind == "partial_fourier":
            # F* w = d * inverse-DFT(w) for the unnormalized forward F.
            out = dft(w, "inverse")
            out *= src.d
            return out
        return fwht(w)
    if src.kind == "partial_circulant":
        # Correlation with eps == convolution with the index-reversed eps,
        # whose spectrum is the conjugate spectrum (eps is real).
        spectrum = np.conj(_eps_spectrum(src))
        if real:
            # rfft zero-pads y to d; the half spectrum is the first d/2 + 1 bins.
            half = spectrum[: src.d // 2 + 1] * np.fft.rfft(y, src.d)
            return np.fft.irfft(half, src.d)
        w = np.zeros(y.shape[:-1] + (src.d,), dtype=np.complex128)
        w[..., : src.M] = y
        return dft(spectrum * dft(w), "inverse")
    return _real_matmul(y, src.matrix)


def _column_indices(src: RowSource, cols) -> np.ndarray:
    """Validate column indices of ``src`` and return them as intp."""
    cols = np.asarray(cols)
    if cols.ndim == 0 or not np.issubdtype(cols.dtype, np.integer):
        raise ValueError(
            f"columns must be an integer array of at least one dimension, "
            f"got dtype {cols.dtype} and shape {cols.shape}"
        )
    if cols.size and (cols.min() < 0 or cols.max() >= src.d):
        raise ValueError(f"column indices out of range [0, {src.d})")
    return cols.astype(np.intp, copy=False)


def _source_block(src: RowSource, cols: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """A[r0:r1, cols], of shape (r1 - r0,) + cols.shape.

    The block comes from the closed form of each entry, with no transform:
    float64 (+-1, or the Gaussian entries) for Hadamard, circulant and
    Gaussian sources, complex128 roots of unity for Fourier sources.
    ``cols`` must already be validated intp column indices.  No index
    temporary outlives the block's construction.
    """
    mask = src.d - 1  # d is a power of two, so "& mask" is "mod d"
    if src.kind == "partial_fourier":
        # Reducing the phase in integers keeps every entry accurate to
        # rounding at any d; exp of the unreduced product would not.
        phase = np.multiply.outer(src.indices[r0:r1], cols)
        phase &= mask
        return _roots_of_unity(src)[phase]
    if src.kind == "partial_hadamard":
        parity = np.bitwise_count(np.bitwise_and.outer(src.indices[r0:r1], cols))
        parity &= 1
        block = np.multiply(parity, -2.0)  # 1 - 2 parity, with one float64 temporary
        block += 1.0
        return block
    if src.kind == "partial_circulant":
        shift = np.subtract.outer(np.arange(r0, r1), cols)
        shift &= mask
        return src.eps[shift]
    return src.matrix[r0:r1, cols]


def densify(src: RowSource, *, cap: int = DENSIFY_CAP) -> np.ndarray:
    """Materialize A as an explicit M x d complex matrix (test oracle).

    Refuses when M * d exceeds ``cap``.
    """
    if src.M * src.d > cap:
        raise ValueError(
            f"densify would materialize {src.M}x{src.d} = {src.M * src.d} entries, "
            f"exceeding the cap of {cap}"
        )
    return _source_block(src, np.arange(src.d), 0, src.M).astype(np.complex128, copy=False)
