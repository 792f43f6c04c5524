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

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from fastsketch.rng import as_generator, signs
from fastsketch.transforms import (
    _by_parts,
    _frozen,
    _sylvester_entries,
    dft,
    fwht,
    is_power_of_two,
    next_power_of_two,
)

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

#: Matrix entries per chunk of the Gaussian forward product (512 KB): a
#: chunk of matrix rows is multiplied into every input row of a call while
#: it is still in cache.
_GAUSSIAN_CHUNK_ENTRIES = 2**16


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
    kind, ``matrix`` (shape (M, d)) for the Gaussian baseline.  The
    payload is kept read-only; a writeable array the caller passed is
    copied, so the caller's array stays writeable (``_frozen``).  A
    circulant source caches one transform plan (``_plan``), built on
    first use; the other kinds cache nothing.
    """

    kind: str
    d: int
    M: int
    indices: np.ndarray | None = None
    eps: np.ndarray | None = None
    matrix: np.ndarray | None = None
    _plan_cache: tuple[int, int, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def dtype(self) -> np.dtype:
        """The matrix's dtype, and so Phi's: complex128 for Fourier, float64 otherwise.

        A per-kind fact, so reading it builds no plan: ``sketch.columns``
        and MC-RIP read it on sources that are never applied, and the
        solvers pick their working dtype by it.
        """
        return np.dtype(np.complex128 if self.kind == "partial_fourier" else np.float64)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", normalize_kind(self.kind))
        if not is_power_of_two(self.d):
            raise ValueError(f"signal dimension d must be a power of two, got {self.d}")
        if self.M < 1:
            raise ValueError(f"row count M must be positive, got {self.M}")
        if self.kind in ("partial_fourier", "partial_hadamard"):
            idx = _indices(self.indices, self.d, "row indices")
            if idx.shape != (self.M,):
                raise ValueError(f"row indices must have shape ({self.M},), got {idx.shape}")
            object.__setattr__(self, "indices", _frozen(idx, self.indices))
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
            object.__setattr__(self, "eps", _frozen(eps, self.eps))
        else:
            mat = np.asarray(self.matrix, dtype=np.float64)
            if mat.shape != (self.M, self.d):
                raise ValueError(
                    f"gaussian payload must have shape ({self.M}, {self.d}), got {mat.shape}"
                )
            if not np.all(np.isfinite(mat)):
                raise ValueError("gaussian payload entries must be finite")
            object.__setattr__(self, "matrix", _frozen(mat, self.matrix))


def sample_bounded_orthogonal(
    d: int, M: int, kind: str, rng: int | np.random.Generator
) -> RowSource:
    """Sample M row indices i.i.d. uniform from [0, d), with replacement."""
    kind = normalize_kind(kind)
    if kind not in ("partial_fourier", "partial_hadamard"):
        raise ValueError(f"bounded orthogonal kinds are fourier/hadamard, got {kind!r}")
    gen = as_generator(rng)
    indices = gen.integers(0, d, size=M)
    indices.setflags(write=False)  # so the source keeps it without a copy
    return RowSource(kind=kind, d=d, M=M, indices=indices)


def sample_partial_circulant(d: int, M: int, rng: int | np.random.Generator) -> RowSource:
    """Draw eps uniform over {+-1}^d; the row set is fixed to {0, ..., M-1}."""
    eps = signs(as_generator(rng), d)
    eps.setflags(write=False)  # so the source keeps it without a copy
    return RowSource(kind="partial_circulant", d=d, M=M, eps=eps)


def sample_dense_gaussian(d: int, M: int, rng: int | np.random.Generator) -> RowSource:
    """Unstructured i.i.d. N(0, 1) baseline used as an experimental control."""
    gen = as_generator(rng)
    matrix = gen.standard_normal((M, d))
    matrix.setflags(write=False)  # so the source keeps it without a copy
    return RowSource(kind="dense_gaussian", d=d, M=M, matrix=matrix)


def _indices(values, d: int, what: str) -> np.ndarray:
    """``values`` as intp indices into [0, d); floats, bools and 0-d values are refused."""
    idx = np.asarray(values)
    if idx.ndim == 0 or not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(
            f"{what} must be an integer array of at least one dimension, "
            f"got dtype {idx.dtype} and shape {idx.shape}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= d):
        raise ValueError(f"{what} out of range [0, {d})")
    return idx.astype(np.intp, copy=False)


def _check_last_axis(x: np.ndarray, length: int, what: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim == 0 or x.shape[-1] != length:
        raise ValueError(f"{what}: expected last-axis length {length}, got shape {x.shape}")
    return x


#: The circulant block rule (``_plan``): blocks from this d on, and only
#: that many blocks or more.  Below either, the one length-d
#: convolution was as fast or faster in one direction or both: with 4 or 8
#: blocks at d = 2^14..2^20, and in the adjoint at d = 2^14 and 2^15 with up
#: to 64 blocks (2-core Xeon with 2 MB of L2 per core, numpy 2.4.6).
_CIRCULANT_BLOCKED_FROM = 2**16
_CIRCULANT_MIN_BLOCKS = 16


def _plan(src: RowSource) -> tuple[int, int, np.ndarray]:
    """A circulant source's transform plan (P, L, conj_spectra), built once.

    With P = next_pow2(M), d >= ``_CIRCULANT_BLOCKED_FROM`` and at least
    ``_CIRCULANT_MIN_BLOCKS`` blocks (d/P), x is cut into d/P blocks of
    length P, each convolved at length L = 2P, zero-padded, so the M kept
    outputs cost no length-d inverse transform.  Otherwise there is one
    block, P = L = d: the cyclic convolution itself.

    ``conj_spectra`` holds the conjugate block spectra of the kernel,
    shape (d/P, L/2 + 1): about 16d bytes with blocks, and with one block
    conj(rfft(eps)), 8d bytes.  Row b is conj(K_b), K_b the length-L real
    spectrum of eps's (2P - 1)-entry window around -bP:
    K_b = G_{-b} + (-1)^f G_{-b-1} at bin f, where G_a is the ``rfft`` of
    eps's a-th length-P block zero-padded to L (the (-1)^f shifts block
    -b-1 by P = L/2).

    The plan is the one thing a source caches (``RowSource._plan_cache``):
    eps is transformed once per source, by its first ``apply_rows`` or
    ``apply_rows_adjoint``, and both directions read the same spectra; a
    first-use race recomputes the same value.  The other kinds need no
    plan.
    """
    plan = src._plan_cache
    if plan is None:
        P = next_power_of_two(src.M)
        if src.d >= _CIRCULANT_BLOCKED_FROM and _CIRCULANT_MIN_BLOCKS * P <= src.d:
            L = 2 * P
        else:
            P = L = src.d
        spectra = np.fft.rfft(src.eps.reshape(-1, P), L)
        if L > P:
            n = len(spectra)
            later = spectra[::-1]  # G_{-b-1} in row b
            spectra = spectra[-np.arange(n) % n]  # G_{-b} in row b, a copy
            spectra[:, ::2] += later[:, ::2]
            spectra[:, 1::2] -= later[:, 1::2]
        np.conjugate(spectra, out=spectra)
        spectra.setflags(write=False)
        plan = (P, L, spectra)
        object.__setattr__(src, "_plan_cache", plan)
    return plan


@lru_cache(maxsize=4)
def _roots_table(d: int) -> np.ndarray:
    """exp(-2 pi i p / d) for p in [0, d), read-only.

    It depends on d alone, so every Fourier source of one d shares it; the
    bound keeps a few sizes (16d bytes each) alive at most.
    """
    roots = np.exp((-2j * np.pi / d) * np.arange(d))
    roots.setflags(write=False)
    return roots


def _gaussian_rows(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v @ matrix.T for real v, as one (1 x d) @ (d x c) product per row and chunk.

    A batch as one matrix-matrix product would take another BLAS kernel
    than a single row does, with other rounding; here every row runs the
    same matrix-vector products against the same chunks of c matrix rows
    (``_GAUSSIAN_CHUNK_ENTRIES`` entries), whatever the batch, and each
    chunk is read from memory once per call rather than once per row.
    """
    M, d = matrix.shape
    rows = np.ascontiguousarray(v, dtype=np.float64).reshape(-1, 1, d)
    out = np.empty((rows.shape[0], 1, M))
    step = max(1, _GAUSSIAN_CHUNK_ENTRIES // d)
    for r0 in range(0, M, step):
        np.matmul(rows, matrix[r0 : r0 + step].T, out=out[..., r0 : r0 + step])
    return out.reshape(np.shape(v)[:-1] + (M,))


def apply_rows(src: RowSource, x: np.ndarray) -> np.ndarray:
    """Compute A @ x along the last axis in O(d log d), as complex128.

    Fourier/Hadamard sources run the full transform and gather the
    sampled rows; circulant sources convolve with eps and keep the first
    M entries, in d/P blocks of P = next_pow2(M) where the block rule of
    the source's plan allows (``_plan``: d/P block ``rfft`` rows of
    length 2P, products with the plan's block spectra summed over blocks,
    one ``irfft`` of length 2P per row), otherwise as one length-d
    ``rfft`` and ``irfft`` per row; Gaussian sources multiply by the real
    matrix.  These keep real input real, so only the M gathered rows are
    cast to complex128.
    Circulant and Gaussian sources map complex input part by part, so a
    zero imaginary part stays exactly zero, as it does through ``fwht``.
    The result is a fresh C-contiguous array, and each of its rows is
    computed on its own, so it does not depend on the rows beside it.
    """
    x = _check_last_axis(x, src.d, "apply_rows")
    if src.kind == "partial_fourier":
        y = np.take(dft(x), src.indices, axis=-1)
    elif src.kind == "partial_hadamard":
        y = np.take(fwht(x), src.indices, axis=-1)
    elif src.kind == "dense_gaussian":
        y = _by_parts(lambda v: _gaussian_rows(src.matrix, v), x)
    else:
        P, L, conj_k = _plan(src)

        def convolve(v):
            # Sum over blocks of x_hat_b * K_b, as conj(sum conj(x_hat_b) *
            # conj(K_b)), every step in place on the row's own spectra; with
            # one block that is exactly x_hat * eps_hat.  The blocks are
            # summed pairwise, by halves, so rounding grows with log(d/P).
            v = np.asarray(v, dtype=np.float64)
            spectra = np.fft.rfft(v.reshape(v.shape[:-1] + (src.d // P, P)), L)
            np.conjugate(spectra, out=spectra)
            spectra *= conj_k
            while spectra.shape[-2] > 1:
                n = spectra.shape[-2] // 2
                spectra[..., :n, :] += spectra[..., n:, :]
                spectra = spectra[..., :n, :]
            spectrum = np.conjugate(spectra[..., 0, :], out=spectra[..., 0, :])
            return np.fft.irfft(spectrum, L)[..., : src.M]

        y = _by_parts(convolve, x)
    return y.astype(np.complex128, copy=False)


def apply_rows_adjoint(src: RowSource, y: np.ndarray) -> np.ndarray:
    """Compute the conjugate-transpose product A* @ y along the last axis.

    Real input on a real source (Hadamard, circulant, Gaussian) stays
    real and returns float64; Fourier sources and complex input return
    complex128.  Circulant and Gaussian sources map complex input part by
    part, so a zero imaginary part stays exactly zero.  A circulant row
    costs one ``rfft`` of length L and d/P ``irfft`` rows of length L
    against the plan's conjugate block spectra, P entries kept of each
    (with one block, P = L = d: one length-d ``irfft``).  As in
    ``apply_rows``, each row is computed on its own.
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
            if real:
                out = dft(w, "inverse")
                out *= src.d
                return out
            # The unscaled inverse transform, in place: for a power-of-two d
            # it equals d * ifft(w) exactly, with no copy and no scaling pass.
            return np.fft.ifft(w, norm="forward", out=w)
        return fwht(w)
    if src.kind == "partial_circulant":
        # Correlation with eps: block b of the output is the first P entries
        # of the length-L correlation of y with block b of the kernel, whose
        # spectrum is the conjugate one (eps is real).  rfft zero-pads y to
        # L.  np.multiply, not *: see ``circular_convolve``.
        P, L, conj_k = _plan(src)

        def correlate(v):
            spectra = np.multiply(conj_k, np.fft.rfft(v, L)[..., None, :])
            return np.fft.irfft(spectra, L)[..., :P].reshape(v.shape[:-1] + (src.d,))

        return _by_parts(correlate, y)
    # One (1 x M) @ (M x d) product per row, as in ``_gaussian_rows``.
    return _by_parts(lambda v: np.matmul(v[..., None, :], src.matrix)[..., 0, :], y)


def _source_block(src: RowSource, cols: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """A[r0:r1, cols], of shape (r1 - r0,) + cols.shape.

    The block comes from the closed form of each entry, with no transform:
    float64 (+-1, or the Gaussian entries) for Hadamard, circulant and
    Gaussian sources, complex128 roots of unity for Fourier sources.
    ``cols`` must already be validated intp column indices (``_indices``).  No index
    temporary outlives the block's construction.
    """
    mask = src.d - 1  # d is a power of two, so "& mask" is "mod d"
    if src.kind == "partial_fourier":
        # Reducing the phase in integers keeps every entry accurate to
        # rounding at any d; exp of the unreduced product would not.
        phase = np.multiply.outer(src.indices[r0:r1], cols)
        phase &= mask
        return _roots_table(src.d)[phase]
    if src.kind == "partial_hadamard":
        return _sylvester_entries(src.indices[r0:r1], cols)
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
