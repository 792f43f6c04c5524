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
    _parity_table,
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
    circulant source, and a Fourier source from d = 2^17, cache one
    transform plan (``_plan``), built on first use; the other sources
    cache nothing.
    """

    kind: str
    d: int
    M: int
    indices: np.ndarray | None = None
    eps: np.ndarray | None = None
    matrix: np.ndarray | None = None
    _plan_cache: tuple | np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def dtype(self) -> np.dtype:
        """The matrix's dtype, and so Phi's: complex128 for Fourier, float64 otherwise.

        The one dtype rule: ``densify``, ``sketch.columns`` and
        ``sketch.densify_sketch`` return it, and every product and solve
        runs in ``np.result_type(src.dtype, input)``, extended-precision
        input rounded to double first (``_check_last_axis``).  A per-kind
        fact, so reading it builds no plan.
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
            # Two d-byte masks, one at a time: no float64 temporary of d entries.
            if np.count_nonzero(eps == 1.0) + np.count_nonzero(eps == -1.0) != self.d:
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
    """x as an array of that last-axis length, extended precision rounded to double."""
    x = np.asarray(x)
    if x.ndim == 0 or x.shape[-1] != length:
        raise ValueError(f"{what}: expected last-axis length {length}, got shape {x.shape}")
    if x.dtype in (np.longdouble, np.clongdouble):  # every product runs in double
        return x.astype(np.complex128 if np.iscomplexobj(x) else np.float64, copy=False)
    return x


#: The circulant block rule (``_plan``): blocks of P = min(d, 4 M') with
#: M' = max(16, next_pow2(M)), each transformed at L = P + M'.  Of the
#: ratios P/M' = 1..32, 4 took the least forward, adjoint and plan time
#: summed over d = 2^10..2^20 and M = 1..6400.  The floor of 16 (P >= 64)
#: took the one-row forward at M = 1 from 0.60 to 0.29 ms at d = 2^16 and
#: from 11.1 to 5.6 ms at 2^20, against P = 4 at L = 5 (``BENCH_27.json``
#: ``block_rules``; 2-core Xeon with 2 MB of L2 per core, numpy 2.4.6).
_CIRCULANT_BLOCK_RATIO = 4
_CIRCULANT_MIN_TAIL = 16

#: The Fourier forward's subsequence length P (``_fourier_rows``): P = d
#: below ``_FOURIER_TWO_LEVEL_FROM``, P = ``_FOURIER_BLOCK`` from there on.
#: At M = 4096 and d = 2^17, two rows took 1.8-2.2 ms with P = 2^15,
#: 2.0-2.7 ms with 2^16 and 4.8-6.1 ms with P = d.  At d = 2^16 a four-row
#: block (a batch's row block) took 1.8-2.4 ms with P = 2^15 and 1.9-2.4 ms
#: with P = d: no gain to pay for the twiddles each fresh source would
#: build (medians of 30 calls in two runs, 2-core Xeon, numpy 2.4.6).  Of
#: P = 2^13..2^16, 2^15 read best at d = 2^18 and 2^20 (``BENCH_27.json``
#: ``two_level_rule``).
_FOURIER_TWO_LEVEL_FROM = 2**17
_FOURIER_BLOCK = 2**15


def _plan(src: RowSource) -> tuple | np.ndarray:
    """A source's transform plan, built once: circulant, or Fourier from d = 2^17.

    *Circulant*, (P, L, conj_spectra).  With M' = next_pow2(M), at least
    ``_CIRCULANT_MIN_TAIL``, and P = min(d, ``_CIRCULANT_BLOCK_RATIO`` M'),
    x is cut into d/P blocks of length P, each transformed at L = P + M'
    (overlap-save), so the M kept outputs cost no length-d inverse
    transform.  Row b of ``conj_spectra`` is conj(K_b), K_b the length-L
    ``rfft`` of eps's window around -bP: eps[(s - bP) mod d] at each lag
    s in [0, M') and [-P, 0), the latter stored at L + s.  The lags of a
    block's kept outputs lie in (-P, M), so a cyclic convolution of
    length L reads no wrapped entry.  When P = d, L = d as well, and the
    one row is conj(rfft(eps)): the cyclic convolution itself.  The
    spectra are (d/P, L/2 + 1) complex entries: about 10d bytes with
    blocks, 8d with one.

    *Fourier* at d >= ``_FOURIER_TWO_LEVEL_FROM``, the (Q, M) twiddles
    w_d^(qi) of ``_fourier_rows``, w_d = exp(-2 pi i / d) and
    Q = d / ``_FOURIER_BLOCK``: 16 M Q bytes.  The phases qi are reduced
    mod d in integers (``_roots``), so no d-length roots table is built.
    A smaller Fourier source, and the other kinds, build no plan.

    The plan is the one thing a source caches (``RowSource._plan_cache``),
    built by its first ``apply_rows`` (or for a circulant source
    ``apply_rows_adjoint``) that needs it; a circulant source's two
    directions read the same spectra.  A first-use race recomputes the
    same value.
    """
    plan = src._plan_cache
    if plan is None:
        plan = _circulant_plan(src) if src.kind == "partial_circulant" else _fourier_plan(src)
        object.__setattr__(src, "_plan_cache", plan)
    return plan


def _circulant_plan(src: RowSource) -> tuple[int, int, np.ndarray]:
    d, tail = src.d, max(_CIRCULANT_MIN_TAIL, next_power_of_two(src.M))
    P = min(d, _CIRCULANT_BLOCK_RATIO * tail)
    if P == d:
        L, windows = d, src.eps.reshape(1, d)
    else:
        L = P + tail
        # The runs of L entries of cyclic eps that start at -(b+1)P, lag -P
        # first, rotated so that lag 0 comes first.
        wrapped = np.concatenate((src.eps, src.eps[:tail]))
        runs = np.lib.stride_tricks.sliding_window_view(wrapped, L)[::P][::-1]
        windows = np.concatenate((runs[:, P:], runs[:, :P]), axis=1)
    spectra = np.fft.rfft(windows, L)
    np.conjugate(spectra, out=spectra)
    spectra.setflags(write=False)
    return P, L, spectra


def _fourier_plan(src: RowSource) -> np.ndarray:
    phase = np.multiply.outer(np.arange(src.d // _FOURIER_BLOCK), src.indices)
    phase &= src.d - 1
    return _roots(phase, src.d)


def _roots(phase: np.ndarray, d: int) -> np.ndarray:
    """exp(-2 pi i p / d) at each integer phase p in [0, d), read-only.

    The one roots-of-unity rule.  A phase reduced mod d in integers keeps
    every root accurate to rounding at any d; exp of an unreduced product
    would not.
    """
    roots = np.exp((-2j * np.pi / d) * phase)
    roots.setflags(write=False)
    return roots


@lru_cache(maxsize=4)
def _roots_table(d: int) -> np.ndarray:
    """``_roots`` at every phase in [0, d).

    It depends on d alone, so every Fourier source of one d shares it; the
    bound keeps a few sizes (16d bytes each) alive at most.
    """
    return _roots(np.arange(d), d)


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


def _fourier_rows(src: RowSource, x: np.ndarray) -> np.ndarray:
    """The M sampled DFT rows of x, y_i = sum_q w_d^(qi) Z_q[i mod P].

    The four-step DFT (D. H. Bailey, 1990) pruned to the sampled rows:
    with Q = d/P, Z_q is the length-P DFT of the stride-Q subsequence
    x[q::Q], all Q of them one ``dft`` call on x.reshape(P, Q) transposed.
    Each row gathers its Q terms at i mod P, multiplies them by the plan's
    twiddles and sums them.  Below ``_FOURIER_TWO_LEVEL_FROM``, P = d, so
    Q = 1 and y is ``dft(x)`` gathered, with no plan and no twiddle step.
    """
    P = src.d if src.d < _FOURIER_TWO_LEVEL_FROM else _FOURIER_BLOCK
    columns = x.reshape(x.shape[:-1] + (P, src.d // P)).swapaxes(-1, -2)
    terms = np.take(dft(columns), src.indices & (P - 1), axis=-1)
    if P == src.d:
        return terms[..., 0, :]
    terms *= _plan(src)
    return terms.sum(axis=-2)


def apply_rows(src: RowSource, x: np.ndarray) -> np.ndarray:
    """Compute A @ x along the last axis in O(d log d).

    Its dtype follows ``RowSource.dtype``'s rule.  Hadamard sources run
    the full transform and gather the sampled rows; Fourier sources, for
    real and complex input, run one ``dft`` call on x's stride
    subsequences and combine the gathered bins (``_fourier_rows``).
    Circulant sources convolve with eps and keep the first M entries, by
    the plan's overlap-save blocks: d/P block ``rfft`` rows of length L,
    products with the plan's window spectra summed over blocks, one
    ``irfft`` of length L per row (with one block, P = L = d: one
    length-d ``rfft`` and ``irfft``); for real input the rows are a
    strided view of that fresh ``irfft`` output.  Gaussian sources
    multiply by the real matrix.  Circulant and Gaussian sources map
    complex input part by part, so a zero imaginary part stays exactly
    zero, as it does through ``fwht``.  Each row of the result is
    computed on its own, so it does not depend on the rows beside it.
    """
    x = _check_last_axis(x, src.d, "apply_rows")
    if src.kind == "partial_fourier":
        y = _fourier_rows(src, x)
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
    return y


def apply_rows_adjoint(src: RowSource, y: np.ndarray) -> np.ndarray:
    """Compute the conjugate-transpose product A* @ y along the last axis.

    Its dtype follows ``RowSource.dtype``'s rule.  Circulant and Gaussian
    sources map complex input part by part, so a zero imaginary part
    stays exactly zero.  A circulant row costs one ``rfft`` of length L
    (y zero-padded) and d/P ``irfft`` rows of length L against the plan's
    conjugate window spectra, P entries kept of each (``_plan``; with one
    block, P = L = d: one length-d ``irfft``).  A Fourier adjoint scatters
    into a d-length buffer and runs the full inverse transform.  As in
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
        # of the length-L correlation of y with the kernel's window b, whose
        # spectrum is the conjugate one (eps is real).  rfft zero-pads y to
        # L.  np.multiply, not *: see ``circular_convolve``.
        P, L, conj_k = _plan(src)

        def correlate(v):
            v = np.asarray(v, dtype=np.float64)  # numpy transforms float32 in single precision
            spectra = np.multiply(conj_k, np.fft.rfft(v, L)[..., None, :])
            return np.fft.irfft(spectra, L)[..., :P].reshape(v.shape[:-1] + (src.d,))

        return _by_parts(correlate, y)
    # One (1 x M) @ (M x d) product per row, as in ``_gaussian_rows``.
    return _by_parts(lambda v: np.matmul(v[..., None, :], src.matrix)[..., 0, :], y)


def _index_dtype(d: int) -> type:
    """The narrowest of uint16, uint32 and uint64 that holds d - 1.

    Its products and differences wrap modulo a power of two that d
    divides, so they stay exact mod d.
    """
    return np.uint16 if d <= 2**16 else np.uint32 if d <= 2**32 else np.uint64


def _source_block(src: RowSource, cols: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """A[r0:r1, cols], of shape (r1 - r0,) + cols.shape.

    The block comes from the closed form of each entry, with no transform:
    float64 (+-1, or the Gaussian entries) for Hadamard, circulant and
    Gaussian sources, complex128 roots of unity for Fourier sources.
    ``cols`` must already be validated intp column indices (``_indices``).
    A structured entry is one gather, table[combine(i, j) & (d - 1)]:
    eps at the shift i - j (circulant), the int8 ``_parity_table`` at
    the bits i & j (Hadamard, cast into the float64 block), the shared
    ``_roots_table`` at the phase i j (Fourier).  The combine step runs
    in the narrowest unsigned dtype that holds d - 1 (``_index_dtype``),
    whose wrap-around is exact mod d.  It is widened to the intp index
    that ``np.take`` reads before the block is allocated, so one
    block-sized index is live beside the block, and none outlives it.
    """
    if src.kind == "dense_gaussian":
        return src.matrix[r0:r1, cols]
    dtype = _index_dtype(src.d)
    mask = src.d - 1  # d is a power of two, so "& mask" is "mod d"
    cols = cols.astype(dtype)
    if src.kind == "partial_circulant":
        table = src.eps
        index = np.subtract.outer(np.arange(r0, r1, dtype=dtype), cols)
        index &= mask
    elif src.kind == "partial_hadamard":
        table = _parity_table(src.d)
        index = np.bitwise_and.outer(src.indices[r0:r1].astype(dtype), cols)
    else:
        table = _roots_table(src.d)
        index = np.multiply.outer(src.indices[r0:r1].astype(dtype), cols)
        index &= mask
    index = index.astype(np.intp)
    block = np.take(table, index)
    del index  # not held while the Hadamard block is cast
    return block.astype(np.float64) if src.kind == "partial_hadamard" else block


def densify(src: RowSource, *, cap: int = DENSIFY_CAP) -> np.ndarray:
    """Materialize A as an explicit M x d matrix of ``src.dtype`` (test oracle).

    Refuses when M * d exceeds ``cap``.
    """
    if src.M * src.d > cap:
        raise ValueError(
            f"densify would materialize {src.M}x{src.d} = {src.M * src.d} entries, "
            f"exceeding the cap of {cap}"
        )
    return _source_block(src, np.arange(src.d), 0, src.M)
