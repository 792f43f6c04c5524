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
from fastsketch.transforms import dft, fwht, is_power_of_two

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
    "source_columns",
    "densify",
    "row_source_to_json_dict",
    "row_source_from_json_dict",
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
    kind, ``matrix`` (shape (M, d)) for the Gaussian baseline.  ``seed``
    records provenance when the source was sampled from an integer seed.
    """

    kind: str
    d: int
    M: int
    indices: np.ndarray | None = None
    eps: np.ndarray | None = None
    matrix: np.ndarray | None = None
    seed: int | None = None

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
                    f"partial circulant needs M <= d, got M={self.M}, d={self.d}"
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
            mat.setflags(write=False)
            object.__setattr__(self, "matrix", mat)


def sample_bounded_orthogonal(
    d: int, M: int, kind: str, rng: int | np.random.Generator
) -> RowSource:
    """Sample M row indices i.i.d. uniform from [0, d), with replacement."""
    kind = normalize_kind(kind)
    if kind not in ("partial_fourier", "partial_hadamard"):
        raise ValueError(f"bounded orthogonal kinds are fourier/hadamard, got {kind!r}")
    seed = rng if isinstance(rng, int) else None
    gen = as_generator(rng)
    indices = gen.integers(0, d, size=M)
    return RowSource(kind=kind, d=d, M=M, indices=indices, seed=seed)


def sample_partial_circulant(d: int, M: int, rng: int | np.random.Generator) -> RowSource:
    """Draw eps uniform over {+-1}^d; the row set is fixed to {0, ..., M-1}."""
    seed = rng if isinstance(rng, int) else None
    gen = as_generator(rng)
    eps = gen.integers(0, 2, size=d).astype(np.float64) * 2.0 - 1.0
    return RowSource(kind="partial_circulant", d=d, M=M, eps=eps, seed=seed)


def sample_dense_gaussian(d: int, M: int, rng: int | np.random.Generator) -> RowSource:
    """Unstructured i.i.d. N(0, 1) baseline used as an experimental control."""
    seed = rng if isinstance(rng, int) else None
    gen = as_generator(rng)
    matrix = gen.standard_normal((M, d))
    return RowSource(kind="dense_gaussian", d=d, M=M, matrix=matrix, seed=seed)


def _check_last_axis(x: np.ndarray, length: int, what: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim == 0 or x.shape[-1] != length:
        raise ValueError(f"{what}: expected last-axis length {length}, got shape {x.shape}")
    return x


def _eps_spectrum(src: RowSource) -> np.ndarray:
    """DFT of the circulant sign vector, cached on the (immutable) source.

    The spectrum is a pure function of eps, so the benign first-use race
    under concurrent readers recomputes identical values.
    """
    cached = getattr(src, "_spectrum", None)
    if cached is None:
        cached = dft(src.eps)
        cached.setflags(write=False)
        object.__setattr__(src, "_spectrum", cached)
    return cached


def apply_rows(src: RowSource, x: np.ndarray) -> np.ndarray:
    """Compute A @ x along the last axis in O(d log d).

    Fourier/Hadamard sources run the full transform and gather the
    sampled rows; circulant sources convolve with eps through its cached
    spectrum and keep the first M entries.
    """
    x = _check_last_axis(x, src.d, "apply_rows")
    if src.kind == "partial_fourier":
        return dft(x)[..., src.indices]
    if src.kind == "partial_hadamard":
        return fwht(x)[..., src.indices]
    if src.kind == "partial_circulant":
        return dft(_eps_spectrum(src) * dft(x), "inverse")[..., : src.M]
    return np.asarray(x, dtype=np.complex128) @ src.matrix.T


def apply_rows_adjoint(src: RowSource, y: np.ndarray) -> np.ndarray:
    """Compute the conjugate-transpose product A* @ y along the last axis."""
    y = _check_last_axis(y, src.M, "apply_rows_adjoint")
    if src.kind in ("partial_fourier", "partial_hadamard"):
        w = np.zeros(y.shape[:-1] + (src.d,), dtype=np.complex128)
        flat_w = w.reshape(-1, src.d)
        flat_y = np.asarray(y, dtype=np.complex128).reshape(-1, src.M)
        rows = np.arange(flat_w.shape[0])[:, None]
        np.add.at(flat_w, (rows, src.indices[None, :]), flat_y)
        if src.kind == "partial_fourier":
            # F* w = d * inverse-DFT(w) for the unnormalized forward F.
            return dft(w, "inverse") * src.d
        return fwht(w)
    if src.kind == "partial_circulant":
        w = np.zeros(y.shape[:-1] + (src.d,), dtype=np.complex128)
        w[..., : src.M] = y
        # Correlation with eps == convolution with the index-reversed eps,
        # whose spectrum is the conjugate spectrum (eps is real).
        return dft(np.conj(_eps_spectrum(src)) * dft(w), "inverse")
    return np.asarray(y, dtype=np.complex128) @ src.matrix


def source_columns(src: RowSource, cols: np.ndarray) -> np.ndarray:
    """A[:, cols] from the closed form of each entry, shape (M,) + cols.shape.

    No transform runs.  ``cols`` must be an integer array of at least one
    dimension with entries in [0, d).
    """
    cols = np.asarray(cols)
    if cols.ndim == 0 or not np.issubdtype(cols.dtype, np.integer):
        raise ValueError(
            f"columns must be an integer array of at least one dimension, "
            f"got dtype {cols.dtype} and shape {cols.shape}"
        )
    if cols.size and (cols.min() < 0 or cols.max() >= src.d):
        raise ValueError(f"column indices out of range [0, {src.d})")
    if src.kind == "partial_fourier":
        # Reducing the phase in integers keeps every entry accurate to
        # rounding at any d; exp of the unreduced product would not.  The
        # reduction runs in place, so no second index block is allocated.
        roots = np.exp((-2j * np.pi / src.d) * np.arange(src.d))
        phase = np.multiply.outer(src.indices, cols)
        phase %= src.d
        return roots[phase]
    if src.kind == "partial_hadamard":
        parity = np.bitwise_count(np.bitwise_and.outer(src.indices, cols)) & 1
        return np.where(parity == 0, 1.0, -1.0).astype(np.complex128)
    if src.kind == "partial_circulant":
        return src.eps[np.subtract.outer(np.arange(src.M), cols) % src.d].astype(np.complex128)
    return src.matrix[:, cols].astype(np.complex128)


def densify(src: RowSource, *, cap: int = DENSIFY_CAP) -> np.ndarray:
    """Materialize A as an explicit M x d complex matrix (test oracle).

    Refuses when M * d exceeds ``cap``.
    """
    if src.M * src.d > cap:
        raise ValueError(
            f"densify would materialize {src.M}x{src.d} = {src.M * src.d} entries, "
            f"exceeding the cap of {cap}"
        )
    return source_columns(src, np.arange(src.d))


def row_source_to_json_dict(src: RowSource) -> dict:
    """JSON-serializable description (payload included) of a row source."""
    doc: dict = {
        "schema_version": 1,
        "kind": src.kind,
        "d": src.d,
        "M": src.M,
        "seed": src.seed,
    }
    if src.indices is not None:
        doc["indices"] = [int(i) for i in src.indices]
    if src.eps is not None:
        doc["eps"] = [int(e) for e in src.eps]
    if src.matrix is not None:
        doc["matrix"] = [[float(v) for v in row] for row in src.matrix]
    return doc


def row_source_from_json_dict(doc: dict) -> RowSource:
    return RowSource(
        kind=doc["kind"],
        d=int(doc["d"]),
        M=int(doc["M"]),
        indices=None if "indices" not in doc else np.asarray(doc["indices"]),
        eps=None if "eps" not in doc else np.asarray(doc["eps"], dtype=np.float64),
        matrix=None if "matrix" not in doc else np.asarray(doc["matrix"], dtype=np.float64),
        seed=doc.get("seed"),
    )
