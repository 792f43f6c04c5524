"""Hashed sign-combination sketch operators.

The m x d operator is built from an (m*B) x d structured row source A:
row b is the signed sum of the B consecutive source rows in bucket b,

    phi_b = sum_{i=1}^{B} sigma[b, i] * a_{B*(b-1) + i},

scaled once by 1/sqrt(m*B).  Equivalently Phi = H A for the sparse sign
matrix H with one nonzero per column, so applying Phi costs one fast
multiply by A plus O(mB) work for the bucket sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fastsketch.ensembles import (
    DENSIFY_CAP,
    _column_indices,
    _source_blocks,
    RowSource,
    apply_rows,
    apply_rows_adjoint,
    normalize_kind,
    sample_bounded_orthogonal,
    sample_dense_gaussian,
    sample_partial_circulant,
)
from fastsketch.rng import derive_seed, stream

__all__ = [
    "SketchOperator",
    "build_sketch",
    "apply",
    "apply_adjoint",
    "columns",
    "densify_sketch",
    "sketch_to_json_dict",
    "sketch_from_json_dict",
    "dump_arrays",
]

#: Float64 entries per source block in ``columns``: enough to amortize the
#: per-block overhead, small enough to stay in cache.
_BLOCK_ENTRIES = 2**15


@dataclass(frozen=True)
class SketchOperator:
    """Immutable sketch: row source with M = m*B rows plus an m x B sign table."""

    source: RowSource
    signs: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        signs = np.asarray(self.signs, dtype=np.float64)
        if signs.ndim != 2:
            raise ValueError(f"sign table must be 2-D (m, B), got shape {signs.shape}")
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("sign table entries must be +1 or -1")
        m, B = signs.shape
        if self.source.M != m * B:
            raise ValueError(
                f"source has {self.source.M} rows but sign table implies m*B = {m * B}"
            )
        signs.setflags(write=False)
        object.__setattr__(self, "signs", signs)

    @property
    def d(self) -> int:
        return self.source.d

    @property
    def m(self) -> int:
        return self.signs.shape[0]

    @property
    def B(self) -> int:
        return self.signs.shape[1]

    @property
    def scale(self) -> float:
        return 1.0 / math.sqrt(self.m * self.B)


def build_sketch(d: int, m: int, B: int, kind: str, seed: int) -> SketchOperator:
    """Sample a fresh operator: source rows and sign table from ``seed``.

    Row and sign streams are derived from the seed with distinct purpose
    tags, so the same seed rebuilds a bit-identical operator.  For the
    circulant kind m*B must not exceed d; zero-pad the signal dimension
    up to the next power of two >= m*B if it does.
    """
    if m < 1 or B < 1:
        raise ValueError(f"m and B must be positive, got m={m}, B={B}")
    kind = normalize_kind(kind)
    M = m * B
    rows_seed = derive_seed(seed, 0, "rows")
    if kind in ("partial_fourier", "partial_hadamard"):
        source = sample_bounded_orthogonal(d, M, kind, rows_seed)
    elif kind == "partial_circulant":
        source = sample_partial_circulant(d, M, rows_seed)
    else:
        source = sample_dense_gaussian(d, M, rows_seed)
    sign_rng = stream(derive_seed(seed, 0, "signs"))
    signs = sign_rng.integers(0, 2, size=(m, B)).astype(np.float64) * 2.0 - 1.0
    return SketchOperator(source=source, signs=signs, seed=seed)


def apply(op: SketchOperator, x: np.ndarray) -> np.ndarray:
    """Compute (1/sqrt(mB)) * Phi @ x along the last axis.

    One fast source multiply, then signed bucket sums: O(d log d + mB).
    """
    y = apply_rows(op.source, x)
    buckets = y.reshape(y.shape[:-1] + (op.m, op.B))
    return op.scale * np.sum(op.signs * buckets, axis=-1)


def apply_adjoint(op: SketchOperator, z: np.ndarray) -> np.ndarray:
    """Compute (1/sqrt(mB)) * Phi* @ z along the last axis."""
    z = np.asarray(z)
    if z.ndim == 0 or z.shape[-1] != op.m:
        raise ValueError(f"apply_adjoint: expected last-axis length {op.m}, got {z.shape}")
    w = (op.scale * op.signs) * np.asarray(z, dtype=np.complex128)[..., :, None]
    return apply_rows_adjoint(op.source, w.reshape(z.shape[:-1] + (op.m * op.B,)))


def columns(op: SketchOperator, support: np.ndarray) -> np.ndarray:
    """(1/sqrt(mB)) * Phi[:, support], shape (..., m, k) for a support (..., k).

    The block has the source's own dtype: float64 for Hadamard, circulant
    and Gaussian sources, whose Phi is real, and complex128 for Fourier
    sources.  Signed bucket sums of the source's closed-form columns,
    O(mB) per column with no transform.  The source block is built a few
    buckets at a time (about ``_BLOCK_ENTRIES`` float64 entries) and
    summed into the output at once, as a batched (1 x B) @ (B x k) matmul
    per bucket, so no (m*B, k) block is ever held, and a block is
    released before the next one is built.  Fourier blocks enter the
    matmul as their float64 view (real and imaginary parts side by side).
    """
    support = _column_indices(op.source, support)
    fourier = op.source.kind == "partial_fourier"
    out = np.empty((op.m,) + support.shape, dtype=np.complex128 if fourier else np.float64)
    sums = out.reshape(op.m, support.size)
    if fourier:
        sums = sums.view(np.float64)
    buckets = max(1, _BLOCK_ENTRIES // max(1, op.B * sums.shape[1]))
    blocks = _source_blocks(op.source, support, buckets * op.B)
    for b0 in range(0, op.m, buckets):
        block = next(blocks)
        if fourier:
            block = block.view(np.float64)
        b1 = b0 + block.shape[0] // op.B
        sums[b0:b1] = (op.signs[b0:b1, None, :] @ block.reshape(b1 - b0, op.B, -1))[:, 0]
        del block  # so the next block is not built while this one is held
    out *= op.scale
    return np.moveaxis(out, 0, -2)


def densify_sketch(op: SketchOperator, *, cap: int = DENSIFY_CAP) -> np.ndarray:
    """Materialize the m x d operator, row b = scale * sum_i signs[b,i] a_{h(b,i)}.

    Read through ``columns``, so it has the source's dtype: float64 for
    Hadamard, circulant and Gaussian sources, complex128 for Fourier.
    """
    if op.m * op.d > cap:
        raise ValueError(
            f"densify_sketch would materialize {op.m}x{op.d} entries, exceeding cap {cap}"
        )
    return columns(op, np.arange(op.d))


def sketch_to_json_dict(op: SketchOperator) -> dict:
    """Compact JSON form: {kind, d, m, B, seed} rebuilds the operator bit-identically."""
    if op.seed is None:
        raise ValueError("operator was not built from a seed; serialize its arrays instead")
    return {
        "schema_version": 1,
        "kind": op.source.kind,
        "d": op.d,
        "m": op.m,
        "B": op.B,
        "seed": int(op.seed),
    }


def sketch_from_json_dict(doc: dict) -> SketchOperator:
    return build_sketch(
        d=int(doc["d"]),
        m=int(doc["m"]),
        B=int(doc["B"]),
        kind=doc["kind"],
        seed=int(doc["seed"]),
    )


def dump_arrays(op: SketchOperator, path) -> None:
    """Binary audit dump (npz) of the sign table and source payload."""
    arrays: dict = {"signs": op.signs}
    if op.source.indices is not None:
        arrays["indices"] = op.source.indices
    if op.source.eps is not None:
        arrays["eps"] = op.source.eps
    if op.source.matrix is not None:
        arrays["matrix"] = op.source.matrix
    np.savez(path, **arrays)
