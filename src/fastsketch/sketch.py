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
    _check_last_axis,
    _indices,
    _source_block,
    RowSource,
    apply_rows,
    apply_rows_adjoint,
    normalize_kind,
    sample_bounded_orthogonal,
    sample_dense_gaussian,
    sample_partial_circulant,
)
from fastsketch.rng import derive_seed, signs, stream
from fastsketch.transforms import _frozen

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

#: Input entries per row block of a batched ``apply`` (see ``_row_blocks``):
#: one row at d = 2^18, four at d = 2^16.  A block's transform buffers and
#: the output are all that a call holds, whatever the batch size.
_ROW_BLOCK_ENTRIES = 2**18


def _row_blocks(n: int, d: int) -> list[slice]:
    """The row slices in which ``apply`` runs a batch of n vectors of length d.

    Each slice holds ``_ROW_BLOCK_ENTRIES`` input entries (at least one
    row); the last holds the rest.  ``jl_embed``, which signs its points
    row by row, signs one slice at a time and passes it to ``apply``, which
    then runs it as a single block.
    """
    step = max(1, _ROW_BLOCK_ENTRIES // d)
    return [slice(r0, min(n, r0 + step)) for r0 in range(0, n, step)]


@dataclass(frozen=True)
class SketchOperator:
    """Immutable sketch: row source with M = m*B rows plus an m x B sign table.

    The sign table is kept read-only; a writeable array the caller passed
    is copied, so the caller's array stays writeable.
    """

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
        object.__setattr__(self, "signs", _frozen(signs, self.signs))

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
    table = signs(stream(derive_seed(seed, 0, "signs")), (m, B))
    table.setflags(write=False)  # so the operator keeps it without a copy
    return SketchOperator(source=source, signs=table, seed=seed)


def apply(op: SketchOperator, x: np.ndarray) -> np.ndarray:
    """Compute (1/sqrt(mB)) * Phi @ x along the last axis.

    Its dtype follows ``RowSource.dtype``'s rule.  One fast source
    multiply, then signed bucket sums: O(d log d + mB) per vector.  A
    batch runs through the source a block of rows at a time
    (``_ROW_BLOCK_ENTRIES`` input entries), each block's sums going
    straight into the output, so a call holds one block's transform
    buffers beyond its output; a 1-D input is a block of one row.  Every
    step treats each row on its own, so a row's output does not depend on
    the batch it came in.  The input is not checked for non-finite
    values: NaN and inf propagate into the output (an inf can meet an
    opposite one in a sum, giving NaN and numpy's invalid-value
    ``RuntimeWarning``).
    """
    x = _check_last_axis(x, op.d, "apply")
    rows = x.reshape(-1, op.d)
    out = np.empty((rows.shape[0], op.m), dtype=np.result_type(op.source.dtype, x))
    for block in _row_blocks(rows.shape[0], op.d):
        _bucket_sums(op, apply_rows(op.source, rows[block]), out[block])
    return out.reshape(x.shape[:-1] + (op.m,))


def _bucket_sums(op: SketchOperator, y: np.ndarray, out: np.ndarray) -> None:
    """out = scale * (signed bucket sums of the source rows y), y of shape (k, m*B).

    As in ``columns``: one (1 x B) @ (B x 1) product per row and bucket,
    or (1 x B) @ (B x 2) on the float64 view of complex y (real and
    imaginary parts side by side), written straight into out.  Each row's
    sums come from the same products whatever the batch, where ``np.sum``
    over the bucket axis picks its order of additions from the whole
    array's shape.
    """
    terms = y.view(np.float64).reshape(y.shape[0], op.m, op.B, -1)
    np.matmul(op.signs[:, None, :], terms, out=out.view(np.float64).reshape(y.shape[0], op.m, 1, -1))
    out *= op.scale


def apply_adjoint(op: SketchOperator, z: np.ndarray) -> np.ndarray:
    """Compute (1/sqrt(mB)) * Phi* @ z along the last axis.

    Its dtype follows ``RowSource.dtype``'s rule; the float64 signs
    promote int, float32 and complex64 input.  As in ``apply``, each row
    is computed on its own, and NaN and inf propagate into the output
    unchecked.
    """
    z = _check_last_axis(z, op.m, "apply_adjoint")
    w = (op.scale * op.signs) * z[..., :, None]
    return apply_rows_adjoint(op.source, w.reshape(z.shape[:-1] + (op.m * op.B,)))


def columns(op: SketchOperator, support: np.ndarray) -> np.ndarray:
    """(1/sqrt(mB)) * Phi[:, support], shape (..., m, k) for a support (..., k).

    The block has the source's own dtype (``RowSource.dtype``).  Signed
    bucket sums of the source's closed-form columns, O(mB) per column
    with no transform.  The source block is built a few
    buckets at a time (about ``_BLOCK_ENTRIES`` float64 entries) and
    summed at once, as a batched (1 x B) @ (B x k) matmul per bucket
    written straight into the output, so no (m*B, k) block is ever held,
    and a block is released before the next one is built.  Blocks enter
    the matmul as their float64 view (for Fourier, real and imaginary
    parts side by side).
    """
    support = _indices(support, op.d, "column indices")
    out = np.empty((op.m,) + support.shape, dtype=op.source.dtype)
    sums = out.reshape(op.m, support.size).view(np.float64)
    buckets = max(1, _BLOCK_ENTRIES // max(1, op.B * sums.shape[1]))
    for b0 in range(0, op.m, buckets):
        b1 = min(op.m, b0 + buckets)
        block = _source_block(op.source, support, b0 * op.B, b1 * op.B).view(np.float64)
        np.matmul(op.signs[b0:b1, None, :], block.reshape(b1 - b0, op.B, -1), out=sums[b0:b1, None])
        del block  # so the next block is not built while this one is held
    out *= op.scale
    return np.moveaxis(out, 0, -2)


def densify_sketch(op: SketchOperator, *, cap: int = DENSIFY_CAP) -> np.ndarray:
    """Materialize the m x d operator, row b = scale * sum_i signs[b,i] a_{h(b,i)}.

    Read through ``columns``, so it has the source's dtype.
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
