"""The hashed sign-combination operator against dense oracles and identities."""

import tracemalloc

import numpy as np
import pytest

from fastsketch import ensembles, sketch
from fastsketch.ensembles import RowSource, densify
from fastsketch.jl import jl_embed
from fastsketch.rng import signs as draw_signs
from fastsketch.sketch import (
    SketchOperator,
    apply,
    apply_adjoint,
    build_sketch,
    columns,
    densify_sketch,
    sketch_from_json_dict,
    sketch_to_json_dict,
)

ALL_KINDS = ("fourier", "hadamard", "circulant", "gaussian")
#: dtype of ``columns`` and ``densify_sketch``: Phi is real for every kind but Fourier.
COLUMN_DTYPES = {
    "fourier": np.complex128,
    "hadamard": np.float64,
    "circulant": np.float64,
    "gaussian": np.float64,
}


def random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# construction


def test_same_seed_same_operator():
    a = build_sketch(64, 4, 8, "fourier", seed=7)
    b = build_sketch(64, 4, 8, "fourier", seed=7)
    np.testing.assert_array_equal(a.signs, b.signs)
    np.testing.assert_array_equal(a.source.indices, b.source.indices)
    np.testing.assert_array_equal(densify_sketch(a), densify_sketch(b))


def test_different_seeds_differ():
    a = build_sketch(64, 4, 8, "fourier", seed=7)
    b = build_sketch(64, 4, 8, "fourier", seed=8)
    assert not np.array_equal(a.source.indices, b.source.indices)


def test_degenerate_single_row():
    op = build_sketch(16, 1, 1, "fourier", seed=1)
    assert op.scale == 1.0
    x = random_complex(np.random.default_rng(0), 16)
    row = densify(op.source)[0]
    np.testing.assert_allclose(apply(op, x), [op.signs[0, 0] * row @ x], atol=1e-12)


def test_hashed_rows_are_signed_sums():
    op = build_sketch(64, 4, 8, "fourier", seed=21)
    dense = densify_sketch(op)
    assert dense.shape == (4, 64)
    rows = densify(op.source)
    scale = 1 / np.sqrt(32)
    for b in range(4):
        expected = scale * (op.signs[b][:, None] * rows[8 * b : 8 * (b + 1)]).sum(axis=0)
        np.testing.assert_allclose(dense[b], expected, atol=1e-12)


def test_circulant_needs_room_for_all_rows():
    with pytest.raises(ValueError, match="zero-pad"):
        build_sketch(16, 4, 8, "circulant", seed=1)


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError, match="positive"):
        build_sketch(16, 0, 2, "fourier", seed=1)
    src = build_sketch(16, 2, 2, "fourier", seed=1).source
    with pytest.raises(ValueError, match="sign table"):
        SketchOperator(source=src, signs=np.ones((2, 3)))
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        SketchOperator(source=src, signs=np.full((2, 2), 0.5))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_caller_arrays_stay_writeable_and_private(kind):
    # A payload or sign table given as a writeable array that needs no
    # conversion is copied, not frozen: the caller may write to it, and
    # that does not reach the operator.
    built = build_sketch(64, 4, 8, kind, seed=29)
    field = {"fourier": "indices", "hadamard": "indices", "circulant": "eps"}.get(kind, "matrix")
    payload = np.array(getattr(built.source, field))
    table = np.array(built.signs)
    op = SketchOperator(RowSource(kind, 64, 32, **{field: payload}), signs=table)
    x = np.random.default_rng(31).standard_normal(64)
    before = apply(op, x)
    assert payload.flags.writeable and table.flags.writeable
    payload[...] = payload[::-1] if kind in ("fourier", "hadamard") else -payload
    table *= -1.0
    assert np.array_equal(apply(op, x), before)
    assert not (getattr(op.source, field).flags.writeable or op.signs.flags.writeable)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_built_operators_keep_their_samplers_arrays(kind):
    # The samplers and build_sketch freeze the arrays they draw, so the
    # operator keeps them as they are, and a read-only array is not copied.
    op = build_sketch(64, 4, 8, kind, seed=37)
    payload = next(a for a in (op.source.indices, op.source.eps, op.source.matrix) if a is not None)
    assert not (payload.flags.writeable or op.signs.flags.writeable)
    assert SketchOperator(op.source, signs=op.signs).signs is op.signs
    field = {"fourier": "indices", "hadamard": "indices", "circulant": "eps"}.get(kind, "matrix")
    assert getattr(RowSource(kind, 64, 32, **{field: payload}), field) is payload


def test_build_sketch_copies_neither_the_gaussian_matrix_nor_the_sign_table(monkeypatch):
    # The M x d Gaussian matrix is the payload a copy would cost most: the
    # build's peak stays near one matrix.  The sign table is the drawn array.
    drawn = []

    def recorded_signs(gen, shape):
        drawn.append(draw_signs(gen, shape))
        return drawn[-1]

    monkeypatch.setattr(sketch, "signs", recorded_signs)
    tracemalloc.start()
    try:
        op = build_sketch(2**12, 16, 4, "gaussian", seed=41)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * op.source.matrix.nbytes
    assert op.signs is drawn[0]


# ---------------------------------------------------------------------------
# forward / adjoint vs the dense operator


def test_apply_zero():
    for kind in ALL_KINDS:
        op = build_sketch(64, 4, 4, kind, seed=3)
        np.testing.assert_array_equal(apply(op, np.zeros(64)), np.zeros(4))
        np.testing.assert_array_equal(apply_adjoint(op, np.zeros(4)), np.zeros(64))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_apply_matches_dense(kind):
    rng = np.random.default_rng(5)
    op = build_sketch(64, 4, 8, kind, seed=31)
    dense = densify_sketch(op)
    for _ in range(20):
        x = random_complex(rng, 64)
        np.testing.assert_allclose(apply(op, x), dense @ x, atol=1e-10)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_apply_real_input_has_phis_dtype_and_matches_dense(kind):
    op = build_sketch(64, 4, 8, kind, seed=31)
    x = np.random.default_rng(7).standard_normal((3, 64))
    out = apply(op, x)
    assert out.dtype == op.source.dtype == COLUMN_DTYPES[kind]
    np.testing.assert_allclose(out, x @ densify_sketch(op).T, atol=1e-10)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_adjoint_matches_dense(kind):
    rng = np.random.default_rng(7)
    op = build_sketch(64, 4, 8, kind, seed=37)
    dense = densify_sketch(op)
    for _ in range(10):
        z = random_complex(rng, 4)
        np.testing.assert_allclose(apply_adjoint(op, z), np.conj(dense.T) @ z, atol=1e-10)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_adjoint_identity(kind):
    rng = np.random.default_rng(9)
    op = build_sketch(64, 4, 8, kind, seed=41)
    for _ in range(10):
        x = random_complex(rng, 64)
        z = random_complex(rng, 4)
        lhs = np.vdot(z, apply(op, x))
        rhs = np.vdot(apply_adjoint(op, z), x)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("shape", [(), (3,), (2, 5)], ids=["1-D", "3xm", "2x5xm"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_adjoint_dtype_contract(kind, shape):
    # Real input stays real on a real Phi and returns float64; a Fourier
    # source or complex input returns complex128.  The real result is the
    # real part of the complex path.
    op = build_sketch(64, 4, 8, kind, seed=43)
    z = np.random.default_rng(11).standard_normal(shape + (op.m,))
    real = apply_adjoint(op, z)
    assert real.shape == shape + (op.d,)
    assert real.dtype == COLUMN_DTYPES[kind]
    via_complex = apply_adjoint(op, z.astype(np.complex128))
    assert via_complex.dtype == np.complex128
    if kind != "fourier":
        np.testing.assert_allclose(real, via_complex.real, rtol=0, atol=1e-12)
    np.testing.assert_allclose(real, via_complex, rtol=0, atol=1e-12)
    np.testing.assert_allclose(real, z @ densify_sketch(op).conj(), rtol=0, atol=1e-10)
    assert apply_adjoint(op, z + 1j * z).dtype == np.complex128


#: Input dtypes of ``test_dtype_contract``.
CONTRACT_INPUTS = (np.int64, np.float32, np.float64, np.complex64, np.complex128)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_dtype_contract(kind):
    # One rule, RowSource.dtype: every product returns
    # np.result_type(Phi's dtype, input), 1-D and batched, with the values
    # of the input cast to double (float64 or complex128) first; the
    # matrix readers return Phi's own dtype.
    op = build_sketch(64, 4, 8, kind, seed=59)
    src = op.source
    products = {
        "apply_rows": (lambda v: ensembles.apply_rows(src, v), src.d),
        "apply_rows_adjoint": (lambda v: ensembles.apply_rows_adjoint(src, v), src.M),
        "apply": (lambda v: apply(op, v), op.d),
        "apply_adjoint": (lambda v: apply_adjoint(op, v), op.m),
        # jl_embed takes an (N, d) point set: the batch is its 6 rows.
        "jl_embed": (lambda v: jl_embed(op, v.reshape(-1, op.d), seed=3), op.d),
    }
    rng = np.random.default_rng(19)
    for name, (product, n) in products.items():
        for shape in ((n,), (2, 3, n)):
            values = rng.integers(-4, 5, size=shape) + 1j * rng.integers(-4, 5, size=shape)
            values = values + rng.standard_normal(shape) / 8
            for dtype in CONTRACT_INPUTS:
                real = not np.issubdtype(dtype, np.complexfloating)
                v = (values.real if real else values).astype(dtype)
                got = product(v)
                assert got.dtype == np.result_type(src.dtype, v), (name, shape, dtype)
                double = v.astype(np.result_type(v, np.float64))
                np.testing.assert_array_equal(got, product(double), err_msg=f"{name} {dtype}")
    assert densify(src).dtype == src.dtype == COLUMN_DTYPES[kind]
    assert columns(op, np.arange(5)).dtype == densify_sketch(op).dtype == src.dtype


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_extended_precision_input_is_rounded_to_double(kind):
    # The products run in double precision, so longdouble input gives the
    # product of its double rounding, in RowSource.dtype's rule.
    op = build_sketch(64, 4, 8, kind, seed=59)
    x = random_complex(np.random.default_rng(23), 64)
    z = random_complex(np.random.default_rng(29), 4)
    for rounded, wide in ((x.real, np.longdouble), (x, np.clongdouble)):
        got = apply(op, rounded.astype(wide))
        assert got.dtype == np.result_type(op.source.dtype, rounded)
        np.testing.assert_array_equal(got, apply(op, rounded))
        np.testing.assert_array_equal(jl_embed(op, rounded.astype(wide), 5), jl_embed(op, rounded, 5))
    for rounded, wide in ((z.real, np.longdouble), (z, np.clongdouble)):
        got = apply_adjoint(op, rounded.astype(wide))
        assert got.dtype == np.result_type(op.source.dtype, rounded)
        np.testing.assert_array_equal(got, apply_adjoint(op, rounded))


@pytest.mark.parametrize("shape", [(), (3,)], ids=["1-D", "3xn"])
@pytest.mark.parametrize("kind", ["hadamard", "circulant", "gaussian"])
def test_real_phi_keeps_a_zero_imaginary_part_exactly(kind, shape):
    # A real Phi maps complex input part by part, so input whose imaginary
    # part is zero gives output whose imaginary part is exactly zero, in
    # both directions; the real part is the dense product.
    op = build_sketch(4096, 16, 8, kind, seed=47)
    dense = densify_sketch(op)
    rng = np.random.default_rng(13)
    x = rng.standard_normal(shape + (op.d,)).astype(np.complex128)
    z = rng.standard_normal(shape + (op.m,)).astype(np.complex128)
    forward, backward = apply(op, x), apply_adjoint(op, z)
    assert forward.dtype == backward.dtype == np.complex128
    assert not np.any(forward.imag) and not np.any(backward.imag)
    np.testing.assert_allclose(forward.real, x.real @ dense.T, rtol=0, atol=1e-10)
    np.testing.assert_allclose(backward.real, z.real @ dense, rtol=0, atol=1e-10)
    # Input with both parts nonzero still matches the dense operator.
    x = x + 1j * rng.standard_normal(x.shape)
    z = z + 1j * rng.standard_normal(z.shape)
    np.testing.assert_allclose(apply(op, x), x @ dense.T, rtol=0, atol=1e-10)
    np.testing.assert_allclose(apply_adjoint(op, z), z @ dense, rtol=0, atol=1e-10)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_non_finite_values_propagate(kind):
    # apply and apply_adjoint do not check for non-finite values: a NaN
    # or an inf entry reaches the output instead of raising (an inf may
    # meet -inf in a sum and become NaN).
    op = build_sketch(64, 4, 8, kind, seed=47)
    for bad in (np.nan, np.inf):
        x = np.ones(64)
        x[5] = bad
        z = np.ones(op.m)
        z[1] = bad
        with np.errstate(invalid="ignore"):
            forward, backward = apply(op, x), apply_adjoint(op, z)
        assert not np.isfinite(forward).all()
        assert not np.isfinite(backward).all()
        if np.isnan(bad):
            assert np.isnan(forward).any() and np.isnan(backward).any()


def test_single_bucket_is_classical_subsampling():
    # B = 1: each output coordinate is one signed sampled row
    op = build_sketch(32, 6, 1, "fourier", seed=43)
    x = random_complex(np.random.default_rng(11), 32)
    rows = densify(op.source)
    expected = op.scale * op.signs[:, 0] * (rows @ x)
    np.testing.assert_allclose(apply(op, x), expected, atol=1e-12)


def test_linearity_in_scale():
    op = build_sketch(64, 4, 8, "fourier", seed=47)
    x = random_complex(np.random.default_rng(13), 64)
    np.testing.assert_allclose(apply(op, 3.5 * x), 3.5 * apply(op, x), atol=1e-12)


def test_batched_apply_matches_loop(monkeypatch):
    # Blocks of 3 rows, so the 8-row batch runs as 3 + 3 + 2; every row must
    # come out bit-identical to the row applied on its own.  Circulant at
    # d = 2^16 convolves in 512 blocks, Hadamard at 2^16 runs the blocked
    # fwht and Fourier at 2^17 the two-level DFT; the rest run at d = 64.
    rng = np.random.default_rng(15)
    large = [("circulant", 2**16), ("hadamard", 2**16), ("fourier", 2**17)]
    for kind, d in [(kind, 64) for kind in ALL_KINDS] + large:
        monkeypatch.setattr(sketch, "_ROW_BLOCK_ENTRIES", 3 * d)
        op = build_sketch(d, 4, 8, kind, seed=53)
        for xs in (rng.standard_normal((8, d)), random_complex(rng, 8 * d).reshape(8, d)):
            batched = apply(op, xs)
            assert batched.shape == (8, op.m) and batched.dtype == np.result_type(op.source.dtype, xs)
            for i in range(8):
                np.testing.assert_array_equal(batched[i], apply(op, xs[i]))
            np.testing.assert_array_equal(apply(op, xs.reshape(2, 4, d)), batched.reshape(2, 4, -1))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batched_adjoint_matches_loop(kind):
    # Every row of a batched adjoint is bit-identical to the row on its own.
    # Circulant runs at d = 2^16 with M = 256 (64 blocks) and with M = 20480
    # (one block, where numpy would elide the temporary of a lone row's
    # spectrum product and swap its operands); Hadamard at 2^16 runs the
    # blocked fwht.
    d = {"circulant": 2**16, "gaussian": 2**10, "hadamard": 2**16}.get(kind, 2**8)
    rng = np.random.default_rng(17)
    for m in (32, 2560) if kind == "circulant" else (32,):
        op = build_sketch(d, m, 8, kind, seed=55)
        for zs in (rng.standard_normal((5, op.m)), random_complex(rng, 5 * op.m).reshape(5, op.m)):
            batched = apply_adjoint(op, zs)
            assert batched.shape == (5, op.d)
            for i in range(5):
                np.testing.assert_array_equal(batched[i], apply_adjoint(op, zs[i]))
            np.testing.assert_array_equal(apply_adjoint(op, zs[:4].reshape(2, 2, -1)),
                                          batched[:4].reshape(2, 2, -1))


def test_row_blocks_cover_the_batch_in_order():
    assert sketch._row_blocks(0, 2**16) == []
    assert sketch._row_blocks(9, 2**16) == [slice(0, 4), slice(4, 8), slice(8, 9)]
    assert sketch._row_blocks(2, 2**19) == [slice(0, 1), slice(1, 2)]
    assert sketch._row_blocks(3, 64) == [slice(0, 3)]


def test_scale_invariant():
    op = build_sketch(64, 4, 8, "fourier", seed=59)
    assert abs(op.scale**2 * op.m * op.B - 1.0) < 1e-15


def test_dimension_mismatch():
    op = build_sketch(64, 4, 8, "fourier", seed=61)
    with pytest.raises(ValueError, match="length"):
        apply(op, np.zeros(32))
    with pytest.raises(ValueError, match="length"):
        apply_adjoint(op, np.zeros(8))


# ---------------------------------------------------------------------------
# dense construction specifics


def test_hand_summed_two_point_sketch():
    # one bucket of the two 2-point DFT rows with ++ signs: ([1,1]+[1,-1])/sqrt(2)
    src = RowSource(kind="fourier", d=2, M=2, indices=np.array([0, 1]))
    op = SketchOperator(source=src, signs=np.ones((1, 2)))
    np.testing.assert_allclose(
        densify_sketch(op), np.array([[2.0, 0.0]]) / np.sqrt(2.0), atol=1e-15
    )


def test_flipping_all_signs_negates():
    op = build_sketch(64, 4, 8, "hadamard", seed=67)
    flipped = SketchOperator(source=op.source, signs=-op.signs)
    np.testing.assert_array_equal(densify_sketch(flipped), -densify_sketch(op))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_dense_columns_match_basis_applications(kind):
    op = build_sketch(32, 4, 4, kind, seed=71)
    dense = densify_sketch(op)
    assert dense.dtype == COLUMN_DTYPES[kind]
    for j in (0, 7, 31):
        e = np.zeros(32)
        e[j] = 1.0
        np.testing.assert_allclose(apply(op, e), dense[:, j], atol=1e-11)
    # A cap of exactly m*d is within bounds and gives the same matrix.
    np.testing.assert_array_equal(densify_sketch(op, cap=op.m * op.d), dense)
    support = np.array([[0, 7, 31], [2, 3, 16]])  # (n, k) -> (n, m, k)
    basis = np.eye(32)[support]
    got = columns(op, support)
    assert got.dtype == COLUMN_DTYPES[kind]
    np.testing.assert_allclose(got, np.swapaxes(apply(op, basis), -1, -2), atol=1e-11)


def full_block_columns(op, support):
    """Reference columns: the whole (m*B, k) source block, then bucket sums."""
    cols = densify(op.source)[:, support].reshape((op.m, op.B) + support.shape)
    return op.scale * np.moveaxis(np.einsum("bi,bi...->b...", op.signs, cols), 0, -2)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("shape", [(128,), (16, 8)], ids=["support", "batched"])
def test_columns_match_full_block_reference(kind, shape):
    op = build_sketch(1024, 37, 8, kind, seed=97)
    rng = np.random.default_rng(101)
    n = shape[0] if len(shape) == 2 else 1
    support = np.sort([rng.choice(op.d, shape[-1], replace=False) for _ in range(n)]).reshape(shape)
    # Several blocks of whole buckets, the last one partial.
    entries_per_bucket = op.B * support.size * (2 if kind == "fourier" else 1)
    buckets = sketch._BLOCK_ENTRIES // entries_per_bucket
    assert 1 <= buckets < op.m and op.m % buckets != 0
    got = columns(op, support)
    want = full_block_columns(op, support)
    assert got.dtype == COLUMN_DTYPES[kind] and got.shape == shape[:-1] + (op.m, shape[-1])
    if kind in ("hadamard", "circulant"):
        # Sums of +-1 entries are exact integers in any order.
        np.testing.assert_array_equal(got, want)
    else:
        # Sums of rounded entries may round differently in another order.
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def reference_source(src, rows, cols):
    """A[rows, cols] of a structured source from each kind's definition, in int64.

    Fourier exp(-2 pi i ((i j) mod d) / d), Hadamard (-1)^popcount(i & j),
    circulant eps[(r - c) mod d]; ``rows`` are row positions in [0, M).
    """
    d = src.d
    if src.kind == "partial_circulant":
        return src.eps[np.subtract.outer(rows.astype(np.int64), cols.astype(np.int64)) % d]
    i = src.indices[rows].astype(np.int64)
    if src.kind == "partial_hadamard":
        parity = np.bitwise_count(np.bitwise_and.outer(i, cols.astype(np.int64))) % 2
        return 1.0 - 2.0 * parity
    return np.exp((-2j * np.pi / d) * (np.multiply.outer(i, cols.astype(np.int64)) % d))


def reference_columns(op, support):
    """scale * Phi[:, support] from ``reference_source``, by the bucket products
    ``columns`` runs: one (1 x B) @ (B x n) product per bucket on the float64
    view, so equal entries give equal sums."""
    entries = reference_source(op.source, np.arange(op.source.M), support)
    sums = np.matmul(op.signs[:, None, :], entries.view(np.float64).reshape(op.m, op.B, -1))
    out = sums.view(entries.dtype).reshape((op.m,) + support.shape)
    out *= op.scale
    return np.moveaxis(out, 0, -2)


def edge_source(kind, d, M, seed):
    """A source whose first rows are d - 1, d - 1, 0, 0 (Fourier, Hadamard; as many as fit)."""
    if kind == "circulant":
        return ensembles.sample_partial_circulant(d, M, seed)
    indices = np.random.default_rng(seed).integers(0, d, M)
    indices[:4] = [d - 1, d - 1, 0, 0][:M]
    return RowSource(kind, d, M, indices=indices)


@pytest.mark.parametrize("kind", ["fourier", "hadamard", "circulant"])
@pytest.mark.parametrize("d", [2**4, 2**15, 2**16, 2**17, 2**20])
def test_columns_and_densify_match_an_independent_reference(kind, d):
    # The table gathers index in uint16 up to d = 2^16 and in uint32 above;
    # the reference reduces in int64 and reads no table.  Exact throughout.
    m, B = (4, 4) if d == 2**4 else (8, 4)
    op = SketchOperator(source=edge_source(kind, d, m * B, d + 3),
                        signs=draw_signs(np.random.default_rng(d), (m, B)))
    rng = np.random.default_rng(d + 1)
    support = np.concatenate(([0, d - 1, d - 1], rng.integers(0, d, 9)))
    for s in (support, support.reshape(3, 4)):
        got = columns(op, s)
        assert got.dtype == COLUMN_DTYPES[kind]
        np.testing.assert_array_equal(got, reference_columns(op, s))
    # Densify reads every column of a few rows; 2 at d = 2^20 keep it at 32 MB.
    src = edge_source(kind, d, min(d, 4 if d < 2**20 else 2), d + 5)
    want = reference_source(src, np.arange(src.M), np.arange(d))
    np.testing.assert_array_equal(densify(src), want)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_columns_build_no_plan(kind):
    # Columns come from closed forms in the source's dtype, so reading them
    # (as MC-RIP does, on operators it never applies) transforms no eps and
    # builds no plan.
    op = build_sketch(2**10, 8, 4, kind, seed=107)
    assert columns(op, np.arange(5)).dtype == COLUMN_DTYPES[kind]
    assert op.source._plan_cache is None


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_columns_peak_memory_is_a_few_outputs(kind):
    # The Gaussian source holds its whole M x d matrix, so it gets a smaller
    # d; the blocks ``columns`` builds do not depend on d.  The first call
    # is cold: it builds the shared roots or parity table inside the bound.
    op = build_sketch(2**11 if kind == "gaussian" else 2**14, 400, 16, kind, seed=103)
    support = np.sort(np.random.default_rng(107).choice(op.d, 60, replace=False))
    ensembles._roots_table.cache_clear()
    ensembles._parity_table.cache_clear()
    for _ in ("cold", "warm"):
        tracemalloc.start()
        try:
            out = columns(op, support)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A full (m*B, k) complex source block alone would be 16 outputs.
        assert peak <= 4 * out.nbytes


@pytest.mark.parametrize("kind", ["fourier", "hadamard", "circulant"])
def test_jl_embed_peak_memory_does_not_grow_with_the_batch(kind):
    # A batch runs a block of rows at a time, so 32 points at d = 2^16 (eight
    # blocks) peak at about what 4 points (one block) do: the output grows
    # by 28 x m complex entries, the transform buffers not at all.
    op = build_sketch(2**16, 64, 16, kind, seed=137)
    points = np.random.default_rng(139).standard_normal((32, op.d))
    jl_embed(op, points[:4], seed=149)  # warm the FFT plans and the spectrum cache
    peaks = []
    for n in (4, 32):
        tracemalloc.start()
        try:
            jl_embed(op, points[:n], seed=149)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


def count_fft_rows(monkeypatch, names):
    """A dict that counts the rows each named ``np.fft`` function transforms."""
    counts = dict.fromkeys(names, 0)

    def counting(name):
        fft = getattr(np.fft, name)

        def counted(a, *args, **kwargs):
            counts[name] += int(np.prod(np.shape(a)[:-1]))
            return fft(a, *args, **kwargs)

        return counted

    for name in names:
        monkeypatch.setattr(np.fft, name, counting(name))
    return counts


def test_circulant_transforms_each_row_once_and_eps_once_per_source(monkeypatch):
    # Counts the rows that go through np.fft.rfft and np.fft.irfft.  eps is
    # transformed once per source, into the plan that both directions read
    # (the source's one cached attribute), as d/P window rows;
    # a forward row costs d/P block rfft rows and one irfft, an adjoint row
    # one rfft and d/P irfft rows, however the batch is split into blocks.
    # At d = 2^10, M = 32 takes 8 blocks of P = 4 * 32 at L = P + 32, and
    # M = 320 (4 next_pow2(M) >= d) one block of d, as one rfft and one
    # irfft per row.
    counts = count_fft_rows(monkeypatch, ("rfft", "irfft"))
    monkeypatch.setattr(sketch, "_ROW_BLOCK_ENTRIES", 3 * 2**10)
    points = np.random.default_rng(157).standard_normal((5, 2**10))
    for m, blocks in ((8, 8), (80, 1)):
        op = build_sketch(2**10, m, 4, "circulant", seed=151)
        for name in counts:
            counts[name] = 0
        jl_embed(op, points, seed=163)
        assert counts == {"rfft": (5 + 1) * blocks, "irfft": 5}
        jl_embed(op, points, seed=163)
        assert counts == {"rfft": (2 * 5 + 1) * blocks, "irfft": 2 * 5}
        apply_adjoint(op, np.ones((2, op.m)))
        assert counts == {"rfft": (2 * 5 + 1) * blocks + 2, "irfft": 2 * 5 + 2 * blocks}
        cached = [v for name, v in vars(op.source).items()
                  if name not in ("kind", "d", "M", "indices", "eps", "matrix")]
        assert len(cached) == 1 and cached[0] is ensembles._plan(op.source)
        P, L, spectra = cached[0]
        assert spectra.dtype == np.complex128
        assert P == op.d // blocks and L == (P + op.m * op.B if blocks > 1 else op.d)
        assert spectra.shape == (blocks, L // 2 + 1)


def test_fourier_transforms_each_row_once(monkeypatch):
    # A real point costs one rfft (the rest of its spectrum is mirrored) and
    # no other transform; a complex row costs one fft.  Blocks split the batch.
    counts = count_fft_rows(monkeypatch, ("rfft", "fft", "ifft", "irfft", "ihfft"))
    monkeypatch.setattr(sketch, "_ROW_BLOCK_ENTRIES", 3 * 2**10)
    op = build_sketch(2**10, 8, 4, "fourier", seed=167)
    rng = np.random.default_rng(173)
    jl_embed(op, rng.standard_normal((5, op.d)), seed=179)
    assert counts == {"rfft": 5, "fft": 0, "ifft": 0, "irfft": 0, "ihfft": 0}
    apply(op, random_complex(rng, 7 * op.d).reshape(7, op.d))
    assert counts == {"rfft": 5, "fft": 7, "ifft": 0, "irfft": 0, "ihfft": 0}


def test_columns_of_a_fresh_fourier_operator_reuse_the_roots_table():
    # Fourier operators of one d share one roots-of-unity table, so a fresh
    # operator's first columns call builds no 16d-byte table of its own.
    columns(build_sketch(2**14, 400, 16, "fourier", seed=109), np.arange(5))
    op = build_sketch(2**14, 400, 16, "fourier", seed=113)
    tracemalloc.start()
    try:
        columns(op, np.array([3, 70, 500, 9000, 16000]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600 * 1024


def test_fourier_complex_adjoint_transforms_its_scatter_buffer():
    # The complex Fourier adjoint inverse-transforms its own scatter buffer
    # in place: no d-length copy beyond the output, and exactly
    # d * ifft(w) of the scattered, signed bucket values w.
    op = build_sketch(2**14, 400, 16, "fourier", seed=127)
    z = random_complex(np.random.default_rng(131), op.m)
    apply_adjoint(op, z)  # warm the numpy FFT plan
    tracemalloc.start()
    try:
        got = apply_adjoint(op, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * got.nbytes
    w = np.zeros(op.d, dtype=np.complex128)
    np.add.at(w, op.source.indices, ((op.scale * op.signs) * z[:, None]).reshape(-1))
    assert np.array_equal(got, op.d * np.fft.ifft(w))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_columns_rejects_bad_support(kind):
    op = build_sketch(32, 4, 4, kind, seed=71)
    for support in ([0.0, 1.0], 3, [0, -1], [0, 32]):
        with pytest.raises(ValueError, match="column"):
            columns(op, np.array(support))


def test_densify_cap_enforced():
    op = build_sketch(64, 4, 8, "fourier", seed=73)
    with pytest.raises(ValueError, match="cap"):
        densify_sketch(op, cap=100)


# ---------------------------------------------------------------------------
# unbiasedness over the sign draws (statistical)


def test_sign_average_recovers_source_energy():
    """Averaging the unnormalized ||Phi x||^2 over sign tables gives ||A x||^2."""
    rng = np.random.default_rng(79)
    op = build_sketch(64, 4, 4, "fourier", seed=83)
    x = random_complex(rng, 64)
    x /= np.linalg.norm(x)
    y = densify(op.source) @ x
    target = np.linalg.norm(y) ** 2
    draws = 20_000
    signs = rng.integers(0, 2, size=(draws, 4, 4)) * 2 - 1
    sums = np.einsum("tbi,bi->tb", signs, y.reshape(4, 4))
    vals = np.abs(sums) ** 2
    totals = vals.sum(axis=1)
    se = totals.std(ddof=1) / np.sqrt(draws)
    assert abs(totals.mean() - target) <= 5 * se


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_json_rebuild_is_bit_identical(kind):
    op = build_sketch(64, 4, 8, kind, seed=89)
    doc = sketch_to_json_dict(op)
    back = sketch_from_json_dict(doc)
    np.testing.assert_array_equal(back.signs, op.signs)
    np.testing.assert_array_equal(densify_sketch(back), densify_sketch(op))


def test_seedless_operator_refuses_json():
    op = build_sketch(16, 2, 2, "fourier", seed=1)
    bare = SketchOperator(source=op.source, signs=op.signs)
    with pytest.raises(ValueError, match="seed"):
        sketch_to_json_dict(bare)
