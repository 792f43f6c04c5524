"""The hashed sign-combination operator against dense oracles and identities."""

import tracemalloc

import numpy as np
import pytest

from fastsketch import sketch
from fastsketch.ensembles import RowSource, densify
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
def test_apply_real_input_is_complex_and_matches_dense(kind):
    op = build_sketch(64, 4, 8, kind, seed=31)
    x = np.random.default_rng(7).standard_normal((3, 64))
    out = apply(op, x)
    assert out.dtype == np.complex128
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


def test_batched_apply_matches_loop():
    op = build_sketch(64, 4, 8, "circulant", seed=53)
    rng = np.random.default_rng(15)
    xs = rng.standard_normal((5, 64))
    batched = apply(op, xs)
    for i in range(5):
        np.testing.assert_array_equal(batched[i], apply(op, xs[i]))


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


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_columns_peak_memory_is_a_few_outputs(kind):
    # The Gaussian source holds its whole M x d matrix, so it gets a smaller
    # d; the blocks ``columns`` builds do not depend on d.
    op = build_sketch(2**11 if kind == "gaussian" else 2**14, 400, 16, kind, seed=103)
    support = np.sort(np.random.default_rng(107).choice(op.d, 60, replace=False))
    tracemalloc.start()
    try:
        out = columns(op, support)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A full (m*B, k) complex source block alone would be 16 outputs.
    assert peak <= 4 * out.nbytes


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
