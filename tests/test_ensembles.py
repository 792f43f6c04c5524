"""Row-ensemble sampling, fast application, and densified cross-checks."""

import numpy as np
import pytest

from fastsketch.ensembles import (
    RowSource,
    apply_rows,
    apply_rows_adjoint,
    densify,
    normalize_kind,
    sample_bounded_orthogonal,
    sample_dense_gaussian,
    sample_partial_circulant,
)

ALL_KINDS = ("fourier", "hadamard", "circulant", "gaussian")


def sample_any(kind, d, M, rng):
    kind = normalize_kind(kind)
    if kind == "partial_circulant":
        return sample_partial_circulant(d, M, rng)
    if kind == "dense_gaussian":
        return sample_dense_gaussian(d, M, rng)
    return sample_bounded_orthogonal(d, M, kind, rng)


def random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# sampling


def test_bounded_orthogonal_indices_in_range_and_deterministic():
    a = sample_bounded_orthogonal(2, 2, "fourier", 123)
    b = sample_bounded_orthogonal(2, 2, "fourier", 123)
    assert np.all((a.indices >= 0) & (a.indices < 2))
    np.testing.assert_array_equal(a.indices, b.indices)


def test_bounded_orthogonal_single_row():
    src = sample_bounded_orthogonal(4, 1, "hadamard", 5)
    assert src.indices.shape == (1,)
    assert 0 <= src.indices[0] < 4


def test_index_frequencies_uniform():
    # binomial check: each of d=16 bins gets M*p +- 4 sd hits
    d, M = 16, 100_000
    src = sample_bounded_orthogonal(d, M, "fourier", 2024)
    counts = np.bincount(src.indices, minlength=d)
    p = 1.0 / d
    sd = np.sqrt(M * p * (1 - p))
    assert np.all(np.abs(counts - M * p) <= 4 * sd)


def test_circulant_full_rows_are_shifts():
    # row j of the convolution matrix carries eps[(j - i) mod d]: every
    # row is a one-step cyclic shift of the previous one
    src = sample_partial_circulant(8, 8, 99)
    dense = densify(src)
    cols = np.arange(8)
    for j in range(8):
        np.testing.assert_array_equal(dense[j].real, src.eps[(j - cols) % 8])
        np.testing.assert_array_equal(dense[j], np.roll(dense[0], j))


def test_circulant_prefix_rows():
    src = sample_partial_circulant(8, 3, 99)
    full = sample_partial_circulant(8, 8, 99)
    np.testing.assert_array_equal(densify(src), densify(full)[:3])


def test_circulant_sign_balance():
    d, n_draws = 64, 10_000
    total = 0.0
    for i in range(n_draws):
        total += sample_partial_circulant(d, 1, 7_000_000 + i).eps.sum()
    mean = total / (n_draws * d)
    assert abs(mean) <= 4.0 / np.sqrt(n_draws * d)


def test_circulant_requires_m_at_most_d():
    with pytest.raises(ValueError, match="M <= d"):
        sample_partial_circulant(8, 9, 1)


def test_dimension_must_be_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        sample_bounded_orthogonal(12, 3, "fourier", 1)


def test_eps_entries_validated():
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        RowSource(kind="circulant", d=4, M=2, eps=np.array([1.0, 2.0, 1.0, -1.0]))


@pytest.mark.parametrize(
    "kind, message",
    [
        ("fourier", "indices"),
        ("hadamard", "indices"),
        ("circulant", "eps"),
        ("gaussian", "gaussian payload"),
    ],
)
def test_missing_payload_rejected(kind, message):
    with pytest.raises(ValueError, match=message):
        RowSource(kind=kind, d=8, M=4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gaussian_payload_must_be_finite(bad):
    matrix = np.random.default_rng(3).standard_normal((4, 8))
    matrix[2, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        RowSource(kind="gaussian", d=8, M=4, matrix=matrix)


# ---------------------------------------------------------------------------
# apply / adjoint / densify agreement


def test_apply_zero_is_zero():
    for kind in ALL_KINDS:
        src = sample_any(kind, 8, 3, 11)
        out = apply_rows(src, np.zeros(8))
        np.testing.assert_array_equal(out, np.zeros(3, dtype=np.complex128))


def test_apply_matches_densified():
    rng = np.random.default_rng(17)
    for kind in ALL_KINDS:
        src = sample_any(kind, 8, 3, 23)
        dense = densify(src)
        for _ in range(20):
            x = random_complex(rng, 8)
            np.testing.assert_allclose(apply_rows(src, x), dense @ x, atol=1e-10)


@pytest.mark.parametrize("d", [8, 2**16])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_real_input_matches_complex_path(kind, d):
    # Real input runs rfft, the float64 fwht or a real matmul; the sampled
    # rows include 0, d/2 and d - 1, where the rfft fold changes behaviour.
    src = sample_any(kind, d, 8, 61)
    if src.indices is not None:
        indices = src.indices.copy()
        indices[:3] = [0, d // 2, d - 1]
        src = RowSource(kind=kind, d=d, M=8, indices=indices)
    x = np.random.default_rng(d).standard_normal((2, d))
    expected = apply_rows(src, x + 0j)
    out = apply_rows(src, x)
    assert out.dtype == np.complex128
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


def test_repeated_all_ones_fourier_row():
    # index 0 of the DFT matrix is the all-ones row
    src = RowSource(kind="fourier", d=8, M=3, indices=np.zeros(3, dtype=int))
    x = random_complex(np.random.default_rng(2), 8)
    np.testing.assert_allclose(apply_rows(src, x), np.full(3, x.sum()), atol=1e-12)


def test_adjoint_zero_is_zero():
    for kind in ALL_KINDS:
        src = sample_any(kind, 8, 3, 31)
        np.testing.assert_array_equal(apply_rows_adjoint(src, np.zeros(3)), np.zeros(8))


def test_adjoint_identity():
    rng = np.random.default_rng(19)
    for kind in ALL_KINDS:
        src = sample_any(kind, 16, 6, 37)
        for _ in range(10):
            x = random_complex(rng, 16)
            y = random_complex(rng, 6)
            lhs = np.vdot(y, apply_rows(src, x))
            rhs = np.vdot(apply_rows_adjoint(src, y), x)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_adjoint_matches_densified():
    rng = np.random.default_rng(29)
    for kind in ALL_KINDS:
        src = sample_any(kind, 8, 3, 41)
        dense = densify(src)
        for _ in range(10):
            y = random_complex(rng, 3)
            np.testing.assert_allclose(
                apply_rows_adjoint(src, y), np.conj(dense.T) @ y, atol=1e-10
            )


def test_adjoint_scatter_accumulates_duplicates():
    src = RowSource(kind="fourier", d=4, M=3, indices=np.array([1, 1, 2]))
    y = np.array([1.0, 2.0, 5.0], dtype=np.complex128)
    expected = np.conj(densify(src).T) @ y
    np.testing.assert_allclose(apply_rows_adjoint(src, y), expected, atol=1e-12)
    # A batch scatters each row as the 1-D adjoint does, duplicates included.
    indices = np.array([5, 1, 5, 5, 0, 1])
    batch = random_complex(np.random.default_rng(61), 6 * indices.size).reshape(2, 3, -1)
    for kind in ("fourier", "hadamard"):
        src = RowSource(kind=kind, d=8, M=indices.size, indices=indices)
        got = apply_rows_adjoint(src, batch)
        assert got.shape == (2, 3, 8)
        for pos in np.ndindex(2, 3):
            np.testing.assert_array_equal(got[pos], apply_rows_adjoint(src, batch[pos]))


def test_dense_two_point_fourier_rows():
    src = RowSource(kind="fourier", d=2, M=2, indices=np.array([0, 1]))
    np.testing.assert_allclose(densify(src), [[1, 1], [1, -1]], atol=1e-15)


def test_dense_hadamard_first_row():
    src = RowSource(kind="hadamard", d=4, M=1, indices=np.array([0]))
    np.testing.assert_array_equal(densify(src), [[1, 1, 1, 1]])


def test_structured_rows_have_unit_modulus():
    for kind in ("fourier", "hadamard", "circulant"):
        src = sample_any(kind, 16, 8, 53)
        dense = densify(src)
        np.testing.assert_allclose(np.abs(dense), 1.0, atol=1e-12)


def test_fourier_densify_accurate_at_large_d():
    # Entries of large phase idx * col are where an unreduced exp loses digits.
    d = 2**16
    src = sample_bounded_orthogonal(d, 8, "fourier", 59)
    cols = np.array([1, d // 3, d - 2, d - 1])
    basis = np.zeros((cols.size, d))
    basis[np.arange(cols.size), cols] = 1.0
    np.testing.assert_allclose(densify(src)[:, cols], apply_rows(src, basis).T, rtol=0, atol=1e-13)


def test_densify_cap():
    src = sample_bounded_orthogonal(16, 8, "fourier", 3)
    with pytest.raises(ValueError, match="cap"):
        densify(src, cap=10)


def test_dimension_mismatch_rejected():
    src = sample_bounded_orthogonal(8, 3, "fourier", 3)
    with pytest.raises(ValueError, match="length"):
        apply_rows(src, np.zeros(16))
    with pytest.raises(ValueError, match="length"):
        apply_rows_adjoint(src, np.zeros(8))


# ---------------------------------------------------------------------------
# per-row isometry in expectation


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_single_row_isometry_in_expectation(kind):
    """E |<a, x>|^2 == ||x||^2 for a fixed unit x over fresh single rows."""
    d, n_draws = 16, 10_000
    rng = np.random.default_rng(73)
    x = random_complex(rng, d)
    x /= np.linalg.norm(x)
    vals = np.empty(n_draws)
    for i in range(n_draws):
        src = sample_any(kind, d, 1, 5_000_000 + i)
        vals[i] = np.abs(apply_rows(src, x)[0]) ** 2
    se = vals.std(ddof=1) / np.sqrt(n_draws)
    assert abs(vals.mean() - 1.0) <= max(5 * se, 1e-12)


def test_normalize_kind_aliases():
    assert normalize_kind("fourier") == "partial_fourier"
    assert normalize_kind("partial_hadamard") == "partial_hadamard"
    with pytest.raises(ValueError, match="unknown ensemble kind"):
        normalize_kind("wavelet")
