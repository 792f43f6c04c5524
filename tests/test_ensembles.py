"""Row-ensemble sampling, fast application, and densified cross-checks."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fastsketch import ensembles
from fastsketch.ensembles import (
    RowSource,
    _parity_table,
    _roots_table,
    apply_rows,
    apply_rows_adjoint,
    densify,
    normalize_kind,
    sample_bounded_orthogonal,
    sample_dense_gaussian,
    sample_partial_circulant,
)
from fastsketch.transforms import circular_convolve, dft

ALL_KINDS = ("fourier", "hadamard", "circulant", "gaussian")


def block_rule(src):
    """(P, L): the block and FFT lengths of a circulant source's plan."""
    P, L, _ = ensembles._plan(src)
    return P, L


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


@pytest.mark.parametrize(
    "indices", [[1.7, 2.2], [True, False], np.array(3), [[1], [2]], [1, 8], [-1, 2]],
    ids=["float", "bool", "0-d", "2-D", "too-large", "negative"],
)
def test_row_indices_validated(indices):
    # Row indices follow the rule for column supports: integers in [0, d),
    # never truncated from floats or read as a mask; here also of shape (M,).
    with pytest.raises(ValueError, match="row indices"):
        RowSource(kind="fourier", d=8, M=2, indices=indices)
    src = RowSource(kind="hadamard", d=8, M=2, indices=np.array([7, 0], dtype=np.uint8))
    assert src.indices.dtype == np.intp and src.indices.tolist() == [7, 0]


def test_eps_entries_validated():
    for bad in (2.0, 0.0, -0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            RowSource(kind="circulant", d=4, M=2, eps=np.array([1.0, bad, 1.0, -1.0]))


def test_eps_check_is_the_modulus_rule():
    # eps passes exactly when every |entry| == 1, as np.all(np.abs(eps) == 1.0)
    # decides; every 4-entry vector over these values is tried.
    values = [1.0, -1.0, 0.0, -0.0, 2.0, -0.5, np.nextafter(1.0, 2.0), np.nan, np.inf, -np.inf]
    for combo in np.array(np.meshgrid(*[values] * 4)).reshape(4, -1).T:
        if np.all(np.abs(combo) == 1.0):
            assert RowSource(kind="circulant", d=4, M=2, eps=combo).eps.tolist() == combo.tolist()
        else:
            with pytest.raises(ValueError, match=r"\+1 or -1"):
                RowSource(kind="circulant", d=4, M=2, eps=combo)


def test_eps_check_makes_no_float64_temporary():
    eps = sample_partial_circulant(2**16, 8, 3).eps  # read-only, so kept uncopied
    tracemalloc.start()
    try:
        RowSource(kind="circulant", d=eps.size, M=8, eps=eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One bool mask (d bytes) at a time; np.abs(eps) alone was 8d.
    assert peak < 2 * eps.size


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


@pytest.mark.parametrize("batch", [(), (3,)], ids=["1-D", "batched"])
@pytest.mark.parametrize("d", [2**6, 2**14, 2**16])
def test_circulant_adjoint_reads_the_conjugate_half_spectrum_exactly(d, batch):
    # With one block (M = 3d/8, so 4 next_pow2(M) >= d) the cached
    # conj(rfft(eps)) gives exactly the product formed from the first
    # d/2 + 1 bins of the full DFT of eps; complex input goes by parts.
    src = sample_partial_circulant(d, 3 * d // 8, 67)
    assert block_rule(src) == (d, d)
    half = np.conj(dft(src.eps)[: d // 2 + 1])

    def reference(v):
        return np.fft.irfft(np.multiply(half, np.fft.rfft(v, d)), d)

    y = np.random.default_rng(71).standard_normal(batch + (2, src.M))
    real, imag = y[..., 0, :], y[..., 1, :]
    got = apply_rows_adjoint(src, real)
    assert got.dtype == np.float64 and np.array_equal(got, reference(real))
    got = apply_rows_adjoint(src, real + 1j * imag)
    assert np.array_equal(got.real, reference(real)) and np.array_equal(got.imag, reference(imag))


@pytest.mark.parametrize("d", [2**10, 2**16])
def test_circulant_rows_are_circular_convolve_exactly(d):
    # With one block (M = 3d/8), both multiply x_hat by eps_hat in that order,
    # below and above the size (256 KB of spectrum, d = 2^15) at which numpy
    # would elide a temporary.
    src = sample_partial_circulant(d, 3 * d // 8, 83)
    assert block_rule(src) == (d, d)
    x = np.random.default_rng(89).standard_normal((3, d))
    for v in (x, x[1]):
        got = apply_rows(src, v)
        assert np.array_equal(got.real, circular_convolve(src.eps, v)[..., : src.M])
        assert not np.any(got.imag)


def test_circulant_block_rule():
    # Overlap-save blocks of P = min(d, 4 M') at L = P + M', where
    # M' = max(16, next_pow2(M)), and one block of d where 4 M' >= d.
    def rule(d, M):
        return block_rule(RowSource("circulant", d, M, eps=np.ones(d)))

    assert rule(2**16, 1) == (64, 80) and rule(2**10, 8) == (64, 80) and rule(64, 1) == (64, 64)
    assert rule(2**16, 8193) == (2**16, 2**16) and rule(2**16, 16384) == (2**16, 2**16)
    assert rule(2**16, 8192) == (2**15, 2**15 + 2**13) and rule(2**12, 1025) == (2**12, 2**12)
    # The embed benchmark's circulant sizes.
    assert rule(2**16, 128) == (512, 640)
    assert rule(2**16, 1024) == (4096, 5120) and rule(2**18, 1024) == (4096, 5120)


@pytest.mark.parametrize(
    "M, blocks",
    [(40, 16), (100, 8), (129, 4), (256, 4), (257, 2), (512, 2), (1025, 1)],
    ids=["M40", "M100", "M129-16P=d", "M256-16P=d", "M257-16P=2d", "M512-16P=2d", "M1025"],
)
def test_circulant_blocks_match_densified(M, blocks):
    # d = 2^12, so the dense matrix stays small, on both sides of the one-block
    # bound: forward and adjoint, real and complex, batched, against the dense
    # matrix; the plan holds one window spectrum per block.  (The ids
    # compare 16 next_pow2(M) with d.)
    d = 2**12
    src = sample_partial_circulant(d, M, 107)
    P, L = block_rule(src)
    assert d // P == blocks and L == (P + P // 4 if blocks > 1 else d)
    dense = densify(src)
    rng = np.random.default_rng(M)
    x = rng.standard_normal((2, 3, d))
    y = rng.standard_normal((2, 3, M))
    for v, w in ((x, y), (x + 1j * rng.standard_normal(x.shape), y + 1j * rng.standard_normal(y.shape))):
        np.testing.assert_allclose(apply_rows(src, v), v @ dense.T, rtol=0, atol=1e-10)
        np.testing.assert_allclose(apply_rows_adjoint(src, w), w @ np.conj(dense), rtol=0, atol=1e-10)
    assert apply_rows_adjoint(src, y).dtype == np.float64
    assert ensembles._plan(src)[2].shape == (blocks, L // 2 + 1)


def cyclic_reference(eps, x, M):
    """The first M outputs of the length-d cyclic convolution eps * x, and its adjoint."""
    d = eps.shape[-1]
    kernel = np.fft.fft(eps)
    forward = np.fft.ifft(np.fft.fft(x) * kernel)[..., :M]

    def adjoint(y):
        padded = np.zeros(y.shape[:-1] + (d,), dtype=np.complex128)
        padded[..., :M] = y
        return np.fft.ifft(np.fft.fft(padded) * np.conj(kernel))

    return forward, adjoint


@pytest.mark.parametrize("d, M", [(2**16, 100), (2**16, 4096), (2**17, 6400)])
def test_circulant_blocks_match_one_block_at_scale(d, M):
    # At the rule's own sizes: the blocked convolution against one length-d
    # cyclic convolution of the same eps, within rounding, both directions.
    src = sample_partial_circulant(d, M, 109)
    assert block_rule(src) != (d, d)
    rng = np.random.default_rng(d + M)
    x = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
    y = rng.standard_normal((2, M)) + 1j * rng.standard_normal((2, M))
    want_x, adjoint = cyclic_reference(src.eps, x, M)
    for got, want in ((apply_rows(src, x), want_x), (apply_rows_adjoint(src, y), adjoint(y))):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("d", [2**k for k in range(1, 19)])
def test_overlap_save_matches_the_cyclic_convolution(d):
    # Every block count the rule takes at d, M = 1, 2, 3, d/8, d/4 - 1, d/2
    # and d: both directions, real and complex input, against the length-d
    # cyclic convolution (and the dense matrix where it is small); every
    # row of a batch is bit-identical to its 1-D call.
    rng = np.random.default_rng(d)
    for M in sorted({m for m in (1, 2, 3, d // 8, d // 4 - 1, d // 2, d) if 1 <= m <= d}):
        src = sample_partial_circulant(d, M, 173 + M)
        dense = densify(src) if M * d <= 2**16 else None
        for imag in (0, 1j):
            x = rng.standard_normal((2, d)) + imag * rng.standard_normal((2, d))
            y = rng.standard_normal((2, M)) + imag * rng.standard_normal((2, M))
            want_x, adjoint = cyclic_reference(src.eps, x, M)
            want_y = adjoint(y)
            got_x, got_y = apply_rows(src, x), apply_rows_adjoint(src, y)
            # Normwise: with M = 1 the one output may nearly cancel, so the
            # error is bounded by the input's norm, not the output's size.
            for got, want, v in ((got_x, want_x, x), (got_y, want_y, y)):
                assert np.abs(got - want).max() <= 1e-14 * np.linalg.norm(v, axis=-1).max()
            if dense is not None:
                np.testing.assert_allclose(got_x, x @ dense.T, rtol=0, atol=1e-12 * d)
                np.testing.assert_allclose(got_y, y @ np.conj(dense), rtol=0, atol=1e-12 * d)
            assert (got_y.dtype == np.float64) == (imag == 0)
            for k in range(2):
                assert np.array_equal(got_x[k], apply_rows(src, x[k]))
                assert np.array_equal(got_y[k], apply_rows_adjoint(src, y[k]))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_one_plan_per_source_built_on_first_apply(kind):
    # The plan is a circulant source's one cache: densify and the dtype
    # build none, the first product builds it, and both directions share it
    # after that (an adjoint that comes first builds it as well).  The
    # other kinds cache nothing at this d: a Fourier source builds a plan
    # only from d = 2^17 on, for real input (its twiddles, 16 M Q + 9 M
    # bytes, see ``test_two_level_plan_is_the_roots_table_gathered``).
    src = sample_any(kind, 2**8, 16, 113)
    densify(src)
    assert src.dtype == (np.complex128 if kind == "fourier" else np.float64)
    assert src._plan_cache is None
    apply_rows(src, np.ones((2, src.d)))
    plan = src._plan_cache
    assert (plan is not None) == (kind == "circulant")
    apply_rows(src, np.ones(src.d) + 1j)
    apply_rows_adjoint(src, np.ones(src.M))
    apply_rows_adjoint(src, np.ones((2, src.M)) + 1j)
    assert src._plan_cache is plan
    if kind == "circulant":
        assert ensembles._plan(src) is plan
        fresh = RowSource("circulant", src.d, src.M, eps=src.eps)
        apply_rows_adjoint(fresh, np.ones(src.M))
        assert fresh._plan_cache is not None
    extra = set(vars(src)) - {"kind", "d", "M", "indices", "eps", "matrix"}
    assert extra == ({"_plan_cache"} if kind == "circulant" else set())


def test_threads_racing_to_build_one_plan_get_the_serial_results():
    # Eight first uses of one fresh source on four threads at once, with a
    # short switch interval: a thread may build the plan while another is
    # building it, and the race recomputes the same value, so every result
    # equals the serial one and the source keeps one plan afterwards.
    rng = np.random.default_rng(151)
    x = rng.standard_normal((2, 2**10))
    y = rng.standard_normal((2, 64))
    src = sample_partial_circulant(2**10, 64, 157)
    want = (apply_rows(src, x), apply_rows_adjoint(src, y))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            fresh = sample_partial_circulant(2**10, 64, 157)
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(lambda: (apply_rows(fresh, x), apply_rows_adjoint(fresh, y)))
                    for _ in range(8)
                ]
                results = [future.result(timeout=60) for future in futures]
            for got in results:
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
            plan = fresh._plan_cache
            assert plan is not None and ensembles._plan(fresh) is plan
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "d, M, blocks",
    [(2**16, 100, 128), (2**16, 4096, 4), (2**17, 6400, 4), (2**14, 3000, 1), (2**16, 4097, 2)],
)
def test_circulant_plan_spectra_are_the_conjugate_block_spectra_exactly(d, M, blocks):
    # K_b is the rfft, at L = P + next_pow2(M), of eps at the lags [0, M') and
    # [-P, 0) around -bP, the latter stored at L + lag; with one block,
    # rfft(eps) itself.
    src = sample_partial_circulant(d, M, 131)
    P, L, spectra = ensembles._plan(src)
    if blocks == 1:
        assert (P, L) == (d, d)
        want = np.fft.rfft(src.eps)[None, :]
    else:
        tail = max(16, 1 << (M - 1).bit_length())
        assert (P, L) == (d // blocks, d // blocks + tail)
        lags = np.concatenate((np.arange(tail), np.arange(-P, 0)))
        starts = -P * np.arange(blocks)
        want = np.fft.rfft(src.eps[(starts[:, None] + lags) % d], L)
    assert np.array_equal(spectra, np.conj(want))
    assert not spectra.flags.writeable


def test_fourier_products_build_no_roots_table():
    # Only the closed-form columns read the roots table; a product at a d
    # whose table was never built does not build it, nor does the two-level
    # forward's plan at 2^18.
    before = _roots_table.cache_info()
    src = sample_bounded_orthogonal(2**13, 64, "fourier", 137)
    rng = np.random.default_rng(139)
    apply_rows(src, rng.standard_normal((2, src.d)))
    apply_rows(src, rng.standard_normal(src.d) + 1j * rng.standard_normal(src.d))
    apply_rows_adjoint(src, rng.standard_normal(src.M))
    apply_rows_adjoint(src, rng.standard_normal(src.M) + 1j)
    large = sample_bounded_orthogonal(2**18, 64, "fourier", 141)
    apply_rows(large, rng.standard_normal(large.d))
    assert large._plan_cache is not None
    assert _roots_table.cache_info() == before


def two_level_source(d, M, seed):
    """A Fourier source whose rows include 0, P/2 and its neighbours, d/2, d - 1 and duplicates."""
    P = ensembles._FOURIER_BLOCK
    indices = np.random.default_rng(seed).integers(0, d, M)
    indices[:10] = [0, P // 2 - 1, P // 2, P // 2 + 1, d // 2, d - 1, P // 2, 0, d - 1, P - 1]
    return RowSource("fourier", d, M, indices=indices)


@pytest.mark.parametrize("d", [2**17, 2**18, 2**19, 2**20])
def test_two_level_dft_matches_the_full_transform(d):
    # Real input from d = 2^17 on runs the two-level DFT: within 2e-15 of the
    # gathered full transform, and each batched row is bit-identical to its
    # 1-D call.  Complex input still gathers from dft exactly.
    src = two_level_source(d, 300, d + 1)
    rng = np.random.default_rng(d)
    x = rng.standard_normal((2, d))
    want = np.take(dft(x), src.indices, axis=-1)
    got = apply_rows(src, x)
    assert got.dtype == np.complex128 and got.shape == (2, src.M)
    assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()
    for k in range(2):
        assert np.array_equal(got[k], apply_rows(src, x[k]))
    z = x[0] + 1j * x[1]
    assert np.array_equal(apply_rows(src, z), np.take(dft(z), src.indices))


def test_below_the_two_level_rule_fourier_gathers_from_dft_exactly():
    src = two_level_source(2**16, 40, 5)
    x = np.random.default_rng(7).standard_normal((3, src.d))
    assert np.array_equal(apply_rows(src, x), np.take(dft(x), src.indices, axis=-1))
    assert src._plan_cache is None


def test_two_level_plan_is_the_roots_table_gathered():
    # The plan's (M, Q) twiddles are w_d^(iq) as the roots table holds them,
    # bit for bit, and the fold reads bin min(r, P - r) of the half spectrum,
    # conjugated above P/2; 16 M Q + 9 M bytes in all.
    d, P = 2**17, ensembles._FOURIER_BLOCK
    src = two_level_source(d, 50, 11)
    apply_rows(src, np.ones(d))
    fold, conj_mask, twiddles = src._plan_cache
    Q = d // P
    phase = np.multiply.outer(src.indices, np.arange(Q)) % d
    assert np.array_equal(twiddles, _roots_table(d)[phase])
    rest = src.indices % P
    assert np.array_equal(fold, np.where(rest > P // 2, P - rest, rest))
    assert np.array_equal(conj_mask, rest > P // 2)
    assert sum(a.nbytes for a in (fold, conj_mask, twiddles)) == 16 * src.M * Q + 9 * src.M
    assert not any(a.flags.writeable for a in (fold, conj_mask, twiddles))


def test_gaussian_rows_run_the_same_products_over_partial_chunks(monkeypatch):
    # Chunks of 3 matrix rows over M = 32 (ten whole, one of 2): every row of
    # a batch equals the row alone and the product with the whole matrix.
    monkeypatch.setattr(ensembles, "_GAUSSIAN_CHUNK_ENTRIES", 3 * 64)
    src = sample_dense_gaussian(64, 32, 97)
    x = np.random.default_rng(101).standard_normal((2, 5, 64))
    got = apply_rows(src, x)
    assert got.shape == (2, 5, 32)
    np.testing.assert_allclose(got.real, x @ src.matrix.T, rtol=1e-12, atol=1e-12)
    for pos in np.ndindex(2, 5):
        np.testing.assert_array_equal(got[pos], apply_rows(src, x[pos]))
    z = x[0] + 1j * x[1]
    got = apply_rows(src, z)
    np.testing.assert_array_equal(got.real, apply_rows(src, x[0]).real)
    np.testing.assert_array_equal(got.imag, apply_rows(src, x[1]).real)


def test_hadamard_sources_of_one_d_share_a_read_only_parity_table():
    # Fresh Hadamard sources of one d read one int8 table, d bytes, built
    # once by the first block that needs it: (-1)^popcount(p) at p = i & j.
    d = 2**11
    _parity_table.cache_clear()
    for seed in (83, 89):
        densify(sample_bounded_orthogonal(d, 8, "hadamard", seed))
    assert _parity_table.cache_info().misses == 1
    table = _parity_table(d)
    assert table.dtype == np.int8 and table.nbytes == d and not table.flags.writeable
    p = np.arange(d)
    assert np.array_equal(table, 1 - 2 * (np.bitwise_count(p).astype(int) % 2))


def test_hadamard_products_build_no_parity_table():
    # Only the closed-form columns read the parity table.
    before = _parity_table.cache_info()
    src = sample_bounded_orthogonal(2**13, 64, "hadamard", 143)
    rng = np.random.default_rng(149)
    apply_rows(src, rng.standard_normal((2, src.d)))
    apply_rows(src, rng.standard_normal(src.d) + 1j * rng.standard_normal(src.d))
    apply_rows_adjoint(src, rng.standard_normal(src.M))
    apply_rows_adjoint(src, rng.standard_normal(src.M) + 1j)
    assert _parity_table.cache_info() == before


def test_fourier_sources_of_one_d_share_a_read_only_roots_table():
    a = sample_bounded_orthogonal(2**10, 8, "fourier", 73)
    b = sample_bounded_orthogonal(2**10, 8, "fourier", 79)
    table = _roots_table(a.d)
    assert _roots_table(b.d) is table
    assert not table.flags.writeable
    np.testing.assert_allclose(table, np.exp(-2j * np.pi * np.arange(2**10) / 2**10), atol=1e-15)
    assert _roots_table(sample_bounded_orthogonal(2**9, 8, "fourier", 73).d).shape == (2**9,)


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
