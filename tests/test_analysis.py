"""Isometry-constant measurement, norm utilities, and parameter planning."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

import fastsketch.analysis as analysis
from fastsketch.analysis import (
    _CHUNK,
    _draw_supports,
    _gram_deviation,
    _support_chunks,
    complexify_matrix,
    complexify_vector,
    exact_rip_constant,
    mc_rip_lower_bound,
    operator_norms,
    recommend_parameters,
)
from fastsketch.rng import as_generator
from fastsketch.sketch import build_sketch, columns, densify_sketch


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def brute_force_rip(mat, k):
    """Independent oracle: scipy SVD per support, no Gram shortcut."""
    from itertools import combinations

    worst = 0.0
    for supp in combinations(range(mat.shape[1]), k):
        sv = scipy.linalg.svdvals(mat[:, list(supp)])
        worst = max(worst, sv[0] ** 2 - 1.0, 1.0 - sv[-1] ** 2)
    return worst


# ---------------------------------------------------------------------------
# exact isometry constant


class TestExactRip:
    def test_identity_is_perfect(self):
        rep = exact_rip_constant(np.eye(6), 3)
        assert rep.epsilon == 0.0
        assert rep.method == "exact"
        assert rep.supports_evaluated == math.comb(6, 3)

    def test_zero_column_gives_one(self):
        rep = exact_rip_constant(np.array([[1.0, 0.0], [0.0, 0.0]]), 1)
        assert rep.epsilon == pytest.approx(1.0, abs=1e-12)

    def test_matches_independent_svd_oracle(self):
        op = build_sketch(16, 8, 2, "fourier", seed=101)
        mat = densify_sketch(op)
        rep = exact_rip_constant(mat, 2)
        assert abs(rep.epsilon - brute_force_rip(mat, 2)) <= 1e-8

    def test_cap_redirects_to_monte_carlo(self):
        with pytest.raises(ValueError, match="mc_rip_lower_bound"):
            exact_rip_constant(np.eye(32), 4, cap=10)

    def test_sparsity_range_checked(self):
        with pytest.raises(ValueError, match="sparsity"):
            exact_rip_constant(np.eye(4), 5)
        with pytest.raises(ValueError, match="integer"):
            exact_rip_constant(np.eye(6), 3.0)


class TestMonteCarloRip:
    def test_lower_bounds_exact_over_many_seeds(self):
        op = build_sketch(16, 8, 2, "fourier", seed=103)
        exact = exact_rip_constant(densify_sketch(op), 2).epsilon
        for seed in range(50):
            bound = mc_rip_lower_bound(op, 2, trials=30, rng=seed).epsilon
            assert bound <= exact + 1e-12

    def test_exhaustive_sampling_reaches_exact(self):
        op = build_sketch(8, 4, 2, "fourier", seed=107)
        exact = exact_rip_constant(densify_sketch(op), 2).epsilon
        # C(8, 2) = 28; enough uniform draws hit every support
        bound = mc_rip_lower_bound(op, 2, trials=2000, rng=5).epsilon
        assert bound == pytest.approx(exact, abs=1e-10)

    def test_identity_equivalent_operator_scores_zero(self):
        # m = d, B = 1 hadamard with full sampling: rows are orthogonal,
        # so after the 1/sqrt(m) scale every column has unit norm
        from fastsketch.ensembles import RowSource
        from fastsketch.sketch import SketchOperator

        d = 8
        src = RowSource(kind="hadamard", d=d, M=d, indices=np.arange(d))
        op = SketchOperator(source=src, signs=np.ones((d, 1)))
        bound = mc_rip_lower_bound(op, 1, trials=20, rng=3).epsilon
        assert bound <= 1e-10

    @pytest.mark.parametrize("kind", ["fourier", "hadamard", "circulant", "gaussian"])
    @pytest.mark.parametrize("d, m, B, k", [(128, 64, 2, 3), (1024, 256, 2, 5)])
    def test_batches_match_per_trial_reference(self, kind, d, m, B, k):
        from fastsketch.analysis import _CHUNK
        from fastsketch.sketch import apply

        op = build_sketch(d, m, B, kind, seed=131)
        trials = 2 * (_CHUNK // m) + 3  # more than two batches
        gen = np.random.default_rng(17)
        got = mc_rip_lower_bound(op, k, trials=trials, rng=gen).epsilon
        ref_gen = np.random.default_rng(17)
        want = 0.0
        for support in floyd_reference(ref_gen, d, k, trials, _CHUNK // m):
            basis = np.zeros((k, d))
            basis[np.arange(k), support] = 1.0
            sv = np.linalg.svd(apply(op, basis).T, compute_uv=False)
            want = max(want, sv[0] ** 2 - 1.0, 1.0 - sv[-1] ** 2)
        assert got == pytest.approx(want, abs=1e-12)
        # Each batch of supports takes k integer draws, one per Floyd step.
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    def test_reports_seed_and_trials(self):
        op = build_sketch(16, 4, 2, "fourier", seed=109)
        rep = mc_rip_lower_bound(op, 2, trials=7, rng=11)
        assert rep.seed == 11 and rep.supports_evaluated == 7
        assert rep.method == "monte_carlo"

    @pytest.mark.parametrize("k, trials", [(2.0, 5), (2, 2.5), ("2", 5), (2, None)])
    def test_non_integer_arguments_rejected(self, k, trials):
        op = build_sketch(16, 4, 2, "fourier", seed=109)
        with pytest.raises(ValueError, match="integer"):
            mc_rip_lower_bound(op, k, trials=trials, rng=11)

    def test_numpy_integer_arguments_accepted(self):
        op = build_sketch(16, 4, 2, "fourier", seed=109)
        rep = mc_rip_lower_bound(op, np.int64(2), trials=np.int32(7), rng=11)
        assert rep.epsilon == mc_rip_lower_bound(op, 2, trials=7, rng=11).epsilon

    @pytest.mark.parametrize("k", [1, 16])
    def test_extreme_sparsities(self, k):
        op = build_sketch(16, 16, 2, "gaussian", seed=113)
        exact = exact_rip_constant(densify_sketch(op), k).epsilon
        rep = mc_rip_lower_bound(op, k, trials=100, rng=7)
        assert rep.epsilon <= exact + 1e-12
        if k == 16:  # the only 16-subset of range(16): the bound is exact
            assert rep.epsilon == pytest.approx(exact, abs=1e-12)

    def test_rerun_is_bit_identical(self):
        op = build_sketch(256, 16, 4, "circulant", seed=117)
        a = mc_rip_lower_bound(op, 4, trials=600, rng=23)
        b = mc_rip_lower_bound(op, 4, trials=600, rng=23)
        assert a.epsilon == b.epsilon


# ---------------------------------------------------------------------------
# bound and skip: the maximum is the one a full eigensolve gives, bit for bit


KINDS = ("fourier", "hadamard", "circulant", "gaussian")
#: (d, k, m) of the two ``rip`` benchmark sizes, all with B = 4.
RIP_SIZES = ((256, 4, 16), (1024, 8, 32))


def full_eigvalsh_deviation(submatrices):
    """Reference: every Gram of the batch through one ``eigvalsh`` call.

    The Gram is formed as ``_gram_deviation`` forms it: a real S^T S may
    round differently when S^T is a copy rather than a view of S.
    """
    gram = submatrices.conj().swapaxes(-1, -2) @ submatrices
    eig = np.linalg.eigvalsh(gram)
    return max(float(eig[:, -1].max()) - 1.0, 1.0 - float(eig[:, 0].min()))


def mc_reference(op, k, trials, seed):
    gen = as_generator(seed)
    batch = max(1, _CHUNK // op.m)
    epsilon = 0.0
    for b0 in range(0, trials, batch):
        supports = _draw_supports(gen, op.d, k, min(batch, trials - b0))
        epsilon = max(epsilon, full_eigvalsh_deviation(columns(op, supports)))
    return epsilon


def exact_reference(mat, k):
    # the dtype exact_rip_constant solves in: float64 for real input
    mat = np.asarray(mat)
    mat = mat.astype(np.complex128 if np.iscomplexobj(mat) else np.float64)
    epsilon = 0.0
    for supports in _support_chunks(mat.shape[1], k):
        epsilon = max(epsilon, full_eigvalsh_deviation(np.moveaxis(mat[:, supports], 0, 1)))
    return epsilon


class TestBoundAndSkip:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("d, k, m", RIP_SIZES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_mc_matches_full_eigensolve(self, kind, d, k, m, seed):
        op = build_sketch(d, m, 4, kind, seed=seed)
        rep = mc_rip_lower_bound(op, k, trials=200, rng=seed + 100)
        assert rep.epsilon == mc_reference(op, k, 200, seed + 100)
        assert 1 <= rep.eigensolved < rep.supports_evaluated

    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("d, k, m", RIP_SIZES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_matches_full_eigensolve(self, kind, d, k, m, seed):
        # the first 20 (k = 4) or 14 (k = 8) columns: 4845 or 3003 supports
        mat = densify_sketch(build_sketch(d, m, 4, kind, seed=seed))[:, : {4: 20, 8: 14}[k]]
        rep = exact_rip_constant(mat, k)
        assert rep.epsilon == exact_reference(mat, k)
        assert 1 <= rep.eigensolved < rep.supports_evaluated

    def test_orthonormal_columns(self):
        q, _ = np.linalg.qr(random_complex(np.random.default_rng(41), 8, 6))
        rep = exact_rip_constant(q, 3)
        assert rep.epsilon == exact_reference(q, 3)
        assert rep.epsilon < 1e-14

    def test_single_column_supports(self):
        mat = random_complex(np.random.default_rng(43), 6, 40) / np.sqrt(12)
        assert exact_rip_constant(mat, 1).epsilon == exact_reference(mat, 1)
        op = build_sketch(256, 16, 4, "hadamard", seed=45)
        assert mc_rip_lower_bound(op, 1, 300, rng=47).epsilon == mc_reference(op, 1, 300, 47)

    def test_duplicate_supports_in_one_batch(self):
        op = build_sketch(256, 16, 4, "circulant", seed=49)
        sub = columns(op, _draw_supports(np.random.default_rng(51), 256, 4, 5))
        tied = np.concatenate([sub, sub[::-1], sub])
        assert _gram_deviation(tied)[0] == full_eigvalsh_deviation(tied)
        # C(8, 2) = 28 supports, so 300 draws repeat each about ten times
        small = build_sketch(8, 4, 2, "fourier", seed=53)
        assert mc_rip_lower_bound(small, 2, 300, rng=55).epsilon == mc_reference(small, 2, 300, 55)

    def test_near_tie_keeps_the_larger(self):
        rng = np.random.default_rng(57)
        u, _ = np.linalg.qr(random_complex(rng, 5, 3))
        v, _ = np.linalg.qr(random_complex(rng, 3, 3))
        subs = np.stack([u @ np.diag(np.sqrt([s, 1.2, 0.9])) @ v for s in (1.7, 1.7 + 2e-15)])
        one = [full_eigvalsh_deviation(subs[i : i + 1]) for i in (0, 1)]
        assert 0.0 < abs(one[0] - one[1]) < 1e-14
        for batch in (subs, subs[::-1]):
            assert _gram_deviation(batch)[0] == max(one)

    def test_rounding_margin_covers_a_cluster_of_ties(self):
        # G = I + mu v v^H: every deviation is mu = 0.5 up to rounding, and
        # the bound (exact for a rank-one deviation) rounds below the
        # computed deviation on about half of them, by up to ~20 units in
        # the last place.
        rng = np.random.default_rng(65)
        k, n = 3, 2000
        u, _ = np.linalg.qr(random_complex(rng, 5, k))
        v = random_complex(rng, n, k)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        root = np.eye(k) + (np.sqrt(1.5) - 1.0) * v[:, :, None] * np.conj(v[:, None, :])
        subs = u @ root
        epsilon, solved = _gram_deviation(subs)
        assert epsilon == full_eigvalsh_deviation(subs)
        assert solved == n

    @pytest.mark.parametrize("kind", KINDS)
    def test_few_supports_eigensolved(self, monkeypatch, kind):
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            solved.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        rep = mc_rip_lower_bound(build_sketch(256, 16, 4, kind, seed=59), 4, 200, rng=61)
        assert sum(solved) == rep.eigensolved
        assert rep.eigensolved < 20  # under 10 % of the 200 supports

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        mat = np.eye(4)
        mat[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            exact_rip_constant(mat, 2)

    def test_nan_bound_is_never_skipped(self, monkeypatch):
        sub = random_complex(np.random.default_rng(63), 6, 8, 3)
        sub[4, 2, 1] = np.nan
        solved_nan = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            solved_nan.append(bool(np.isnan(a).any()))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        try:
            epsilon, _ = _gram_deviation(sub)
        except np.linalg.LinAlgError:  # LAPACK may refuse the NaN Gram
            pass
        else:
            assert np.isnan(epsilon)
        assert any(solved_nan)


REAL_KINDS = ("hadamard", "circulant", "gaussian")


class TestRealArithmetic:
    """Real operators are measured in float64; complex128 agrees to rounding."""

    @pytest.mark.parametrize("d, k, m", RIP_SIZES)
    @pytest.mark.parametrize("kind", REAL_KINDS)
    def test_mc_matches_complex_columns(self, monkeypatch, kind, d, k, m):
        op = build_sketch(d, m, 4, kind, seed=111)
        real = mc_rip_lower_bound(op, k, 200, rng=113)
        monkeypatch.setattr(analysis, "columns", lambda o, s: columns(o, s).astype(np.complex128))
        cplx = mc_rip_lower_bound(op, k, 200, rng=113)
        assert real.epsilon == pytest.approx(cplx.epsilon, rel=1e-14, abs=0)
        assert real.eigensolved == cplx.eigensolved

    @pytest.mark.parametrize("kind", REAL_KINDS)
    def test_exact_solves_real_input_in_float64(self, monkeypatch, kind):
        mat = densify_sketch(build_sketch(256, 16, 4, kind, seed=117))[:, :20]
        grams = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            grams.append(a.dtype)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        real = exact_rip_constant(mat, 4)
        assert grams and set(grams) == {np.dtype(np.float64)}
        cplx = exact_rip_constant(mat.astype(np.complex128), 4)
        assert np.dtype(np.complex128) in grams
        assert real.epsilon == pytest.approx(cplx.epsilon, rel=1e-14, abs=0)
        assert real.eigensolved == cplx.eigensolved

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize(
        "mat", [np.eye(4) * 1e200, np.full((3, 4), 1e160)], ids=["eye", "full"]
    )
    def test_overflowing_gram_raises(self, mat, dtype):
        # filterwarnings = error: an overflow warning would fail this test.
        with pytest.raises(ValueError, match="overflow"):
            exact_rip_constant(mat.astype(dtype), 2)
        with pytest.raises(ValueError, match="overflow"):
            _gram_deviation(mat.astype(dtype)[None, :, :2])

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_finite_gram_with_overflowing_bound_is_solved(self, dtype):
        # G = 1e200 I is finite, but (G - I)^2 overflows; eigvalsh needs no square.
        rep = exact_rip_constant((np.eye(4) * 1e100).astype(dtype), 2)
        assert rep.epsilon == pytest.approx(1e200, rel=1e-14)


def floyd_reference(gen, d, k, trials, batch):
    """Per-trial Floyd's algorithm on the batched stream: one
    ``gen.integers(0, j + 1, size=n)`` per step j for each batch of n trials,
    then a set per trial."""
    supports = []
    for b0 in range(0, trials, batch):
        n = min(batch, trials - b0)
        draws = [(j, gen.integers(0, j + 1, size=n)) for j in range(d - k, d)]
        for i in range(n):
            chosen = set()
            for j, t in draws:
                chosen.add(j if int(t[i]) in chosen else int(t[i]))
            supports.append(sorted(chosen))
    return supports


class TestDrawSupports:
    @pytest.mark.parametrize("d, k", [(6, 3), (7, 1), (6, 5), (9, 4)])
    def test_every_subset_equally_likely(self, d, k):
        n = 200_000
        rows = _draw_supports(np.random.default_rng(2024), d, k, n)
        index = {s: i for i, s in enumerate(itertools.combinations(range(d), k))}
        counts = np.bincount([index[tuple(r)] for r in rows.tolist()], minlength=len(index))
        expected = n / len(index)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < scipy.stats.chi2.ppf(0.999, len(index) - 1), chi2

    @pytest.mark.parametrize("d, k, n", [(10, 1, 50), (10, 10, 50), (64, 64, 3), (1024, 8, 300)])
    def test_rows_sorted_distinct_in_range(self, d, k, n):
        rows = _draw_supports(np.random.default_rng(29), d, k, n)
        assert rows.shape == (n, k) and rows.dtype == np.intp
        assert rows.min() >= 0 and rows.max() < d
        assert np.all(np.diff(rows, axis=1) > 0)
        if k == d:
            np.testing.assert_array_equal(rows, np.broadcast_to(np.arange(d), (n, d)))

    def test_matches_per_trial_reference(self):
        d, k, n = 40, 6, 500
        rows = _draw_supports(np.random.default_rng(31), d, k, n)
        want = floyd_reference(np.random.default_rng(31), d, k, n, n)
        np.testing.assert_array_equal(rows, want)


def test_epsilon_shrinks_as_rows_grow():
    """Median isometry constant is non-increasing in m (small-scale check)."""
    medians = []
    for m in (4, 8, 16):
        values = [
            exact_rip_constant(densify_sketch(build_sketch(16, m, 2, "fourier", seed=s)), 2).epsilon
            for s in range(5)
        ]
        medians.append(np.median(values))
    inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a)
    assert inversions <= 1, medians


# ---------------------------------------------------------------------------
# operator norms


class TestOperatorNorms:
    def test_identity(self):
        norms = operator_norms(np.eye(5))
        assert norms == pytest.approx((1.0, 1.0, 1.0), abs=1e-9)

    def test_all_ones_matrix(self):
        n = 6
        norms = operator_norms(np.ones((n, n)))
        assert norms.one_to_one == pytest.approx(n)
        assert norms.inf_to_inf == pytest.approx(n)
        assert norms.two_to_two == pytest.approx(n, rel=1e-8)
        # rank-one case meets the bound with equality
        assert norms.two_to_two**2 <= norms.one_to_one * norms.inf_to_inf + 1e-9

    def test_zero_matrix(self):
        assert operator_norms(np.zeros((3, 4))) == (0.0, 0.0, 0.0)

    def test_norm_inequality_random_sweep(self):
        """||A||_{2->2}^2 <= ||A||_{1->1} ||A||_{inf->inf} on 200 random matrices."""
        rng = np.random.default_rng(139)
        for _ in range(200):
            a = random_complex(rng, 8, 12)
            one, inf, two = operator_norms(a)
            reference = scipy.linalg.svdvals(a)[0]
            assert abs(two - reference) <= 1e-6 * reference
            assert two**2 <= one * inf + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(149)
        a = random_complex(rng, 10, 10)
        assert operator_norms(a) == operator_norms(a)

    @pytest.mark.parametrize("n", [8, 64, 200])
    def test_spectral_norm_is_exact(self, n):
        rng = np.random.default_rng(151)
        a = random_complex(rng, n, n)
        reference = scipy.linalg.svdvals(a)[0]
        assert operator_norms(a).two_to_two == pytest.approx(reference, rel=1e-12)


# ---------------------------------------------------------------------------
# complex-to-real embeddings


class TestComplexification:
    def test_unit_imaginary_vector(self):
        np.testing.assert_array_equal(complexify_vector(np.array([1j])), [0.0, 1.0])

    def test_real_vector(self):
        np.testing.assert_array_equal(complexify_vector(np.array([3.0])), [3.0, 0.0])

    def test_unit_imaginary_matrix_block(self):
        np.testing.assert_array_equal(
            complexify_matrix(np.array([[1j]])), [[0.0, -1.0], [1.0, 0.0]]
        )

    def test_real_matrix_block_pattern(self):
        out = complexify_matrix(np.array([[2.0]]))
        np.testing.assert_array_equal(out, [[2.0, 0.0], [0.0, 2.0]])

    def test_norm_preserved(self):
        rng = np.random.default_rng(151)
        for _ in range(100):
            x = random_complex(rng, 9)
            assert np.linalg.norm(complexify_vector(x)) == pytest.approx(
                np.linalg.norm(x), rel=1e-15
            )

    def test_matrix_action_commutes(self):
        rng = np.random.default_rng(157)
        for _ in range(100):
            a = random_complex(rng, 4, 8)
            x = random_complex(rng, 8)
            lhs = complexify_vector(a @ x)
            rhs = complexify_matrix(a) @ complexify_vector(x)
            assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(lhs).max())

    def test_norm_identity_through_embedding(self):
        rng = np.random.default_rng(163)
        a = random_complex(rng, 5, 7)
        x = random_complex(rng, 7)
        lhs = np.linalg.norm(complexify_matrix(a) @ complexify_vector(x))
        assert lhs == pytest.approx(np.linalg.norm(a @ x), rel=1e-12)


# ---------------------------------------------------------------------------
# parameter planning


class TestRecommendParameters:
    def test_fourier_formula_reproduced(self):
        # independent re-evaluation of the stated bounds with unit constants
        d, k, eps = 1024, 16, 0.5
        plan = recommend_parameters(d, k, eps, "fourier")
        b_expected = math.ceil(math.log(d) ** 6.5)
        m_expected = math.ceil(k * math.log(d) * math.log(b_expected * k) ** 2 / eps**2)
        assert plan.B == b_expected
        assert plan.m == m_expected
        assert plan.d_effective == d

    def test_hadamard_same_recipe_as_fourier(self):
        a = recommend_parameters(1024, 16, 0.5, "fourier")
        b = recommend_parameters(1024, 16, 0.5, "hadamard")
        assert (a.m, a.B) == (b.m, b.B)

    def test_full_sparsity_boundary_caps_rows(self):
        d = 2**16
        plan = recommend_parameters(d, d, 0.5, "fourier")
        assert plan.m == d
        assert plan.warnings  # boundary is flagged, not fatal

    def test_circulant_fits_effective_dimension(self):
        plan = recommend_parameters(1024, 16, 0.5, "circulant")
        assert plan.m * plan.B <= plan.d_effective
        assert plan.d_effective >= 1024
        assert (plan.d_effective & (plan.d_effective - 1)) == 0

    def test_circulant_regime_floor_warning(self):
        plan = recommend_parameters(1024, 2, 0.5, "circulant")
        assert any("regime floor" in w for w in plan.warnings)

    def test_epsilon_validated(self):
        with pytest.raises(ValueError, match="epsilon"):
            recommend_parameters(64, 4, 0.0, "fourier")
        with pytest.raises(ValueError, match="epsilon"):
            recommend_parameters(64, 4, 1.5, "fourier")

    def test_gaussian_has_no_recipe(self):
        with pytest.raises(ValueError, match="baseline"):
            recommend_parameters(64, 4, 0.5, "gaussian")

    def test_non_power_of_two_dimension_padded(self):
        plan = recommend_parameters(1000, 8, 0.5, "fourier")
        assert plan.d_effective == 1024
        assert any("padded" in w for w in plan.warnings)
