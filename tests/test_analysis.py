"""Isometry-constant measurement, norm utilities, and parameter planning."""

import math

import numpy as np
import pytest
import scipy.linalg

from fastsketch.analysis import (
    bucket_norm_profile,
    complexify_matrix,
    complexify_vector,
    exact_rip_constant,
    mc_rip_lower_bound,
    operator_norms,
    recommend_parameters,
)
from fastsketch.sketch import build_sketch, densify_sketch


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
        for _ in range(trials):
            support = np.sort(ref_gen.choice(d, size=k, replace=False))
            basis = np.zeros((k, d))
            basis[np.arange(k), support] = 1.0
            sv = np.linalg.svd(apply(op, basis).T, compute_uv=False)
            want = max(want, sv[0] ** 2 - 1.0, 1.0 - sv[-1] ** 2)
        assert got == pytest.approx(want, abs=1e-12)
        # The supports are drawn one per trial, in trial order.
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    def test_reports_seed_and_trials(self):
        op = build_sketch(16, 4, 2, "fourier", seed=109)
        rep = mc_rip_lower_bound(op, 2, trials=7, rng=11)
        assert rep.seed == 11 and rep.supports_evaluated == 7
        assert rep.method == "monte_carlo"


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
# bucket norms


class TestBucketNormProfile:
    def test_zero_sparsity_convention(self):
        op = build_sketch(16, 2, 2, "fourier", seed=113)
        prof = bucket_norm_profile(op, 0)
        assert prof.overall == 0.0
        np.testing.assert_array_equal(prof.per_bucket, np.zeros(2))

    def test_single_row_buckets_hit_sqrt_s(self):
        # B = 1, modulus-1 rows: sup over s-sparse unit x of |<a, x>| = sqrt(s)
        op = build_sketch(16, 4, 1, "fourier", seed=127)
        for s in (1, 2, 3):
            prof = bucket_norm_profile(op, s)
            np.testing.assert_allclose(prof.per_bucket, np.sqrt(s), atol=1e-10)

    def test_matches_brute_force_svd(self):
        from itertools import combinations

        op = build_sketch(16, 2, 2, "fourier", seed=131)
        prof = bucket_norm_profile(op, 2)
        from fastsketch.ensembles import densify

        blocks = densify(op.source).reshape(2, 2, 16)
        for b in range(2):
            best = 0.0
            for supp in combinations(range(16), 2):
                best = max(best, scipy.linalg.svdvals(blocks[b][:, list(supp)])[0])
            assert abs(prof.per_bucket[b] - best) <= 1e-8

    def test_cap_enforced(self):
        op = build_sketch(64, 2, 2, "fourier", seed=137)
        with pytest.raises(ValueError, match="cap"):
            bucket_norm_profile(op, 3, cap=100)


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
