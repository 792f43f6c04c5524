"""Hard thresholding and the matrix-free IHT / CoSaMP solvers."""

import numpy as np
import pytest

from fastsketch.ensembles import RowSource
from fastsketch.recovery import (
    SparseSignal,
    cosamp,
    hard_threshold,
    iht,
    l2l1_metrics,
)
from fastsketch.sketch import SketchOperator, apply, build_sketch, densify_sketch


def plant_signal(rng, d, k):
    support = np.sort(rng.choice(d, size=k, replace=False))
    values = rng.standard_normal(k)
    x = np.zeros(d, dtype=np.complex128)
    x[support] = values
    return x


def identity_like_operator(d):
    """m = d, B = 1, orthogonal rows, +1 signs: an exact isometry."""
    src = RowSource(kind="hadamard", d=d, M=d, indices=np.arange(d))
    return SketchOperator(source=src, signs=np.ones((d, 1)))


# ---------------------------------------------------------------------------
# hard threshold


class TestHardThreshold:
    def test_keeps_largest_magnitude(self):
        s = hard_threshold(np.array([3.0, -5.0, 1.0]), 1)
        np.testing.assert_array_equal(s.support, [1])
        np.testing.assert_array_equal(s.values, [-5.0])

    def test_full_k_is_identity_without_zeros(self):
        x = np.array([1.0, 0.0, -2.0])
        s = hard_threshold(x, 3)
        np.testing.assert_array_equal(s.support, [0, 2])
        np.testing.assert_array_equal(s.to_dense(), x)

    def test_tie_breaks_to_smaller_index(self):
        s = hard_threshold(np.array([2.0, -2.0, 0.0]), 1)
        np.testing.assert_array_equal(s.support, [0])

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError, match="nonnegative"):
            hard_threshold(np.zeros(3), -1)

    def test_complex_modulus_ordering(self):
        s = hard_threshold(np.array([1.0 + 1.0j, 1.2, 0.1j]), 1)
        np.testing.assert_array_equal(s.support, [0])


class TestSparseSignal:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseSignal(d=4, support=np.array([2, 1]), values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="zeros"):
            SparseSignal(d=4, support=np.array([1]), values=np.array([0.0]))

    def test_dense_roundtrip(self):
        x = np.array([0.0, 2.0, 0.0, -1.0 + 1j])
        s = SparseSignal.from_dense(x)
        assert s.nnz == 2
        np.testing.assert_array_equal(s.to_dense(), x)


# ---------------------------------------------------------------------------
# IHT


class TestIht:
    def test_zero_measurements_recover_zero_in_one_step(self):
        op = build_sketch(64, 8, 4, "fourier", seed=1)
        res = iht(op, np.zeros(8), 3)
        assert res.estimate.nnz == 0
        assert res.iterations_used == 1
        assert res.converged
        assert res.residual_norm == 0.0

    def test_isometry_recovers_in_one_iteration(self):
        d = 16
        op = identity_like_operator(d)
        x = plant_signal(np.random.default_rng(2), d, 3)
        res = iht(op, apply(op, x), 3, max_iters=5)
        np.testing.assert_allclose(res.estimate.to_dense(), x, atol=1e-12)
        assert res.iterations_used <= 2

    def test_noiseless_recovery_small_instance(self):
        rng = np.random.default_rng(3)
        op = build_sketch(256, 96, 8, "fourier", seed=11)
        x = plant_signal(rng, 256, 4)
        res = iht(op, apply(op, x), 4, max_iters=300, tol=1e-12)
        rel = np.linalg.norm(res.estimate.to_dense() - x) / np.linalg.norm(x)
        assert rel <= 1e-6

    def test_iterates_stay_k_sparse(self):
        op = build_sketch(64, 16, 4, "fourier", seed=13)
        x = plant_signal(np.random.default_rng(5), 64, 3)
        res = iht(op, apply(op, x), 3, max_iters=50)
        assert res.estimate.nnz <= 3

    def test_converged_residual_meets_tol_on_noiseless_data(self):
        tol = 1e-12
        op = build_sketch(128, 32, 4, "fourier", seed=17)
        x = plant_signal(np.random.default_rng(7), 128, 3)
        res = iht(op, apply(op, x), 3, max_iters=500, tol=tol)
        assert res.converged
        assert res.residual_norm <= tol

    def test_residual_increases_are_reported_not_hidden(self):
        # marginal instance (m/k small): whatever the iteration does, the
        # per-iteration residual trace must show every step, and a run that
        # ends without converging must show where the residual went up
        op = build_sketch(128, 32, 4, "fourier", seed=104)
        x = plant_signal(np.random.default_rng(4), 128, 3)
        res = iht(op, apply(op, x), 3, max_iters=50, tol=1e-12)
        increases = sum(1 for a, b in zip(res.residual_norms, res.residual_norms[1:]) if b > a)
        assert len(res.residual_norms) == res.iterations_used
        if not res.converged:
            assert increases > 0

    def test_deterministic(self):
        op = build_sketch(64, 16, 4, "circulant", seed=19)
        x = plant_signal(np.random.default_rng(9), 64, 3)
        y = apply(op, x)
        a, b = iht(op, y, 3), iht(op, y, 3)
        np.testing.assert_array_equal(a.estimate.to_dense(), b.estimate.to_dense())
        assert a.residual_norms == b.residual_norms

    def test_dimension_checked(self):
        op = build_sketch(64, 8, 4, "fourier", seed=21)
        with pytest.raises(ValueError, match="shape"):
            iht(op, np.zeros(16), 3)

    @pytest.mark.parametrize("kind", ["hadamard", "circulant"])
    def test_converges_where_a_unit_step_diverges(self, kind):
        # ||Phi||_2 is large on these sources, so x + Phi* r with a unit
        # step overshoots; the normalized step must still recover
        d, k = 16384, 20
        op = build_sketch(d, 400, 16, kind, seed=1000)
        rng = np.random.default_rng(0)
        x = np.zeros(d)
        x[np.sort(rng.choice(d, k, replace=False))] = rng.standard_normal(k)
        res = iht(op, apply(op, x), k)
        assert res.converged
        assert np.linalg.norm(res.estimate.to_dense() - x) <= 1e-6 * np.linalg.norm(x)


# ---------------------------------------------------------------------------
# CoSaMP


class TestCosamp:
    def test_zero_measurements(self):
        op = build_sketch(64, 8, 4, "fourier", seed=23)
        res = cosamp(op, np.zeros(8), 3)
        assert res.estimate.nnz == 0
        assert res.converged

    def test_tiny_instance_matches_pseudoinverse(self):
        # well-conditioned on the planted support: CoSaMP's least-squares
        # step must reproduce the direct pseudo-inverse solution
        rng = np.random.default_rng(11)
        op = build_sketch(32, 16, 2, "fourier", seed=29)
        x = plant_signal(rng, 32, 2)
        y = apply(op, x)
        res = cosamp(op, y, 2, max_iters=20, tol=1e-12)
        dense = densify_sketch(op)
        support = res.estimate.support
        direct = np.linalg.pinv(dense[:, support]) @ y
        np.testing.assert_allclose(res.estimate.values, direct, atol=1e-8)
        np.testing.assert_allclose(res.estimate.to_dense(), x, atol=1e-8)

    def test_noiseless_recovery_small_instance(self):
        rng = np.random.default_rng(13)
        op = build_sketch(256, 64, 8, "fourier", seed=31)
        x = plant_signal(rng, 256, 4)
        res = cosamp(op, apply(op, x), 4, max_iters=50, tol=1e-12)
        rel = np.linalg.norm(res.estimate.to_dense() - x) / np.linalg.norm(x)
        assert rel <= 1e-6

    def test_needs_room_for_merged_support(self):
        op = build_sketch(8, 4, 2, "fourier", seed=37)
        with pytest.raises(ValueError, match="3k"):
            cosamp(op, np.zeros(4), 3)

    def test_deterministic(self):
        op = build_sketch(64, 32, 2, "fourier", seed=41)
        x = plant_signal(np.random.default_rng(17), 64, 3)
        y = apply(op, x)
        a, b = cosamp(op, y, 3), cosamp(op, y, 3)
        np.testing.assert_array_equal(a.estimate.to_dense(), b.estimate.to_dense())
        assert a.iterations_used == b.iterations_used


# ---------------------------------------------------------------------------
# input validation, shared by both solvers


@pytest.mark.parametrize("solver", [iht, cosamp])
@pytest.mark.parametrize(
    "bad, match",
    [
        ({"tol": -1.0}, "tol"),
        ({"max_iters": 0}, "max_iters"),
        ({"k": -1}, "sparsity"),
        ({"y": np.array([1.0, np.nan, 0.0, 0.0])}, "finite"),
        ({"y": np.array([np.inf, 0.0, 0.0, 0.0])}, "finite"),
    ],
    ids=["negative-tol", "zero-max-iters", "negative-k", "nan", "inf"],
)
def test_solvers_reject_bad_input(solver, bad, match):
    op = build_sketch(64, 4, 2, "fourier", seed=53)
    args = {"y": np.zeros(4), "k": 2, **bad}
    with pytest.raises(ValueError, match=match):
        solver(op, args.pop("y"), args.pop("k"), **args)


# ---------------------------------------------------------------------------
# complex signals end to end


def test_complex_signal_roundtrip():
    rng = np.random.default_rng(19)
    d, k = 128, 3
    support = np.sort(rng.choice(d, size=k, replace=False))
    x = np.zeros(d, dtype=np.complex128)
    x[support] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    op = build_sketch(d, 32, 4, "fourier", seed=43)
    res = iht(op, apply(op, x), k, max_iters=300, tol=1e-12)
    assert np.linalg.norm(res.estimate.to_dense() - x) <= 1e-6 * np.linalg.norm(x)


# ---------------------------------------------------------------------------
# error metrics


def test_recovery_result_serializes():
    op = build_sketch(64, 16, 4, "fourier", seed=47)
    x = plant_signal(np.random.default_rng(21), 64, 2)
    res = iht(op, apply(op, x), 2, max_iters=100, tol=1e-12)
    doc = res.to_json_dict()
    assert doc["converged"] is True
    assert doc["estimate"]["d"] == 64
    assert len(doc["estimate"]["support"]) == len(doc["estimate"]["values_re"])
    assert len(doc["residual_norms"]) == doc["iterations_used"]


class TestL2L1Metrics:
    def test_exact_recovery_of_sparse_signal(self):
        x = np.zeros(8)
        x[2] = 1.5
        est = SparseSignal(d=8, support=np.array([2]), values=np.array([1.5]))
        assert l2l1_metrics(x, est, 1) == (0.0, 0.0)

    def test_exact_recovery_of_dense_signal(self):
        x = np.array([1.0, 0.5, 0.25, 0.125])
        est = SparseSignal.from_dense(x)
        err, ratio = l2l1_metrics(x, est, 2)
        assert err == 0.0 and ratio == 0.0

    def test_miss_on_exactly_sparse_signal_is_flagged_infinite(self):
        x = np.zeros(8)
        x[2] = 1.5
        est = SparseSignal(d=8, support=np.array([3]), values=np.array([1.5]))
        err, ratio = l2l1_metrics(x, est, 1)
        assert err > 0 and ratio == float("inf")

    def test_compressible_signal_ratio_finite(self):
        x = (np.arange(1, 17) ** -2.0).astype(float)
        est = SparseSignal.from_dense(np.where(x > 0.05, x, 0.0))
        err, ratio = l2l1_metrics(x, est, 2)
        tail = np.sort(x)[:-2].sum()
        assert ratio == pytest.approx(err / (tail / np.sqrt(2)))
