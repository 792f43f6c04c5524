"""Hard thresholding and the matrix-free IHT / CoSaMP solvers."""

import numpy as np
import pytest

import fastsketch.recovery as recovery
import fastsketch.sketch as sketch
from fastsketch.ensembles import RowSource
from fastsketch.recovery import (
    SparseSignal,
    _top_k_indices,
    cosamp,
    hard_threshold,
    iht,
    l2l1_metrics,
)
from fastsketch.sketch import (
    SketchOperator,
    apply,
    apply_adjoint,
    build_sketch,
    columns,
    densify_sketch,
)


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


def lexsort_top_k(x, k):
    """Reference: a full sort by (decreasing modulus, increasing index)."""
    return np.lexsort((np.arange(x.shape[0]), -np.abs(x)))[:k]


@pytest.mark.parametrize(
    "make",
    [
        lambda rng, d: rng.integers(-3, 4, d).astype(float),
        lambda rng, d: rng.choice([3 + 4j, -5.0, 5j, 4 - 3j, 1j, 0.0], d),
        lambda rng, d: np.zeros(d),
        lambda rng, d: rng.standard_normal(d) + 1j * rng.standard_normal(d),
        lambda rng, d: np.where(rng.random(d) < 0.3, np.nan, rng.integers(-2, 3, d)),
    ],
    ids=["integers", "equal_modulus_complex", "zeros", "gaussian", "with_nan"],
)
def test_top_k_matches_lexsort_reference(make):
    rng = np.random.default_rng(71)
    for d in (1, 2, 7, 64, 1000):
        for _ in range(5):
            x = make(rng, d)
            for k in sorted({0, 1, d // 2, d - 1, d}):
                np.testing.assert_array_equal(_top_k_indices(x, k), lexsort_top_k(x, k))


class TestSparseSignal:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseSignal(d=4, support=np.array([2, 1]), values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="zeros"):
            SparseSignal(d=4, support=np.array([1]), values=np.array([0.0]))

    def test_dense_roundtrip(self):
        x = np.array([0.0, 2.0, 0.0, -1.0 + 1j])
        s = SparseSignal(d=4, support=np.array([1, 3]), values=x[[1, 3]])
        assert s.nnz == 2
        np.testing.assert_array_equal(s.to_dense(), x)

    def test_caller_arrays_stay_writeable_and_private(self):
        # intp support and complex128 values need no conversion, so the signal
        # keeps copies and the caller may go on writing to its own; read-only
        # ones are kept as they are.
        support = np.array([1, 3], dtype=np.intp)
        values = np.array([2.0, -1.0 + 1j])
        s = SparseSignal(d=4, support=support, values=values)
        assert support.flags.writeable and values.flags.writeable
        support[0] = 0
        values *= 3.0
        np.testing.assert_array_equal(s.to_dense(), [0.0, 2.0, 0.0, -1.0 + 1j])
        assert not (s.support.flags.writeable or s.values.flags.writeable)
        kept = SparseSignal(d=4, support=s.support, values=s.values)
        assert kept.support is s.support and kept.values is s.values


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
# stop reasons, shared by both solvers


@pytest.mark.parametrize("solver", [iht, cosamp])
def test_stop_reason_converged_and_max_iters(solver):
    op = build_sketch(256, 64, 8, "fourier", seed=31)
    x = plant_signal(np.random.default_rng(13), 256, 4)
    y = apply(op, x)
    done = solver(op, y, 4, max_iters=300, tol=1e-12)
    assert done.stop_reason == "converged" and done.converged
    cut = solver(op, y, 4, max_iters=1, tol=1e-12)
    assert cut.stop_reason == "max_iters" and not cut.converged
    assert cut.iterations_used == 1


def test_cosamp_singular_system_stops_with_reason(monkeypatch):
    op = build_sketch(64, 32, 2, "fourier", seed=41)
    y = apply(op, plant_signal(np.random.default_rng(17), 64, 3))

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    res = cosamp(op, y, 3)
    assert res.stop_reason == "singular" and not res.converged
    assert res.iterations_used == 1
    assert res.estimate.nnz == 0  # the iterate never left x = 0
    assert res.to_json_dict()["stop_reason"] == "singular"


# ---------------------------------------------------------------------------
# the Phi x the loop holds, and the work it counts


KINDS = ["fourier", "hadamard", "circulant", "gaussian"]
#: The dtype a real problem on each kind solves in (that of ``columns``).
WORKING_DTYPES = {
    "fourier": np.complex128,
    "hadamard": np.float64,
    "circulant": np.float64,
    "gaussian": np.float64,
}


def measured_instance(kind, noise_sd, seed):
    op = build_sketch(256, 64, 4, kind, seed=seed)
    rng = np.random.default_rng(seed)
    x = plant_signal(rng, 256, 5)
    return op, x, apply(op, x) + noise_sd * rng.standard_normal(64)


@pytest.mark.parametrize("noise_sd", [0.0, 0.01], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("solver", [iht, cosamp])
def test_residual_norm_is_that_of_the_estimate(solver, kind, noise_sd):
    # residual_norm comes from the Phi x the loop holds, never from a
    # final apply; it must be the residual of the reported estimate.
    # A noiseless residual sits at round-off (~1e-12 ||y||), where two
    # exact ways of forming Phi x differ in their leading digits, so the
    # relative bound is joined by one at 1e-12 ||y||.
    op, _, y = measured_instance(kind, noise_sd, seed=61)
    res = solver(op, y, 5, max_iters=100)
    direct = np.linalg.norm(y - apply(op, res.estimate.to_dense()))
    np.testing.assert_allclose(res.residual_norm, direct, rtol=1e-9, atol=1e-12 * np.linalg.norm(y))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("solver", [iht, cosamp])
def test_solvers_never_call_apply(solver, kind, monkeypatch):
    op, x, y = measured_instance(kind, 0.0, seed=67)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{solver.__name__} called apply")

    monkeypatch.setattr(recovery, "apply", forbidden)
    monkeypatch.setattr(sketch, "apply", forbidden)
    res = solver(op, y, 5)
    assert np.linalg.norm(res.estimate.to_dense() - x) <= 1e-9 * np.linalg.norm(x)


@pytest.mark.parametrize("kind", KINDS)
def test_work_columns_reads_only_what_it_does_not_hold(kind):
    # A held column is returned exactly as it was read.  Reading it again
    # in another block may differ in the last bit, because the bucket sum
    # is a BLAS product whose rounding depends on the block's width; sums
    # of +-1 are exact in any product, so there a fresh read matches
    # exactly.  Every block is column-major (F-contiguous) and read-only.
    op = build_sketch(256, 64, 4, kind, seed=73)
    work = recovery._Work(op, WORKING_DTYPES[kind])
    supports = [[3, 9, 40], [3, 9, 40], [1, 9, 40, 200], [1, 2, 200, 255], [], [7], [0, 7, 255]]
    held, read = {}, 0
    for s in supports:
        s = np.array(s, dtype=np.intp)
        missing = np.array([i for i in s if i not in held], dtype=np.intp)
        fresh = dict(zip(missing.tolist(), columns(op, missing).T))
        held = {i: held[i] if i in held else fresh[i] for i in s.tolist()}
        read += missing.size
        block = work.columns(s)
        assert block.dtype == WORKING_DTYPES[kind]
        expected = np.array([held[i] for i in s.tolist()], dtype=block.dtype)
        np.testing.assert_array_equal(block, expected.reshape(s.size, op.m).T)
        np.testing.assert_allclose(block, columns(op, s), rtol=0, atol=1e-15)
        if kind in ("hadamard", "circulant"):
            np.testing.assert_array_equal(block, columns(op, s))
        assert block.flags.f_contiguous and not block.flags.writeable
        assert work.columns_extracted == read
    assert read < sum(len(s) for s in supports)


@pytest.mark.parametrize("kind", KINDS)
def test_work_returns_the_held_block_itself(kind):
    op = build_sketch(256, 64, 4, kind, seed=73)
    work = recovery._Work(op, WORKING_DTYPES[kind])
    support = np.array([3, 9, 40], dtype=np.intp)
    block = work.columns(support)
    assert work.columns_extracted == 3
    assert work.columns(support.copy()) is block
    assert work.columns_extracted == 3
    assert not block.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        block[0, 0] = 1.0
    # a different support gets a new block, itself read-only
    other = work.columns(np.array([3, 9], dtype=np.intp))
    assert other is not block and not other.flags.writeable
    assert work.columns_extracted == 3


# ---------------------------------------------------------------------------
# the sparse loop against the dense loop it replaced


def dense_reference_solve(solver, op, y, k, max_iters, tol):
    """Both solvers as one dense complex128 loop: a d-length iterate,
    ``hard_threshold`` over all d entries, complex adjoints and a complex
    held column block, whatever the kind.  Returns what the sparse loop
    reports."""
    y = np.asarray(y, dtype=np.complex128)
    d, m = op.d, op.m
    count = {"adjoint_calls": 0, "columns_extracted": 0}
    held = [np.empty(0, dtype=np.intp), np.empty((m, 0), dtype=np.complex128)]

    def adjoint(r):
        count["adjoint_calls"] += 1
        return apply_adjoint(op, r)

    def cols_of(support):
        have = np.isin(support, held[0], assume_unique=True)
        cols = np.empty((m, support.size), dtype=np.complex128)
        cols[:, have] = held[1][:, np.searchsorted(held[0], support[have])]
        if not have.all():
            count["columns_extracted"] += int((~have).sum())
            cols[:, ~have] = columns(op, support[~have])
        held[:] = [support, cols]
        return cols

    def iht_update(x, r):
        g = adjoint(r)
        support = np.flatnonzero(x) if x.any() else np.sort(_top_k_indices(g, k))
        g_s = g[support]
        phi_g_s = cols_of(support) @ g_s
        curvature = float(np.vdot(phi_g_s, phi_g_s).real)
        mu = float(np.vdot(g_s, g_s).real) / curvature if curvature > 0 else 1.0
        new = hard_threshold(x + mu * g, k)
        return new.to_dense(), cols_of(new.support) @ new.values

    halt_norm = tol * float(np.linalg.norm(y))
    last = [None]

    def cosamp_update(x, r):
        if x.any() and np.linalg.norm(r) <= halt_norm:
            return last[0]
        proxy = adjoint(r)
        proxy_support = _top_k_indices(proxy, 2 * k)
        proxy_support = proxy_support[proxy[proxy_support] != 0]
        merged = np.union1d(proxy_support, np.flatnonzero(x != 0)).astype(np.intp)
        if merged.size == 0:
            return np.zeros_like(x), np.zeros(m, dtype=np.complex128)
        cols = cols_of(merged)
        cols_h = np.conj(cols.T)
        gram = cols_h @ cols + 1e-12 * np.eye(merged.size)
        coef = np.linalg.solve(gram, cols_h @ y)
        dense = np.zeros(d, dtype=np.complex128)
        dense[merged] = coef
        estimate = hard_threshold(dense, k)
        kept = np.searchsorted(merged, estimate.support)
        last[0] = (estimate.to_dense(), cols[:, kept] @ coef[kept])
        return last[0]

    update = iht_update if solver is iht else cosamp_update
    x = np.zeros(d, dtype=np.complex128)
    phi_x = np.zeros(m, dtype=np.complex128)
    residual_norms, stop_reason = [], "max_iters"
    for _ in range(max_iters):
        r = y - phi_x
        residual_norms.append(float(np.linalg.norm(r)))
        new, new_phi_x = update(x, r)
        denom, diff = np.linalg.norm(new), np.linalg.norm(new - x)
        change = (0.0 if diff == 0.0 else np.inf) if denom == 0.0 else diff / denom
        x, phi_x = new, new_phi_x
        if change <= tol:
            stop_reason = "converged"
            break
    estimate = hard_threshold(x, k)
    return {
        "support": estimate.support,
        "values": estimate.values,
        "iterations_used": len(residual_norms),
        "stop_reason": stop_reason,
        "residual_norms": residual_norms,
        **count,
    }


@pytest.mark.parametrize("noise_sd", [0.0, 0.01], ids=["clean", "noisy"])
@pytest.mark.parametrize("signal", ["real", "complex"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("solver", [iht, cosamp])
def test_sparse_loop_matches_the_dense_loop(solver, kind, signal, noise_sd):
    # The sparse loop solves real problems in float64 and forms its
    # relative change over the two supports only; neither may change what
    # a solve finds or the work it does.
    rng = np.random.default_rng(89)
    op = build_sketch(256, 64, 4, kind, seed=97)
    x = plant_signal(rng, 256, 5)
    if signal == "complex":
        x[x != 0] += 1j * rng.standard_normal(5)
    else:
        x = x.real  # a complex128 x would give a circulant y round-off imaginary parts
    y = apply(op, x) + noise_sd * rng.standard_normal(64)
    max_iters = 300 if solver is iht else 50
    got = solver(op, y, 5, max_iters=max_iters)
    want = dense_reference_solve(solver, op, y, 5, max_iters, 1e-10)
    np.testing.assert_array_equal(got.estimate.support, want["support"])
    np.testing.assert_allclose(got.estimate.values, want["values"], rtol=1e-12, atol=0)
    assert got.iterations_used == want["iterations_used"]
    assert got.stop_reason == want["stop_reason"]
    assert got.adjoint_calls == want["adjoint_calls"]
    assert got.columns_extracted == want["columns_extracted"]
    np.testing.assert_allclose(
        got.residual_norms, want["residual_norms"], rtol=1e-12, atol=1e-12 * np.linalg.norm(y)
    )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("solver", [iht, cosamp])
def test_solvers_make_no_dense_round_trip(solver, kind, monkeypatch):
    op, x, y = measured_instance(kind, 0.0, seed=67)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{solver.__name__} formed a dense d-vector")

    monkeypatch.setattr(recovery, "hard_threshold", forbidden)
    monkeypatch.setattr(recovery.SparseSignal, "to_dense", forbidden)
    res = solver(op, y, 5)
    support = np.flatnonzero(x)
    np.testing.assert_array_equal(res.estimate.support, support)
    np.testing.assert_allclose(res.estimate.values, x[support], rtol=1e-9)


@pytest.mark.parametrize("signal", ["real", "complex"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("solver", [iht, cosamp])
def test_working_dtype(solver, kind, signal, monkeypatch):
    # Real problems (a real Phi and measurements with no imaginary part)
    # solve in float64, adjoints and column blocks included; the rest in
    # complex128.
    op, x, _ = measured_instance(kind, 0.0, seed=101)
    x = x.real if signal == "real" else 1j * x.real
    y = apply(op, x)
    expected = np.float64 if kind != "fourier" and signal == "real" else np.complex128
    dtypes = set()
    adjoint, block = recovery.apply_adjoint, recovery._Work.columns

    def logged_adjoint(o, r):
        out = adjoint(o, r)
        dtypes.update({r.dtype, out.dtype})
        return out

    def logged_block(self, support):
        out = block(self, support)
        dtypes.add(out.dtype)
        return out

    monkeypatch.setattr(recovery, "apply_adjoint", logged_adjoint)
    monkeypatch.setattr(recovery._Work, "columns", logged_block)
    res = solver(op, y, 5)
    assert dtypes == {np.dtype(expected)}
    assert res.estimate.values.dtype == np.complex128
    assert np.linalg.norm(res.estimate.to_dense() - x) <= 1e-9 * np.linalg.norm(x)


def test_iht_reads_only_the_columns_its_supports_gain():
    # Reading all k support columns in every iteration would read exactly
    # k * iterations_used; the held block reads only what a support gains.
    op, x, y = measured_instance("fourier", 0.0, seed=79)
    res = iht(op, y, 5)
    assert res.converged and res.iterations_used > 2
    assert res.columns_extracted < 5 * res.iterations_used
    assert np.linalg.norm(res.estimate.to_dense() - x) <= 1e-9 * np.linalg.norm(x)


def test_cosamp_noiseless_solve_ends_on_the_residual_rule(monkeypatch):
    # Per working iteration CoSaMP makes one adjoint, reads the columns it
    # does not hold, then solves; the halting iteration does none of these.
    tol = 1e-10
    op, x, y = measured_instance("fourier", 0.0, seed=71)
    log = []
    adjoint, cols, solve = recovery.apply_adjoint, recovery.columns, np.linalg.solve

    def logged(name, fn, size=lambda args: 0):
        def wrapper(*args, **kwargs):
            log.append((name, size(args)))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(recovery, "apply_adjoint", logged("adjoint", adjoint))
    monkeypatch.setattr(recovery, "columns", logged("columns", cols, lambda a: a[1].size))
    monkeypatch.setattr(np.linalg, "solve", logged("solve", solve, lambda a: a[0].shape[0]))
    res = cosamp(op, y, 5, tol=tol)

    assert res.stop_reason == "converged"
    assert res.residual_norms[-1] <= tol * np.linalg.norm(y)
    assert all(r > tol * np.linalg.norm(y) for r in res.residual_norms[1:-1])
    names = [name for name, _ in log]
    working = res.iterations_used - 1
    assert names.count("adjoint") == names.count("solve") == working == res.adjoint_calls
    assert names[-1] == "solve"  # nothing after the last working iteration's solve
    assert sum(size for name, size in log if name == "columns") == res.columns_extracted
    # from the second working iteration on, the iterate's k columns are held
    merged = sum(size for name, size in log if name == "solve")
    assert res.columns_extracted <= merged - 5 * (working - 1)
    assert np.linalg.norm(res.estimate.to_dense() - x) <= 1e-9 * np.linalg.norm(x)


# ---------------------------------------------------------------------------
# input validation, shared by both solvers


@pytest.mark.parametrize("solver", [iht, cosamp])
@pytest.mark.parametrize(
    "bad, match",
    [
        ({"tol": -1.0}, "tol"),
        ({"max_iters": 0}, "max_iters"),
        ({"k": -1}, "sparsity"),
        ({"k": 2.0}, "integer"),
        ({"k": 2.5}, "integer"),
        ({"k": "2"}, "integer"),
        ({"k": None}, "integer"),
        ({"y": np.array([1.0, np.nan, 0.0, 0.0])}, "finite"),
        ({"y": np.array([np.inf, 0.0, 0.0, 0.0])}, "finite"),
    ],
    ids=[
        "negative-tol",
        "zero-max-iters",
        "negative-k",
        "float-k",
        "fractional-k",
        "str-k",
        "none-k",
        "nan",
        "inf",
    ],
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
    assert doc["stop_reason"] == "converged"
    assert doc["estimate"]["d"] == 64
    assert len(doc["estimate"]["support"]) == len(doc["estimate"]["values_re"])
    assert len(doc["residual_norms"]) == doc["iterations_used"]
    assert doc["adjoint_calls"] == doc["iterations_used"]
    assert 0 < doc["columns_extracted"] <= 2 * doc["iterations_used"]


class TestL2L1Metrics:
    def test_exact_recovery_of_sparse_signal(self):
        x = np.zeros(8)
        x[2] = 1.5
        est = SparseSignal(d=8, support=np.array([2]), values=np.array([1.5]))
        assert l2l1_metrics(x, est, 1) == (0.0, 0.0)

    def test_exact_recovery_of_dense_signal(self):
        x = np.array([1.0, 0.5, 0.25, 0.125])
        est = SparseSignal(d=4, support=np.arange(4), values=x)
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
        keep = np.flatnonzero(x > 0.05)
        est = SparseSignal(d=16, support=keep, values=x[keep])
        err, ratio = l2l1_metrics(x, est, 2)
        tail = np.sort(x)[:-2].sum()
        assert ratio == pytest.approx(err / (tail / np.sqrt(2)))
