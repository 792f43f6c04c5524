"""Sign-diagonal embeddings, distortion reports, and point-set CSV round trips."""

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from fastsketch import sketch
from fastsketch.jl import (
    _pair_distances,
    distortion_report,
    jl_embed,
    read_point_set,
    write_point_set,
)
from fastsketch.rng import derive_seed, signs, stream
from fastsketch.sketch import apply, build_sketch, densify_sketch


def test_zero_point_embeds_to_zero():
    op = build_sketch(64, 8, 4, "fourier", seed=1)
    out = jl_embed(op, np.zeros((1, 64)), seed=2)
    np.testing.assert_array_equal(out, np.zeros((1, 8)))


def test_identical_points_collapse_exactly():
    op = build_sketch(64, 8, 4, "fourier", seed=3)
    p = np.random.default_rng(0).standard_normal(64)
    out = jl_embed(op, np.vstack([p, p]), seed=4)
    np.testing.assert_array_equal(out[0], out[1])
    rep = distortion_report(np.vstack([p, p]), out)
    assert rep.zero_distance_pairs == 1
    assert rep.pairs_evaluated == 0


def test_embedding_matches_dense_oracle():
    op = build_sketch(64, 8, 4, "fourier", seed=5)
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((6, 64))
    emb = jl_embed(op, pts, seed=6)
    xi = signs(stream(derive_seed(6, 0, "jl-diagonal")), 64)
    np.testing.assert_array_equal(emb, apply(op, pts * xi))
    dense = densify_sketch(op)
    for i in range(6):
        np.testing.assert_allclose(emb[i], dense @ (xi * pts[i]), atol=1e-10)


def test_same_seed_same_embedding():
    op = build_sketch(64, 8, 4, "circulant", seed=7)
    pts = np.random.default_rng(2).standard_normal((4, 64))
    np.testing.assert_array_equal(jl_embed(op, pts, seed=8), jl_embed(op, pts, seed=8))


def test_each_point_embeds_as_it_does_alone(monkeypatch):
    # Blocks of 2 points, so 5 points run as 2 + 2 + 1.
    monkeypatch.setattr(sketch, "_ROW_BLOCK_ENTRIES", 2 * 64)
    points = np.random.default_rng(41).standard_normal((5, 64))
    for kind in ("fourier", "hadamard", "circulant", "gaussian"):
        op = build_sketch(64, 8, 4, kind, seed=43)
        out = jl_embed(op, points, seed=47)
        for i in range(5):
            np.testing.assert_array_equal(out[i], jl_embed(op, points[i], seed=47)[0])


def test_sign_diagonal_preserves_norms():
    d = 128
    rng = np.random.default_rng(3)
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    xi = signs(stream(derive_seed(11, 0, "jl-diagonal")), d)
    assert np.linalg.norm(xi * x) == np.linalg.norm(x)


def test_dimension_mismatch_rejected():
    op = build_sketch(64, 8, 4, "fourier", seed=9)
    with pytest.raises(ValueError, match="shape"):
        jl_embed(op, np.zeros((2, 32)), seed=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["fourier", "hadamard", "circulant", "gaussian"])
def test_non_finite_points_rejected(kind, bad):
    op = build_sketch(64, 8, 4, kind, seed=10)
    pts = np.random.default_rng(9).standard_normal((3, 64))
    pts[1, 37] = bad
    with pytest.raises(ValueError, match="finite"):
        jl_embed(op, pts, seed=1)


# ---------------------------------------------------------------------------
# distortion reports


def test_identity_embedding_has_zero_distortion():
    pts = np.random.default_rng(4).standard_normal((10, 16))
    rep = distortion_report(pts, pts)
    assert rep.epsilon_hat == 0.0
    assert rep.max_expansion == pytest.approx(1.0)
    assert rep.min_contraction == pytest.approx(1.0)
    assert rep.pairs_evaluated == 45


def test_uniform_scaling_distortion():
    pts = np.random.default_rng(5).standard_normal((8, 16))
    rep = distortion_report(pts, 2.0 * pts)
    assert rep.max_expansion == pytest.approx(2.0)
    assert rep.min_contraction == pytest.approx(2.0)
    assert rep.epsilon_hat == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_distortion_input_rejected(bad):
    pts = np.random.default_rng(10).standard_normal((4, 16))
    bad_pts = pts.copy()
    bad_pts[2, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        distortion_report(bad_pts, pts)
    with pytest.raises(ValueError, match="finite"):
        distortion_report(pts, bad_pts)


def test_overflowing_squared_norm_rejected():
    pts = np.random.default_rng(11).standard_normal((3, 16))
    with pytest.raises(ValueError, match="finite"):
        distortion_report(pts * 1e160, pts)


def _direct_pair_distances(points):
    """Reference: each pair from its own difference, i < j in row-major order."""
    n = len(points)
    return np.array(
        [np.linalg.norm(points[j] - points[i]) for i in range(n) for j in range(i + 1, n)]
    )


def _cloud(case):
    rng = np.random.default_rng(12)
    pts = rng.standard_normal((9, 300))
    if case == "complex":
        return pts + 1j * rng.standard_normal((9, 300))
    if case == "duplicates":
        pts[4] = pts[1]
        pts[8] = pts[1]
    elif case == "near-duplicate":
        pts[6] = pts[2] + 1e-9 * rng.standard_normal(300)
    elif case.startswith("offset-"):
        pts += float(case.split("-")[1])
    return pts


@pytest.mark.parametrize(
    "case", ["real", "complex", "duplicates", "near-duplicate", "offset-1e3", "offset-1e6"]
)
def test_pair_distances_match_direct_differences(case):
    pts = _cloud(case)
    got = _pair_distances(pts)
    want = _direct_pair_distances(pts)
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    real_rows = np.hstack([pts.real, pts.imag]) if np.iscomplexobj(pts) else pts
    np.testing.assert_allclose(got, pdist(real_rows), rtol=1e-12, atol=0.0)


def test_duplicate_pairs_counted_as_zero_distance():
    pts = _cloud("duplicates")
    rep = distortion_report(pts, 3.0 * pts)
    assert rep.zero_distance_pairs == 3
    assert rep.pairs_evaluated == 36 - 3
    assert rep.max_expansion == pytest.approx(3.0, rel=1e-12)
    assert rep.min_contraction == pytest.approx(3.0, rel=1e-12)


def test_point_count_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        distortion_report(np.zeros((3, 4)), np.zeros((2, 4)))


def test_distortion_shrinks_with_more_rows():
    """Median distortion over seeds is non-increasing in m (small scale)."""
    d, n = 256, 20
    pts = np.random.default_rng(6).standard_normal((n, d))
    medians = []
    for m in (32, 64, 128):
        eps = []
        for s in range(8):
            op = build_sketch(d, m, 8, "fourier", seed=1000 + s)
            emb = jl_embed(op, pts, seed=2000 + s)
            eps.append(distortion_report(pts, emb).epsilon_hat)
        medians.append(np.median(eps))
    inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a)
    assert inversions <= 1, medians


# ---------------------------------------------------------------------------
# CSV round trips


def test_real_point_csv_roundtrip(tmp_path):
    pts = np.random.default_rng(7).standard_normal((5, 6))
    path = tmp_path / "pts.csv"
    write_point_set(path, pts)
    header = path.read_text().splitlines()[0]
    assert header == "d=6,complex=0"
    np.testing.assert_array_equal(read_point_set(path), pts)


def test_complex_point_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    path = tmp_path / "cpts.csv"
    write_point_set(path, pts)
    header = path.read_text().splitlines()[0]
    assert header == "d=4,complex=1"
    np.testing.assert_array_equal(read_point_set(path), pts)


def test_complex_point_csv_keeps_every_stored_value(tmp_path):
    # inf and the sign of zero come back as stored, with no NaN and no warning.
    path = tmp_path / "special.csv"
    path.write_text("d=2,complex=1\n1.0,inf,-0.0,2.0\n")
    got = read_point_set(path)
    assert got.dtype == np.complex128 and got.shape == (1, 2)
    assert got[0, 0].real == 1.0 and got[0, 0].imag == np.inf
    assert got[0, 1].real == 0.0 and np.signbit(got[0, 1].real) and got[0, 1].imag == 2.0
    write_point_set(tmp_path / "again.csv", got)
    assert (tmp_path / "again.csv").read_text() == "d=2,complex=1\n1.0,inf,-0.0,2.0\n"


def test_malformed_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("dimension=4\n1,2,3,4\n")
    with pytest.raises(ValueError, match="header"):
        read_point_set(path)
