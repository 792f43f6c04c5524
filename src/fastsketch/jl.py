"""Johnson-Lindenstrauss embedding via random column signs, plus distortion reports.

A sketch operator that acts as a near-isometry on sparse vectors becomes
a distance-preserving embedding for a fixed finite point set once the
coordinates are pre-multiplied by a single random +-1 diagonal.  The
same diagonal is shared by every point, so the embedding is linear.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from fastsketch.rng import derive_seed, signs, stream
from fastsketch.sketch import SketchOperator, _row_blocks, apply

__all__ = [
    "jl_embed",
    "DistortionReport",
    "distortion_report",
    "write_point_set",
    "read_point_set",
]


def jl_embed(op: SketchOperator, points: np.ndarray, seed: int) -> np.ndarray:
    """Embed an (N, d) point set into dimension m.

    Draws one sign vector xi in {+-1}^d from ``seed`` (purpose tag
    ``"jl-diagonal"``) and returns ``apply(op, xi * x)`` for every point;
    a 1-D input is treated as a single point.  The points are signed and
    applied one of ``apply``'s row blocks at a time, so no (N, d) product is
    formed and each point's embedding is the one it gets on its own.  Raises
    ``ValueError`` when the embedding is not finite, which a NaN or inf
    coordinate always causes.
    """
    pts = np.asarray(points)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != op.d:
        raise ValueError(f"points must have shape (N, {op.d}), got {np.shape(points)}")
    xi = signs(stream(derive_seed(seed, 0, "jl-diagonal")), op.d)
    out = np.empty((pts.shape[0], op.m), dtype=np.complex128)
    with np.errstate(invalid="ignore", over="ignore"):
        # apply's own partition, so each call is one whole block of apply's
        # loop: only that block is ever signed, and a larger slice would be
        # split the same way.
        for block in _row_blocks(pts.shape[0], op.d):
            out[block] = apply(op, pts[block] * xi)
    # Each source row weights all d coordinates by nonzero entries (unit-modulus
    # Fourier, +-1 Hadamard, a +-1 circulant generator, a Gaussian matrix), and
    # the bucket sums add whole rows.  NaN never cancels in such sums and inf
    # stays inf or turns into NaN, so checking the N x m output, O(N m) rather
    # than O(N d), finds every non-finite point, and any overflow too.
    if not np.all(np.isfinite(out)):
        raise ValueError("points must be finite: the embedding holds NaN or inf")
    return out


@dataclass(frozen=True)
class DistortionReport:
    """All-pairs distance distortion of an embedding.

    ``epsilon_hat = max(max_expansion - 1, 1 - min_contraction)``;
    zero-distance pairs are excluded from the ratios and counted in
    ``zero_distance_pairs``.
    """

    max_expansion: float
    min_contraction: float
    epsilon_hat: float
    pairs_evaluated: int
    zero_distance_pairs: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def distortion_report(original: np.ndarray, embedded: np.ndarray) -> DistortionReport:
    """Distance ratios over all N(N-1)/2 pairs of an embedded point set.

    Each side's distances come from one Gram product (see
    :func:`_pair_distances`), so the report holds O(N^2) memory per side,
    no more than the N x d input whenever N <= d.  Raises ``ValueError``
    when a point's squared norm is NaN or infinite.
    """
    orig = np.asarray(original)
    emb = np.asarray(embedded)
    if orig.ndim != 2 or emb.ndim != 2:
        raise ValueError("point sets must be 2-D arrays, one point per row")
    if orig.shape[0] != emb.shape[0]:
        raise ValueError(
            f"point count mismatch: {orig.shape[0]} original vs {emb.shape[0]} embedded"
        )
    return _ratio_report(_pair_distances(orig), _pair_distances(emb))


#: A pair keeps its Gram-formula distance only when d^2 exceeds this share of
#: s = |p_i|^2 + |p_j|^2.  The three terms of d^2 = |p_i|^2 + |p_j|^2 -
#: 2 Re G_ij are length-d dot products, each off by at most d u times its
#: share of s (u = 2^-53; |G_ij| <= s / 2), so d^2 is off by at most about
#: 2 d u s in the worst case, and by O(sqrt(d) u s) when rounding errors
#: have random signs.  Above the guard that is at most 32 d u of d^2, and the
#: distance is within 16 d u relative: under 5e-10 at d = 2^18 even in the
#: worst case, against the 1e-9 the benchmark's pdist oracle allows.  Pairs at
#: or below it (duplicates, near-duplicates, clouds far from the origin) lose
#: digits to cancellation, so they are recomputed from their own difference.
_CANCELLATION_GUARD = 1.0 / 16.0


def _pair_distances(points: np.ndarray) -> np.ndarray:
    """||p_i - p_j|| for i < j, in the order of ``scipy.spatial.distance.pdist``.

    One Gram product gives d^2_ij = |p_i|^2 + |p_j|^2 - 2 Re G_ij; pairs whose
    d^2 falls under ``_CANCELLATION_GUARD`` are recomputed from their
    difference, N pairs at a time.  Memory is O(N^2) for the Gram matrix and
    the pair arrays, which is no more than the N x d input whenever N <= d.
    """
    pts = np.asarray(points)
    if np.iscomplexobj(pts):
        # Re(P P^H) is the Gram product of the (re, im)-interleaved real rows,
        # whose pairwise distances are those of the complex points.
        pts = np.ascontiguousarray(pts, dtype=np.complex128).view(np.float64)
    else:
        pts = np.asarray(pts, dtype=np.float64)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("need at least two points for a distortion report")
    with np.errstate(invalid="ignore", over="ignore"):
        gram = pts @ pts.T
    sq_norms = np.diagonal(gram)
    if not np.all(np.isfinite(sq_norms)):
        raise ValueError("points must be finite: a squared norm is NaN or infinite")
    i, j = np.triu_indices(n, k=1)
    scale = sq_norms[i] + sq_norms[j]
    d2 = scale - 2.0 * gram[i, j]
    cancelled = np.flatnonzero(d2 <= _CANCELLATION_GUARD * scale)
    d2[cancelled] = 0.0
    dist = np.sqrt(d2, out=d2)
    for start in range(0, cancelled.size, n):
        k = cancelled[start : start + n]
        dist[k] = np.linalg.norm(pts[j[k]] - pts[i[k]], axis=1)
    return dist


def _ratio_report(source: np.ndarray, target: np.ndarray) -> DistortionReport:
    """Report from matching pair distances before (source) and after (target)."""
    nonzero = source > 0.0
    evaluated = int(np.count_nonzero(nonzero))
    zero_pairs = source.size - evaluated
    if evaluated == 0:
        return DistortionReport(float("nan"), float("nan"), 0.0, 0, zero_pairs)
    ratios = target[nonzero] / source[nonzero]
    max_expansion, min_contraction = float(ratios.max()), float(ratios.min())
    epsilon_hat = max(max_expansion - 1.0, 1.0 - min_contraction, 0.0)
    return DistortionReport(max_expansion, min_contraction, epsilon_hat, evaluated, zero_pairs)


def write_point_set(path, points: np.ndarray) -> None:
    """Write points as CSV: header ``d=<d>,complex=<0|1>``, one row per point.

    Complex coordinates are interleaved as re,im pairs (2d columns).  Each
    value is written by ``repr``, so it reads back exactly.
    """
    pts = np.asarray(points)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    is_complex = bool(np.iscomplexobj(pts))
    lines = [f"d={pts.shape[1]},complex={int(is_complex)}"]
    flat = np.ascontiguousarray(pts, dtype=np.complex128 if is_complex else np.float64)
    for row in flat.view(np.float64):
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_point_set(path) -> np.ndarray:
    """Inverse of :func:`write_point_set`: every stored value comes back exactly."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"empty point-set file: {path}")
    header = dict(item.split("=", 1) for item in lines[0].split(","))
    try:
        d = int(header["d"])
        is_complex = bool(int(header["complex"]))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed point-set header {lines[0]!r}") from exc
    rows = [np.array([float(v) for v in line.split(",")]) for line in lines[1:]]
    data = np.vstack(rows) if rows else np.empty((0, 2 * d if is_complex else d))
    if is_complex:
        if data.shape[1] != 2 * d:
            raise ValueError(f"expected {2 * d} columns for complex points, got {data.shape[1]}")
        return data.view(np.complex128)
    if data.shape[1] != d:
        raise ValueError(f"expected {d} columns, got {data.shape[1]}")
    return data
