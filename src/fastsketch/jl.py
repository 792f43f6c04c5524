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

from fastsketch.rng import derive_seed, stream
from fastsketch.sketch import SketchOperator, apply

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
    a 1-D input is treated as a single point.
    """
    pts = np.asarray(points)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != op.d:
        raise ValueError(f"points must have shape (N, {op.d}), got {np.shape(points)}")
    rng = stream(derive_seed(seed, 0, "jl-diagonal"))
    xi = rng.integers(0, 2, size=op.d).astype(np.float64) * 2.0 - 1.0
    return apply(op, pts * xi)


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
    """Exact pairwise-ratio sweep over all N(N-1)/2 pairs."""
    orig = np.asarray(original)
    emb = np.asarray(embedded)
    if orig.ndim != 2 or emb.ndim != 2:
        raise ValueError("point sets must be 2-D arrays, one point per row")
    if orig.shape[0] != emb.shape[0]:
        raise ValueError(
            f"point count mismatch: {orig.shape[0]} original vs {emb.shape[0]} embedded"
        )
    n = orig.shape[0]
    if n < 2:
        raise ValueError("need at least two points for a distortion report")
    max_expansion = -np.inf
    min_contraction = np.inf
    evaluated = 0
    zero_pairs = 0
    for i in range(n - 1):
        d_orig = np.linalg.norm(orig[i + 1 :] - orig[i], axis=1)
        d_emb = np.linalg.norm(emb[i + 1 :] - emb[i], axis=1)
        nonzero = d_orig > 0.0
        zero_pairs += int(np.count_nonzero(~nonzero))
        if np.any(nonzero):
            ratios = d_emb[nonzero] / d_orig[nonzero]
            max_expansion = max(max_expansion, float(ratios.max()))
            min_contraction = min(min_contraction, float(ratios.min()))
            evaluated += int(np.count_nonzero(nonzero))
    if evaluated == 0:
        return DistortionReport(float("nan"), float("nan"), 0.0, 0, zero_pairs)
    epsilon_hat = max(max_expansion - 1.0, 1.0 - min_contraction, 0.0)
    return DistortionReport(max_expansion, min_contraction, epsilon_hat, evaluated, zero_pairs)


def write_point_set(path, points: np.ndarray) -> None:
    """Write points as CSV: header ``d=<d>,complex=<0|1>``, one row per point.

    Complex coordinates are interleaved as re,im pairs (2d columns).
    """
    pts = np.asarray(points)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    is_complex = bool(np.iscomplexobj(pts))
    d = pts.shape[1]
    lines = [f"d={d},complex={int(is_complex)}"]
    for row in pts:
        if is_complex:
            flat = np.empty(2 * d, dtype=np.float64)
            flat[0::2] = row.real
            flat[1::2] = row.imag
        else:
            flat = np.asarray(row, dtype=np.float64)
        lines.append(",".join(repr(float(v)) for v in flat))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_point_set(path) -> np.ndarray:
    """Inverse of :func:`write_point_set`."""
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
        return data[:, 0::2] + 1j * data[:, 1::2]
    if data.shape[1] != d:
        raise ValueError(f"expected {d} columns, got {data.shape[1]}")
    return data
