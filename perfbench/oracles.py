"""Reference computations and output checks, made apart from the program.

Nothing here calls into ``fastsketch``: the dense operator is rebuilt
from the payload an operator stores (row indices, circulant signs or
Gaussian matrix, and the m x B sign table) by the bucket formula of the
sketch, and distances come from ``scipy.spatial.distance.pdist``.  Every
``check_*`` function returns a list of failure messages, empty when the
output passes; none compares against a stored copy of earlier output.
"""

from __future__ import annotations

import itertools

import numpy as np

#: Relative error allowed between a program figure and its reference.
#: Both sides are float64 sums of at most a few hundred thousand terms,
#: so honest outputs agree to ~1e-12; a figure off by 1e-6 is rejected.
RTOL = 1e-9

#: Noiseless recovery must reproduce the planted signal to this relative
#: l2 error.
RECOVERY_RTOL = 1e-6

#: Slack on eigenvalue bounds, for rounding in eigvalsh on k x k Grams.
EIG_SLACK = 1e-9


def _parity(x: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each non-negative integer (xor folding)."""
    x = np.array(x, dtype=np.uint64)
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> np.uint64(shift)
    return (x & np.uint64(1)).astype(np.int64)


def source_entries(source, cols: np.ndarray) -> np.ndarray:
    """Entries A[:, cols] of the unnormalized (M x d) row source, shape (M, len(cols))."""
    cols = np.asarray(cols, dtype=np.int64)
    d = source.d
    rows = np.arange(source.M, dtype=np.int64)
    if source.kind == "partial_fourier":
        # Reduce the phase index mod d in integers before scaling, so the
        # angle stays in [0, 2*pi) at every d.
        idx = np.asarray(source.indices, dtype=np.int64)
        phase = np.outer(idx, cols) % d
        return np.exp(-2j * np.pi * phase / d)
    if source.kind == "partial_hadamard":
        idx = np.asarray(source.indices, dtype=np.int64)
        return 1.0 - 2.0 * _parity(idx[:, None] & cols[None, :])
    if source.kind == "partial_circulant":
        # Row r is eps cyclically shifted by r: A[r, j] = eps[(r - j) mod d].
        return np.asarray(source.eps)[(rows[:, None] - cols[None, :]) % d]
    return np.asarray(source.matrix)[:, cols]


def dense_columns(op, cols: np.ndarray) -> np.ndarray:
    """Columns Phi[:, cols] by the bucket formula, shape (m, len(cols)).

    phi_b = (1/sqrt(m*B)) * sum_i signs[b, i] * a_{B*b + i} (0-based b, i).
    """
    signs = np.asarray(op.signs, dtype=np.float64)
    m, B = signs.shape
    rows = source_entries(op.source, cols).reshape(m, B, -1)
    return np.einsum("bi,bic->bc", signs, rows) / np.sqrt(m * B)


def dense_phi(op) -> np.ndarray:
    """The whole m x d operator (small d only)."""
    return dense_columns(op, np.arange(op.source.d))


def gershgorin_bound(phi: np.ndarray, k: int) -> float:
    """max_j |<phi_j, phi_j> - 1| + (k - 1) * max_{i != j} |<phi_i, phi_j>|.

    Every eigenvalue of a k-column Gram submatrix lies within this
    distance of 1, so it bounds the restricted-isometry constant at k.
    """
    gram = np.conj(phi.T) @ phi
    diag = np.real(np.diag(gram))
    off = np.abs(gram - np.diag(np.diag(gram)))
    return float(np.max(np.abs(diag - 1.0)) + (k - 1) * off.max())


def exhaustive_rip_constant(phi: np.ndarray, k: int) -> float:
    """Isometry constant at k over every k-column support of a small matrix."""
    supports = np.array(list(itertools.combinations(range(phi.shape[1]), k)))
    sub = np.moveaxis(phi[:, supports], 0, 1)  # (n, m, k)
    eig = np.linalg.eigvalsh(np.einsum("nmk,nml->nkl", np.conj(sub), sub))
    return float(max(eig[:, -1].max() - 1.0, 1.0 - eig[:, 0].min()))


def check_recovery(x_true: np.ndarray, estimate: np.ndarray, residual_norm: float) -> list[str]:
    """Relative l2 error against the planted signal, and a finite residual."""
    failures = []
    rel = float(np.linalg.norm(estimate - x_true) / np.linalg.norm(x_true))
    if not rel <= RECOVERY_RTOL:
        failures.append(f"relative l2 error {rel:.3e} exceeds {RECOVERY_RTOL:g}")
    if not np.isfinite(residual_norm):
        failures.append(f"residual norm {residual_norm} is not finite")
    return failures


def check_rip(epsilon: float, supports_evaluated: int, trials: int, bound: float) -> list[str]:
    """Support count, and 0 <= epsilon <= the Gershgorin bound."""
    failures = []
    if supports_evaluated != trials:
        failures.append(f"{supports_evaluated} supports evaluated, {trials} asked for")
    if not 0.0 <= epsilon <= bound + EIG_SLACK:
        failures.append(f"epsilon {epsilon!r} outside [0, Gershgorin bound {bound!r}]")
    return failures


def check_rip_small(epsilon: float, exhaustive: float) -> list[str]:
    """A sampled lower bound may not exceed the exhaustive constant."""
    if epsilon <= exhaustive + EIG_SLACK:
        return []
    return [f"sampled epsilon {epsilon!r} exceeds the exhaustive constant {exhaustive!r}"]


def check_signed_columns(embedded: np.ndarray, columns: np.ndarray) -> list[str]:
    """Each embedded basis vector equals + or - its own dense column.

    ``embedded`` holds one embedded basis vector per row, ``columns`` the
    matching dense columns as columns.
    """
    failures = []
    for n, (got, col) in enumerate(zip(embedded, columns.T)):
        scale = np.linalg.norm(col)
        miss = min(np.linalg.norm(got - col), np.linalg.norm(got + col))
        if not miss <= RTOL * scale:
            failures.append(f"embedded basis vector {n} differs from +-column by {miss:.3e}")
    return failures


def check_linearity(
    combined: np.ndarray, parts: np.ndarray, weights: tuple[float, float]
) -> list[str]:
    """embed(a*p + b*q) == a*embed(p) + b*embed(q)."""
    expected = weights[0] * parts[0] + weights[1] * parts[1]
    miss = float(np.linalg.norm(combined - expected))
    if miss <= RTOL * float(np.linalg.norm(expected)):
        return []
    return [f"embedding is not linear on a pair of points: miss {miss:.3e}"]


def reference_distortion(points: np.ndarray, embedded: np.ndarray) -> dict:
    """All-pairs expansion/contraction from pdist (complex split into re, im)."""
    # Imported on first use, so that scipy stays out of the measured set-up.
    from scipy.spatial.distance import pdist

    emb = np.asarray(embedded)
    if np.iscomplexobj(emb):
        emb = np.hstack([emb.real, emb.imag])
    ratios = pdist(emb) / pdist(np.asarray(points, dtype=np.float64))
    hi, lo = float(ratios.max()), float(ratios.min())
    return {
        "max_expansion": hi,
        "min_contraction": lo,
        "epsilon_hat": max(hi - 1.0, 1.0 - lo, 0.0),
        "pairs_evaluated": int(ratios.size),
    }


def check_distortion(report, reference: dict) -> list[str]:
    """Every figure of a distortion report equals the pdist reference."""
    failures = []
    if report.pairs_evaluated != reference["pairs_evaluated"]:
        failures.append(
            f"pairs_evaluated {report.pairs_evaluated} != {reference['pairs_evaluated']}"
        )
    for key in ("max_expansion", "min_contraction", "epsilon_hat"):
        got, want = getattr(report, key), reference[key]
        if not abs(got - want) <= RTOL * max(abs(want), 1e-3):
            failures.append(f"{key} {got!r} != reference {want!r}")
    return failures
