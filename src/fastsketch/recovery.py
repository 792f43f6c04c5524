"""Sparse-recovery solvers driven by matrix-free operator application.

Neither solver materializes the operator.  Both run one loop that holds
Phi x of its iterate, so the residual y - Phi x never costs a transform
of its own: IHT makes one ``apply_adjoint`` and one ``apply`` (of the
new iterate) per iteration, CoSaMP one ``apply_adjoint`` and no
``apply``.  Both read columns through ``columns``, in closed form and
without a transform: IHT the at most k columns that set its step size,
CoSaMP the columns of its merged support (at most 3k) that it did not
already hold from the previous iteration.
Complex signals are supported end to end; thresholding keeps the
entries of largest modulus, breaking ties toward the smaller index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fastsketch.sketch import SketchOperator, apply, apply_adjoint, columns

__all__ = [
    "SparseSignal",
    "RecoveryResult",
    "hard_threshold",
    "iht",
    "cosamp",
    "l2l1_metrics",
]


@dataclass(frozen=True)
class SparseSignal:
    """A d-dimensional vector stored as (support, values); no explicit zeros."""

    d: int
    support: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        supp = np.asarray(self.support, dtype=np.intp)
        vals = np.asarray(self.values, dtype=np.complex128)
        if supp.ndim != 1 or vals.shape != supp.shape:
            raise ValueError("support and values must be aligned 1-D arrays")
        if supp.size:
            if supp[0] < 0 or supp[-1] >= self.d or np.any(np.diff(supp) <= 0):
                raise ValueError("support must be strictly increasing indices in [0, d)")
            if np.any(vals == 0):
                raise ValueError("explicit zeros are not stored in a SparseSignal")
        supp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "support", supp)
        object.__setattr__(self, "values", vals)

    @property
    def nnz(self) -> int:
        return int(self.support.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.d, dtype=np.complex128)
        out[self.support] = self.values
        return out

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "support": [int(i) for i in self.support],
            "values_re": [float(v.real) for v in self.values],
            "values_im": [float(v.imag) for v in self.values],
        }


@dataclass(frozen=True)
class RecoveryResult:
    """Solver output: the estimate plus convergence bookkeeping.

    ``residual_norms`` holds ||y - Phi x_t|| for the iterate entering each
    iteration, so non-monotone steps can be inspected after the fact.
    ``stop_reason`` says why the loop ended: ``"converged"`` (the relative
    iterate change reached ``tol``, or CoSaMP's residual rule held),
    ``"max_iters"`` (the iteration budget ran out) or ``"singular"``
    (CoSaMP's least-squares system could not be solved).  The solve's
    work is counted in ``apply_calls`` (forward ``apply`` calls),
    ``adjoint_calls`` (``apply_adjoint`` calls) and ``columns_extracted``
    (columns read through ``columns``).
    """

    estimate: SparseSignal
    iterations_used: int
    residual_norm: float
    stop_reason: str
    apply_calls: int
    adjoint_calls: int
    columns_extracted: int
    residual_norms: tuple[float, ...] = ()

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate.to_json_dict(),
            "iterations_used": self.iterations_used,
            "residual_norm": self.residual_norm,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "apply_calls": self.apply_calls,
            "adjoint_calls": self.adjoint_calls,
            "columns_extracted": self.columns_extracted,
            "residual_norms": list(self.residual_norms),
        }


def _top_k_indices(x: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest-modulus entries, largest first; ties go to the smaller index.

    A partition finds the k-th largest modulus in O(d); only the entries
    at or above it are sorted.
    """
    if k == 0:
        return np.empty(0, dtype=np.intp)
    neg = -np.abs(x)
    # Not "<=": a NaN k-th value then keeps every entry, and the stable
    # sort puts NaN last, as a full sort would.
    candidates = np.flatnonzero(~(neg > np.partition(neg, k - 1)[k - 1]))
    return candidates[np.argsort(neg[candidates], kind="stable")[:k]]


def hard_threshold(x: np.ndarray, k: int) -> SparseSignal:
    """Best k-term approximation of a dense vector."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError("expected a 1-D vector")
    if k < 0:
        raise ValueError(f"sparsity k must be nonnegative, got {k}")
    if k > x.shape[0]:
        raise ValueError(f"sparsity k={k} exceeds dimension {x.shape[0]}")
    keep = np.sort(_top_k_indices(x, k))
    keep = keep[x[keep] != 0]  # never store explicit zeros
    return SparseSignal(d=x.shape[0], support=keep, values=x[keep])


def _relative_change(new: np.ndarray, old: np.ndarray) -> float:
    denom = float(np.linalg.norm(new))
    diff = float(np.linalg.norm(new - old))
    if denom == 0.0:
        return 0.0 if diff == 0.0 else np.inf
    return diff / denom


class _Work:
    """One solve's calls of Phi, Phi* and ``columns``, counted for its report."""

    def __init__(self, op: SketchOperator):
        self.op = op
        self.apply_calls = 0
        self.adjoint_calls = 0
        self.columns_extracted = 0

    def apply(self, x: np.ndarray) -> np.ndarray:
        self.apply_calls += 1
        return apply(self.op, x)

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        self.adjoint_calls += 1
        return apply_adjoint(self.op, r)

    def columns(self, support: np.ndarray) -> np.ndarray:
        self.columns_extracted += support.size
        return columns(self.op, support)


def _validated(op: SketchOperator, y: np.ndarray, k: int, max_iters: int, tol: float) -> np.ndarray:
    """Check a solver's arguments; return the measurements as complex128."""
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (op.m,):
        raise ValueError(f"measurements must have shape ({op.m},), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("measurements must be finite")
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"sparsity k must be an integer, got {k!r}")
    if not 0 <= k <= op.d:
        raise ValueError(f"sparsity k must lie in [0, {op.d}], got {k}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return y


def _solve(op: SketchOperator, y: np.ndarray, k: int, max_iters: int, tol: float, update):
    """The iteration shared by the solvers, on validated arguments.

    From x = 0 and Phi x = 0, each iteration forms r = y - Phi x and
    takes (x, Phi x) <- update(work, x, r); ``update`` makes its own
    calls through ``work`` and returns Phi of its new iterate, so the
    loop never applies Phi itself.  It stops when the relative iterate
    change drops to ``tol`` ("converged"), after ``max_iters``
    iterations ("max_iters"), or when ``update`` returns None because
    its linear system is singular ("singular").  The estimate is the
    final iterate thresholded to k terms, and ``residual_norm`` is
    ||y - Phi x|| of the Phi x the loop holds.
    """
    work = _Work(op)
    x = np.zeros(op.d, dtype=np.complex128)
    phi_x = np.zeros(op.m, dtype=np.complex128)
    residual_norms = []
    stop_reason = "max_iters"
    for _ in range(max_iters):
        r = y - phi_x
        residual_norms.append(float(np.linalg.norm(r)))
        step = update(work, x, r)
        if step is None:
            stop_reason = "singular"
            break
        change = _relative_change(step[0], x)
        x, phi_x = step
        if change <= tol:
            stop_reason = "converged"
            break
    return RecoveryResult(
        estimate=hard_threshold(x, k),
        iterations_used=len(residual_norms),
        residual_norm=float(np.linalg.norm(y - phi_x)),
        stop_reason=stop_reason,
        apply_calls=work.apply_calls,
        adjoint_calls=work.adjoint_calls,
        columns_extracted=work.columns_extracted,
        residual_norms=tuple(residual_norms),
    )


def iht(
    op: SketchOperator,
    y: np.ndarray,
    k: int,
    max_iters: int = 500,
    tol: float = 1e-10,
) -> RecoveryResult:
    """Normalized iterative hard thresholding (Blumensath & Davies, 2010).

    Iterates x <- threshold_k(x + mu g) with g = Phi*(y - Phi x), from
    x = 0.  The step mu = ||g_S||^2 / ||Phi g_S||^2 is exact line search
    on the support S of x (the top k of g while x = 0), with Phi g_S
    taken from ``columns``; mu = 1 when Phi g_S = 0.  Stops when the
    relative iterate change drops to ``tol`` or after ``max_iters``
    iterations.  Each iteration makes one adjoint, reads at most k columns
    and makes one ``apply``, of the new iterate, whose result forms the
    next residual.

    ``columns(op, S) @ g[S]`` costs O(mBk) and ``apply`` of the sparse
    g_S costs a full transform, O(d log d).  At m=400, B=16, k=20 (one
    BLAS thread) ``apply`` is faster only up to d = 2^14, by 0.3-0.9 ms
    per iteration on Fourier and Hadamard sources; from d = 2^15 on
    ``columns`` is faster, by 40-100x at d = 2^20.
    """
    y = _validated(op, y, k, max_iters, tol)

    def update(work: _Work, x: np.ndarray, r: np.ndarray):
        g = work.adjoint(r)
        support = np.flatnonzero(x) if x.any() else _top_k_indices(g, k)
        g_s = g[support]
        phi_g_s = work.columns(support) @ g_s
        curvature = float(np.vdot(phi_g_s, phi_g_s).real)
        mu = float(np.vdot(g_s, g_s).real) / curvature if curvature > 0 else 1.0
        x_new = hard_threshold(x + mu * g, k).to_dense()
        return x_new, work.apply(x_new)

    return _solve(op, y, k, max_iters, tol, update)


def cosamp(
    op: SketchOperator,
    y: np.ndarray,
    k: int,
    max_iters: int = 50,
    tol: float = 1e-10,
) -> RecoveryResult:
    """Compressive sampling matching pursuit (Needell & Tropp, 2009).

    Per iteration: take the top-2k support of the adjoint proxy, merge
    with the current support, least-squares on the merged columns
    (normal equations with a 1e-12 diagonal ridge), prune to the top k.
    The loop halts as "converged" when the relative iterate change drops
    to ``tol``, or at the top of an iteration whose nonzero iterate
    already has ||y - Phi x|| <= tol ||y||; that iteration makes no
    adjoint, no ``columns`` call and no solve.  A singular least-squares
    system stops the loop with ``stop_reason="singular"`` instead of
    raising.

    CoSaMP never calls ``apply``.  It holds the column block of its last
    merged support, which contains the support of the current iterate,
    and reads through ``columns`` only the merged indices it does not
    hold; Phi of the pruned iterate is its kept columns times their
    coefficients.
    """
    y = _validated(op, y, k, max_iters, tol)
    if 3 * k > op.d:
        raise ValueError(f"cosamp needs 3k <= d, got k={k}, d={op.d}")
    halt_norm = tol * float(np.linalg.norm(y))
    held = np.empty(0, dtype=np.intp)
    held_cols = np.empty((op.m, 0), dtype=np.complex128)
    last = None

    def update(work: _Work, x: np.ndarray, r: np.ndarray):
        nonlocal held, held_cols, last
        if x.any() and np.linalg.norm(r) <= halt_norm:
            return last
        proxy = work.adjoint(r)
        proxy_support = _top_k_indices(proxy, 2 * k)
        proxy_support = proxy_support[proxy[proxy_support] != 0]
        merged = np.union1d(proxy_support, np.flatnonzero(x != 0)).astype(np.intp)
        if merged.size == 0:
            return np.zeros_like(x), np.zeros(op.m, dtype=np.complex128)
        have = np.isin(merged, held, assume_unique=True)
        cols = np.empty((op.m, merged.size), dtype=np.complex128)
        cols[:, have] = held_cols[:, np.searchsorted(held, merged[have])]
        if not have.all():
            cols[:, ~have] = work.columns(merged[~have])
        held, held_cols = merged, cols
        cols_h = np.conj(cols.T)
        gram = cols_h @ cols + 1e-12 * np.eye(merged.size)
        try:
            coef = np.linalg.solve(gram, cols_h @ y)
        except np.linalg.LinAlgError:
            return None
        dense = np.zeros(op.d, dtype=np.complex128)
        dense[merged] = coef
        estimate = hard_threshold(dense, k)
        kept = np.searchsorted(merged, estimate.support)
        last = (estimate.to_dense(), cols[:, kept] @ coef[kept])
        return last

    return _solve(op, y, k, max_iters, tol, update)


def l2l1_metrics(true_x: np.ndarray, estimate: SparseSignal, k: int) -> tuple[float, float]:
    """(l2 error, error / best-k-term l1 tail over sqrt(k)).

    The ratio is 0.0 when both the error and the tail vanish and +inf
    when the tail is zero but the error is not.
    """
    x = np.asarray(true_x, dtype=np.complex128)
    if x.ndim != 1 or x.shape[0] != estimate.d:
        raise ValueError(f"true signal must have shape ({estimate.d},), got {x.shape}")
    if not 1 <= k <= x.shape[0]:
        raise ValueError(f"sparsity k must lie in [1, {x.shape[0]}], got {k}")
    err = float(np.linalg.norm(estimate.to_dense() - x))
    tail = float(np.abs(x - hard_threshold(x, k).to_dense()).sum())
    if tail == 0.0:
        return (err, 0.0 if err == 0.0 else float("inf"))
    return (err, err / (tail / np.sqrt(k)))
