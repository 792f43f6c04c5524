"""Sparse-recovery solvers driven by matrix-free operator application.

Neither solver materializes the operator.  Both run one loop, and each
iteration makes one ``apply`` and one ``apply_adjoint``.  Both solvers
also read columns of their current support through ``columns``, in
closed form and without a transform: IHT the at most k columns that set
its step size, CoSaMP the at most 3k columns of its merged support.
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

    @classmethod
    def from_dense(cls, x: np.ndarray) -> "SparseSignal":
        x = np.asarray(x, dtype=np.complex128)
        support = np.flatnonzero(x != 0)
        return cls(d=x.shape[0], support=support, values=x[support])

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
    """

    estimate: SparseSignal
    iterations_used: int
    residual_norm: float
    converged: bool
    residual_norms: tuple[float, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate.to_json_dict(),
            "iterations_used": self.iterations_used,
            "residual_norm": self.residual_norm,
            "converged": self.converged,
            "residual_norms": list(self.residual_norms),
        }


def _top_k_indices(x: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest-modulus entries; ties go to the smaller index."""
    if k == 0:
        return np.empty(0, dtype=np.intp)
    order = np.lexsort((np.arange(x.shape[0]), -np.abs(x)))
    return order[:k]


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


def _solve(op: SketchOperator, y: np.ndarray, k: int, max_iters: int, tol: float, update):
    """The iteration shared by the solvers.

    From x = 0, each iteration computes r = y - Phi x and g = Phi* r and
    takes x <- update(x, g).  It stops when the relative iterate change
    drops to ``tol`` (converged), after ``max_iters`` iterations, or when
    ``update`` returns None (not converged).  The estimate is the final
    iterate thresholded to k terms.
    """
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (op.m,):
        raise ValueError(f"measurements must have shape ({op.m},), got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("measurements must be finite")
    if not 0 <= k <= op.d:
        raise ValueError(f"sparsity k must lie in [0, {op.d}], got {k}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    x = np.zeros(op.d, dtype=np.complex128)
    residual_norms = []
    converged = False
    for _ in range(max_iters):
        r = y - apply(op, x)
        residual_norms.append(float(np.linalg.norm(r)))
        x_new = update(x, apply_adjoint(op, r))
        if x_new is None:
            break
        change = _relative_change(x_new, x)
        x = x_new
        if change <= tol:
            converged = True
            break
    return RecoveryResult(
        estimate=hard_threshold(x, k),
        iterations_used=len(residual_norms),
        residual_norm=float(np.linalg.norm(y - apply(op, x))),
        converged=converged,
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
    iterations.
    """

    def update(x: np.ndarray, g: np.ndarray) -> np.ndarray:
        support = np.flatnonzero(x) if x.any() else _top_k_indices(g, k)
        g_s = g[support]
        phi_g_s = columns(op, support) @ g_s
        curvature = float(np.vdot(phi_g_s, phi_g_s).real)
        mu = float(np.vdot(g_s, g_s).real) / curvature if curvature > 0 else 1.0
        return hard_threshold(x + mu * g, k).to_dense()

    return _solve(op, y, k, max_iters, tol, update)


def cosamp(
    op: SketchOperator,
    y: np.ndarray,
    k: int,
    max_iters: int = 50,
    tol: float = 1e-10,
) -> RecoveryResult:
    """Compressive sampling matching pursuit.

    Per iteration: take the top-2k support of the adjoint proxy, merge
    with the current support, least-squares on the merged columns taken
    from ``columns`` (normal equations with a 1e-12 diagonal ridge),
    prune to the top k.  A singular least-squares system sets
    ``converged=False`` and stops instead of raising.
    """
    if 3 * k > op.d:
        raise ValueError(f"cosamp needs 3k <= d, got k={k}, d={op.d}")
    y = np.asarray(y, dtype=np.complex128)

    def update(x: np.ndarray, proxy: np.ndarray) -> np.ndarray | None:
        proxy_support = _top_k_indices(proxy, min(2 * k, op.d))
        proxy_support = proxy_support[proxy[proxy_support] != 0]
        merged = np.union1d(proxy_support, np.flatnonzero(x != 0)).astype(np.intp)
        if merged.size == 0:
            return np.zeros_like(x)
        cols = columns(op, merged)
        gram = np.conj(cols.T) @ cols + 1e-12 * np.eye(merged.size)
        try:
            coef = np.linalg.solve(gram, np.conj(cols.T) @ y)
        except np.linalg.LinAlgError:
            return None
        dense = np.zeros(op.d, dtype=np.complex128)
        dense[merged] = coef
        return hard_threshold(dense, k).to_dense()

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
