"""Sparse-recovery solvers driven by matrix-free operator application.

Neither solver materializes the operator or calls ``apply``.  Both run
one loop that holds its iterate sparsely, as (support, values) plus
Phi x, and both read Phi through one held column block, which reads
through ``columns`` (closed form, no transform) only the columns it
does not hold and returns the block itself when asked for the support
it holds.  Phi of a sparse iterate is its columns times its values, so
an iteration costs one ``apply_adjoint``, one top-k partition of its
output, and work on the support alone.
A solve runs in ``RowSource.dtype``'s rule for Phi and the measurements;
estimates are complex128.
Thresholding keeps the entries of largest modulus, breaking ties toward
the smaller index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fastsketch.ensembles import _check_last_axis
# ``apply`` is unused here but stays importable as ``recovery.apply``:
# the tracer self-test in perfbench/ checks that alias.
from fastsketch.sketch import SketchOperator, apply, apply_adjoint, columns  # noqa: F401
from fastsketch.transforms import _frozen

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
    """A d-dimensional vector stored as (support, values); no explicit zeros.

    Both arrays are kept read-only; a writeable array the caller passed is
    copied, so the caller's array stays writeable (``_frozen``).
    """

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
        object.__setattr__(self, "support", _frozen(supp, self.support))
        object.__setattr__(self, "values", _frozen(vals, self.values))

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
    work is counted in ``adjoint_calls`` (``apply_adjoint`` calls) and
    ``columns_extracted`` (columns read through ``columns``, not counting
    those served from the held block); neither solver calls ``apply``.
    """

    estimate: SparseSignal
    iterations_used: int
    residual_norm: float
    stop_reason: str
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
    neg = np.abs(x)
    np.negative(neg, out=neg)
    # Not "<=": a NaN k-th value then keeps every entry, and the stable
    # sort puts NaN last, as a full sort would.
    candidates = np.flatnonzero(~(neg > np.partition(neg, k - 1)[k - 1]))
    return candidates[np.argsort(neg[candidates], kind="stable")[:k]]


def _top_k_support(x: np.ndarray, k: int) -> np.ndarray:
    """Sorted indices of the nonzero entries among the top min(k, len(x)) of x."""
    keep = np.sort(_top_k_indices(x, min(k, x.shape[0])))
    return keep[x[keep] != 0]  # never store explicit zeros


def hard_threshold(x: np.ndarray, k: int) -> SparseSignal:
    """Best k-term approximation of a dense vector."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError("expected a 1-D vector")
    if k < 0:
        raise ValueError(f"sparsity k must be nonnegative, got {k}")
    if k > x.shape[0]:
        raise ValueError(f"sparsity k={k} exceeds dimension {x.shape[0]}")
    keep = _top_k_support(x, k)
    return SparseSignal(d=x.shape[0], support=keep, values=x[keep])


def _relative_change(new: tuple, old: tuple) -> float:
    """||x_new - x_old|| / ||x_new|| for iterates held as (support, values,
    Phi x), formed over the union of the two supports."""
    (new_support, new_values, _), (old_support, old_values, _) = new, old
    union = np.union1d(new_support, old_support)
    diff = np.zeros(union.size, dtype=np.result_type(new_values, old_values))
    diff[np.searchsorted(union, new_support)] = new_values
    diff[np.searchsorted(union, old_support)] -= old_values
    denom = float(np.linalg.norm(new_values))
    change = float(np.linalg.norm(diff))
    if denom == 0.0:
        return 0.0 if change == 0.0 else np.inf
    return change / denom


class _Work:
    """One solve's calls of Phi* and ``columns`` in its working dtype,
    counted for its report.

    ``columns`` holds the last block it returned.  Asked for the support
    it holds, it returns that block itself, uncopied; otherwise it finds
    the columns it holds by ``searchsorted`` and reads through
    ``columns`` only the ones it lacks.  A block is column-major, the
    transpose of a C-contiguous (k, m) array, so each held column is
    placed by one contiguous row copy.  Returned blocks are read-only.
    """

    def __init__(self, op: SketchOperator, dtype):
        self.op = op
        self.dtype = np.dtype(dtype)
        self.adjoint_calls = 0
        self.columns_extracted = 0
        self.held = np.empty(0, dtype=np.intp)
        self.held_cols = np.empty((0, op.m), dtype=self.dtype).T

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        self.adjoint_calls += 1
        return apply_adjoint(self.op, r)

    def columns(self, support: np.ndarray) -> np.ndarray:
        """Phi[:, support] for a sorted, unique support, F-contiguous (see the class)."""
        if np.array_equal(support, self.held):
            return self.held_cols
        rows = np.empty((support.size, self.op.m), dtype=self.dtype)
        at = np.searchsorted(self.held, support)
        have = at < self.held.size  # held[at] exists; is it the column?
        have[have] = self.held[at[have]] == support[have]
        rows[have] = self.held_cols.T[at[have]]
        if not have.all():
            missing = support[~have]
            self.columns_extracted += missing.size
            rows[~have] = columns(self.op, missing).T
        rows.setflags(write=False)
        self.held, self.held_cols = support, rows.T
        return self.held_cols


def _validated(op: SketchOperator, y: np.ndarray, k: int, max_iters: int, tol: float) -> np.ndarray:
    """Check a solver's arguments; return y in ``RowSource.dtype``'s rule."""
    y = _check_last_axis(y, op.m, "measurements")
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
    return y.astype(np.result_type(op.source.dtype, y), copy=False)


def _solve(op: SketchOperator, y: np.ndarray, k: int, max_iters: int, tol: float, update):
    """The iteration shared by the solvers, on validated arguments.

    The iterate is held sparsely, as (support, values, Phi x) in y's
    working dtype: a sorted support with no explicit zeros, its values,
    and Phi x.  From the empty iterate, each iteration forms
    r = y - Phi x and takes the iterate <- update(work, iterate, r);
    ``update`` makes its own calls through ``work`` and forms Phi of its
    new iterate from held columns, so the loop never applies Phi.  It
    stops when the relative iterate change, over the union of the two
    supports, drops to ``tol`` ("converged"), after ``max_iters``
    iterations ("max_iters"), or when ``update`` returns None because
    its linear system is singular ("singular").  The estimate is the
    final (support, values), and ``residual_norm`` is ||y - Phi x|| of
    the Phi x the loop holds.
    """
    work = _Work(op, y.dtype)
    iterate = (np.empty(0, dtype=np.intp), np.empty(0, dtype=y.dtype), np.zeros(op.m, dtype=y.dtype))
    residual_norms = []
    stop_reason = "max_iters"
    for _ in range(max_iters):
        r = y - iterate[2]
        residual_norms.append(float(np.linalg.norm(r)))
        step = update(work, iterate, r)
        if step is None:
            stop_reason = "singular"
            break
        change = _relative_change(step, iterate)
        iterate = step
        if change <= tol:
            stop_reason = "converged"
            break
    support, values, phi_x = iterate
    return RecoveryResult(
        estimate=SparseSignal(d=op.d, support=support, values=values),
        iterations_used=len(residual_norms),
        residual_norm=float(np.linalg.norm(y - phi_x)),
        stop_reason=stop_reason,
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
    and Phi x_new taken from held columns; mu = 1 when Phi g_S = 0.
    x + mu g is formed in the adjoint's own output: g is scaled by mu in
    place and x's values are added on its support.  Stops when the
    relative iterate change drops to ``tol`` or after ``max_iters``
    iterations.  Each iteration makes one adjoint.
    """
    y = _validated(op, y, k, max_iters, tol)

    def update(work: _Work, iterate: tuple, r: np.ndarray):
        support, values, _ = iterate
        g = work.adjoint(r)
        search = support if support.size else np.sort(_top_k_indices(g, k))
        g_s = g[search]
        phi_g_s = work.columns(search) @ g_s
        curvature = float(np.vdot(phi_g_s, phi_g_s).real)
        mu = float(np.vdot(g_s, g_s).real) / curvature if curvature > 0 else 1.0
        g *= mu
        g[support] += values  # x + mu g, as x is zero off its support
        kept = _top_k_support(g, k)
        new_values = g[kept]
        return kept, new_values, work.columns(kept) @ new_values

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
    (normal equations with a 1e-12 diagonal ridge), prune the merged
    coefficients to their top k.
    The loop halts as "converged" when the relative iterate change drops
    to ``tol``, or at the top of an iteration whose nonzero iterate
    already has ||y - Phi x|| <= tol ||y||; that iteration makes no
    adjoint, no ``columns`` call and no solve.  A singular least-squares
    system stops the loop with ``stop_reason="singular"`` instead of
    raising.  Phi of the pruned iterate is its kept columns times their
    coefficients.
    """
    y = _validated(op, y, k, max_iters, tol)
    if 3 * k > op.d:
        raise ValueError(f"cosamp needs 3k <= d, got k={k}, d={op.d}")
    halt_norm = tol * float(np.linalg.norm(y))

    def update(work: _Work, iterate: tuple, r: np.ndarray):
        support = iterate[0]
        if support.size and np.linalg.norm(r) <= halt_norm:
            return iterate
        proxy = work.adjoint(r)
        merged = np.union1d(_top_k_support(proxy, 2 * k), support)
        if merged.size == 0:
            return iterate
        cols = work.columns(merged)
        cols_h = cols.conj().T
        gram = cols_h @ cols + 1e-12 * np.eye(merged.size)
        try:
            coef = np.linalg.solve(gram, cols_h @ y)
        except np.linalg.LinAlgError:
            return None
        kept = _top_k_support(coef, k)
        return merged[kept], coef[kept], cols[:, kept] @ coef[kept]

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
