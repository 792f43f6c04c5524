"""Restricted-isometry measurement, norm utilities, and parameter planning.

The restricted-isometry constant of an m x d matrix at sparsity k is the
largest deviation of a squared singular value of any m x k column
submatrix from 1.  Exact measurement enumerates all C(d, k) supports and
is capped; the Monte-Carlo variant samples supports and returns a
certified lower bound (each sampled support is evaluated exactly).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from fastsketch.ensembles import densify, normalize_kind
from fastsketch.rng import as_generator
# ``apply`` is unused here but stays importable as ``analysis.apply``:
# the tracer self-test in perfbench/ checks that alias.
from fastsketch.sketch import SketchOperator, apply, columns  # noqa: F401
from fastsketch.transforms import next_power_of_two

__all__ = [
    "RipReport",
    "exact_rip_constant",
    "mc_rip_lower_bound",
    "BucketNormProfile",
    "bucket_norm_profile",
    "OperatorNorms",
    "operator_norms",
    "complexify_vector",
    "complexify_matrix",
    "ParameterPlan",
    "recommend_parameters",
]

#: Default cap on the number of enumerated supports.
SUPPORT_CAP = 10**6

_CHUNK = 4096


@dataclass(frozen=True)
class RipReport:
    """Measured isometry constant at one sparsity level.

    ``method`` is ``"exact"`` (every support enumerated) or
    ``"monte_carlo"`` (sampled supports; ``epsilon`` is then a lower
    bound on the true constant).
    """

    k: int
    method: str
    epsilon: float
    supports_evaluated: int
    seed: int | None
    wall_time: float

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "method": self.method,
            "epsilon": self.epsilon,
            "supports_evaluated": self.supports_evaluated,
            "seed": self.seed,
            "wall_time": self.wall_time,
        }


def _support_chunks(d: int, k: int, chunk: int = _CHUNK):
    combos = itertools.combinations(range(d), k)
    while True:
        block = list(itertools.islice(combos, chunk))
        if not block:
            return
        yield np.asarray(block, dtype=np.intp)


def _gram_extremes(submatrices: np.ndarray) -> tuple[float, float]:
    """(smallest, largest) eigenvalue over a batch of Gram matrices.

    ``submatrices`` has shape (batch, m, k); eigenvalues of S* S are the
    squared singular values of S.
    """
    gram = np.einsum("nmk,nml->nkl", np.conj(submatrices), submatrices)
    eig = np.linalg.eigvalsh(gram)
    return float(eig[:, 0].min()), float(eig[:, -1].max())


def exact_rip_constant(mat: np.ndarray, k: int, *, cap: int = SUPPORT_CAP) -> RipReport:
    """Exhaustive isometry constant of an explicit matrix at sparsity k."""
    start = time.perf_counter()
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2:
        raise ValueError("expected an explicit 2-D matrix")
    m, d = mat.shape
    if not 1 <= k <= min(m, d):
        raise ValueError(f"sparsity k must lie in [1, min(m, d)] = [1, {min(m, d)}], got {k}")
    total = math.comb(d, k)
    if total > cap:
        raise ValueError(
            f"C({d}, {k}) = {total} supports exceed the cap of {cap}; "
            "use mc_rip_lower_bound instead"
        )
    epsilon = 0.0
    for supports in _support_chunks(d, k):
        sub = np.moveaxis(mat[:, supports], 0, 1)  # (n, m, k)
        lo, hi = _gram_extremes(sub)
        epsilon = max(epsilon, hi - 1.0, 1.0 - lo)
    return RipReport(
        k=k,
        method="exact",
        epsilon=epsilon,
        supports_evaluated=total,
        seed=None,
        wall_time=time.perf_counter() - start,
    )


def mc_rip_lower_bound(
    op: SketchOperator, k: int, trials: int, rng: int | np.random.Generator
) -> RipReport:
    """Certified lower bound on the isometry constant from sampled supports.

    Each trial draws a uniform k-subset; the m x k submatrices on the
    drawn supports come from ``columns`` in batches, and the extreme
    squared singular values of each are measured exactly.  The maximum
    deviation seen is a lower bound on the exhaustive constant.
    """
    start = time.perf_counter()
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 1 <= k <= op.d:
        raise ValueError(f"sparsity k must lie in [1, {op.d}], got {k}")
    seed = rng if isinstance(rng, int) else None
    gen = as_generator(rng)
    epsilon = 0.0
    batch = max(1, _CHUNK // op.m)
    for b0 in range(0, trials, batch):
        # One draw per trial, in trial order, so a seed keeps its supports.
        supports = [
            np.sort(gen.choice(op.d, size=k, replace=False))
            for _ in range(b0, min(trials, b0 + batch))
        ]
        lo, hi = _gram_extremes(columns(op, np.array(supports)))
        epsilon = max(epsilon, hi - 1.0, 1.0 - lo)
    return RipReport(
        k=k,
        method="monte_carlo",
        epsilon=epsilon,
        supports_evaluated=trials,
        seed=seed,
        wall_time=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class BucketNormProfile:
    """Largest operator norm of any per-bucket block over s-sparse unit vectors."""

    s: int
    per_bucket: np.ndarray
    overall: float


def bucket_norm_profile(
    op: SketchOperator, s: int, *, cap: int = SUPPORT_CAP
) -> BucketNormProfile:
    """max over buckets b of sup over s-sparse unit x of ||A_b x||.

    ``A_b`` is the b-th B x d block of the unnormalized source; the sup
    equals the largest top singular value over all s-column submatrices.
    ``s = 0`` returns zeros by convention.
    """
    if s < 0 or s > op.d:
        raise ValueError(f"sparsity s must lie in [0, {op.d}], got {s}")
    if s == 0:
        return BucketNormProfile(s=0, per_bucket=np.zeros(op.m), overall=0.0)
    total = math.comb(op.d, s)
    if total > cap:
        raise ValueError(f"C({op.d}, {s}) = {total} supports exceed the cap of {cap}")
    blocks = densify(op.source).reshape(op.m, op.B, op.d)
    best = np.zeros(op.m)
    for supports in _support_chunks(op.d, s):
        sub = np.moveaxis(blocks[:, :, supports], 2, 1)  # (m, n, B, s)
        gram = np.einsum("mnbs,mnbt->mnst", np.conj(sub), sub)
        top = np.linalg.eigvalsh(gram)[..., -1]  # (m, n)
        np.maximum(best, top.max(axis=1), out=best)
    per_bucket = np.sqrt(best)
    return BucketNormProfile(s=s, per_bucket=per_bucket, overall=float(per_bucket.max()))


class OperatorNorms(NamedTuple):
    one_to_one: float
    inf_to_inf: float
    two_to_two: float


def operator_norms(mat: np.ndarray) -> OperatorNorms:
    """(max column abs sum, max row abs sum, spectral norm) of a matrix.

    The spectral norm is the largest singular value, computed exactly.
    """
    a = np.asarray(mat, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    absa = np.abs(a)
    if not absa.any():
        return OperatorNorms(0.0, 0.0, 0.0)
    one = float(absa.sum(axis=0).max())
    inf = float(absa.sum(axis=1).max())
    return OperatorNorms(one, inf, float(np.linalg.norm(a, 2)))


def complexify_vector(x: np.ndarray) -> np.ndarray:
    """Map C^d -> R^{2d} entrywise, a + bi -> (a, b); norm preserved."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError("expected a 1-D vector")
    out = np.empty(2 * x.shape[0], dtype=np.float64)
    out[0::2] = x.real
    out[1::2] = x.imag
    return out


def complexify_matrix(a: np.ndarray) -> np.ndarray:
    """Map C^{r x d} -> R^{2r x 2d}, each entry a + bi -> [[a, -b], [b, a]].

    Satisfies complexify_vector(A @ x) == complexify_matrix(A) @ complexify_vector(x).
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    r, d = a.shape
    out = np.empty((2 * r, 2 * d), dtype=np.float64)
    out[0::2, 0::2] = a.real
    out[0::2, 1::2] = -a.imag
    out[1::2, 0::2] = a.imag
    out[1::2, 1::2] = a.real
    return out


@dataclass(frozen=True)
class ParameterPlan:
    """Recommended (m, B) for a target dimension/sparsity/distortion.

    The recommendations evaluate the asymptotic lower bounds with unit
    constants and natural logarithms, so they are a planning heuristic,
    not a certified design; desk-scale experiments intentionally run far
    below these values.  Violated regime conditions are reported as
    warnings, never errors.
    """

    kind: str
    d: int
    k: int
    epsilon: float
    m: int
    B: int
    d_effective: int
    warnings: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "d": self.d,
            "k": self.k,
            "epsilon": self.epsilon,
            "m": self.m,
            "B": self.B,
            "d_effective": self.d_effective,
            "warnings": list(self.warnings),
        }


def _rows_needed(k: int, ln_d: float, B: int, epsilon: float) -> int:
    return max(1, math.ceil(k * ln_d * math.log(B * k) ** 2 / epsilon**2))


def recommend_parameters(d: int, k: int, epsilon: float, kind: str) -> ParameterPlan:
    """Evaluate the bucket-size and row-count lower bounds with unit constants.

    Bounded orthogonal kinds use B = ceil(ln(d)^6.5); the circulant kind
    solves the fixed point of B = ceil(ln(m)^2 ln(k)^2 ln(d)^2) and pads
    the effective dimension so that m*B <= d_effective.  Row counts follow
    m = ceil(k ln(d) ln(Bk)^2 / eps^2), clamped to the ambient dimension
    only at the degenerate boundary k >= d.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if k < 1 or k > d:
        raise ValueError(f"sparsity k must lie in [1, d] = [1, {d}], got {k}")
    kind = normalize_kind(kind)
    if kind == "dense_gaussian":
        raise ValueError("no hashed-construction parameter recipe for the dense baseline")
    warnings: list[str] = []
    d_eff = next_power_of_two(d)
    if d_eff != d:
        warnings.append(f"d={d} padded up to the next power of two {d_eff}")
    ln_d = math.log(d_eff)

    if kind in ("partial_fourier", "partial_hadamard"):
        B = max(1, math.ceil(ln_d**6.5))
        m = _rows_needed(k, ln_d, B, epsilon)
        floor = math.log(m) ** 2.5 if m > 1 else 0.0
        if k < floor:
            warnings.append(
                f"k={k} is below the bounded-orthogonal regime floor ln(m)^2.5 ~= {floor:.1f}"
            )
    else:
        ln_k = math.log(k) if k > 1 else 0.0
        B = 1
        m = _rows_needed(k, ln_d, B, epsilon)
        for _ in range(64):
            ln_m = math.log(m) if m > 1 else 0.0
            new_B = max(1, math.ceil(ln_m**2 * ln_k**2 * ln_d**2))
            new_m = _rows_needed(k, ln_d, new_B, epsilon)
            if new_B == B and new_m == m:
                break
            B, m = new_B, new_m
        floor = math.log(m) ** 2 if m > 1 else 0.0
        if k < floor:
            warnings.append(f"k={k} is below the circulant regime floor ln(m)^2 ~= {floor:.1f}")

    if k >= d_eff:
        if m > d_eff:
            m = d_eff
            warnings.append(
                f"sparsity k={k} covers the whole space; rows capped at d_effective={d_eff}"
            )
    elif m > d_eff:
        warnings.append(
            f"recommended m={m} exceeds the ambient dimension {d_eff}; "
            "a square orthogonal embedding is exact at this scale"
        )

    if kind == "partial_circulant" and m * B > d_eff:
        d_eff = next_power_of_two(m * B)
        warnings.append(
            f"circulant construction needs m*B <= d; zero-pad signals to d_effective={d_eff}"
        )

    return ParameterPlan(
        kind=kind,
        d=d,
        k=k,
        epsilon=float(epsilon),
        m=m,
        B=B,
        d_effective=d_eff,
        warnings=warnings,
    )
