"""Restricted-isometry measurement, norm utilities, and parameter planning.

The restricted-isometry constant of an m x d matrix at sparsity k is the
largest deviation of a squared singular value of any m x k column
submatrix from 1.  Exact measurement enumerates all C(d, k) supports and
is capped; the Monte-Carlo variant samples supports and returns a
certified lower bound.  Both take the maximum over their supports
exactly, by bound and skip: a cheap upper bound on every support's
deviation is formed first, and only the supports whose bound can reach
the running maximum are eigensolved.  The skipped ones provably cannot
change it, so the reported constant is the one a full eigensolve of every
support gives, bit for bit.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from fastsketch.ensembles import normalize_kind
from fastsketch.rng import as_generator
# ``apply`` is unused here but stays importable as ``analysis.apply``:
# the tracer self-test in perfbench/ checks that alias.
from fastsketch.sketch import SketchOperator, apply, columns  # noqa: F401
from fastsketch.transforms import next_power_of_two

__all__ = [
    "RipReport",
    "exact_rip_constant",
    "mc_rip_lower_bound",
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

#: Unit roundoff of float64, 2^-53.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


@dataclass(frozen=True)
class RipReport:
    """Measured isometry constant at one sparsity level.

    ``method`` is ``"exact"`` (every support enumerated) or
    ``"monte_carlo"`` (sampled supports; ``epsilon`` is then a lower
    bound on the true constant).  ``eigensolved`` counts the supports
    whose Gram went through an eigensolve; the other supports were
    skipped because a bound showed they cannot set ``epsilon``.
    """

    k: int
    method: str
    epsilon: float
    supports_evaluated: int
    eigensolved: int
    seed: int | None
    wall_time: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _support_chunks(d: int, k: int, chunk: int = _CHUNK):
    combos = itertools.combinations(range(d), k)
    while True:
        block = list(itertools.islice(combos, chunk))
        if not block:
            return
        yield np.asarray(block, dtype=np.intp)


def _eig_deviations(grams: np.ndarray) -> np.ndarray:
    """max |eigenvalue - 1| of each Gram in a stack, from one exact eigensolve each."""
    eig = np.linalg.eigvalsh(grams)
    return np.maximum(eig[:, -1] - 1.0, 1.0 - eig[:, 0])


def _gram_deviation(submatrices: np.ndarray, best: float = 0.0) -> tuple[float, int]:
    """Largest |eigenvalue - 1| over a batch of Gram matrices and ``best``.

    ``submatrices`` has shape (batch, m, k), float64 or complex128; eigenvalues
    of G = S* S are the squared singular values of S.  A real batch is
    solved in real arithmetic throughout (G = S^T S and a real symmetric
    eigensolve), a complex one in complex arithmetic.  Returns that maximum
    and the number of Grams that were eigensolved.  Raises ``ValueError``
    when a finite batch has a Gram that overflows float64.

    Only Grams that can reach the maximum are eigensolved.  With
    D = G - I and eigenvalues mu_i of D, the bound
    b = ||D^2||_F^(1/2) = (sum mu_i^4)^(1/4) >= max |mu_i| costs one
    k x k product.  The Gram with the largest bound is solved first, and
    then only the Grams whose bound exceeds the running best, less the
    rounding margin below.  Every solved Gram is passed to ``eigvalsh``
    as it is, so the maximum is bit-identical to solving all of them.  A
    NaN bound is never skipped.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = submatrices.conj().swapaxes(-1, -2) @ submatrices
        k = gram.shape[-1]
        # D = H - I for the Hermitian H that eigvalsh reads: the lower
        # triangle of the Gram and, for a complex Gram, the real part of its
        # diagonal.
        dev = gram - np.eye(k)
        rows, cols = np.nonzero(np.arange(k)[:, None] < np.arange(k))  # strict upper triangle
        dev[:, rows, cols] = dev[:, cols, rows].conj()
        if np.iscomplexobj(dev):
            dev.reshape(len(dev), -1)[:, :: k + 1].imag = 0.0
        square = (dev @ dev).view(np.float64)
        bound = np.sqrt(np.sqrt(np.einsum("nij,nij->n", square, square)))

    top = int(np.argmax(bound))  # the first NaN, if there is one
    # A finite bound at the top means every Gram is finite.  An infinite
    # one may come from D^2 alone, which eigvalsh does not form.
    overflow = not np.isfinite(bound[top]) and not np.isfinite(gram).all()
    if overflow and np.isfinite(submatrices).all():
        raise ValueError("a Gram matrix of the finite input overflows float64")
    best = np.maximum(best, _eig_deviations(gram[top : top + 1])[0])
    # Rounding margin.  Let u = 2^-53, delta = max |mu_i| the exact
    # deviation of H, delta' the deviation eigvalsh returns and b' the
    # computed bound.  A Gram is skipped when b' <= thr, and thr <= best.
    # The constants below are derived for complex Grams and cover real
    # ones too: a real inner product of length k carries gamma_k <=
    # sqrt(2) gamma_(k+2), and the real solver (dsyevd) is backward stable
    # like the complex one (zheevd).
    # * eigvalsh is backward stable: each computed eigenvalue lies within
    #   p(k) u ||H||_2 of the exact one, and ||H||_2 <= 1 + delta.  We
    #   take p(k) = 4 k^2, a generous choice: LAPACK's own error bounds
    #   use p = 1.  So delta' <= delta + 4 k^2 u (1 + delta), to first
    #   order.
    # * D^2 is formed with entrywise error sqrt(2) gamma_(k+2) |D||D|
    #   (complex inner products of length k), whose Frobenius norm is at
    #   most that factor times ||D||_F^2 <= sqrt(k) ||D^2||_F.  Summing the
    #   2k^2 squares and two square roots add (2k^2 + 6) u to b'^4.  So
    #   delta <= b' (1 + 8 k^2 u).
    # Together, delta' <= b' + 13 k^2 u (1 + b') <= thr + 13 k^2 u (1 + best).
    # With thr = best - 16 k^2 u (1 + best), whose own rounding costs at
    # most u best, a skipped Gram has delta' <= best: it cannot raise the
    # maximum.
    thr = best - 16.0 * k * k * _UNIT_ROUNDOFF * (1.0 + best)
    rest = ~(bound <= thr)
    rest[top] = False
    solved = 1 + int(np.count_nonzero(rest))
    if solved > 1:
        best = np.maximum(best, _eig_deviations(gram[rest]).max())
    return float(best), solved


def exact_rip_constant(mat: np.ndarray, k: int, *, cap: int = SUPPORT_CAP) -> RipReport:
    """Exhaustive isometry constant of an explicit matrix at sparsity k.

    Every one of the C(d, k) supports is bounded, and the maximum is taken
    exactly over the ones that can reach it (see ``_gram_deviation``), so
    ``epsilon`` equals the largest deviation of all supports.  A real
    matrix is measured in float64 arithmetic and a complex one in
    complex128; a finite matrix whose Gram overflows raises ``ValueError``.
    """
    start = time.perf_counter()
    mat = np.asarray(mat)
    mat = mat.astype(np.complex128 if np.iscomplexobj(mat) else np.float64, copy=False)
    if mat.ndim != 2:
        raise ValueError("expected an explicit 2-D matrix")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    m, d = mat.shape
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"sparsity k must be an integer, got {k!r}")
    if not 1 <= k <= min(m, d):
        raise ValueError(f"sparsity k must lie in [1, min(m, d)] = [1, {min(m, d)}], got {k}")
    total = math.comb(d, k)
    if total > cap:
        raise ValueError(
            f"C({d}, {k}) = {total} supports exceed the cap of {cap}; "
            "use mc_rip_lower_bound instead"
        )
    epsilon, solved = 0.0, 0
    for supports in _support_chunks(d, k):
        sub = np.moveaxis(mat[:, supports], 0, 1)  # (n, m, k)
        epsilon, n = _gram_deviation(sub, epsilon)
        solved += n
    return RipReport(
        k=k,
        method="exact",
        epsilon=epsilon,
        supports_evaluated=total,
        eigensolved=solved,
        seed=None,
        wall_time=time.perf_counter() - start,
    )


def _draw_supports(gen: np.random.Generator, d: int, k: int, n: int) -> np.ndarray:
    """n independent uniform k-subsets of range(d), as sorted rows of an (n, k) array.

    Floyd's algorithm, run on all n rows at once: for j = d-k, ..., d-1
    draw t uniform in [0, j] for every row, and add j to the rows that
    already hold their t, t to the others.  Each step adds one new
    element, so there is no rejection and k = d works.
    """
    out = np.empty((n, k), dtype=np.intp)
    for col, j in enumerate(range(d - k, d)):
        t = gen.integers(0, j + 1, size=n)
        out[:, col] = np.where((out[:, :col] == t[:, None]).any(axis=1), j, t)
    out.sort(axis=1)
    return out


def mc_rip_lower_bound(
    op: SketchOperator, k: int, trials: int, rng: int | np.random.Generator
) -> RipReport:
    """Certified lower bound on the isometry constant from sampled supports.

    Each trial draws a uniform k-subset; the m x k submatrices on the
    drawn supports come from ``columns`` in batches of ``_CHUNK // m``
    trials.  The maximum deviation over the drawn supports is taken
    exactly, by eigensolving only the supports whose bound can reach it
    (see ``_gram_deviation``); it is a lower bound on the exhaustive
    constant.

    A batch of n supports is drawn at once by a vectorized Floyd's
    algorithm (k calls ``gen.integers(0, j + 1, size=n)`` and an
    O(n k^2) membership test), so the supports are a fixed function of
    the seed and of the batch size ``_CHUNK // m``.  That draw is slower
    than one ``gen.choice`` per trial only when k nears both d and the
    number of trials in a batch (d = k = 64, 50 trials: 0.96 against
    0.50 ms for the draws alone).
    """
    start = time.perf_counter()
    for name, value in (("sparsity k", k), ("trials", trials)):
        if not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 1 <= k <= op.d:
        raise ValueError(f"sparsity k must lie in [1, {op.d}], got {k}")
    seed = rng if isinstance(rng, int) else None
    gen = as_generator(rng)
    epsilon, solved = 0.0, 0
    batch = max(1, _CHUNK // op.m)
    for b0 in range(0, trials, batch):
        supports = _draw_supports(gen, op.d, k, min(batch, trials - b0))
        epsilon, n = _gram_deviation(columns(op, supports), epsilon)
        solved += n
    return RipReport(
        k=k,
        method="monte_carlo",
        epsilon=epsilon,
        supports_evaluated=trials,
        eigensolved=solved,
        seed=seed,
        wall_time=time.perf_counter() - start,
    )


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
        return asdict(self)


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
