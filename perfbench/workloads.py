"""The benchmark's workloads: one round of operations each, with inputs and checks.

A workload is a fixed *round* of operation slots.  Every run attempts
whole rounds, so the share of each kind of operation is the same in
every run.  The shares are chosen so that, at the sizes below, neither
the median nor the tail percentile of operation time falls on the
boundary between two kinds (see README.md for the measured blocks).

Program functions are called as attributes of the package (``fs.apply``),
so that the tracer, which replaces those attributes, sees these calls.
``inputs`` makes everything the program is given from the workload seed
with the benchmark's own generator (numpy's SeedSequence, not the
program's ``fastsketch.rng``); ``run`` makes only program calls and is
what the benchmark times; ``check`` verifies the outputs with
``oracles`` and returns failure messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import fastsketch as fs
import oracles


def _rng(seed: int, round_index: int, slot: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, round_index, slot, tag]))


def _program_seed(gen: np.random.Generator) -> int:
    return int(gen.integers(0, 2**63))


@dataclass(frozen=True)
class Workload:
    """One round of slots (parameter dicts) and the functions that serve them."""

    name: str
    slots: tuple
    tail_percentile: int  # nearest rank; leaves at least ten operations beyond it
    inputs: Callable  # (seed, round, slot index, params) -> inputs
    run: Callable  # (params, inputs) -> outputs; program calls only
    check: Callable  # (params, inputs, outputs) -> failure messages
    final_checks: Callable | None = None  # (seed) -> failure messages


# --------------------------------------------------------------------------
# recover: noiseless recovery of a planted k-sparse real signal


RECOVER_SIZE = {"d": 2**14, "k": 20, "m": 400, "B": 16}
_COSAMP_H = {"label": "cosamp-hadamard", "kind": "hadamard"}
_COSAMP_F = {"label": "cosamp-fourier", "kind": "fourier"}
# CoSaMP only: unit-step IHT stalls on some Fourier inputs at these sizes
# and diverges on Hadamard and circulant ones (CHANGES.md, FOUND).
# CoSaMP takes 3-5 iterations, input-dependent, so times when the
# benchmark was written run in groups: ~0.34 s (Fourier 3 iterations, Hadamard 4),
# ~0.44 s (Hadamard 5), ~0.47 s (Fourier 4) and ~0.6 s (Fourier 5).  With
# 2 Fourier : 1 Hadamard the Fourier-4 group spans about the 43rd to the
# 89th percentile, so it holds both the median and the 80th percentile.
RECOVER_SLOTS = (_COSAMP_F, _COSAMP_H, _COSAMP_F)


def recover_inputs(seed: int, round_index: int, slot: int, params: dict) -> dict:
    size = RECOVER_SIZE
    gen = _rng(seed, round_index, slot, 1)
    support = np.sort(gen.choice(size["d"], size=size["k"], replace=False))
    x = np.zeros(size["d"])
    x[support] = gen.standard_normal(size["k"])
    return {"x": x, "op_seed": _program_seed(gen)}


def recover_run(params: dict, inputs: dict):
    size = RECOVER_SIZE
    op = fs.build_sketch(size["d"], size["m"], size["B"], params["kind"], seed=inputs["op_seed"])
    return fs.cosamp(op, fs.apply(op, inputs["x"]), size["k"])


def recover_check(params: dict, inputs: dict, result) -> list[str]:
    return oracles.check_recovery(inputs["x"], result.estimate.to_dense(), result.residual_norm)


# --------------------------------------------------------------------------
# rip: Monte-Carlo restricted-isometry lower bound on a fresh operator


RIP_TRIALS = 200


def _rip(kind: str, d: int, k: int, m: int, B: int) -> dict:
    return {"label": f"{kind}-d{d}-k{k}", "kind": kind, "d": d, "k": k, "m": m, "B": B}


_R = {
    (kind, d): _rip(kind, d, k, m, 4)
    for kind in ("fourier", "hadamard", "circulant", "gaussian")
    for d, k, m in ((256, 4, 16), (1024, 8, 32))
}
# 16 slots.  Sorted by time when the benchmark was written: gaussian/hadamard/
# fourier at d=256 (25-55 ms, 6 slots), circulant at d=256 (~90 ms,
# 4 slots, holds the median), hadamard/fourier/gaussian at d=1024
# (120-170 ms, 3 slots), circulant at d=1024 (~350 ms, 3 slots, holds
# the 90th percentile).
RIP_SLOTS = (
    _R["gaussian", 256], _R["circulant", 256], _R["hadamard", 256], _R["circulant", 1024],
    _R["fourier", 256], _R["circulant", 256], _R["hadamard", 1024], _R["gaussian", 256],
    _R["circulant", 1024], _R["hadamard", 256], _R["circulant", 256], _R["fourier", 1024],
    _R["fourier", 256], _R["circulant", 256], _R["gaussian", 1024], _R["circulant", 1024],
)

#: Small instances on which the sampled bound meets an exhaustive constant.
RIP_SMALL = {"d": 16, "k": 2, "m": 8, "B": 2}


def rip_inputs(seed: int, round_index: int, slot: int, params: dict) -> dict:
    gen = _rng(seed, round_index, slot, 2)
    return {"op_seed": _program_seed(gen), "support_seed": _program_seed(gen)}


def rip_run(params: dict, inputs: dict):
    op = fs.build_sketch(
        params["d"], params["m"], params["B"], params["kind"], seed=inputs["op_seed"]
    )
    return op, fs.mc_rip_lower_bound(op, params["k"], RIP_TRIALS, rng=inputs["support_seed"])


def rip_check(params: dict, inputs: dict, outputs) -> list[str]:
    op, report = outputs
    bound = oracles.gershgorin_bound(oracles.dense_phi(op), params["k"])
    return oracles.check_rip(report.epsilon, report.supports_evaluated, RIP_TRIALS, bound)


def rip_final_checks(seed: int) -> list[str]:
    """On a small instance of each kind, sampled epsilon <= exhaustive constant."""
    failures = []
    s = RIP_SMALL
    for n, kind in enumerate(("fourier", "hadamard", "circulant", "gaussian")):
        gen = _rng(seed, 0, n, 3)
        op = fs.build_sketch(s["d"], s["m"], s["B"], kind, seed=_program_seed(gen))
        report = fs.mc_rip_lower_bound(op, s["k"], RIP_TRIALS, rng=_program_seed(gen))
        exhaustive = oracles.exhaustive_rip_constant(oracles.dense_phi(op), s["k"])
        failures += [f"{kind}: {f}" for f in oracles.check_rip_small(report.epsilon, exhaustive)]
    return failures


# --------------------------------------------------------------------------
# embed: one JL trial on a batch of Gaussian points


def _jl(kind: str, log_d: int, n: int, m: int, B: int) -> dict:
    return {"label": f"{kind}-d2^{log_d}-n{n}-mB{m * B}", "kind": kind, "d": 2**log_d,
            "n": n, "m": m, "B": B}


_F16 = _jl("fourier", 16, 4, 256, 16)
_H16 = _jl("hadamard", 16, 8, 256, 16)
_F16_BIG = _jl("fourier", 16, 16, 256, 16)
_C16_FULL = _jl("circulant", 16, 4, 64, 16)  # (2*m*B)^2 > d: full circulant path
_C16_BLOCKED = _jl("circulant", 16, 2, 32, 4)  # (2*m*B)^2 <= d: blocked-Toeplitz path
_F18 = _jl("fourier", 18, 2, 256, 16)
_H18 = _jl("hadamard", 18, 2, 256, 16)
_C18_FULL = _jl("circulant", 18, 2, 64, 16)
# 17 slots.  Sorted by time when the benchmark was written: Fourier d=2^16
# n=4 (~40 ms, 3 slots), Hadamard d=2^18 and d=2^16 n=8 (55-60 ms,
# 7 slots, hold the median), full circulant d=2^16 and Fourier d=2^18
# (80-110 ms, 2 slots), Fourier n=16 and full circulant d=2^18 (190-230 ms,
# 2 slots), blocked circulant (~240 ms, 3 slots, holds the 90th percentile).
EMBED_SLOTS = (
    _H16, _F16, _C16_BLOCKED, _H18, _H16, _F16, _C16_FULL, _H16, _C16_BLOCKED,
    _F16_BIG, _H18, _H16, _C18_FULL, _F16, _C16_BLOCKED, _H16, _F18,
)

#: Basis vectors whose embedding is compared with a dense column.
EMBED_BASIS = 2


def embed_inputs(seed: int, round_index: int, slot: int, params: dict) -> dict:
    gen = _rng(seed, round_index, slot, 4)
    points = gen.standard_normal((params["n"], params["d"]))
    return {
        "points": points,
        "op_seed": _program_seed(gen),
        "jl_seed": _program_seed(gen),
        "basis": np.sort(gen.choice(params["d"], size=EMBED_BASIS, replace=False)),
        "weights": (float(gen.uniform(0.5, 2.0)), -float(gen.uniform(0.5, 2.0))),
    }


def embed_run(params: dict, inputs: dict):
    op = fs.build_sketch(
        params["d"], params["m"], params["B"], params["kind"], seed=inputs["op_seed"]
    )
    embedded = fs.jl_embed(op, inputs["points"], seed=inputs["jl_seed"])
    return op, embedded, fs.distortion_report(inputs["points"], embedded)


def embed_check(params: dict, inputs: dict, outputs) -> list[str]:
    op, embedded, report = outputs
    points, basis, weights = inputs["points"], inputs["basis"], inputs["weights"]
    probe = np.zeros((EMBED_BASIS + 1, params["d"]))
    probe[np.arange(EMBED_BASIS), basis] = 1.0
    probe[EMBED_BASIS] = weights[0] * points[0] + weights[1] * points[1]
    probed = fs.jl_embed(op, probe, seed=inputs["jl_seed"])
    return (
        oracles.check_signed_columns(probed[:EMBED_BASIS], oracles.dense_columns(op, basis))
        + oracles.check_linearity(probed[EMBED_BASIS], embedded[:2], weights)
        + oracles.check_distortion(report, oracles.reference_distortion(points, embedded))
    )


# --------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload("recover", RECOVER_SLOTS, 80, recover_inputs, recover_run, recover_check),
        Workload("rip", RIP_SLOTS, 90, rip_inputs, rip_run, rip_check, rip_final_checks),
        Workload("embed", EMBED_SLOTS, 90, embed_inputs, embed_run, embed_check),
    )
}
