"""Command-line front end: build operators and run seeded experiments.

Subcommands: ``build``, ``apply``, ``rip``, ``jl``, ``recover``,
``bench``, ``plan``.  Every run writes a JSON report embedding the
library version, the fully resolved configuration, and the master seed;
re-running a report's embedded config reproduces the artifact
bit-identically apart from timing fields.  Tabular results are also
written as CSV when ``--csv`` is given.

Randomized subcommands refuse to run without an explicit ``--seed``;
pass ``--seed auto`` to draw one (the drawn value is recorded).  Trials
run on a worker pool sized by ``--threads`` (or ``FASTSKETCH_THREADS``,
or the available parallelism); per-trial streams are derived from the
master seed, so results do not depend on scheduling order.  A pool of
more than one worker runs with numpy's OpenBLAS pinned to one thread;
reports record OpenBLAS's thread count outside the pool as
``blas_threads`` (``null`` when numpy bundles no OpenBLAS).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import secrets
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import fastsketch
from fastsketch.analysis import (
    SUPPORT_CAP,
    exact_rip_constant,
    mc_rip_lower_bound,
    recommend_parameters,
)
from fastsketch.jl import _pair_distances, _ratio_report, jl_embed, read_point_set, write_point_set
from fastsketch.recovery import cosamp, iht, l2l1_metrics
from fastsketch.rng import derive_seed, stream
from fastsketch.sketch import (
    apply,
    apply_adjoint,
    build_sketch,
    densify_sketch,
    dump_arrays,
    sketch_from_json_dict,
    sketch_to_json_dict,
)

__all__ = ["main", "run", "strip_timing_fields", "TIMING_KEYS"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3

#: Report keys that hold wall-clock measurements (excluded from
#: reproducibility comparisons).
TIMING_KEYS = frozenset(
    {
        "timings",
        "wall_time",
        "median_apply_seconds",
        "median_adjoint_seconds",
        "raw_apply_seconds",
        "raw_adjoint_seconds",
        "apply_doubling_ratio",
    }
)

_DEFAULTS: dict[str, dict] = {
    "plan": {"kind": "fourier", "epsilon": 0.5},
    "build": {"kind": "fourier"},
    "apply": {"kind": "fourier"},
    "rip": {"kind": "fourier", "method": "exact", "trials": 100, "cap": SUPPORT_CAP},
    "jl": {"kind": "fourier", "n": 50, "trials": 1},
    "recover": {
        "kind": "fourier",
        "solver": "iht",
        "trials": 1,
        "max_iters": 500,
        "tol": 1e-10,
        "noise_sd": 0.0,
        "success_tol": 1e-6,
        "complex_signal": False,
    },
    "bench": {"kind": "fourier", "trials": 9},
}

_RANDOMIZED = ("build", "apply", "rip", "jl", "recover", "bench")


class UsageError(ValueError):
    """Invalid configuration or flags."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def strip_timing_fields(obj):
    """Recursively drop timing keys so artifacts can be compared across runs."""
    if isinstance(obj, dict):
        return {k: strip_timing_fields(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing_fields(v) for v in obj]
    return obj


def _jsonsafe(obj):
    if isinstance(obj, dict):
        return {k: _jsonsafe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonsafe(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, np.ndarray):
        return _jsonsafe(obj.tolist())
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_jsonsafe(obj), indent=2, sort_keys=True) + "\n"


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


#: ``--csv`` columns per command, read from each row of the command's
#: ``results["trials"]`` (``trial`` is the row's index) or ``results["records"]``.
_CSV_COLUMNS = {
    "jl": ("trial", "epsilon_hat", "max_expansion", "min_contraction", "pairs_evaluated"),
    "recover": ("trial", "relative_error", "iterations_used", "residual_norm", "converged",
                "stop_reason", "adjoint_calls", "columns_extracted", "success"),
    "bench": ("kind", "d", "m", "B", "trials", "median_apply_seconds", "median_adjoint_seconds",
              "apply_doubling_ratio"),
}


def _write_csv(path, header: dict, results: dict) -> None:
    """Write the report header as ``#`` lines (the config compact), then the command's rows."""
    meta = dict(header, config=json.dumps(_jsonsafe(header["config"]), sort_keys=True, separators=(",", ":")))
    columns = _CSV_COLUMNS[header["command"]]
    lines = [f"# {key}={value}" for key, value in meta.items()] + [",".join(columns)]
    for t, row in enumerate(results.get("trials", results.get("records"))):
        lines.append(",".join(_format_cell(t if c == "trial" else row[c]) for c in columns))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _resolve_threads(explicit: int | None) -> int:
    if explicit is not None:
        if explicit < 1:
            raise UsageError(f"--threads must be positive, got {explicit}")
        return explicit
    env = os.environ.get("FASTSKETCH_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise UsageError(f"FASTSKETCH_THREADS must be an integer, got {env!r}") from exc
        return max(1, value)
    return os.cpu_count() or 1


@functools.cache
def _openblas_thread_control():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(dll, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


#: Open ``_one_blas_thread`` blocks and the count to restore when the last closes.
_BLAS_PIN = {"depth": 0, "saved": None}
_BLAS_PIN_LOCK = threading.Lock()


def _blas_threads() -> int | None:
    """OpenBLAS's thread count outside trial pools, or None when it is not found."""
    control = _openblas_thread_control()
    if control is None:
        return None
    with _BLAS_PIN_LOCK:
        return _BLAS_PIN["saved"] if _BLAS_PIN["depth"] else int(control[0]())


@contextmanager
def _one_blas_thread():
    """Pin OpenBLAS to one thread for the block, then restore its count.

    Pool workers already occupy the cores; OpenBLAS threads on top of
    them oversubscribe, and its small products run slower threaded.
    Blocks may overlap (``run`` from several threads): the first to open
    saves the count and the last to close restores it.
    """
    control = _openblas_thread_control()
    if control is None:
        yield
        return
    get, put = control
    with _BLAS_PIN_LOCK:
        if _BLAS_PIN["depth"] == 0:
            _BLAS_PIN["saved"] = int(get())
            put(1)
        _BLAS_PIN["depth"] += 1
    try:
        yield
    finally:
        with _BLAS_PIN_LOCK:
            _BLAS_PIN["depth"] -= 1
            if _BLAS_PIN["depth"] == 0:
                put(_BLAS_PIN["saved"])


def _map_trials(fn, n: int, threads: int) -> list:
    """Evaluate fn(0..n-1), merged in trial order regardless of scheduling."""
    if threads <= 1 or n <= 1:
        return [fn(i) for i in range(n)]
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=min(threads, n)) as pool:
        return list(pool.map(fn, range(n)))


def _parse_sizes(text) -> list[int]:
    """Parse a size sweep: '4096', '1024,2048', or '16384..65536' (doubling)."""
    if isinstance(text, int):
        return [text]
    if isinstance(text, list):
        return [int(v) for v in text]
    text = str(text)
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if lo < 1 or hi < lo:
            raise UsageError(f"bad size range {text!r}")
        sizes = []
        d = lo
        while d <= hi:
            sizes.append(d)
            d *= 2
        return sizes
    return [int(v) for v in text.split(",") if v]


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        # A previously written report embeds its config; accept it directly.
        return dict(doc.get("config", doc))
    config: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line {line!r} (expected key=value)")
        key, value = line.split("=", 1)
        try:
            config[key.strip()] = json.loads(value.strip())
        except json.JSONDecodeError:
            config[key.strip()] = value.strip()
    return config


def _needs_randomness(config: dict, command: str) -> bool:
    if command not in _RANDOMIZED:
        return False
    if config.get("op"):
        # a prebuilt operator removes the only source of randomness for
        # apply, and for exhaustive rip measurement
        if command == "apply":
            return False
        if command == "rip" and config.get("method", _DEFAULTS["rip"]["method"]) == "exact":
            return False
    return True


def _resolve_seed(config: dict, command: str) -> None:
    if not _needs_randomness(config, command):
        config.setdefault("seed", None)
        return
    seed = config.get("seed")
    if seed is None:
        raise UsageError(
            f"'{command}' is randomized and needs an explicit --seed "
            "(pass --seed auto to draw and record one)"
        )
    if isinstance(seed, str):
        if seed == "auto":
            config["seed"] = secrets.randbits(63)
        else:
            try:
                config["seed"] = int(seed)
            except ValueError as exc:
                raise UsageError(f"--seed must be an integer or 'auto', got {seed!r}") from exc


def _require(config: dict, command: str, *keys: str) -> None:
    missing = [k for k in keys if config.get(k) is None]
    if missing:
        raise UsageError(f"'{command}' needs {', '.join('--' + k.replace('_', '-') for k in missing)}")


def _operator_seed(config: dict, trial: int = 0) -> int:
    return derive_seed(config["seed"], trial, "operator")


def _build_from_config(config: dict, trial: int = 0):
    if config.get("op"):
        doc = json.loads(Path(config["op"]).read_text(encoding="utf-8"))
        doc = doc.get("results", {}).get("operator", doc.get("operator", doc))
        return sketch_from_json_dict(doc)
    _require(config, config["command"], "d", "m", "B")
    return build_sketch(
        d=config["d"],
        m=config["m"],
        B=config["B"],
        kind=config["kind"],
        seed=_operator_seed(config, trial),
    )


# ---------------------------------------------------------------------------
# command implementations


def _run_plan(config: dict) -> dict:
    _require(config, "plan", "d", "k")
    plan = recommend_parameters(config["d"], config["k"], config["epsilon"], config["kind"])
    return {"plan": plan.to_json_dict()}


def _run_build(config: dict) -> dict:
    op = _build_from_config(config)
    if config.get("dump"):
        dump_arrays(op, config["dump"])
    return {"operator": sketch_to_json_dict(op)}


def _run_apply(config: dict) -> dict:
    _require(config, "apply", "input")
    op = _build_from_config(config)
    points = read_point_set(config["input"])
    if not np.all(np.isfinite(points)):
        raise UsageError(f"input points in {config['input']} must be finite")
    embedded = apply(op, points)
    if config.get("output"):
        write_point_set(config["output"], embedded)
    return {
        "operator": sketch_to_json_dict(op),
        "n_points": int(embedded.shape[0]),
        "input_norms": np.linalg.norm(points, axis=1).tolist(),
        "output_norms": np.linalg.norm(embedded, axis=1).tolist(),
    }


def _run_rip(config: dict) -> dict:
    _require(config, "rip", "k")
    op = _build_from_config(config)  # needs --d/--m/--B unless --op is given
    if config["method"] == "exact":
        report = exact_rip_constant(densify_sketch(op), config["k"], cap=config["cap"])
    elif config["method"] == "mc":
        report = mc_rip_lower_bound(
            op,
            config["k"],
            config["trials"],
            derive_seed(config["seed"], 0, "rip-supports"),
        )
    else:
        raise UsageError(f"--method must be 'exact' or 'mc', got {config['method']!r}")
    return {"operator": sketch_to_json_dict(op), "rip": report.to_json_dict()}


def _jl_points(config: dict) -> np.ndarray:
    if config.get("input"):
        points = read_point_set(config["input"])
        if points.shape[1] != config["d"]:
            raise UsageError(
                f"input points have dimension {points.shape[1]}, expected d={config['d']}"
            )
        return points
    gen = stream(derive_seed(config["seed"], 0, "points"))
    return gen.standard_normal((config["n"], config["d"]))


def _run_jl(config: dict) -> dict:
    _require(config, "jl", "d", "m", "B")
    points = _jl_points(config)
    source = _pair_distances(points)
    threads = config["_threads"]

    def one_trial(t: int) -> dict:
        op = build_sketch(config["d"], config["m"], config["B"], config["kind"], _operator_seed(config, t))
        embedded = jl_embed(op, points, derive_seed(config["seed"], t, "jl"))
        rep = _ratio_report(source, _pair_distances(embedded))
        if t == 0 and config.get("output"):
            write_point_set(config["output"], embedded)
        return rep.to_json_dict()

    reports = _map_trials(one_trial, config["trials"], threads)
    eps = [r["epsilon_hat"] for r in reports]
    return {
        "n_points": int(points.shape[0]),
        "trials": reports,
        "median_epsilon_hat": float(np.median(eps)),
        "max_epsilon_hat": float(np.max(eps)),
    }


def _run_recover(config: dict) -> dict:
    _require(config, "recover", "d", "k", "m", "B")
    if config["solver"] not in ("iht", "cosamp"):
        raise UsageError(f"--solver must be 'iht' or 'cosamp', got {config['solver']!r}")
    d, k = config["d"], config["k"]
    input_signal = None
    if config.get("input"):
        pts = read_point_set(config["input"])
        if pts.shape != (1, d):
            raise UsageError(f"input signal must be a single {d}-dimensional point")
        input_signal = pts[0]
    threads = config["_threads"]

    def one_trial(t: int) -> dict:
        op = build_sketch(d, config["m"], config["B"], config["kind"], _operator_seed(config, t))
        # A real signal stays float64, so a real source applies it in real arithmetic.
        if input_signal is not None:
            x = input_signal
        else:
            gen = stream(derive_seed(config["seed"], t, "signal"))
            support = np.sort(gen.choice(d, size=k, replace=False))
            values = gen.standard_normal(k)
            if config["complex_signal"]:
                values = values + 1j * gen.standard_normal(k)
            x = np.zeros(d, dtype=values.dtype)
            x[support] = values
        y = apply(op, x)
        if config["noise_sd"] > 0:
            noise_gen = stream(derive_seed(config["seed"], t, "noise"))
            y = y + config["noise_sd"] * (
                noise_gen.standard_normal(op.m) + 1j * noise_gen.standard_normal(op.m)
            )
        solver = iht if config["solver"] == "iht" else cosamp
        result = solver(op, y, k, max_iters=config["max_iters"], tol=config["tol"])
        err, ratio = l2l1_metrics(x, result.estimate, k)
        norm_x = float(np.linalg.norm(x))
        rel = err / norm_x if norm_x > 0 else 0.0
        solve = result.to_json_dict()
        del solve["residual_norms"]
        return {
            "trial": t,
            "relative_error": rel,
            "l2_error": err,
            # An at most k-sparse signal has no best-k tail to scale by.
            "head_tail_ratio": ratio if np.count_nonzero(x) > k else None,
            "success": bool(rel <= config["success_tol"]),
            **solve,
        }

    trials = _map_trials(one_trial, config["trials"], threads)
    return {
        "solver": config["solver"],
        "trials": trials,
        "success_rate": float(np.mean([t["success"] for t in trials])),
        "median_relative_error": float(np.median([t["relative_error"] for t in trials])),
    }


def _run_bench(config: dict) -> dict:
    _require(config, "bench", "d", "m", "B")
    if config["trials"] < 5:
        raise UsageError(f"bench needs at least 5 trials, got {config['trials']}")
    kinds = [k.strip() for k in str(config["kind"]).split(",") if k.strip()]
    sizes = _parse_sizes(config["d"])
    records = []
    for kind in kinds:
        prev_median = None
        for d in sizes:
            tag = f"{kind}:{d}"
            op = build_sketch(d, config["m"], config["B"], kind, derive_seed(config["seed"], 0, f"operator:{tag}"))
            gen = stream(derive_seed(config["seed"], 0, f"input:{tag}"))
            x = gen.standard_normal(d)
            z = gen.standard_normal(config["m"])
            apply(op, x)  # warm-up discarded
            apply_adjoint(op, z)
            apply_times = []
            adjoint_times = []
            for _ in range(config["trials"]):
                t0 = time.perf_counter()
                apply(op, x)
                apply_times.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                apply_adjoint(op, z)
                adjoint_times.append(time.perf_counter() - t0)
            median_apply = float(np.median(apply_times))
            record = {
                "kind": kind,
                "d": d,
                "m": config["m"],
                "B": config["B"],
                "trials": config["trials"],
                "median_apply_seconds": median_apply,
                "median_adjoint_seconds": float(np.median(adjoint_times)),
                "raw_apply_seconds": apply_times,
                "raw_adjoint_seconds": adjoint_times,
                "apply_doubling_ratio": None if prev_median is None else median_apply / prev_median,
            }
            prev_median = median_apply
            records.append(record)
    return {"records": records}


_COMMANDS = {
    "plan": _run_plan,
    "build": _run_build,
    "apply": _run_apply,
    "rip": _run_rip,
    "jl": _run_jl,
    "recover": _run_recover,
    "bench": _run_bench,
}

#: Config keys that identify the experiment (embedded in artifacts).
_PUBLIC_KEYS = (
    "command",
    "d",
    "m",
    "B",
    "k",
    "epsilon",
    "kind",
    "method",
    "cap",
    "trials",
    "seed",
    "max_iters",
    "tol",
    "noise_sd",
    "success_tol",
    "complex_signal",
    "solver",
    "n",
    "input",
    "op",
)


def _public_config(config: dict) -> dict:
    return {k: config[k] for k in _PUBLIC_KEYS if config.get(k) is not None}


def run(config: dict) -> dict:
    """Execute a configuration and return the report: its header, ``results`` and ``timings``.

    ``--trials`` below 1 is a usage error.  ``--csv`` (``jl``, ``recover``,
    ``bench``) gets the same header as ``#`` lines, then the command's
    trials or records; the caller writes the returned JSON report.
    """
    command = config.get("command")
    if command not in _COMMANDS:
        raise UsageError(f"unknown command {command!r}; expected one of {sorted(_COMMANDS)}")
    config = dict(config)
    for key, value in _DEFAULTS[command].items():
        config.setdefault(key, value)
    if config.get("trials") is not None and config["trials"] < 1:
        raise UsageError(f"--trials must be at least 1, got {config['trials']}")
    _resolve_seed(config, command)
    config["_threads"] = _resolve_threads(config.get("threads"))
    start = time.perf_counter()
    results = _COMMANDS[command](config)
    elapsed = time.perf_counter() - start
    header = {
        "schema_version": SCHEMA_VERSION,
        "library_version": fastsketch.__version__,
        "numpy_version": np.__version__,
        "blas_threads": _blas_threads(),
        "command": command,
        "master_seed": config.get("seed"),
        "config": _public_config(config),
    }
    if command in _CSV_COLUMNS and config.get("csv"):
        _write_csv(config["csv"], header, results)
    return {**header, "results": results, "timings": {"total_seconds": elapsed}}


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> _Parser:
    parser = _Parser(prog="fastsketch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, seeded: bool):
        p.add_argument("--config", help="config file (key=value lines, or JSON/report)")
        p.add_argument("--out", help="write the JSON report here (default: stdout)")
        p.add_argument("--threads", type=int, help="worker pool size for trials")
        if seeded:
            p.add_argument("--seed", help="master seed (integer, or 'auto' to draw one)")

    def add_operator(p, *, with_op: bool = True):
        p.add_argument("--d", type=int, help="signal dimension (power of two)")
        p.add_argument("--m", type=int, help="sketch rows (bucket count)")
        p.add_argument("--B", type=int, help="bucket size")
        p.add_argument("--kind", help="fourier | hadamard | circulant | gaussian")
        if with_op:
            p.add_argument("--op", help="operator JSON file (overrides --d/--m/--B/--kind)")

    p = sub.add_parser("plan", help="recommend (m, B) for a target (d, k, epsilon)")
    add_common(p, seeded=False)
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--kind")

    p = sub.add_parser("build", help="build an operator and write its JSON form")
    add_common(p, seeded=True)
    add_operator(p)
    p.add_argument("--dump", help="also write a binary payload dump (npz)")

    p = sub.add_parser("apply", help="apply an operator to a CSV point set")
    add_common(p, seeded=True)
    add_operator(p)
    p.add_argument("--input", help="input point-set CSV")
    p.add_argument("--output", help="embedded point-set CSV")

    p = sub.add_parser("rip", help="measure a restricted-isometry constant")
    add_common(p, seeded=True)
    add_operator(p)
    p.add_argument("--k", type=int, help="sparsity level")
    p.add_argument("--method", choices=("exact", "mc"))
    p.add_argument("--trials", type=int, help="sampled supports (mc only)")
    p.add_argument("--cap", type=int, help="max enumerated supports (exact only)")

    p = sub.add_parser("jl", help="embed a point set and report distortion")
    add_common(p, seeded=True)
    add_operator(p, with_op=False)  # fresh operator per trial
    p.add_argument("--n", type=int, help="synthetic Gaussian point count")
    p.add_argument("--input", help="point-set CSV (instead of synthetic points)")
    p.add_argument("--trials", type=int, help="independent embeddings to draw")
    p.add_argument("--output", help="embedded point-set CSV (first trial)")
    p.add_argument("--csv", help="per-trial distortion CSV")

    p = sub.add_parser("recover", help="sparse-recovery trials from sketched measurements")
    add_common(p, seeded=True)
    add_operator(p, with_op=False)  # fresh operator per trial
    p.add_argument("--k", type=int, help="sparsity level")
    p.add_argument("--solver", choices=("iht", "cosamp"))
    p.add_argument("--trials", type=int)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--noise-sd", dest="noise_sd", type=float)
    p.add_argument("--success-tol", dest="success_tol", type=float)
    p.add_argument("--complex-signal", dest="complex_signal", action="store_const", const=True)
    p.add_argument("--input", help="signal CSV (single point) to measure and recover")
    p.add_argument("--csv", help="per-trial results CSV")

    p = sub.add_parser("bench", help="time operator application across sizes")
    add_common(p, seeded=True)
    p.add_argument("--d", help="size sweep: N, N1,N2,..., or LO..HI (doubling)")
    p.add_argument("--m", type=int)
    p.add_argument("--B", type=int)
    p.add_argument("--kind", help="comma-separated kinds")
    p.add_argument("--trials", type=int)
    p.add_argument("--csv", help="benchmark CSV")

    return parser


def _emit_error(exc: Exception) -> None:
    doc = {"error": str(exc), "type": type(exc).__name__}
    sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config: dict = {}
        if getattr(args, "config", None):
            config.update(_load_config_file(args.config))
        for key, value in vars(args).items():
            if key == "config" or value is None:
                continue
            config[key] = value
        config["command"] = args.command
        report = run(config)
        out = getattr(args, "out", None) or config.get("out")
        if out:
            Path(out).write_text(_dump_json(report), encoding="utf-8")
        else:
            sys.stdout.write(_dump_json(report))
        return EXIT_OK
    except ValueError as exc:
        _emit_error(exc)
        return EXIT_USAGE
    except OSError as exc:
        _emit_error(exc)
        return EXIT_IO
    except Exception as exc:  # pragma: no cover - last-resort reporting
        _emit_error(exc)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
