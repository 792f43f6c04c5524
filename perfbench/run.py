"""Run one benchmark workload of fastsketch and print its metrics.

    python3 perfbench/run.py --workload {recover,rip,embed} --seed N \
        --seconds S --trace {0,1}

One process, one calling thread, closed loop: each operation starts when
the previous one has returned and been checked.  The program is imported
from ``src/`` of the checkout that holds this file.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and the sample counts.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` untraced and traced rounds of
identical inputs alternate and the metrics are the per-layer ones.  Run
records and trace spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# Fixed before numpy is imported; the benchmark has one calling thread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("recover", "rip", "embed")

#: Set-ups measured per run, each in a fresh process; setup_s is their median.
SETUP_PROBES = 3

#: Inputs of the discarded warm-up operation: the first slot, made from a
#: fixed seed and a round index outside any timed round, so that every
#: run sets up with the same work whatever its --seed.
WARMUP_SEED, WARMUP_ROUND = 0, 1 << 40

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up, run the warm-up operation, print 'ready' and exit (used to time set-up)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_workloads():
    """Put the checkout's src/ first on the path and import the workloads."""
    if not (SRC / "fastsketch" / "__init__.py").is_file():
        sys.exit(f"run.py: no program at {SRC / 'fastsketch'}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def blas_threads() -> int:
    """Thread count the loaded OpenBLAS reports, or the count requested."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return BLAS_THREADS


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def warm_up(workload) -> None:
    params = workload.slots[0]
    workload.run(params, workload.inputs(WARMUP_SEED, WARMUP_ROUND, 0, params))


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh process to the end of its warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def run_rounds(workload, seed: int, seconds: float, tracer=None) -> list[dict]:
    """Whole rounds in a closed loop until ``seconds`` of wall time have passed.

    Without a tracer every round draws fresh inputs.  With one, every
    round replays the inputs of round 0 and odd rounds are traced, so
    each traced round has an untraced twin and counts repeat exactly.
    """
    records: list[dict] = []
    started = time.perf_counter()
    round_index = 0
    while True:
        traced = tracer is not None and round_index % 2 == 1
        input_round = 0 if tracer is not None else round_index
        if traced:
            tracer.install()
        try:
            for slot, params in enumerate(workload.slots):
                inputs = workload.inputs(seed, input_round, slot, params)
                record = {"round": round_index, "slot": slot, "label": params["label"],
                          "traced": traced}
                try:
                    with tracer.operation(len(records)) if traced else nullcontext():
                        t0 = time.perf_counter()
                        outputs = workload.run(params, inputs)
                        record["seconds"] = time.perf_counter() - t0
                except Exception as exc:  # a raising operation counts as failed
                    record["error"] = repr(exc)
                else:
                    record["failures"] = workload.check(params, inputs, outputs)
                records.append(record)
        finally:
            if traced:
                tracer.uninstall()
        round_index += 1
        done = time.perf_counter() - started >= seconds
        if done and (tracer is None or round_index % 2 == 0):
            return records


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    return sorted_values[max(0, math.ceil(percentile / 100 * len(sorted_values)) - 1)]


def end_to_end_metrics(records, setup_times, tail_percentile):
    times = sorted(r["seconds"] for r in records if "seconds" in r)
    if not times:
        sys.exit("run.py: no operation completed")
    values = {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": len(times) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_tail_ms": nearest_rank(times, tail_percentile) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "latency_samples": len(times),
        "tail_percentile": tail_percentile,
        "beyond_tail": len(times) - math.ceil(tail_percentile / 100 * len(times)),
        "setup_samples_s": setup_times,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, samples


def trace_overhead_ms(records) -> float:
    """Median over operations of traced minus untraced time on the same inputs."""
    timed = {(r["round"], r["slot"]): r["seconds"] for r in records if "seconds" in r}
    diffs = [
        timed[(rnd, slot)] - timed[(rnd - 1, slot)]
        for (rnd, slot) in timed
        if rnd % 2 == 1 and (rnd - 1, slot) in timed
    ]
    if not diffs:
        sys.exit("run.py: no traced operation completed")
    return statistics.median(diffs) * 1e3


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        warm_up(workload)
        print("ready", flush=True)
        return 0

    env = environment(args.seed)
    setup_times = [] if args.trace else [
        probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
    ]
    warm_up(workload)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    records = run_rounds(workload, args.seed, args.seconds, tracer)
    final_failures = workload.final_checks(args.seed) if workload.final_checks else []

    if tracer is None:
        metrics, samples = end_to_end_metrics(records, setup_times, workload.tail_percentile)
    else:
        metrics = tracer.per_layer_metrics()
        metrics[tracing.OVERHEAD_METRIC] = {"value": trace_overhead_ms(records), "unit": "ms"}
        samples = {"traced_operations": sum(r["traced"] for r in records)}

    failures = [(r["label"], f) for r in records for f in r.get("failures", [])]
    failures += [("final", f) for f in final_failures]
    for label, message in failures:
        print(f"run.py: check failed on {label}: {message}", file=sys.stderr)
    for r in records:
        if "error" in r:
            print(f"run.py: {r['label']} raised {r['error']}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": sum("error" in r for r in records),
        "metrics": metrics,
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "samples": samples, "result": result,
                   "final_failures": final_failures, "records": records}, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    print(json.dumps({"environment": env, "samples": samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
