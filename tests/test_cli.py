"""CLI dispatch, artifact embedding, seed policy, and reproducibility."""

import json
import subprocess
import sys

import numpy as np
import pytest

from fastsketch.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    _blas_threads,
    _one_blas_thread,
    _openblas_thread_control,
    main,
    run,
    strip_timing_fields,
)
from fastsketch import cli
from fastsketch.jl import distortion_report, jl_embed, read_point_set, write_point_set
from fastsketch.rng import derive_seed, stream
from fastsketch.sketch import apply, build_sketch


def read_json(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# seed derivation


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 0, "signs") == derive_seed(7, 0, "signs")

    def test_purpose_separation(self):
        assert derive_seed(7, 0, "signs") != derive_seed(7, 0, "rows")

    def test_trial_separation(self):
        assert derive_seed(7, 0, "signs") != derive_seed(7, 1, "signs")

    def test_no_collisions_across_many_trials(self):
        seeds = {derive_seed(123, t, "trial") for t in range(10_000)}
        assert len(seeds) == 10_000


# ---------------------------------------------------------------------------
# plan / rip basics


def test_plan_writes_json_to_stdout(capsys):
    assert main(["plan", "--d", "1024", "--k", "16", "--epsilon", "0.5", "--kind", "fourier"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "plan"
    assert report["results"]["plan"]["B"] >= 1
    assert report["schema_version"] == 1
    assert report["numpy_version"] == np.__version__
    assert report["master_seed"] is None


def test_rip_is_deterministic_across_invocations(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["rip", "--d", "16", "--k", "2", "--m", "8", "--B", "2",
            "--kind", "fourier", "--method", "exact", "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == EXIT_OK
    assert main(argv + ["--out", str(out2)]) == EXIT_OK
    a, b = read_json(out1), read_json(out2)
    assert strip_timing_fields(a) == strip_timing_fields(b)
    assert a["results"]["rip"]["method"] == "exact"


def test_rip_mc_method(tmp_path):
    out = tmp_path / "mc.json"
    assert main(["rip", "--d", "16", "--k", "2", "--m", "4", "--B", "2", "--kind",
                 "circulant", "--method", "mc", "--trials", "10", "--seed", "3",
                 "--out", str(out)]) == EXIT_OK
    rep = read_json(out)
    assert rep["results"]["rip"]["method"] == "monte_carlo"
    assert rep["results"]["rip"]["supports_evaluated"] == 10
    assert 1 <= rep["results"]["rip"]["eigensolved"] <= 10


# ---------------------------------------------------------------------------
# seed policy


def test_randomized_command_requires_seed(capsys):
    code = main(["rip", "--d", "16", "--k", "2", "--m", "4", "--B", "2"])
    assert code == EXIT_USAGE
    err = json.loads(capsys.readouterr().err)
    assert "seed" in err["error"]


def test_seed_auto_draws_and_records(tmp_path):
    out = tmp_path / "auto.json"
    assert main(["build", "--d", "16", "--m", "2", "--B", "2", "--kind", "fourier",
                 "--seed", "auto", "--out", str(out)]) == EXIT_OK
    rep = read_json(out)
    assert isinstance(rep["master_seed"], int)
    assert rep["config"]["seed"] == rep["master_seed"]


def test_plan_needs_no_seed(capsys):
    assert main(["plan", "--d", "64", "--k", "4"]) == EXIT_OK
    capsys.readouterr()


# ---------------------------------------------------------------------------
# config files and flag precedence


def test_config_file_key_value(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("d=16\nk=2\nm=8\nB=2\nkind=fourier\nmethod=exact\nseed=7\n")
    assert main(["rip", "--config", str(cfg)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["d"] == 16


def test_flags_beat_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("d=16\nk=2\nm=8\nB=2\nkind=fourier\nmethod=exact\nseed=7\n")
    assert main(["rip", "--config", str(cfg), "--seed", "9"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["master_seed"] == 9


def test_rerun_from_embedded_config_reproduces(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["rip", "--d", "16", "--k", "2", "--m", "8", "--B", "2", "--kind",
                 "fourier", "--method", "exact", "--seed", "7", "--out", str(out1)]) == EXIT_OK
    # the report itself is an accepted config file
    assert main(["rip", "--config", str(out1), "--out", str(out2)]) == EXIT_OK
    assert strip_timing_fields(read_json(out1)) == strip_timing_fields(read_json(out2))


# ---------------------------------------------------------------------------
# jl / recover / apply / bench smoke

def test_jl_command_artifacts(tmp_path):
    out = tmp_path / "jl.json"
    csv = tmp_path / "jl.csv"
    assert main(["jl", "--d", "64", "--m", "16", "--B", "4", "--kind", "fourier",
                 "--n", "10", "--trials", "3", "--seed", "5",
                 "--out", str(out), "--csv", str(csv)]) == EXIT_OK
    rep = read_json(out)
    assert len(rep["results"]["trials"]) == 3
    assert 0 <= rep["results"]["median_epsilon_hat"]
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("# schema_version=")
    assert f"# numpy_version={np.__version__}" in lines
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_at].split(",")[0] == "trial"
    assert len(lines) == header_at + 1 + 3


@pytest.mark.parametrize("threads", [1, 2])
def test_jl_source_distances_computed_once(monkeypatch, threads):
    """Trials share one source pass and report what distortion_report reports."""
    d, n = 64, 9
    shapes = []
    pair_distances = cli._pair_distances

    def counting(points):
        shapes.append(np.shape(points))
        return pair_distances(points)

    monkeypatch.setattr(cli, "_pair_distances", counting)
    config = {"command": "jl", "d": d, "m": 16, "B": 4, "kind": "hadamard", "n": n,
              "trials": 3, "seed": 5, "threads": threads}
    reports = run(config)["results"]["trials"]
    assert shapes.count((n, d)) == 1
    assert len(shapes) == 1 + 3
    points = stream(derive_seed(5, 0, "points")).standard_normal((n, d))
    for t, got in enumerate(reports):
        op = build_sketch(d, 16, 4, "hadamard", derive_seed(5, t, "operator"))
        embedded = jl_embed(op, points, derive_seed(5, t, "jl"))
        want = distortion_report(points, embedded).to_json_dict()
        assert json.dumps(got) == json.dumps(want)


def test_jl_rejects_non_finite_input(tmp_path):
    pts = np.random.default_rng(3).standard_normal((4, 16))
    pts[2, 7] = np.nan
    path = tmp_path / "pts.csv"
    write_point_set(path, pts)
    assert main(["jl", "--d", "16", "--m", "8", "--B", "2", "--kind", "fourier",
                 "--input", str(path), "--seed", "1",
                 "--out", str(tmp_path / "jl.json")]) == EXIT_USAGE
    assert not (tmp_path / "jl.json").exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_jl_reports_phase_timings(threads):
    config = {"command": "jl", "d": 64, "m": 16, "B": 4, "kind": "circulant", "n": 6,
              "trials": 3, "seed": 5, "threads": threads}
    report = run(config)
    timings = report["timings"]
    for phase in ("total", "source", "build", "embed", "metrics"):
        assert timings[f"{phase}_seconds"] >= 0.0
    assert len(timings["trial_seconds"]) == config["trials"]
    assert all(t >= 0.0 for t in timings["trial_seconds"])
    # Every phase timing sits under the report's ``timings``, which the
    # reproducibility comparison drops.
    assert "timings" not in report["results"]
    assert "timings" not in strip_timing_fields(report)


@pytest.mark.parametrize("kind", ["fourier", "hadamard", "circulant", "gaussian"])
def test_jl_threads_do_not_change_results(tmp_path, kind):
    argv = ["jl", "--d", "256", "--m", "16", "--B", "4", "--kind", kind,
            "--n", "8", "--trials", "4", "--seed", "17"]
    out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
    assert main(argv + ["--threads", "1", "--out", str(out1)]) == EXIT_OK
    assert main(argv + ["--threads", "2", "--out", str(out2)]) == EXIT_OK
    assert strip_timing_fields(read_json(out1)) == strip_timing_fields(read_json(out2))


def test_recover_command(tmp_path):
    out = tmp_path / "rec.json"
    assert main(["recover", "--d", "256", "--k", "4", "--m", "96", "--B", "8",
                 "--kind", "fourier", "--solver", "iht", "--trials", "4",
                 "--max-iters", "300", "--tol", "1e-12", "--seed", "11",
                 "--out", str(out)]) == EXIT_OK
    rep = read_json(out)
    assert rep["results"]["success_rate"] == 1.0
    assert len(rep["results"]["trials"]) == 4


@pytest.mark.parametrize("max_iters, reason", [("50", "converged"), ("1", "max_iters")])
def test_recover_reports_stop_reason(tmp_path, max_iters, reason):
    out, csv = tmp_path / "rec.json", tmp_path / "rec.csv"
    assert main(["recover", "--d", "256", "--k", "4", "--m", "96", "--B", "8",
                 "--kind", "fourier", "--solver", "cosamp", "--trials", "2",
                 "--max-iters", max_iters, "--seed", "11",
                 "--out", str(out), "--csv", str(csv)]) == EXIT_OK
    trials = read_json(out)["results"]["trials"]
    assert [t["stop_reason"] for t in trials] == [reason] * 2
    lines = [ln for ln in csv.read_text().splitlines() if not ln.startswith("#")]
    column = lines[0].split(",").index("stop_reason")
    assert [row.split(",")[column] for row in lines[1:]] == [reason] * 2


@pytest.mark.parametrize("solver", ["iht", "cosamp"])
def test_recover_reports_solver_work(tmp_path, solver):
    out, csv = tmp_path / "rec.json", tmp_path / "rec.csv"
    assert main(["recover", "--d", "256", "--k", "4", "--m", "96", "--B", "8",
                 "--kind", "hadamard", "--solver", solver, "--trials", "2",
                 "--max-iters", "300", "--seed", "11",
                 "--out", str(out), "--csv", str(csv)]) == EXIT_OK
    trials = read_json(out)["results"]["trials"]
    work = ["adjoint_calls", "columns_extracted"]
    for t in trials:
        assert 1 <= t["adjoint_calls"] <= t["iterations_used"]
        assert t["columns_extracted"] > 0
    lines = [ln for ln in csv.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, row.split(","))) for row in lines[1:]]
    assert [[int(r[w]) for w in work] for r in rows] == [[t[w] for w in work] for t in trials]


def test_recover_reports_null_head_tail_ratio_for_k_sparse_signals(tmp_path):
    out = tmp_path / "rec.json"
    assert main(["recover", "--d", "1024", "--k", "10", "--m", "200", "--B", "16",
                 "--kind", "hadamard", "--solver", "iht", "--trials", "4", "--seed", "1",
                 "--out", str(out)]) == EXIT_OK
    trials = read_json(out)["results"]["trials"]
    assert [t["success"] for t in trials] == [True] * 4
    assert [t["head_tail_ratio"] for t in trials] == [None] * 4


def test_recover_reports_head_tail_ratio_for_dense_signals(tmp_path):
    signal = tmp_path / "x.csv"
    write_point_set(signal, np.random.default_rng(3).standard_normal((1, 64)))
    out = tmp_path / "rec.json"
    assert main(["recover", "--d", "64", "--k", "3", "--m", "32", "--B", "2",
                 "--kind", "fourier", "--trials", "1", "--seed", "13",
                 "--input", str(signal), "--out", str(out)]) == EXIT_OK
    (trial,) = read_json(out)["results"]["trials"]
    assert isinstance(trial["head_tail_ratio"], float) and trial["head_tail_ratio"] > 0


@pytest.mark.parametrize(
    "extra, expected",
    [([], np.float64), (["--complex-signal"], np.complex128), (["--input"], np.float64),
     (["--input", "complex"], np.complex128)],
    ids=["planted", "planted-complex", "real-input", "complex-input"],
)
def test_recover_applies_a_real_signal_as_float64(tmp_path, monkeypatch, extra, expected):
    # A real signal is applied as float64 (one real transform), a complex
    # one as complex128.
    argv = ["recover", "--d", "64", "--k", "3", "--m", "32", "--B", "2",
            "--kind", "hadamard", "--trials", "2", "--seed", "13",
            "--out", str(tmp_path / "rec.json")]
    if extra[:1] == ["--input"]:
        points = np.random.default_rng(3).standard_normal((1, 64))
        if extra[1:] == ["complex"]:
            points = points + 1j * points
        write_point_set(tmp_path / "x.csv", points)
        argv += ["--input", str(tmp_path / "x.csv")]
    else:
        argv += extra
    seen, real_apply = [], cli.apply

    def logged(op, x):
        seen.append(x.dtype)
        return real_apply(op, x)

    monkeypatch.setattr(cli, "apply", logged)
    assert main(argv) == EXIT_OK
    assert seen == [np.dtype(expected)] * 2


def test_recover_with_noise_runs_and_records(tmp_path):
    out = tmp_path / "noisy.json"
    assert main(["recover", "--d", "128", "--k", "3", "--m", "64", "--B", "4",
                 "--kind", "fourier", "--trials", "3", "--noise-sd", "0.01",
                 "--success-tol", "0.1", "--seed", "29", "--out", str(out)]) == EXIT_OK
    rep = read_json(out)
    assert rep["config"]["noise_sd"] == 0.01
    for trial in rep["results"]["trials"]:
        assert trial["relative_error"] > 0  # noise floor keeps errors nonzero
        assert "estimate" in trial


def test_recover_threads_do_not_change_results(tmp_path):
    argv = ["recover", "--d", "64", "--k", "3", "--m", "32", "--B", "2",
            "--kind", "fourier", "--trials", "6", "--seed", "13"]
    out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
    assert main(argv + ["--threads", "1", "--out", str(out1)]) == EXIT_OK
    assert main(argv + ["--threads", "4", "--out", str(out2)]) == EXIT_OK
    assert strip_timing_fields(read_json(out1)) == strip_timing_fields(read_json(out2))
    assert read_json(out2)["blas_threads"] == _blas_threads()


def test_overlapping_blas_pins_restore_the_count():
    control = _openblas_thread_control()
    if control is None:
        pytest.skip("numpy bundles no OpenBLAS")
    get, put = control
    before = get()
    put(2)
    try:
        count = get()
        outer, inner = _one_blas_thread(), _one_blas_thread()
        outer.__enter__()
        inner.__enter__()
        assert get() == 1 and _blas_threads() == count
        outer.__exit__(None, None, None)  # the earlier block closes first
        assert get() == 1
        inner.__exit__(None, None, None)
        assert get() == count and _blas_threads() == count
    finally:
        put(before)


def test_env_var_thread_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FASTSKETCH_THREADS", "3")
    out = tmp_path / "env.json"
    argv = ["recover", "--d", "64", "--k", "3", "--m", "32", "--B", "2",
            "--kind", "fourier", "--trials", "4", "--seed", "13", "--out", str(out)]
    assert main(argv) == EXIT_OK
    monkeypatch.setenv("FASTSKETCH_THREADS", "1")
    out2 = tmp_path / "env2.json"
    assert main(argv[:-1] + [str(out2)]) == EXIT_OK
    assert strip_timing_fields(read_json(out)) == strip_timing_fields(read_json(out2))


@pytest.mark.parametrize("value", ["0", "-4"])
def test_env_var_thread_count_must_be_positive(monkeypatch, capsys, value):
    # The variable follows the --threads rule: a count below one is a usage error.
    monkeypatch.setenv("FASTSKETCH_THREADS", value)
    argv = ["rip", "--d", "16", "--k", "2", "--m", "4", "--B", "2", "--trials", "2",
            "--seed", "5"]
    assert main(argv) == EXIT_USAGE
    err = json.loads(capsys.readouterr().err)["error"]
    assert "FASTSKETCH_THREADS" in err and value in err


def test_build_dump_writes_payload_arrays(tmp_path):
    dump = tmp_path / "op.npz"
    assert main(["build", "--d", "32", "--m", "4", "--B", "2", "--kind", "circulant",
                 "--seed", "23", "--out", str(tmp_path / "op.json"),
                 "--dump", str(dump)]) == EXIT_OK
    arrays = np.load(dump)
    assert arrays["signs"].shape == (4, 2)
    assert arrays["eps"].shape == (32,)


def test_apply_roundtrip(tmp_path):
    pts = np.random.default_rng(3).standard_normal((4, 32))
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    write_point_set(src, pts)
    assert main(["apply", "--d", "32", "--m", "8", "--B", "2", "--kind", "fourier",
                 "--seed", "3", "--input", str(src), "--output", str(dst),
                 "--out", str(tmp_path / "apply.json")]) == EXIT_OK
    embedded = read_point_set(dst)
    assert embedded.shape == (4, 8)


@pytest.mark.parametrize("kind", ["fourier", "hadamard", "circulant", "gaussian"])
def test_apply_and_jl_outputs_are_the_library_products(tmp_path, kind):
    # --output writes exactly what apply and jl_embed return, in Phi's
    # dtype for real points: complex=1 only on a Fourier source.
    pts = np.random.default_rng(4).standard_normal((3, 32))
    src = tmp_path / "in.csv"
    write_point_set(src, pts)
    common = ["--d", "32", "--m", "8", "--B", "2", "--kind", kind, "--seed", "3", "--input", str(src)]
    header = f"d=8,complex={int(kind == 'fourier')}"
    op = build_sketch(32, 8, 2, kind, derive_seed(3, 0, "operator"))
    for command, want in (
        (["apply"], apply(op, pts)),
        (["jl", "--trials", "1"], jl_embed(op, pts, derive_seed(3, 0, "jl"))),
    ):
        dst = tmp_path / f"{command[0]}.csv"
        assert main(command + common + ["--output", str(dst), "--out", str(tmp_path / "r.json")]) == EXIT_OK
        assert dst.read_text().splitlines()[0] == header
        assert np.array_equal(read_point_set(dst), want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_apply_rejects_non_finite_input(tmp_path, bad):
    pts = np.random.default_rng(3).standard_normal((4, 32))
    pts[1, 5] = bad
    src, dst, out = tmp_path / "in.csv", tmp_path / "out.csv", tmp_path / "apply.json"
    write_point_set(src, pts)
    assert main(["apply", "--d", "32", "--m", "8", "--B", "2", "--kind", "fourier",
                 "--seed", "3", "--input", str(src), "--output", str(dst),
                 "--out", str(out)]) == EXIT_USAGE
    assert not dst.exists() and not out.exists()


def test_build_then_apply_via_operator_file(tmp_path):
    op_file = tmp_path / "op.json"
    assert main(["build", "--d", "32", "--m", "4", "--B", "2", "--kind", "circulant",
                 "--seed", "17", "--out", str(op_file)]) == EXIT_OK
    pts = np.random.default_rng(5).standard_normal((2, 32))
    src = tmp_path / "p.csv"
    write_point_set(src, pts)
    out = tmp_path / "a.json"
    assert main(["apply", "--op", str(op_file), "--input", str(src), "--seed", "17",
                 "--out", str(out)]) == EXIT_OK
    assert read_json(out)["results"]["n_points"] == 2


def test_prebuilt_operator_needs_no_seed(tmp_path):
    op_file = tmp_path / "op.json"
    assert main(["build", "--d", "32", "--m", "4", "--B", "2", "--kind", "fourier",
                 "--seed", "31", "--out", str(op_file)]) == EXIT_OK
    pts = np.random.default_rng(7).standard_normal((2, 32))
    src = tmp_path / "p.csv"
    write_point_set(src, pts)
    # deterministic given the operator file: no --seed required
    assert main(["apply", "--op", str(op_file), "--input", str(src),
                 "--out", str(tmp_path / "a.json")]) == EXIT_OK
    assert main(["rip", "--op", str(op_file), "--k", "2", "--method", "exact",
                 "--out", str(tmp_path / "r.json")]) == EXIT_OK
    # sampled supports still need a master seed
    assert main(["rip", "--op", str(op_file), "--k", "2", "--method", "mc",
                 "--trials", "5"]) == EXIT_USAGE


def test_bench_csv_structure(tmp_path):
    csv = tmp_path / "bench.csv"
    out = tmp_path / "bench.json"
    assert main(["bench", "--kind", "fourier", "--d", "256..512", "--m", "8",
                 "--B", "2", "--trials", "5", "--seed", "19",
                 "--csv", str(csv), "--out", str(out)]) == EXIT_OK
    rep = read_json(out)
    records = rep["results"]["records"]
    assert [r["d"] for r in records] == [256, 512]
    assert records[0]["apply_doubling_ratio"] is None
    assert records[1]["apply_doubling_ratio"] > 0
    lines = [ln for ln in csv.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "kind,d,m,B,trials,median_apply_seconds,median_adjoint_seconds,apply_doubling_ratio"
    assert len(lines) == 3


@pytest.mark.parametrize("per_thread", [True, False], ids=["rusage-thread", "unavailable"])
def test_bench_records_minor_faults_as_timing_fields(monkeypatch, per_thread):
    # Each record gives the median minor faults of one timed apply and
    # adjoint call, or null where the platform has no per-thread count.
    if not per_thread:
        monkeypatch.setattr(cli, "_RUSAGE_THREAD", None)
    elif cli._RUSAGE_THREAD is None:
        pytest.skip("no per-thread resource usage on this platform")
    report = run({"command": "bench", "kind": "fourier,circulant", "d": "256..512", "m": 8,
                  "B": 2, "trials": 5, "seed": 23})
    for record in report["results"]["records"]:
        for key in ("median_apply_minor_faults", "median_adjoint_minor_faults"):
            assert key in cli.TIMING_KEYS
            if per_thread:
                assert record[key] >= 0
            else:
                assert record[key] is None
    assert "minor_faults" not in json.dumps(strip_timing_fields(report))
    assert not any("faults" in c for c in cli._CSV_COLUMNS["bench"])


def read_csv(path):
    """(``#`` metadata as a dict, column names, rows of cells) of an experiment CSV."""
    lines = path.read_text().splitlines()
    meta = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
    body = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return meta, body[0], body[1:]


def csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize("argv, rows_key", [
    (["jl", "--d", "64", "--m", "16", "--B", "4", "--kind", "circulant", "--n", "6",
      "--trials", "3", "--seed", "5"], "trials"),
    (["recover", "--d", "256", "--k", "4", "--m", "96", "--B", "8", "--kind", "hadamard",
      "--solver", "cosamp", "--trials", "3", "--noise-sd", "0.01", "--seed", "11"], "trials"),
    (["bench", "--kind", "fourier,hadamard", "--d", "256..512", "--m", "8", "--B", "2",
      "--trials", "5", "--seed", "19"], "records"),
], ids=["jl", "recover", "bench"])
def test_csv_restates_the_report(tmp_path, argv, rows_key):
    """The CSV's # lines are the report's header and its rows are the report's rows."""
    out, csv = tmp_path / "rep.json", tmp_path / "rep.csv"
    assert main(argv + ["--out", str(out), "--csv", str(csv)]) == EXIT_OK
    rep = read_json(out)
    meta, columns, rows = read_csv(csv)
    keys = ["schema_version", "library_version", "numpy_version", "blas_threads", "command", "master_seed"]
    want = {k: str(rep[k]) for k in keys}
    want["config"] = json.dumps(rep["config"], sort_keys=True, separators=(",", ":"))
    assert meta == want
    assert list(meta) == keys + ["config"]
    records = rep["results"][rows_key]
    assert len(rows) == len(records) > 1
    for t, (row, record) in enumerate(zip(rows, records)):
        assert row == [csv_cell(t if c == "trial" else record[c]) for c in columns]
        assert "trial" not in record or record["trial"] == t


@pytest.mark.parametrize("command", [["jl", "--n", "4"], ["recover", "--k", "2"]], ids=["jl", "recover"])
@pytest.mark.parametrize("trials", ["0", "-2"])
def test_trials_below_one_is_usage_error(tmp_path, capsys, command, trials):
    out = tmp_path / "rep.json"
    assert main(command + ["--d", "64", "--m", "16", "--B", "4", "--seed", "1",
                           "--trials", trials, "--out", str(out)]) == EXIT_USAGE
    assert "--trials" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()


def test_bench_requires_five_trials(capsys):
    code = main(["bench", "--kind", "fourier", "--d", "256", "--m", "4", "--B", "2",
                 "--trials", "3", "--seed", "1"])
    assert code == EXIT_USAGE
    capsys.readouterr()


# ---------------------------------------------------------------------------
# errors


def test_unknown_flag_is_usage_error(capsys):
    assert main(["rip", "--bogus", "1"]) == EXIT_USAGE
    capsys.readouterr()


def test_invalid_dimension_is_usage_error(capsys):
    code = main(["rip", "--d", "12", "--k", "2", "--m", "4", "--B", "2",
                 "--kind", "fourier", "--seed", "1"])
    assert code == EXIT_USAGE
    err = json.loads(capsys.readouterr().err)
    assert "power of two" in err["error"]


def test_missing_input_file_is_io_error(tmp_path, capsys):
    code = main(["apply", "--d", "32", "--m", "4", "--B", "2", "--kind", "fourier",
                 "--seed", "1", "--input", str(tmp_path / "nope.csv")])
    assert code == EXIT_IO
    capsys.readouterr()


def test_error_json_is_machine_readable(capsys):
    main(["rip", "--d", "16", "--k", "2", "--m", "4", "--B", "2", "--method", "typo",
          "--seed", "1"])
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error", "type"}


# ---------------------------------------------------------------------------
# console entry point


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fastsketch.cli", "plan", "--d", "64", "--k", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "plan"


def test_run_rejects_unknown_command():
    from fastsketch.cli import UsageError

    with pytest.raises(UsageError, match="unknown command"):
        run({"command": "explode"})
