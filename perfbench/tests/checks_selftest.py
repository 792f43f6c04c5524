"""Each output check accepts the program's honest output and rejects a wrong one."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

import fastsketch as fs
import oracles
import tracing

KINDS = ("fourier", "hadamard", "circulant", "gaussian")


@pytest.mark.parametrize("kind", KINDS)
def test_dense_phi_matches_program_densification(kind):
    op = fs.build_sketch(64, 8, 4, kind, seed=3)
    np.testing.assert_allclose(oracles.dense_phi(op), fs.densify_sketch(op), atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_exhaustive_constant_matches_program(kind):
    op = fs.build_sketch(16, 8, 2, kind, seed=5)
    phi = oracles.dense_phi(op)
    assert oracles.exhaustive_rip_constant(phi, 2) == pytest.approx(
        fs.exact_rip_constant(phi, 2).epsilon, abs=1e-10
    )


def test_parity_matches_popcount():
    x = np.arange(1 << 12)
    expected = [bin(int(v)).count("1") & 1 for v in x]
    np.testing.assert_array_equal(oracles._parity(x), expected)


# -- recover ----------------------------------------------------------------


def _recovery():
    op = fs.build_sketch(256, 64, 4, "fourier", seed=11)
    x = np.zeros(256)
    x[[3, 40, 77, 150, 201]] = [1.5, -0.7, 2.0, 0.9, -1.1]
    return x, fs.iht(op, fs.apply(op, x), 5)


def test_recovery_check_accepts_program_estimate():
    x, result = _recovery()
    assert oracles.check_recovery(x, result.estimate.to_dense(), result.residual_norm) == []


def test_recovery_check_rejects_perturbed_estimate():
    x, result = _recovery()
    estimate = result.estimate.to_dense()
    estimate[40] += 1e-5
    assert oracles.check_recovery(x, estimate, result.residual_norm)


def test_recovery_check_rejects_non_finite_residual():
    x, result = _recovery()
    assert oracles.check_recovery(x, result.estimate.to_dense(), float("inf"))


# -- rip --------------------------------------------------------------------


def _rip():
    op = fs.build_sketch(128, 16, 4, "hadamard", seed=13)
    report = fs.mc_rip_lower_bound(op, 4, 200, rng=17)
    return report, oracles.gershgorin_bound(oracles.dense_phi(op), 4)


def test_rip_check_accepts_program_report():
    report, bound = _rip()
    assert oracles.check_rip(report.epsilon, report.supports_evaluated, 200, bound) == []


def test_rip_check_rejects_epsilon_above_gershgorin_bound():
    report, bound = _rip()
    assert oracles.check_rip(bound * (1 + 1e-6), report.supports_evaluated, 200, bound)


def test_rip_check_rejects_negative_epsilon_and_wrong_support_count():
    report, bound = _rip()
    assert oracles.check_rip(-1e-3, report.supports_evaluated, 200, bound)
    assert oracles.check_rip(report.epsilon, 199, 200, bound)


def test_gershgorin_bound_holds_on_every_support():
    op = fs.build_sketch(16, 8, 2, "circulant", seed=19)
    phi = oracles.dense_phi(op)
    for k in (2, 3):
        assert oracles.exhaustive_rip_constant(phi, k) <= oracles.gershgorin_bound(phi, k)


def test_small_instance_check_rejects_epsilon_above_exhaustive():
    assert oracles.check_rip_small(0.5, 0.5) == []
    assert oracles.check_rip_small(0.5 + 1e-6, 0.5)


# -- embed ------------------------------------------------------------------


def _embedding(kind="fourier"):
    op = fs.build_sketch(256, 16, 4, kind, seed=23)
    points = np.random.default_rng(29).standard_normal((6, 256))
    embedded = fs.jl_embed(op, points, seed=31)
    return op, points, embedded


@pytest.mark.parametrize("kind", KINDS)
def test_column_check_accepts_embedded_basis_vectors(kind):
    op, _, _ = _embedding(kind)
    cols = np.array([5, 200])
    probed = fs.jl_embed(op, np.eye(256)[cols], seed=31)
    assert oracles.check_signed_columns(probed, oracles.dense_columns(op, cols)) == []
    assert oracles.check_signed_columns(-probed, oracles.dense_columns(op, cols)) == []


def test_column_check_rejects_one_flipped_sign():
    op, _, _ = _embedding()
    cols = np.array([5, 200])
    probed = fs.jl_embed(op, np.eye(256)[cols], seed=31)
    probed[1, 3] *= -1
    assert oracles.check_signed_columns(probed, oracles.dense_columns(op, cols))


def test_linearity_check():
    op, points, embedded = _embedding()
    weights = (1.5, -0.75)
    combined = fs.jl_embed(op, weights[0] * points[0] + weights[1] * points[1], seed=31)[0]
    assert oracles.check_linearity(combined, embedded[:2], weights) == []
    assert oracles.check_linearity(combined * (1 + 1e-6), embedded[:2], weights)


def test_distortion_check_accepts_program_report():
    _, points, embedded = _embedding()
    report = fs.distortion_report(points, embedded)
    assert oracles.check_distortion(report, oracles.reference_distortion(points, embedded)) == []


@pytest.mark.parametrize("field", ["max_expansion", "min_contraction", "epsilon_hat"])
def test_distortion_check_rejects_figure_off_by_1e6(field):
    _, points, embedded = _embedding()
    report = fs.distortion_report(points, embedded)
    wrong = dataclasses.replace(report, **{field: getattr(report, field) + 1e-6})
    assert oracles.check_distortion(wrong, oracles.reference_distortion(points, embedded))


def test_distortion_check_rejects_wrong_pair_count():
    _, points, embedded = _embedding()
    report = fs.distortion_report(points, embedded)
    wrong = dataclasses.replace(report, pairs_evaluated=report.pairs_evaluated - 1)
    assert oracles.check_distortion(wrong, oracles.reference_distortion(points, embedded))


# -- tracing ----------------------------------------------------------------


def test_tracer_wraps_every_alias_and_restores_it():
    originals = {
        (mod, name): getattr(mod, name)
        for mod, name in itertools.product(
            [fs, fs.sketch, fs.recovery, fs.jl, fs.analysis], ["apply"]
        )
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, name), fn in originals.items():
            assert getattr(mod, name) is not fn
    finally:
        tracer.uninstall()
    for (mod, name), fn in originals.items():
        assert getattr(mod, name) is fn
    assert tracer.spans == []


def test_tracer_spans_nest_and_count():
    op = fs.build_sketch(64, 8, 4, "fourier", seed=37)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fs.apply(op, np.ones(64))  # outside an operation: no span
        with tracer.operation(0):
            fs.apply(op, np.ones((3, 64)))
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    parents = {span[0]: names[span[3]] for span in tracer.spans if span[3] >= 0}
    assert names[0] == tracing.OP_SPAN
    assert parents == {
        "sketch.apply": tracing.OP_SPAN,
        "ensembles.apply_rows": "sketch.apply",
        "transforms.dft": "ensembles.apply_rows",
        "transforms.is_power_of_two": "transforms.dft",
    }
    _, totals = tracer.summary()
    assert totals["sketch.apply"]["count"] == 3
    assert totals["transforms.dft"]["count"] == 3 * 64
    for name, t in totals.items():
        assert 0 <= t["self"] <= t["incl"], name
    # Self times of the chain add up to the outermost inclusive time.
    assert sum(t["self"] for t in totals.values()) == totals["sketch.apply"]["incl"]
    metrics = tracer.per_layer_metrics()
    assert set(metrics) == set(tracing.METRICS)
    assert metrics["sketch.apply.vectors"]["value"] == 3
