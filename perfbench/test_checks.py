"""Tests of the benchmark itself: every output check rejects a perturbed
output, the references are optimal, and the tracer leaves no trace.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import tracer
import worker

HERE = Path(__file__).resolve().parent
worker._import_relerr()


@pytest.fixture(scope="module")
def table1_rows():
    return worker.Table1(3).op(0)


@pytest.fixture(scope="module")
def power_rows():
    return worker.Power(3).op(0)


@pytest.fixture(scope="module")
def bodyfat_ref():
    return checks.BodyfatReference(*inputs.bodyfat_design())


@pytest.fixture(scope="module")
def bodyfat_output(bodyfat_ref):
    """A program body-fat output whose LARE estimate is replaced by the
    reference minimizer, so that every check passes on it."""
    inputs.OUT_DIR.mkdir(exist_ok=True)
    inputs.write_bodyfat_csv(inputs.OUT_DIR / "bodyfat.csv")
    coef_rows, metric_rows = worker.Bodyfat(3).op(0)
    lare = iter(bodyfat_ref.lare_beta)
    coef_rows = [(m, name, next(lare) if m == "lare" else est, se, p)
                 for m, name, est, se, p in coef_rows]
    yhat = np.exp(bodyfat_ref.test_x @ bodyfat_ref.lare_beta)
    metric_rows = [(m, checks.prediction_metrics(bodyfat_ref.test_y, yhat) if m == "lare" else v)
                   for m, v in metric_rows]
    return coef_rows, metric_rows


def test_table1_program_output_passes(table1_rows):
    assert checks.check_table1(table1_rows, worker.TABLE1_REPS) == []


@pytest.mark.parametrize("field,change", [
    ("bias", lambda v: v + 0.03),
    ("se", lambda v: v * 1.25),
    ("se", lambda v: v * 0.75),
    ("see", lambda v: v * 1.12),
    ("see", lambda v: v * 0.85),
    ("cp", lambda v: 0.85),
    ("cp", lambda v: 0.999),
    ("se", lambda v: float("nan")),
])
@pytest.mark.parametrize("row", [0, 4])
def test_table1_rejects_perturbed(table1_rows, field, change, row):
    rows = [dict(r) for r in table1_rows]
    rows[row][field] = change(rows[row][field])
    assert checks.check_table1(rows, worker.TABLE1_REPS)


def test_table1_rejects_missing_row(table1_rows):
    assert checks.check_table1(table1_rows[:-1], worker.TABLE1_REPS)


def test_power_program_output_passes(power_rows):
    assert checks.check_power(power_rows, inputs.POWER_BETA2, worker.POWER_REPS) == []


@pytest.mark.parametrize("index,rate", [(0, 0.2), (1, 0.35), (1, 0.85), (2, 0.85)])
def test_power_rejects_perturbed(power_rows, index, rate):
    rows = list(power_rows)
    beta2, alpha, _ = rows[index]
    rows[index] = (beta2, alpha, rate)
    assert checks.check_power(rows, inputs.POWER_BETA2, worker.POWER_REPS)


def test_power_rejects_missing_grid_point(power_rows):
    assert checks.check_power(power_rows[1:], inputs.POWER_BETA2, worker.POWER_REPS)


def test_bodyfat_reference_output_passes(bodyfat_output, bodyfat_ref):
    assert checks.check_bodyfat(*bodyfat_output, bodyfat_ref) == ([], [])


def _perturb_coef(method, coef, delta=None, se=None, p=None):
    def change(coef_rows, metric_rows):
        rows = []
        for m, name, est, s, pv in coef_rows:
            if m == method and name == coef:
                est = est + delta if delta is not None else est
                s = se if se is not None else s
                pv = p if p is not None else pv
            rows.append((m, name, est, s, pv))
        return rows, metric_rows
    return change


def _perturb_metric(method, factor):
    def change(coef_rows, metric_rows):
        return coef_rows, [(m, tuple(v * factor for v in vals) if m == method else vals)
                           for m, vals in metric_rows]
    return change


@pytest.mark.parametrize("change", [
    _perturb_coef("ls", "age", delta=1e-5),
    _perturb_coef("lpre", "abdomen", delta=1e-5),
    _perturb_coef("lad", "wrist", delta=1e-3),
    _perturb_coef("lpre", "neck", se=0.0),
    _perturb_coef("lad", "hip", se=float("nan")),
    _perturb_coef("ls", "age", p=0.7),
    _perturb_metric("lpre", 1 + 1e-6),
    lambda c, m: ([r for r in c if r[0] != "ls"], m),
])
def test_bodyfat_rejects_perturbed(bodyfat_output, bodyfat_ref, change):
    bad, lare_bad = checks.check_bodyfat(*change(*bodyfat_output), bodyfat_ref)
    assert bad and not lare_bad


def test_bodyfat_lare_check_rejects_perturbed(bodyfat_output, bodyfat_ref):
    coef_rows, metric_rows = bodyfat_output
    coef_rows, _ = _perturb_coef("lare", "chest", delta=1e-3)(coef_rows, metric_rows)
    bad, lare_bad = checks.check_bodyfat(coef_rows, metric_rows, bodyfat_ref)
    assert lare_bad
    assert bad  # the LARE test-block metrics no longer match the estimate either


@pytest.mark.parametrize("weighted", [False, True])
def test_lare_reference_is_a_minimum(bodyfat_ref, weighted):
    x, z = bodyfat_ref.x, bodyfat_ref.z
    w = np.random.default_rng(0).standard_exponential(z.size) if weighted else None
    beta, value = checks.lare_minimum(x, z, w)
    rng = np.random.default_rng(1)
    for _ in range(200):
        step = rng.standard_normal(beta.size) * 10.0 ** rng.uniform(-7, -2)
        assert checks.lare_criterion(x, z, beta + step, w) >= value * (1 - 1e-12)


def test_lad_reference_matches_program(bodyfat_ref):
    from relerr import solver
    from relerr.data import Dataset

    fit = solver.fit_lad_log(Dataset(bodyfat_ref.x, bodyfat_ref.y))
    assert fit.criterion_value == pytest.approx(bodyfat_ref.lad_min, rel=checks.CRITERION_RTOL)


def test_bodyfat_csv_shape():
    table = inputs.bodyfat_table()
    assert table.shape == (252, len(inputs.BODYFAT_HEADER))
    assert np.sum(table[:, 0] == 0) == 1
    circ = np.log(table[:, 4:])
    assert np.all(np.corrcoef(circ, rowvar=False) > 0.5)  # shared size factor
    np.testing.assert_array_equal(table, inputs.bodyfat_table())


def test_tracer_counts_and_restores():
    from relerr import simulate, solver

    original = solver.fit_lpre
    config = replace(worker.Table1(0).config, replications=5)
    t = tracer.Tracer()
    t.install()
    try:
        t.op = 0
        simulate.run_estimation_study(config)
    finally:
        t.uninstall()
    assert solver.fit_lpre is original
    metrics = t.metrics(ops=1, overhead_pct=0.0)
    assert set(metrics) == set(tracer.METRICS)
    assert metrics["solver.fit_lpre.calls"]["value"] == 5
    assert metrics["distributions.Sampler.draw.draws"]["value"] == 5 * config.n
    assert metrics["solver.fit_gre.calls"]["value"] == 0
    assert all(m["value"] >= 0 for m in metrics.values())


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(worker.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"}


def test_run_fails_outside_a_checkout(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
