import csv
import logging
import math

import numpy as np
import pytest

from relerr import simulate, solver
from relerr.data import Dataset
from relerr.distributions import ErrorLaw, population_constants
from relerr.errors import ConvergenceError
from relerr.simulate import (
    METRICS_HEADER,
    POWER_HEADER,
    MetricsRow,
    PowerRow,
    SimulationConfig,
    generate_dataset,
    load_config,
    parse_error_law,
    run_estimation_study,
    run_power_study,
    write_metrics_csv,
    write_power_csv,
)


def small_config(**kw):
    base = dict(
        beta_true=(1.0, 0.5, -0.5),
        error_law=ErrorLaw.log_normal(0.0, 0.5),
        n=100,
        replications=30,
        resample_size=60,
        estimators=("lpre", "ls"),
        seed=7,
        compute_see=True,
    )
    base.update(kw)
    return SimulationConfig(**base)


class TestConfig:
    def test_rejects_unknown_estimator(self):
        with pytest.raises(ValueError):
            small_config(estimators=("lpre", "ridge"))

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            small_config(n=2)

    def test_generate_dataset_shape_and_intercept(self):
        cfg = small_config()
        data = generate_dataset(cfg, np.random.default_rng(0))
        assert data.n == 100 and data.p == 3
        np.testing.assert_array_equal(data.x[:, 0], 1.0)
        assert np.all(data.y > 0)


class TestEstimationStudy:
    def test_rows_shape_and_determinism(self):
        cfg = small_config()
        rows1 = run_estimation_study(cfg)
        rows2 = run_estimation_study(cfg)
        assert rows1 == rows2
        assert len(rows1) == 2 * 3  # estimators x coefficients
        assert {r.estimator for r in rows1} == {"lpre", "ls"}

    def test_parallel_matches_serial(self):
        cfg = small_config(replications=12, estimators=("lpre",),
                           compute_see=False)
        parallel = run_estimation_study(cfg, n_jobs=3)
        serial = run_estimation_study(cfg)
        for a, b in zip(parallel, serial):
            assert (a.estimator, a.coef) == (b.estimator, b.coef)
            assert a.bias == b.bias and a.se == b.se

    def test_metrics_are_sane(self):
        cfg = small_config(replications=80, estimators=("lpre",), n=200)
        rows = run_estimation_study(cfg)
        for r in rows:
            assert abs(r.bias) < 0.05
            assert 0.0 < r.se < 0.2
            assert 0.0 < r.see < 0.2
            assert 0.80 <= r.cp <= 1.0

    def test_see_tracks_asymptotic_sd(self):
        # population sd of each slope is sqrt(V / D^2 / n) with N(0,1) x's
        law = ErrorLaw.log_normal(0.0, 0.5)
        con = population_constants(law)
        cfg = small_config(replications=60, estimators=("lpre",),
                           n=400, error_law=law)
        rows = run_estimation_study(cfg)
        target = math.sqrt(con["v_scalar"] / con["d_scalar"] ** 2 / 400)
        for r in rows:
            assert r.se == pytest.approx(target, rel=0.3)
            assert r.see == pytest.approx(target, rel=0.3)

    def test_no_see_returns_nan(self):
        cfg = small_config(replications=5, compute_see=False)
        rows = run_estimation_study(cfg)
        assert all(math.isnan(r.see) and math.isnan(r.cp) for r in rows)

    def test_failed_replications_are_logged(self, monkeypatch, caplog):
        chunk_task = simulate._estimation_chunk

        def one_fails(config, reps):
            return [ConvergenceError("no certificate") if rep == 17 else outcome
                    for rep, outcome in zip(reps, chunk_task(config, reps))]

        monkeypatch.setattr(simulate, "_estimation_chunk", one_fails)
        cfg = small_config(replications=200, n=30, estimators=("lpre",),
                           compute_see=False)
        with caplog.at_level(logging.WARNING, logger="relerr"):
            rows = run_estimation_study(cfg)
        assert len(rows) == 3
        [record] = caplog.records
        assert record.name == "relerr" and record.levelno == logging.WARNING
        assert "1/200" in record.getMessage()
        assert "ConvergenceError: 1" in record.getMessage()


    def test_singular_replication_fails_alone(self, monkeypatch, caplog):
        # the chunk's one stacked rank check flags replication 4 only
        generate = simulate.generate_dataset
        drawn = []

        def fifth_is_singular(config, rng):
            data = generate(config, rng)
            drawn.append(None)
            if len(drawn) == 5:
                x = data.x.copy()
                x[:, 2] = x[:, 1]
                data = Dataset(x, data.y)
            return data

        monkeypatch.setattr(simulate, "generate_dataset", fifth_is_singular)
        cfg = small_config(replications=200, n=30, compute_see=False)
        with caplog.at_level(logging.WARNING, logger="relerr"):
            rows = run_estimation_study(cfg)
        assert len(rows) == 6
        [record] = caplog.records
        assert "1/200" in record.getMessage()
        assert "SingularDesignError: 1" in record.getMessage()


class TestPowerStudy:
    def test_size_and_power_ordering(self):
        cfg = small_config(replications=120, n=200, compute_see=False,
                           estimators=("lpre",), seed=11)
        grid = [(1.0, 0.5, 0.0), (1.0, 0.5, 0.5)]
        rows = run_power_study(cfg, hypothesis_coefs=[2], beta_grid=grid,
                               alpha_levels=(0.05,))
        assert len(rows) == 2
        size, power = rows[0].reject_rate, rows[1].reject_rate
        assert size < 0.15  # near nominal under the null
        assert power > 0.9  # strong signal rejected almost surely
        assert rows[0].alpha == 0.05

    def test_deterministic_across_workers(self):
        cfg = small_config(replications=16, compute_see=False, seed=3)
        grid = [(1.0, 0.5, 0.0)]
        a = run_power_study(cfg, [2], grid, (0.05,))
        b = run_power_study(cfg, [2], grid, (0.05,), n_jobs=2)
        assert a == b


class TestBatchingDeterminism:
    """The (seed, rep) contract holds for any batch size and worker count."""

    @staticmethod
    def batch_sizes(monkeypatch, config):
        for rows in (1, 7):
            monkeypatch.setattr(solver, "_BATCH_ELEMENTS", rows * config.n * config.p)
            yield rows

    def test_estimation_rows(self, monkeypatch):
        cfg = small_config(replications=9, n=60, resample_size=8,
                           estimators=("lpre", "ls", "lad"))
        reference = run_estimation_study(cfg)
        for _ in self.batch_sizes(monkeypatch, cfg):
            assert run_estimation_study(cfg) == reference
            assert run_estimation_study(cfg, n_jobs=2) == reference

    def test_power_rows(self, monkeypatch):
        cfg = small_config(replications=10, n=60, compute_see=False, seed=3)
        grid = [(1.0, 0.5, 0.0), (1.0, 0.5, 0.3)]
        alphas = (0.5, 0.2, 0.05)
        reference = run_power_study(cfg, [2], grid, alphas)
        for _ in self.batch_sizes(monkeypatch, cfg):
            assert run_power_study(cfg, [2], grid, alphas) == reference
            assert run_power_study(cfg, [2], grid, alphas, n_jobs=2) == reference


class TestCsvWriters:
    def test_metrics_csv_round_trip(self, tmp_path):
        rows = [MetricsRow("lpre", 0, 0.001, 0.07, 0.069, 0.95)]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(rows, path)
        with open(path) as fh:
            reader = list(csv.reader(fh))
        assert reader[0] == METRICS_HEADER.split(",")
        assert reader[1][0] == "lpre"
        assert float(reader[1][2]) == pytest.approx(0.001)

    def test_power_csv_round_trip(self, tmp_path):
        rows = [PowerRow((1.0, 0.5, 0.0), 0.05, 0.048)]
        path = tmp_path / "power.csv"
        write_power_csv(rows, path)
        with open(path) as fh:
            reader = list(csv.reader(fh))
        assert reader[0] == POWER_HEADER.split(",")
        assert float(reader[1][4]) == pytest.approx(0.048)


class TestParsing:
    def test_parse_error_law_variants(self):
        assert parse_error_law("log_normal(0,1)") == ErrorLaw.log_normal(0.0, 1.0)
        assert parse_error_law("log_uniform(-1, 1)") == ErrorLaw.log_uniform(-1, 1)
        assert parse_error_law("uniform(0.5,1.6)") == ErrorLaw.uniform(0.5, 1.6)
        assert parse_error_law("lpre_efficient") == ErrorLaw("lpre_efficient")
        assert parse_error_law("uniform_balanced").kind == "uniform"

    def test_parse_error_law_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_error_law("log_normal(0,1")
        with pytest.raises(ValueError):
            parse_error_law("gamma(1,1)")

    def test_load_estimation_config(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(
            "# comment\n"
            "mode = estimation\n"
            "beta = 1, 0.5, -0.5\n"
            "error_law = log_normal(0, 1)\n"
            "n = 150\n"
            "replications = 25\n"
            "estimators = lpre, ls\n"
            "seed = 4\n"
        )
        out = load_config(path)
        cfg = out["config"]
        assert out["mode"] == "estimation"
        assert cfg.beta_true == (1.0, 0.5, -0.5)
        assert cfg.n == 150 and cfg.replications == 25 and cfg.seed == 4
        assert cfg.estimators == ("lpre", "ls")

    def test_load_power_config(self, tmp_path):
        path = tmp_path / "pow.cfg"
        path.write_text(
            "mode = power\n"
            "beta = 1, 0.5, 0\n"
            "error_law = log_uniform(-2, 2)\n"
            "zero_coefs = 2\n"
            "beta_grid = 1,0.5,0; 1,0.5,0.2\n"
            "alphas = 0.05\n"
        )
        out = load_config(path)
        assert out["zero_coefs"] == (2,)
        assert out["beta_grid"] == [(1.0, 0.5, 0.0), (1.0, 0.5, 0.2)]
        assert out["alphas"] == (0.05,)

    def test_load_config_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("beta = 1\nerror_law = log_normal(0,1)\nbogus = 1\n")
        with pytest.raises(ValueError, match="bogus"):
            load_config(path)

    def test_load_config_missing_required(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mode = estimation\n")
        with pytest.raises(ValueError, match="beta"):
            load_config(path)
