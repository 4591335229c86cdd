import csv
import functools
import logging
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from relerr import simulate, solver
from relerr.distributions import EFFICIENT_KINDS, ErrorLaw, Sampler, population_constants
from relerr.errors import ConvergenceError, RelerrError
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
from relerr.solver import LinearHypothesis


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


def pair_stream(seed, rep):
    """The stream of replication ``rep`` of a study seeded with ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([seed, rep]))


class TestConfig:
    def test_rejects_unknown_estimator(self):
        with pytest.raises(ValueError):
            small_config(estimators=("lpre", "ridge"))

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            small_config(n=2)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match=r"seed = -1: must be non-negative"):
            small_config(seed=-1)

    def test_rejects_no_residual_dof_with_see(self):
        with pytest.raises(RelerrError, match=r"n = 3, p = 3"):
            small_config(n=3)
        assert small_config(n=3, compute_see=False).n == 3

    @pytest.mark.parametrize("estimators", [("lare",), ("lpre", "lad"), ("gre:max",)])
    def test_rejects_one_resample_for_random_weighting(self, estimators):
        with pytest.raises(ValueError, match=r"resample_size = 1: .*at least two resamples"):
            small_config(estimators=estimators, resample_size=1)

    def test_one_resample_allowed_when_unused(self):
        assert small_config(estimators=("lpre", "ls"), resample_size=1).resample_size == 1
        assert small_config(estimators=("lare",), resample_size=1,
                            compute_see=False).resample_size == 1

    def test_generate_dataset_shape_and_intercept(self):
        cfg = small_config()
        data = generate_dataset(cfg, np.random.default_rng(0))
        assert data.n == 100 and data.p == 3
        np.testing.assert_array_equal(data.x[:, 0], 1.0)
        assert np.all(data.y > 0)


class TestChunkDrawing:
    """A chunk's stacked data equal per-replication ``generate_dataset``."""

    @pytest.mark.parametrize("law", [
        ErrorLaw(kind) for kind in EFFICIENT_KINDS] + [
        ErrorLaw.log_normal(0.1, 0.7), ErrorLaw.log_uniform(-1.0, 1.0),
        ErrorLaw.uniform(0.5, 1.6), ErrorLaw("degenerate")], ids=lambda law: law.kind)
    @pytest.mark.parametrize("size", [1, 7, 26])
    def test_chunks_equal_single_draws(self, law, size):
        cfg = small_config(error_law=law, n=40, replications=30, seed=5)
        # chunks of `size` replications cover 0..29: all but the first
        # start past a boundary, and at sizes 7 and 26 the last is short
        for start in range(0, cfg.replications, size):
            reps = range(start, min(start + size, cfg.replications))
            rngs, x, y, z = simulate._draw_chunk(cfg, reps)
            assert x.shape == (len(reps), 40, 3) and y.shape == z.shape == (len(reps), 40)
            for b, rep in enumerate(reps):
                data = generate_dataset(cfg, pair_stream(cfg.seed, rep))
                assert np.array_equal(x[b], data.x)
                assert np.array_equal(y[b], data.y)
                assert np.array_equal(z[b], np.log(data.y))
                # one replication drawn alone: covariates, then errors
                rng = pair_stream(cfg.seed, rep)
                x_ref = np.hstack([np.ones((40, 1)), rng.standard_normal((40, 2))])
                eps = Sampler(law).draw(rng, 40)
                assert np.array_equal(x[b], x_ref)
                assert np.array_equal(y[b], np.exp(x_ref @ np.asarray(cfg.beta_true)) * eps)
                # and the chunk leaves each stream where that draw leaves it
                assert rngs[b].random() == rng.random()

    def test_responses_checked_as_a_dataset_checks_them(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            simulate._draw_chunk(small_config(beta_true=(800.0, 0.0, 0.0)), range(3))
        with pytest.raises(ValueError, match="strictly positive"):
            simulate._draw_chunk(small_config(beta_true=(-800.0, 0.0, 0.0)), range(3))


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
            errors, values = chunk_task(config, reps)
            if 17 in reps:
                errors[reps.index(17)] = ConvergenceError("no certificate")
            return errors, values

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


    @pytest.mark.parametrize("study", ["estimation", "power"])
    def test_failed_fits_fail_their_replications_alone(self, study, monkeypatch, caplog):
        # the solver's record of the first batch reports replication 3 without
        # a certificate and replication 5 overflowing; the chunk builds their
        # errors, the warning counts them by type, and every other replication
        # keeps its values
        cfg = small_config(replications=200, n=30, estimators=("lpre",), compute_see=False)
        task = (simulate._estimation_chunk if study == "estimation" else functools.partial(
            simulate._power_chunk, LinearHypothesis.zero_coefs([2], cfg.p)))
        clean = simulate._run_reps(task, cfg, None)
        fit_batch, calls = solver._fit_batch, []

        def two_fail(*args, **kwargs):
            fits = fit_batch(*args, **kwargs)
            calls.append(None)
            if len(calls) == 1:
                fits.status[[3, 5]] = solver.UNCERTIFIED, solver.OVERFLOW
            return fits

        monkeypatch.setattr(solver, "_fit_batch", two_fail)
        with caplog.at_level(logging.WARNING, logger="relerr"):
            values = simulate._run_reps(task, cfg, None)
        np.testing.assert_array_equal(values, np.delete(clean, [3, 5], axis=0))
        [record] = caplog.records
        assert record.name == "relerr" and record.levelno == logging.WARNING
        assert record.getMessage() == (
            "2/200 replications failed (ConvergenceError: 1, NumericOverflowError: 1)")

    def test_singular_replication_fails_alone(self, monkeypatch, caplog):
        # the chunk's one stacked rank check flags replication 4 only
        draw_chunk = simulate._draw_chunk

        def fifth_is_singular(config, reps):
            rngs, x, y, z = draw_chunk(config, reps)
            if 4 in reps:
                x[reps.index(4), :, 2] = x[reps.index(4), :, 1]
            return rngs, x, y, z

        monkeypatch.setattr(simulate, "_draw_chunk", fifth_is_singular)
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

    def test_rejects_no_residual_dof(self):
        cfg = small_config(n=3, compute_see=False)
        with pytest.raises(RelerrError, match=r"n = 3, p = 3"):
            run_power_study(cfg, [2], [(1.0, 0.5, 0.0)], (0.05,))

    @staticmethod
    def no_replication_runs(monkeypatch):
        def draw_chunk(config, reps):
            raise AssertionError("a replication ran")
        monkeypatch.setattr(simulate, "_draw_chunk", draw_chunk)

    def test_grid_point_of_wrong_length_rejected_before_any_fit(self, monkeypatch):
        self.no_replication_runs(monkeypatch)
        cfg = small_config(compute_see=False)
        grid = [(1.0, 0.5, 0.0), (1.0, 0.5), (1.0, 0.5, 0.0, 0.0)]
        with pytest.raises(ValueError, match=re.escape(
                "beta_grid point (1.0, 0.5) has 2 coefficients, beta has 3")):
            run_power_study(cfg, [2], grid, (0.05,))
        with pytest.raises(ValueError, match=re.escape(
                "beta_grid point (1.0, 0.5, 0.0, 0.0) has 4 coefficients, beta has 3")):
            run_power_study(cfg, [2], grid[::2], (0.05,))
        with pytest.raises(ValueError, match="beta_grid has no points"):
            run_power_study(cfg, [2], [], (0.05,))

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0, -0.05, float("nan")])
    def test_level_outside_unit_interval_rejected_before_any_fit(self, monkeypatch, alpha):
        self.no_replication_runs(monkeypatch)
        cfg = small_config(compute_see=False)
        with pytest.raises(ValueError, match=re.escape(
                f"significance level {alpha} is outside (0, 1)")):
            run_power_study(cfg, [2], [(1.0, 0.5, 0.0)], (0.05, alpha))

    def test_deterministic_across_workers(self):
        cfg = small_config(replications=16, compute_see=False, seed=3)
        grid = [(1.0, 0.5, 0.0)]
        a = run_power_study(cfg, [2], grid, (0.05,))
        b = run_power_study(cfg, [2], grid, (0.05,), n_jobs=2)
        assert a == b


class TestRepStreams:
    """A chunk's streams, seeded in one pass, are the SeedSequence([seed, rep])
    streams: the same state and the same draws."""

    @staticmethod
    def assert_pair_streams(seed, reps):
        rngs = simulate._rep_rngs(seed, reps)
        assert len(rngs) == len(reps)
        for rep, ours in zip(reps, rngs):
            ref = pair_stream(seed, rep)
            assert ours.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(ours.random(8), ref.random(8))

    @pytest.mark.parametrize("rep", [0, 999, 2**32 + 5])
    @pytest.mark.parametrize("seed", [0, 10, 2**32 - 1, 2**32, 2**64 + 3])
    def test_stream_is_that_of_the_seed_sequence_of_the_pair(self, seed, rep):
        self.assert_pair_streams(seed, [rep])

    @pytest.mark.parametrize("seed", [0, 2**32, 2**96 + 12_345, 2**200 + 7])
    def test_chunk_streams(self, seed):
        # above 2**96 the seed alone fills SeedSequence's pool of 4 words,
        # and the words beyond it are mixed in by the pool's last loop
        self.assert_pair_streams(seed, range(80, 160))

    @pytest.mark.parametrize("seed", [0, 2**96 + 12_345])
    def test_chunk_straddling_two_entropy_lengths(self, seed):
        # the reps below 2**32 have one word, those above two, and 2**64 three
        self.assert_pair_streams(seed, [*range(2**32 - 40, 2**32 + 40), 2**64])

    def test_an_empty_chunk_has_no_streams(self):
        assert simulate._rep_rngs(3, range(0)) == []


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


    def test_power_csv_writes_every_coefficient(self, tmp_path):
        # two grid points that differ only in beta_3 write different rows
        rows = [PowerRow((1.0, 0.5, 0.0, 0.0), 0.05, 0.05),
                PowerRow((1.0, 0.5, 0.0, 0.4), 0.05, 0.93),
                PowerRow((1.0, 0.5), 0.01, 0.5)]
        path = tmp_path / "power.csv"
        write_power_csv(rows, path)
        with open(path) as fh:
            reader = list(csv.reader(fh))
        assert reader == [
            ["beta0", "beta1", "beta2", "beta3", "alpha", "reject_rate"],
            ["1.0", "0.5", "0.0", "0.0", "0.05", "0.05"],
            ["1.0", "0.5", "0.0", "0.4", "0.05", "0.93"],
            ["1.0", "0.5", "", "", "0.01", "0.5"],
        ]

    def test_power_csv_bytes_at_three_coefficients(self, tmp_path):
        rows = [PowerRow((1.0, 0.5, 0.0), 0.05, 0.048), PowerRow((1.0, 0.5), 0.01, 0.25)]
        path = tmp_path / "power.csv"
        write_power_csv(rows, path)
        assert path.read_bytes() == (
            b"beta0,beta1,beta2,alpha,reject_rate\r\n"
            b"1.0,0.5,0.0,0.05,0.048\r\n"
            b"1.0,0.5,,0.01,0.25\r\n")


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
        for spec in ("log_normal(0,1,5)", "log_uniform(1)", "uniform(1)"):
            with pytest.raises(ValueError, match=re.escape(repr(spec))):
                parse_error_law(spec)

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

    @pytest.mark.parametrize("text, value", [
        ("true", True), ("Yes", True), ("1", True), ("FALSE", False), ("no", False), ("0", False)])
    def test_compute_see_spellings(self, tmp_path, text, value):
        path = tmp_path / "sim.cfg"
        path.write_text(f"beta = 1, 0.5\nerror_law = log_normal(0,1)\ncompute_see = {text}\n")
        assert load_config(path)["config"].compute_see is value

    def test_compute_see_typo_rejected(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("beta = 1, 0.5\nerror_law = log_normal(0,1)\ncompute_see = ture\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3:") + ".*'ture'"):
            load_config(path)

    def test_load_config_missing_required(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mode = estimation\n")
        with pytest.raises(ValueError, match="beta"):
            load_config(path)

    def test_load_shipped_table1_config(self):
        out = load_config(Path(__file__).parents[1] / "configs" / "table1_lognormal.cfg")
        assert out == {"mode": "estimation", "config": SimulationConfig(
            beta_true=(1.0, 1.0, 1.0), error_law=ErrorLaw.log_normal(0.0, 1.0), n=200,
            replications=1000, resample_size=500, estimators=("lpre", "ls"), seed=10,
            compute_see=True)}

    def test_shipped_full_table1_config_runs(self):
        # the paper's Table 1: its four methods, random-weighting SEs for lare and lad
        out = load_config(Path(__file__).parents[1] / "configs" / "table1_full.cfg")
        assert out == {"mode": "estimation", "config": SimulationConfig(
            beta_true=(1.0, 1.0, 1.0), error_law=ErrorLaw.log_normal(0.0, 1.0), n=200,
            replications=1000, resample_size=500, estimators=("lpre", "lare", "ls", "lad"),
            seed=10, compute_see=True)}
        rows = run_estimation_study(replace(out["config"], replications=2))
        assert [(row.estimator, row.coef) for row in rows] == [
            (name, j) for name in ("lpre", "lare", "ls", "lad") for j in range(3)]
        assert all(math.isfinite(row.se) and row.see > 0 for row in rows)

    def test_load_readme_power_example(self, tmp_path):
        path = tmp_path / "power.cfg"
        path.write_text(
            "mode = power\n"
            "beta = 1, 1, 0\n"
            "error_law = lpre_efficient\n"
            "n = 200\n"
            "replications = 1000\n"
            "seed = 10\n"
            "zero_coefs = 2\n"
            "beta_grid = 1,1,0; 1,1,0.1; 1,1,0.2\n"
            "alphas = 0.05, 0.01\n"
        )
        assert load_config(path) == {
            "mode": "power",
            "config": SimulationConfig(
                beta_true=(1.0, 1.0, 0.0), error_law=ErrorLaw("lpre_efficient"), n=200,
                replications=1000, resample_size=500, estimators=("lpre", "lare", "ls", "lad"),
                seed=10, compute_see=True),
            "zero_coefs": (2,),
            "beta_grid": [(1.0, 1.0, 0.0), (1.0, 1.0, 0.1), (1.0, 1.0, 0.2)],
            "alphas": (0.05, 0.01),
        }

    def test_defaults(self, tmp_path):
        path = tmp_path / "pow.cfg"
        path.write_text("mode = power\nbeta = 1, 1\nerror_law = log_normal(0, 1)\n"
                        "zero_coefs = 1\nbeta_grid = 1,0;\n")
        out = load_config(path)
        assert out["config"] == SimulationConfig(
            beta_true=(1.0, 1.0), error_law=ErrorLaw.log_normal(0.0, 1.0), n=200,
            replications=1000, resample_size=500, estimators=("lpre", "lare", "ls", "lad"),
            seed=0, compute_see=True)
        assert out["beta_grid"] == [(1.0, 0.0)] and out["alphas"] == (0.05, 0.01)

    @pytest.mark.parametrize("line, message", [
        ("bogus = 1", "bogus = '1': unknown key"),
        ("mode = powr", "mode = 'powr': must be estimation or power"),
        ("zero_coefs = 2", "zero_coefs = '2': read only in power mode"),
        ("alphas = 0.05", "alphas = '0.05': read only in power mode"),
        ("error_law = log_normal(0, x)", "error_law = 'log_normal(0, x)': could not convert"),
        ("estimators = lpre, ridge", "estimators = 'lpre, ridge': unknown estimator 'ridge'; "
                                     "expected one of ['gre:asym'"),
        ("estimators = lpre, lpre", "estimators = 'lpre, lpre': estimator 'lpre' is listed "
                                    "twice"),
    ])
    def test_bad_line_names_file_line_and_key(self, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"beta = 1, 1, 0\nerror_law = log_normal(0,1)\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: {message}")):
            load_config(path)

    @pytest.mark.parametrize("lines, message", [
        ("n = 3", "inference needs more observations than coefficients (n = 3, p = 3)"),
        ("resample_size = 1\nestimators = lpre, lad",
         "resample_size = 1: random-weighting standard errors need at least two resamples"),
    ], ids=["no_residual_dof", "one_resample"])
    def test_config_error_names_the_file(self, tmp_path, lines, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"beta = 1, 1, 0\nerror_law = log_normal(0,1)\n{lines}\n")
        with pytest.raises((RelerrError, ValueError), match=re.escape(f"{path}: {message}")):
            load_config(path)

    def test_estimation_key_in_power_mode_names_file_line_and_key(self, tmp_path):
        path = tmp_path / "pow.cfg"
        path.write_text("mode = power\nbeta = 1, 1, 0\nerror_law = log_normal(0,1)\n"
                        "zero_coefs = 2\nbeta_grid = 1,1,0\ncompute_see = false\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:6: compute_see = 'false': read only in estimation mode")):
            load_config(path)

    def test_power_mode_requires_a_grid(self, tmp_path):
        path = tmp_path / "pow.cfg"
        path.write_text("mode = power\nbeta = 1, 1, 0\nerror_law = log_normal(0,1)\n"
                        "zero_coefs = 2\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing required key "
                                                       "'beta_grid'")):
            load_config(path)
