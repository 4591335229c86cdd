import csv
import logging

import numpy as np
import pytest
from click.testing import CliRunner

from relerr.cli import main
from relerr.data import Dataset
from relerr.inference import lpre_anova_test
from relerr.solver import LinearHypothesis, fit_lpre

from conftest import skip_one_resample


@pytest.fixture
def runner():
    return CliRunner()


def write_csv(path, x_cols, y, response="y"):
    names = list(x_cols) + [response]
    n = len(y)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        for i in range(n):
            w.writerow([f"{x_cols[c][i]:.10g}" for c in x_cols] + [f"{y[i]:.10g}"])


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(20130501)
    n = 120
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    y = np.exp(1.0 + 0.5 * x1 + 0.0 * x2) * np.exp(0.4 * rng.standard_normal(n))
    path = tmp_path / "data.csv"
    write_csv(path, {"x1": x1, "x2": x2}, y)
    return path, x1, x2, y


class TestFit:
    def test_writes_coefficient_table(self, runner, tmp_path, data_csv):
        path, x1, x2, y = data_csv
        out = tmp_path / "fit.csv"
        result = runner.invoke(main, [
            "fit", "--input", str(path), "--response", "y",
            "--criterion", "lpre", "--output", str(out)])
        assert result.exit_code == 0, result.output
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["coef"] for r in rows] == ["intercept", "x1", "x2"]
        # estimates must match the library fit exactly
        x = np.column_stack([np.ones_like(x1), x1, x2])
        ref = fit_lpre(Dataset(x, y))
        got = np.array([float(r["estimate"]) for r in rows])
        np.testing.assert_allclose(got, ref.beta, rtol=1e-9)
        assert all(float(r["see"]) > 0 for r in rows)
        assert all(0.0 <= float(r["p_value"]) <= 1.0 for r in rows)

    def test_skipped_resamples_are_logged(self, runner, tmp_path, data_csv, monkeypatch,
                                          caplog):
        path, *_ = data_csv
        skip_one_resample(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="relerr"):
            result = runner.invoke(main, [
                "fit", "--input", str(path), "--response", "y", "--criterion", "lare",
                "--resamples", "20", "--output", str(tmp_path / "fit.csv")])
        assert result.exit_code == 0, result.output
        [record] = caplog.records
        assert record.getMessage().startswith("lare: 1 ")

    def test_two_sided_doubles_p(self, runner, tmp_path, data_csv):
        path, *_ = data_csv
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out, kind in ((out1, "one-sided"), (out2, "two-sided")):
            r = runner.invoke(main, [
                "fit", "--input", str(path), "--response", "y",
                "--output", str(out), "--pvalue", kind])
            assert r.exit_code == 0
        p1 = [float(r["p_value"]) for r in csv.DictReader(open(out1))]
        p2 = [float(r["p_value"]) for r in csv.DictReader(open(out2))]
        np.testing.assert_allclose(p2, [2 * v for v in p1], rtol=1e-9)

    @pytest.mark.parametrize("column", ["x1", "y"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_cell_exits_1(self, runner, tmp_path, data_csv, column, bad):
        _, x1, x2, y = data_csv
        cols = {"x1": x1.copy(), "x2": x2, "y": y.copy()}
        cols[column][5] = bad
        path = tmp_path / "bad.csv"
        write_csv(path, {"x1": cols["x1"], "x2": x2}, cols["y"])
        result = runner.invoke(main, [
            "fit", "--input", str(path), "--response", "y",
            "--output", str(tmp_path / "fit.csv")])
        assert result.exit_code == 1
        assert "must be finite" in result.output

    def test_nonsmooth_criterion_uses_resampling_seed(self, runner, tmp_path, data_csv):
        path, *_ = data_csv
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            r = runner.invoke(main, [
                "fit", "--input", str(path), "--response", "y",
                "--criterion", "lare", "--output", str(out),
                "--seed", "9", "--resamples", "60"])
            assert r.exit_code == 0, r.output
        assert out1.read_text() == out2.read_text()

    def test_missing_response_column_exits_1(self, runner, tmp_path, data_csv):
        path, *_ = data_csv
        r = runner.invoke(main, [
            "fit", "--input", str(path), "--response", "nope",
            "--output", str(tmp_path / "x.csv")])
        assert r.exit_code == 1
        assert "line 1: missing columns ['nope']" in r.output

    @pytest.mark.parametrize("text, message", [
        ("", "missing header row"),
        ("x1,y\n", "no data rows"),
        ("x1,y\n0.5,2\n1.5\n", "line 3: 1 cells, expected 2"),
        ("x1,y\n0.5,2\n1.5,2,7\n", "line 3: 3 cells, expected 2"),
        ("x1,y\n0.5,abc\n", "line 2: non-numeric cell"),
        ("x1,x1,y\n0.5,1.5,2\n", "line 1: duplicate columns ['x1']"),
    ], ids=["empty", "header_only", "short_row", "long_row", "non_numeric", "duplicate_column"])
    def test_malformed_csv_exits_1(self, runner, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        r = runner.invoke(main, [
            "fit", "--input", str(path), "--response", "y",
            "--output", str(tmp_path / "x.csv")])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output.startswith(f"error: {path}")
        assert message in r.output and "Traceback" not in r.output

    def test_response_only_csv_fits_intercept(self, runner, tmp_path):
        # the intercept-only LPRE fit has the closed form 0.5 log(sum y / sum 1/y)
        y = np.exp(0.3 + 0.4 * np.random.default_rng(3).standard_normal(50))
        path, out = tmp_path / "y.csv", tmp_path / "fit.csv"
        write_csv(path, {}, y)
        r = runner.invoke(main, [
            "fit", "--input", str(path), "--response", "y", "--output", str(out)])
        assert r.exit_code == 0, r.output
        [row] = list(csv.DictReader(open(out)))
        assert row["coef"] == "intercept"
        y = np.array([float(f"{v:.10g}") for v in y])  # as written to the CSV
        expected = 0.5 * np.log(np.sum(y) / np.sum(1.0 / y))
        assert abs(float(row["estimate"]) - expected) <= 1e-10

    def test_missing_file_exits_2(self, runner, tmp_path):
        r = runner.invoke(main, [
            "fit", "--input", str(tmp_path / "absent.csv"), "--response", "y",
            "--output", str(tmp_path / "x.csv")])
        assert r.exit_code == 2


class TestTest:
    def test_zero_coefs_matches_library(self, runner, data_csv):
        path, x1, x2, y = data_csv
        r = runner.invoke(main, [
            "test", "--input", str(path), "--response", "y",
            "--zero-coefs", "2"])
        assert r.exit_code == 0, r.output
        x = np.column_stack([np.ones_like(x1), x1, x2])
        ref = lpre_anova_test(Dataset(x, y), LinearHypothesis.zero_coefs([2], 3))
        lines = dict(line.split() for line in r.output.strip().splitlines())
        assert float(lines["statistic"]) == pytest.approx(ref.statistic, rel=1e-5)
        assert float(lines["p_value"]) == pytest.approx(ref.p_value, abs=1e-5)
        assert int(lines["df"]) == 1

    def test_hypothesis_file(self, runner, tmp_path, data_csv):
        path, *_ = data_csv
        hfile = tmp_path / "h.csv"
        hfile.write_text("0\n1\n-1\n")  # beta_1 = beta_2
        r = runner.invoke(main, [
            "test", "--input", str(path), "--response", "y",
            "--hypothesis-file", str(hfile)])
        assert r.exit_code == 0, r.output
        assert "p_value" in r.output

    def test_hypothesis_of_wrong_dimension_exits_1(self, runner, tmp_path, data_csv):
        path, *_ = data_csv
        hfile = tmp_path / "h.csv"
        hfile.write_text("0\n1\n")  # p = 2 rows for a design with p = 3
        r = runner.invoke(main, [
            "test", "--input", str(path), "--response", "y",
            "--hypothesis-file", str(hfile)])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert "does not match the design" in r.output

    @pytest.mark.parametrize("option, value, message", [
        ("--zero-coefs", ",", "the hypothesis has no constraints"),
        ("--hypothesis-file", "0\n1\nnan\n", "H must be finite"),
        ("--hypothesis-file", "0\ninf\n1\n", "H must be finite"),
    ], ids=["no_constraint", "nan", "inf"])
    def test_empty_or_non_finite_hypothesis_exits_1(self, runner, tmp_path, data_csv,
                                                     option, value, message):
        path, *_ = data_csv
        if option == "--hypothesis-file":
            (tmp_path / "h.csv").write_text(value)
            value = str(tmp_path / "h.csv")
        r = runner.invoke(main, ["test", "--input", str(path), "--response", "y",
                                 option, value])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output.startswith(f"error: {message}")
        assert "p_value" not in r.output

    def test_requires_exactly_one_hypothesis_source(self, runner, data_csv):
        path, *_ = data_csv
        r = runner.invoke(main, [
            "test", "--input", str(path), "--response", "y"])
        assert r.exit_code == 1
        assert "exactly one" in r.output


class TestSimulate:
    def test_estimation_mode(self, runner, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "mode = estimation\n"
            "beta = 1, 0.5\n"
            "error_law = log_normal(0, 0.5)\n"
            "n = 80\n"
            "replications = 10\n"
            "estimators = lpre\n"
            "seed = 2\n"
            "compute_see = false\n"
        )
        out = tmp_path / "metrics.csv"
        r = runner.invoke(main, [
            "simulate", "--config", str(cfg), "--output", str(out)])
        assert r.exit_code == 0, r.output
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 2
        assert {row["estimator"] for row in rows} == {"lpre"}

    def test_replications_and_seed_override(self, runner, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "beta = 1, 0.5\n"
            "error_law = log_normal(0, 0.5)\n"
            "n = 60\nreplications = 500\nestimators = lpre\n"
            "compute_see = false\n"
        )
        out = tmp_path / "m.csv"
        r = runner.invoke(main, [
            "simulate", "--config", str(cfg), "--output", str(out),
            "--replications", "5", "--seed", "77"])
        assert r.exit_code == 0, r.output

    def test_power_mode(self, runner, tmp_path):
        cfg = tmp_path / "pow.cfg"
        cfg.write_text(
            "mode = power\n"
            "beta = 1, 0.5, 0\n"
            "error_law = log_uniform(-2, 2)\n"
            "n = 100\nreplications = 20\n"
            "zero_coefs = 2\n"
            "beta_grid = 1,0.5,0; 1,0.5,1\n"
            "alphas = 0.05\n"
        )
        out = tmp_path / "power.csv"
        r = runner.invoke(main, [
            "simulate", "--config", str(cfg), "--output", str(out)])
        assert r.exit_code == 0, r.output
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 2
        assert float(rows[1]["reject_rate"]) >= float(rows[0]["reject_rate"])

    def test_bad_config_exits_1(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense\n")
        r = runner.invoke(main, [
            "simulate", "--config", str(cfg), "--output", str(tmp_path / "o.csv")])
        assert r.exit_code == 1

    @pytest.mark.parametrize("mode", [
        "estimation",
        pytest.param("power\nzero_coefs = 2\nbeta_grid = 1,0.5,0", id="power"),
    ])
    def test_no_residual_dof_exits_1(self, runner, tmp_path, mode):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"mode = {mode}\nbeta = 1, 0.5, 0\n"
                       "error_law = log_normal(0, 0.5)\nn = 3\nreplications = 20\n")
        r = runner.invoke(main, [
            "simulate", "--config", str(cfg), "--output", str(tmp_path / "o.csv")])
        assert r.exit_code == 1
        # the config file rejects n <= p for the standard errors, and in power
        # mode for the power study
        assert r.output.startswith(f"error: {cfg}: inference needs more observations than "
                                   "coefficients (n = 3, p = 3)")
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("spec", ["log_normal(0,1,5)", "log_uniform(1)", "uniform(1)"])
    def test_malformed_error_law_exits_1(self, runner, tmp_path, spec):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"beta = 1, 0.5\nerror_law = {spec}\nn = 20\nreplications = 2\n")
        r = runner.invoke(main, [
            "simulate", "--config", str(cfg), "--output", str(tmp_path / "o.csv")])
        assert r.exit_code == 1
        assert r.output.startswith(f"error: {cfg}:2: error_law = {spec!r}: wrong number of "
                                   f"parameters in error law spec: {spec!r}")
        assert "Traceback" not in r.output

    def test_mistyped_compute_see_exits_1(self, runner, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("beta = 1, 0.5\nerror_law = log_normal(0, 0.5)\nn = 20\n"
                       "replications = 2\nestimators = lpre\ncompute_see = ture\n")
        out = tmp_path / "o.csv"
        r = runner.invoke(main, ["simulate", "--config", str(cfg), "--output", str(out)])
        assert r.exit_code == 1
        assert r.output.startswith(f"error: {cfg}:6: compute_see = 'ture': must be "
                                   "true/false/yes/no/1/0")
        assert not out.exists()

    POWER_CONFIG = ("mode = power\nbeta = 1, 0.5, 0\nerror_law = log_normal(0, 0.5)\n"
                    "n = 20\nreplications = 2\nseed = 3\nzero_coefs = 2\n"
                    "beta_grid = 1,0.5,0\nalphas = 0.05\n")

    @pytest.mark.parametrize("key, value", [
        ("n", "2OO"), ("seed", "-1"), ("replications", "1.5"), ("beta", "1,,1"),
        ("zero_coefs", "1,a"), ("alphas", "abc")])
    def test_bad_value_names_file_line_and_key(self, runner, tmp_path, key, value):
        lines = self.POWER_CONFIG.splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(key))
        lines[lineno - 1] = f"{key} = {value}"
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o.csv"
        r = runner.invoke(main, ["simulate", "--config", str(cfg), "--output", str(out)])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output.startswith(f"error: {cfg}:{lineno}: {key} = {value!r}: ")
        assert "Traceback" not in r.output
        assert not out.exists()

    def test_grid_point_of_wrong_length_exits_1(self, runner, tmp_path):
        cfg = tmp_path / "pow.cfg"
        cfg.write_text(self.POWER_CONFIG.replace("beta_grid = 1,0.5,0",
                                                 "beta_grid = 1,0.5,0; 1,0.5"))
        out = tmp_path / "o.csv"
        r = runner.invoke(main, ["simulate", "--config", str(cfg), "--output", str(out)])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output.startswith(f"error: {cfg}:8: beta_grid = '1,0.5,0; 1,0.5': beta_grid "
                                   "point (1.0, 0.5) has 2 coefficients, beta has 3")
        assert not out.exists()

    def test_empty_grid_exits_1(self, runner, tmp_path):
        cfg = tmp_path / "pow.cfg"
        cfg.write_text(self.POWER_CONFIG.replace("beta_grid = 1,0.5,0", "beta_grid = ;"))
        out = tmp_path / "o.csv"
        r = runner.invoke(main, ["simulate", "--config", str(cfg), "--output", str(out)])
        assert r.exit_code == 1
        assert r.output.startswith(f"error: {cfg}:8: beta_grid = ';': beta_grid has no points")
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["1.5", "0", "1", "-0.05", "nan"])
    def test_level_outside_unit_interval_exits_1(self, runner, tmp_path, alpha):
        cfg = tmp_path / "pow.cfg"
        cfg.write_text(self.POWER_CONFIG.replace("alphas = 0.05", f"alphas = 0.05, {alpha}"))
        out = tmp_path / "o.csv"
        r = runner.invoke(main, ["simulate", "--config", str(cfg), "--output", str(out)])
        assert r.exit_code == 1
        assert r.output.startswith(f"error: {cfg}:9: alphas = '0.05, {alpha}': significance "
                                   f"level {float(alpha)} is outside (0, 1)")
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [
        ("--threads", "0"), ("--threads", "-2"), ("--seed", "-1"), ("--replications", "0"),
        ("--replications", "-3")])
    def test_out_of_range_option_is_a_usage_error(self, runner, tmp_path, option, value):
        cfg = tmp_path / "pow.cfg"
        cfg.write_text(self.POWER_CONFIG)
        out = tmp_path / "o.csv"
        r = runner.invoke(main, ["simulate", "--config", str(cfg), "--output", str(out),
                                 option, value])
        assert r.exit_code == 2
        assert f"Invalid value for '{option}'" in r.output
        assert not out.exists()

    def test_missing_config_exits_2(self, runner, tmp_path):
        r = runner.invoke(main, [
            "simulate", "--config", str(tmp_path / "absent.cfg"),
            "--output", str(tmp_path / "o.csv")])
        assert r.exit_code == 2


class TestPredict:
    def test_split_mode(self, runner, tmp_path, data_csv):
        path, *_ = data_csv
        out = tmp_path / "pred.csv"
        r = runner.invoke(main, [
            "predict", "--input", str(path), "--split", "80",
            "--response", "y", "--criterion", "lpre", "--criterion", "ls",
            "--output", str(out)])
        assert r.exit_code == 0, r.output
        rows = list(csv.DictReader(open(out)))
        assert [row["method"] for row in rows] == ["lpre", "ls"]
        for row in rows:
            for key in ("mpe", "mppe", "mape", "mspe"):
                assert float(row[key]) >= 0

    def test_any_registry_criterion(self, runner, tmp_path, data_csv):
        path, *_ = data_csv
        out = tmp_path / "pred.csv"
        r = runner.invoke(main, [
            "predict", "--input", str(path), "--split", "80", "--response", "y",
            "--criterion", "gre:max", "--output", str(out)])
        assert r.exit_code == 0, r.output
        [row] = list(csv.DictReader(open(out)))
        assert row["method"] == "gre:max" and float(row["mape"]) > 0

    def test_train_test_mode_matches_split(self, runner, tmp_path, data_csv):
        path, x1, x2, y = data_csv
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        write_csv(train, {"x1": x1[:80], "x2": x2[:80]}, y[:80])
        write_csv(test, {"x1": x1[80:], "x2": x2[80:]}, y[80:])
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        ra = runner.invoke(main, [
            "predict", "--train", str(train), "--test", str(test),
            "--response", "y", "--criterion", "lpre", "--output", str(out_a)])
        rb = runner.invoke(main, [
            "predict", "--input", str(path), "--split", "80",
            "--response", "y", "--criterion", "lpre", "--output", str(out_b)])
        assert ra.exit_code == 0 and rb.exit_code == 0
        assert out_a.read_text() == out_b.read_text()

    def test_test_csv_covariates_matched_by_name(self, runner, tmp_path, data_csv):
        _, x1, x2, y = data_csv
        train = tmp_path / "train.csv"
        write_csv(train, {"x1": x1[:80], "x2": x2[:80]}, y[:80])
        cols = {"x1": x1[80:], "x2": x2[80:]}
        outputs = []
        for order in (["x1", "x2"], ["x2", "x1"]):
            test = tmp_path / f"test_{order[0]}.csv"
            write_csv(test, {c: cols[c] for c in order}, y[80:])
            out = tmp_path / f"pred_{order[0]}.csv"
            r = runner.invoke(main, [
                "predict", "--train", str(train), "--test", str(test),
                "--response", "y", "--criterion", "lpre", "--output", str(out)])
            assert r.exit_code == 0, r.output
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]

    def test_test_csv_missing_covariate_exits_1(self, runner, tmp_path, data_csv):
        _, x1, x2, y = data_csv
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        write_csv(train, {"x1": x1[:80], "x2": x2[:80]}, y[:80])
        write_csv(test, {"x1": x1[80:], "x3": x2[80:]}, y[80:])
        r = runner.invoke(main, [
            "predict", "--train", str(train), "--test", str(test),
            "--response", "y", "--output", str(tmp_path / "o.csv")])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output.startswith(f"error: {test}, line 1: missing columns ['x2']")

    @pytest.mark.parametrize("extra", [
        ["--train", "{data}", "--test", "{absent}"], ["--train", "{data}"], ["--test", "{data}"],
        ["--bodyfat", "--train", "{data}"],
    ], ids=["train_and_test", "train", "test", "bodyfat"])
    def test_input_with_train_or_test_exits_1(self, runner, tmp_path, data_csv, extra):
        # --input would win, and --train or --test would be ignored unread
        paths = {"data": data_csv[0], "absent": tmp_path / "absent.csv"}
        out = tmp_path / "o.csv"
        r = runner.invoke(main, [
            "predict", "--input", str(paths["data"]), "--split", "40", "--response", "y",
            *(arg.format(**paths) for arg in extra), "--output", str(out)])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output.startswith("error: give --input or --train/--test, not both")
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        ["--train", "{data}", "--test", "{data}", "--response", "y"],
        ["--bodyfat", "--input", "{data}"],
    ], ids=["train_and_test", "bodyfat"])
    def test_split_without_input_exits_1(self, runner, tmp_path, data_csv, extra):
        # only --input is split; elsewhere --split would be ignored
        paths = {"data": data_csv[0]}
        out = tmp_path / "o.csv"
        r = runner.invoke(main, ["predict", "--split", "40",
                                 *(arg.format(**paths) for arg in extra), "--output", str(out)])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output.startswith("error: --split needs --input and no --bodyfat")
        assert not out.exists()

    def test_bodyfat_with_response_exits_1(self, runner, tmp_path, data_csv):
        # the body-fat pipeline reads its own columns; --response would be ignored
        out = tmp_path / "results"
        r = runner.invoke(main, ["predict", "--bodyfat", "--input", str(data_csv[0]),
                                 "--response", "nonexistent_column", "--output", str(out)])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.output == (
            "error: --response is not read with --bodyfat, which has its own columns\n")
        assert not out.exists()

    def test_requires_input_spec(self, runner, tmp_path):
        r = runner.invoke(main, [
            "predict", "--response", "y", "--output", str(tmp_path / "o.csv")])
        assert r.exit_code == 1

    def test_bad_split_exits_1(self, runner, tmp_path, data_csv):
        path, *_ = data_csv
        r = runner.invoke(main, [
            "predict", "--input", str(path), "--split", "0",
            "--response", "y", "--output", str(tmp_path / "o.csv")])
        assert r.exit_code == 1


@pytest.mark.parametrize("args, option", [
    (["test", "--input", "{data}", "--response", "y", "--zero-coefs", "1,a"], "--zero-coefs"),
    (["fit", "--input", "{data}", "--response", "y", "--criterion", "lare",
      "--resamples", "1", "--output", "{out}"], "--resamples"),
    (["predict", "--input", "{data}", "--split", "80", "--response", "y",
      "--resamples", "1", "--output", "{out}"], "--resamples"),
    (["predict", "--input", "{data}", "--split", "80", "--response", "y",
      "--criterion", "lpre", "--criterion", "lpre", "--output", "{out}"], "--criterion"),
], ids=["test_zero_coefs", "fit_resamples", "predict_resamples", "predict_repeated_criterion"])
def test_bad_option_value_is_a_usage_error(runner, tmp_path, data_csv, args, option):
    paths = {"data": data_csv[0], "out": tmp_path / "out.csv"}
    r = runner.invoke(main, [arg.format(**paths) for arg in args])
    assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
    assert f"Invalid value for '{option}'" in r.output
    assert not paths["out"].exists()


SMALL_CONFIG = ("beta = 1, 0.5\nerror_law = log_normal(0, 0.5)\nn = 20\nreplications = 2\n"
                "estimators = lpre\ncompute_see = false\n")


@pytest.mark.parametrize("args", [
    ["fit", "--input", "{absent}", "--response", "y", "--output", "{out}"],
    ["fit", "--input", "{data}", "--response", "y", "--output", "{no_dir}"],
    ["test", "--input", "{absent}", "--response", "y", "--zero-coefs", "1"],
    ["test", "--input", "{data}", "--response", "y", "--hypothesis-file", "{absent}"],
    ["simulate", "--config", "{absent}", "--output", "{out}"],
    ["simulate", "--config", "{cfg}", "--output", "{no_dir}"],
    ["predict", "--input", "{absent}", "--split", "80", "--response", "y",
     "--output", "{out}"],
    ["predict", "--train", "{absent}", "--test", "{data}", "--response", "y",
     "--output", "{out}"],
    ["predict", "--train", "{data}", "--test", "{absent}", "--response", "y",
     "--output", "{out}"],
    ["predict", "--input", "{data}", "--split", "80", "--response", "y",
     "--output", "{no_dir}"],
    ["predict", "--bodyfat", "--input", "{absent}", "--output", "{out}"],
], ids=["fit_input", "fit_output", "test_input", "test_hypothesis_file",
        "simulate_config", "simulate_output", "predict_input", "predict_train",
        "predict_test", "predict_output", "predict_bodyfat_input"])
def test_io_failure_exits_2(runner, tmp_path, data_csv, args):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SMALL_CONFIG)
    paths = {"absent": tmp_path / "absent.csv", "out": tmp_path / "out.csv",
             "no_dir": tmp_path / "no_dir" / "out.csv", "data": data_csv[0], "cfg": cfg}
    r = runner.invoke(main, [arg.format(**paths) for arg in args])
    assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
    [line] = r.output.splitlines()
    bad = "absent" if "{absent}" in args else "no_dir"
    assert line.startswith("error: ") and str(paths[bad]) in line
