import csv
import logging
import math

import numpy as np
import pytest

from relerr import solver
from relerr.data import Dataset
from relerr.errors import NumericOverflowError, RelerrError
from relerr.evaluate import (
    BODYFAT_COLUMNS,
    BODYFAT_FEATURE_NAMES,
    COEFFICIENTS_HEADER,
    PREDICTION_HEADER,
    PredictionMetrics,
    bodyfat_pipeline,
    evaluate_split,
    predict,
    predict_many,
    prediction_metrics,
    write_coefficients_csv,
    write_prediction_csv,
)
from relerr.solver import FitResult, fit_lpre

from conftest import random_dataset, skip_one_resample


def fit_of(beta):
    beta = np.asarray(beta, dtype=float)
    return FitResult(beta, 0.0, 0.0, 1, True, "lpre")


class TestPredict:
    def test_point_prediction(self):
        fit = fit_of([1.0, 2.0])
        assert predict(fit, [1.0, 0.5]) == pytest.approx(math.exp(2.0))

    def test_vectorized_matches_scalar(self, rng):
        fit = fit_of(rng.uniform(-1, 1, 3))
        x = np.hstack([np.ones((5, 1)), rng.standard_normal((5, 2))])
        many = predict_many(fit, x)
        for i in range(5):
            assert many[i] == pytest.approx(predict(fit, x[i]))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="design row length does not match the fit"):
            predict(fit_of([1.0, 2.0]), [1.0])
        with pytest.raises(ValueError, match="design row length does not match the fit"):
            predict_many(fit_of([1.0, 2.0]), np.ones((4, 3)))
        data, _ = random_dataset(rng, n=40)
        with pytest.raises(ValueError, match="design row length does not match the fit"):
            evaluate_split("lpre", data, data.x[:, :2], data.y)

    def test_overflow_guard(self):
        with pytest.raises(NumericOverflowError):
            predict(fit_of([800.0]), [1.0])


class TestPredictionMetrics:
    def test_worked_example(self):
        # y = (1, 4), yhat = (2, 2): the metric medians are interpolated
        m = prediction_metrics(np.array([1.0, 4.0]), np.array([2.0, 2.0]))
        assert m.mpe == pytest.approx(1.5)
        assert m.mppe == pytest.approx(0.5)
        assert m.mape == pytest.approx(1.5)
        assert m.mspe == pytest.approx(2.5)

    def test_perfect_predictions_are_zero(self, rng):
        y = np.exp(rng.standard_normal(10))
        m = prediction_metrics(y, y.copy())
        assert m.as_tuple() == (0.0, 0.0, 0.0, 0.0)

    def test_single_observation(self):
        m = prediction_metrics(np.array([2.0]), np.array([1.0]))
        assert m.mpe == pytest.approx(1.0)
        assert m.mppe == pytest.approx(0.5)
        assert m.mape == pytest.approx(1.5)
        assert m.mspe == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            prediction_metrics(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            prediction_metrics(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            prediction_metrics(np.array([-1.0]), np.array([1.0]))

    def test_scale_relationships(self, rng):
        # MPE and MSPE scale with y; MPPE and MAPE are scale-free
        y = np.exp(rng.standard_normal(50))
        yh = y * np.exp(0.1 * rng.standard_normal(50))
        m1 = prediction_metrics(y, yh)
        m2 = prediction_metrics(10 * y, 10 * yh)
        assert m2.mpe == pytest.approx(10 * m1.mpe)
        assert m2.mspe == pytest.approx(100 * m1.mspe)
        assert m2.mppe == pytest.approx(m1.mppe)
        assert m2.mape == pytest.approx(m1.mape)


class TestEvaluateSplit:
    def test_matches_manual_pipeline(self, rng):
        data, beta = random_dataset(rng, n=120)
        train = Dataset(data.x[:80], data.y[:80])
        tx, ty = data.x[80:], data.y[80:]
        got = evaluate_split("lpre", train, tx, ty)
        fit = fit_lpre(train)
        ref = prediction_metrics(ty, predict_many(fit, tx))
        assert got == ref

    def test_unknown_method(self, rng):
        data, _ = random_dataset(rng, n=40)
        with pytest.raises(ValueError):
            evaluate_split("ridge", data, data.x, data.y)


def _write_fake_bodyfat(path, n=252, seed=0, zeros=(41,)):
    """Synthetic file in the case-study layout with zero responses at the
    rows ``zeros``."""
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(BODYFAT_COLUMNS)
        for i in range(n):
            age = rng.uniform(22, 80)
            height = rng.uniform(64, 78)
            weight = rng.uniform(120, 250)
            circ = rng.uniform(20, 120, 10)
            body = 0.0 if i in zeros else rng.uniform(4, 45)
            w.writerow([f"{v:.4f}" for v in [body, age, height, weight, *circ]])
    return path


class TestBodyfatPipeline:
    def test_full_run_on_synthetic_data(self, tmp_path):
        path = _write_fake_bodyfat(tmp_path / "bodyfat.csv")
        coef_rows, metric_rows = bodyfat_pipeline(
            path, methods=("lpre", "ls"), resamples=50)
        assert {m for m, *_ in coef_rows} == {"lpre", "ls"}
        names = [name for m, name, *_ in coef_rows if m == "lpre"]
        assert names == ["intercept"] + BODYFAT_FEATURE_NAMES
        assert len(metric_rows) == 2
        for _, metrics in metric_rows:
            assert all(v >= 0 for v in metrics.as_tuple())
        for _, _, est, see, p in coef_rows:
            assert see > 0 and 0.0 <= p <= 1.0

    def test_unknown_method_rejected_before_any_fit(self, tmp_path, monkeypatch):
        path = _write_fake_bodyfat(tmp_path / "bodyfat.csv")
        monkeypatch.setattr(solver, "fit_gre", None)  # any fit would fail
        with pytest.raises(ValueError, match="unknown estimator 'ridge'"):
            bodyfat_pipeline(path, methods=("lpre", "ridge"))

    def test_deterministic(self, tmp_path):
        path = _write_fake_bodyfat(tmp_path / "bodyfat.csv")
        a = bodyfat_pipeline(path, methods=("lare",), resamples=40, seed=5)
        b = bodyfat_pipeline(path, methods=("lare",), resamples=40, seed=5)
        assert a == b

    def test_skipped_resamples_are_logged(self, tmp_path, monkeypatch, caplog):
        path = _write_fake_bodyfat(tmp_path / "bodyfat.csv")
        with caplog.at_level(logging.WARNING, logger="relerr"):
            bodyfat_pipeline(path, methods=("lad",), resamples=20)
        assert not caplog.records
        skip_one_resample(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="relerr"):
            bodyfat_pipeline(path, methods=("lad",), resamples=20)
        [record] = caplog.records
        assert record.name == "relerr" and record.levelno == logging.WARNING
        assert record.getMessage().startswith("lad: 1 ")

    def test_strict_checks(self, tmp_path):
        path = _write_fake_bodyfat(tmp_path / "short.csv", n=100)
        with pytest.raises(RelerrError, match="expected 251 usable rows"):
            bodyfat_pipeline(path)
        for zeros in ((), (41, 42)):
            path = _write_fake_bodyfat(tmp_path / "zeros.csv", n=251 + len(zeros), zeros=zeros)
            with pytest.raises(RelerrError, match="expected exactly one zero response"):
                bodyfat_pipeline(path)
        bodyfat_pipeline(_write_fake_bodyfat(tmp_path / "full.csv"), methods=("ls",),
                         resamples=10)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("bodyfat,age\n10,30\n")
        with pytest.raises(RelerrError, match="missing columns"):
            bodyfat_pipeline(path)


class TestCsvWriters:
    def test_coefficients_csv(self, tmp_path):
        rows = [("lpre", "age", 0.12, 0.03, 0.001)]
        path = tmp_path / "coefficients.csv"
        write_coefficients_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == COEFFICIENTS_HEADER
        assert lines[1].startswith("lpre,age,0.12")

    def test_prediction_csv(self, tmp_path):
        rows = [("ls", PredictionMetrics(1.0, 0.1, 0.2, 2.0))]
        path = tmp_path / "metrics.csv"
        write_prediction_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == PREDICTION_HEADER
        assert lines[1] == "ls,1,0.1,0.2,2"
