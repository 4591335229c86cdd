"""Train/test prediction evaluation and the body-fat case study.

The case-study pipeline fits percentage body fat on 12 standardized
body-measurement covariates (age, height^4/weight^2, and ten
circumferences), training on the first 200 rows and scoring the
remainder with four median prediction-error metrics.
"""

from __future__ import annotations

import csv as _csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import inference
from .criteria import EXP_BOUND
from .data import Dataset
from .errors import NumericOverflowError, RelerrError
from .solver import FitResult

#: default CSV column names for the body-fat pipeline; height and weight
#: are combined into the height^4/weight^2 feature internally.
BODYFAT_COLUMNS = {
    "response": "bodyfat",
    "age": "age",
    "height": "height",
    "weight": "weight",
    "circumferences": [
        "neck", "chest", "abdomen", "hip", "thigh",
        "knee", "ankle", "biceps", "forearm", "wrist",
    ],
}

BODYFAT_FEATURE_NAMES = [
    "age", "height4_weight2", "neck", "chest", "abdomen", "hip",
    "thigh", "knee", "ankle", "biceps", "forearm", "wrist",
]

COEFFICIENTS_HEADER = "method,coef,estimate,see,p_value"
PREDICTION_HEADER = "method,mpe,mppe,mape,mspe"


@dataclass(frozen=True)
class PredictionMetrics:
    mpe: float
    mppe: float
    mape: float
    mspe: float

    def as_tuple(self):
        return (self.mpe, self.mppe, self.mape, self.mspe)


def predict(fit: FitResult, x_row: np.ndarray) -> float:
    """Point prediction exp(x'beta-hat) for one design row (intercept included)."""
    x_row = np.asarray(x_row, dtype=float).ravel()
    if x_row.shape[0] != fit.beta.shape[0]:
        raise ValueError("design row length does not match the fit")
    eta = float(x_row @ fit.beta)
    if abs(eta) > EXP_BOUND:
        raise NumericOverflowError("prediction exponent out of range")
    return float(np.exp(eta))


def predict_many(fit: FitResult, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    eta = x @ fit.beta
    if np.any(np.abs(eta) > EXP_BOUND):
        raise NumericOverflowError("prediction exponent out of range")
    return np.exp(eta)


def prediction_metrics(y_test: np.ndarray, y_hat: np.ndarray) -> PredictionMetrics:
    """Median prediction-error metrics over a test set.

    MPE: |y - yhat|; MPPE: (y - yhat)^2 / (y * yhat);
    MAPE: |y - yhat|/y + |y - yhat|/yhat; MSPE: (y - yhat)^2.
    """
    y = np.asarray(y_test, dtype=float).ravel()
    yh = np.asarray(y_hat, dtype=float).ravel()
    if y.size == 0:
        raise ValueError("empty test set")
    if y.shape != yh.shape:
        raise ValueError("prediction/response length mismatch")
    if np.any(y <= 0) or np.any(yh <= 0):
        raise ValueError("responses and predictions must be strictly positive")
    err = np.abs(y - yh)
    return PredictionMetrics(
        mpe=float(np.median(err)),
        mppe=float(np.median(err**2 / (y * yh))),
        mape=float(np.median(err / y + err / yh)),
        mspe=float(np.median(err**2)),
    )


def evaluate_split(
    method: str,
    train: Dataset,
    test_x: np.ndarray,
    test_y: np.ndarray,
) -> PredictionMetrics:
    """Fit one method on the training data and score the test block."""
    fit = inference.estimator(method).fit(train)
    return prediction_metrics(test_y, predict_many(fit, test_x))


def _read_bodyfat_csv(csv_path, columns):
    with open(csv_path, newline="") as fh:
        reader = _csv.DictReader(fh)
        if reader.fieldnames is None:
            raise RelerrError(f"{csv_path}: missing header row")
        needed = ([columns["response"], columns["age"], columns["height"],
                   columns["weight"]] + list(columns["circumferences"]))
        missing = [c for c in needed if c not in reader.fieldnames]
        if missing:
            raise RelerrError(f"{csv_path}: missing columns {missing}")
        rows = list(reader)
    y = np.array([float(r[columns["response"]]) for r in rows])
    height = np.array([float(r[columns["height"]]) for r in rows])
    weight = np.array([float(r[columns["weight"]]) for r in rows])
    age = np.array([float(r[columns["age"]]) for r in rows])
    circ = np.column_stack([
        np.array([float(r[c]) for r in rows]) for c in columns["circumferences"]
    ])
    features = np.column_stack([age, height**4 / weight**2, circ])
    return y, features


def bodyfat_pipeline(
    csv_path,
    methods: Sequence[str] = inference.PAPER_ESTIMATORS,
    columns: Optional[dict] = None,
    train_size: int = 200,
    resamples: int = 500,
    seed: int = 20130501,
    strict: bool = True,
):
    """Full body-fat study: standardize, split, fit, test, and score.

    Z-scores every covariate on the full usable sample, fits each method
    on the first ``train_size`` rows (file order), and evaluates the
    remaining rows.  Returns (coefficient rows, metric rows) where each
    coefficient row is (method, name, estimate, see, p_value) and each
    metric row is (method, PredictionMetrics).
    """
    columns = columns or BODYFAT_COLUMNS
    y, features = _read_bodyfat_csv(csv_path, columns)

    keep = y != 0
    if strict and np.sum(~keep) != 1:
        raise RelerrError(
            f"expected exactly one zero response to drop, found {np.sum(~keep)}"
        )
    y, features = y[keep], features[keep]
    if strict and y.shape[0] != 251:
        raise RelerrError(f"expected 251 usable rows, found {y.shape[0]}")
    if np.any(y <= 0):
        raise RelerrError("responses must be positive after dropping zero rows")
    if not 0 < train_size < y.shape[0]:
        raise RelerrError("train size must split the sample into two blocks")

    z = (features - features.mean(axis=0)) / features.std(axis=0, ddof=0)
    x = np.hstack([np.ones((z.shape[0], 1)), z])
    train = Dataset(x[:train_size], y[:train_size])
    test_x, test_y = x[train_size:], y[train_size:]

    names = ["intercept"] + list(BODYFAT_FEATURE_NAMES)
    coef_rows = []
    metric_rows = []
    for method in methods:
        rng = np.random.default_rng(seed)  # one fixed stream per method
        entry = inference.estimator(method)
        fit = entry.fit(train)
        cov = entry.covariance_of(fit, train, resamples, rng)
        pvals = inference.wald_p_values(fit, cov)
        sees = cov.standard_errors()
        for name, est, see, p in zip(names, fit.beta, sees, pvals):
            coef_rows.append((method, name, float(est), float(see), float(p)))
        metric_rows.append(
            (method, prediction_metrics(test_y, predict_many(fit, test_x)))
        )
    return coef_rows, metric_rows


def write_coefficients_csv(coef_rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(COEFFICIENTS_HEADER.split(","))
        for method, name, est, see, p in coef_rows:
            writer.writerow([method, name, f"{est:.6g}", f"{see:.6g}", f"{p:.6g}"])


def write_prediction_csv(metric_rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(PREDICTION_HEADER.split(","))
        for method, m in metric_rows:
            writer.writerow([method, f"{m.mpe:.6g}", f"{m.mppe:.6g}",
                             f"{m.mape:.6g}", f"{m.mspe:.6g}"])
