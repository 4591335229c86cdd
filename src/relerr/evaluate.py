"""Train/test prediction evaluation and the body-fat case study.

The case-study pipeline fits percentage body fat on 12 standardized
body-measurement covariates (age, height^4/weight^2, and ten
circumferences), training on the first 200 rows and scoring the
remainder with four median prediction-error metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import inference
from .criteria import EXP_BOUND
from .data import Dataset, read_csv, write_csv
from .errors import NumericOverflowError, RelerrError
from .solver import FitResult

#: CSV columns the body-fat pipeline reads: the response, age, height,
#: weight and the ten circumferences
BODYFAT_COLUMNS = [
    "bodyfat", "age", "height", "weight", "neck", "chest", "abdomen", "hip",
    "thigh", "knee", "ankle", "biceps", "forearm", "wrist",
]

#: the pipeline's features: height and weight become height^4/weight^2
BODYFAT_FEATURE_NAMES = ["age", "height4_weight2", *BODYFAT_COLUMNS[4:]]

#: rows of the body-fat data (file order) the pipeline trains on
TRAIN_SIZE = 200

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
    return float(predict_many(fit, np.ravel(x_row))[0])


def predict_many(fit: FitResult, x: np.ndarray) -> np.ndarray:
    """Point predictions exp(x'beta-hat), one per design row of x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != fit.beta.shape[0]:
        raise ValueError("design row length does not match the fit")
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


def _read_bodyfat_csv(csv_path):
    """The response and the features (``BODYFAT_FEATURE_NAMES``) of a body-fat CSV."""
    col = dict(zip(*read_csv(csv_path, BODYFAT_COLUMNS)))
    features = np.column_stack([col["age"], col["height"]**4 / col["weight"]**2,
                                *(col[c] for c in BODYFAT_COLUMNS[4:])])
    return col["bodyfat"], features


def bodyfat_pipeline(
    csv_path,
    methods: Sequence[str] = inference.PAPER_ESTIMATORS,
    resamples: int = 500,
    seed: int = 20130501,
):
    """Full body-fat study: standardize, split, fit, test, and score.

    Z-scores every covariate on the full usable sample, fits each method
    on the first ``TRAIN_SIZE`` rows (file order), and evaluates the
    remaining rows.  Returns (coefficient rows, metric rows) where each
    coefficient row is (method, name, estimate, see, p_value) and each
    metric row is (method, PredictionMetrics).  Every method is looked up
    in the estimator registry before any is fitted.
    """
    for method in methods:
        inference.estimator(method)
    y, features = _read_bodyfat_csv(csv_path)

    keep = y != 0
    if np.sum(~keep) != 1:
        raise RelerrError(
            f"expected exactly one zero response to drop, found {np.sum(~keep)}"
        )
    y, features = y[keep], features[keep]
    if y.shape[0] != 251:
        raise RelerrError(f"expected 251 usable rows, found {y.shape[0]}")
    if np.any(y <= 0):
        raise RelerrError("responses must be positive after dropping zero rows")

    z = (features - features.mean(axis=0)) / features.std(axis=0, ddof=0)
    x = np.hstack([np.ones((z.shape[0], 1)), z])
    train = Dataset(x[:TRAIN_SIZE], y[:TRAIN_SIZE])
    test_x, test_y = x[TRAIN_SIZE:], y[TRAIN_SIZE:]

    names = ["intercept"] + list(BODYFAT_FEATURE_NAMES)
    coef_rows = []
    metric_rows = []
    for method in methods:
        fit, sees, pvals = inference.fit_report(
            method, train, resamples, np.random.default_rng(seed))  # one stream per method
        for name, est, see, p in zip(names, fit.beta, sees, pvals):
            coef_rows.append((method, name, float(est), float(see), float(p)))
        metric_rows.append(
            (method, prediction_metrics(test_y, predict_many(fit, test_x)))
        )
    return coef_rows, metric_rows


def write_coefficients_csv(coef_rows, path) -> None:
    write_csv(path, COEFFICIENTS_HEADER.split(","),
              ([method, name, f"{est:.6g}", f"{see:.6g}", f"{p:.6g}"]
               for method, name, est, see, p in coef_rows))


def write_prediction_csv(metric_rows, path) -> None:
    write_csv(path, PREDICTION_HEADER.split(","),
              ([method, *(f"{v:.6g}" for v in m.as_tuple())] for method, m in metric_rows))
