"""Data container for multiplicative regression problems.

The model is y_i = exp(x_i' beta) * eps_i with strictly positive
responses and an explicit intercept column of ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """Design matrix plus strictly positive response vector.

    ``x`` is n-by-p with the first column identically 1 (intercept);
    ``y`` has length n with every entry > 0.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2:
            raise ValueError("x must be a 2-d array")
        n, p = x.shape
        if n < 1 or p < 1:
            raise ValueError("need at least one row and one column")
        if y.shape[0] != n:
            raise ValueError(f"x has {n} rows but y has length {y.shape[0]}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("x and y must be finite (no NaN or infinity)")
        if not np.all(y > 0):
            raise ValueError("all responses must be strictly positive")
        if not np.all(x[:, 0] == 1.0):
            raise ValueError("first column of x must be the intercept (all ones)")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def scale_y(self, c: float) -> "Dataset":
        """Return a copy with every response multiplied by c > 0."""
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return Dataset(self.x, self.y * c)


def make_dataset(x_no_intercept: np.ndarray, y: np.ndarray) -> Dataset:
    """Prepend an intercept column of ones and build a Dataset."""
    x = np.atleast_2d(np.asarray(x_no_intercept, dtype=float))
    if x.shape[0] == 1 and np.asarray(y).size != 1 and x.shape[1] == np.asarray(y).size:
        x = x.T
    ones = np.ones((x.shape[0], 1))
    return Dataset(np.hstack([ones, x]), y)


def check_beta(beta: np.ndarray, data: Dataset) -> np.ndarray:
    """Validate coefficient length against the dataset; return as 1-d float array."""
    b = np.asarray(beta, dtype=float).ravel()
    if b.shape[0] != data.p:
        raise ValueError(f"beta has length {b.shape[0]}, expected {data.p}")
    return b
