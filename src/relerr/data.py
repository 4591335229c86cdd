"""Data container for multiplicative regression problems.

The model is y_i = exp(x_i' beta) * eps_i with strictly positive
responses and an explicit intercept column of ones.  ``read_csv`` is the
one reader of numeric CSV input, for the CLI and the body-fat pipeline,
and ``write_csv`` the one writer of every table the package writes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import RelerrError


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
        _check_values(x, y)
        if not np.all(x[:, 0] == 1.0):
            raise ValueError("first column of x must be the intercept (all ones)")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


def _check_values(x: np.ndarray, y: np.ndarray):
    """ValueError unless x and y are finite and y > 0 (arrays of any shape)."""
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("x and y must be finite (no NaN or infinity)")
    if not np.all(y > 0):
        raise ValueError("all responses must be strictly positive")


def check_beta(beta: np.ndarray, data: Dataset) -> np.ndarray:
    """Validate coefficient length against the dataset; return as 1-d float array."""
    b = np.asarray(beta, dtype=float).ravel()
    if b.shape[0] != data.p:
        raise ValueError(f"beta has length {b.shape[0]}, expected {data.p}")
    return b


def read_csv(path, required=()) -> tuple[list, np.ndarray]:
    """The header of a numeric CSV file and its columns (one row each).

    RelerrError, naming the file and the line, for a missing header or
    required column, a column name given twice, no data, a row of the
    wrong length or a non-numeric cell; blank lines are skipped.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise RelerrError(f"{path}: missing header row")
        duplicated = sorted({c for c in header if header.count(c) > 1})
        if duplicated:
            raise RelerrError(f"{path}, line 1: duplicate columns {duplicated}")
        missing = [c for c in required if c not in header]
        if missing:
            raise RelerrError(f"{path}, line 1: missing columns {missing}")
        rows = []
        for row in filter(None, reader):
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise RelerrError(f"{where}: {len(row)} cells, expected {len(header)}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise RelerrError(f"{where}: non-numeric cell ({exc})") from None
    if not rows:
        raise RelerrError(f"{path}: no data rows")
    return header, np.array(rows).T.copy()


def write_csv(path, header, rows) -> None:
    """Write a CSV file: the ``header`` row, then each row of ``rows``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
