"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the program is made here from integers, so
the same seed gives the same inputs and no data is shipped or fetched.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TABLE1_CONFIG = ROOT / "configs" / "table1_lognormal.cfg"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: The body-fat CSV is drawn from this fixed seed, not from ``--seed``:
#: the LARE point fit reads only this file, so whether it reaches the
#: convex minimum cannot change from one seed to the next.
BODYFAT_DATA_SEED = 252
#: seed of the random-weighting stream of every body-fat op
BODYFAT_RESAMPLE_SEED = 20130501
BODYFAT_ROWS = 252
#: row (0-based, inside the 200-row training block) whose response is 0,
#: which the pipeline must drop
BODYFAT_ZERO_ROW = 181
BODYFAT_HEADER = [
    "bodyfat", "age", "height", "weight", "neck", "chest", "abdomen", "hip",
    "thigh", "knee", "ankle", "biceps", "forearm", "wrist",
]
# mean circumference (cm) and its loading on the shared size factor
_CIRCUMFERENCES = {
    "neck": (38.0, 0.06), "chest": (100.8, 0.08), "abdomen": (92.6, 0.11),
    "hip": (99.9, 0.07), "thigh": (59.4, 0.09), "knee": (38.6, 0.05),
    "ankle": (23.1, 0.05), "biceps": (32.3, 0.09), "forearm": (28.7, 0.06),
    "wrist": (18.2, 0.04),
}
#: true coefficients of log(bodyfat) on the z-scored features
#: (age, height^4/weight^2, then the circumferences in header order)
BODYFAT_BETA = np.array([
    2.9, 0.08, -0.05, -0.04, 0.02, 0.32, -0.06, 0.03, 0.0, 0.01, 0.02,
    -0.01, -0.07,
])
BODYFAT_LOG_SD = 0.35

#: power study: beta_2 grid tested for zero, with beta_0 = beta_1 = 1
POWER_BETA2 = (0.0, 0.1, 0.2)


def op_seed(seed: int, op: int) -> int:
    """Seed of op number ``op`` in the run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, op]).generate_state(1)[0])


def bodyfat_table() -> np.ndarray:
    """The 252-by-14 body-fat-shaped table, columns as ``BODYFAT_HEADER``.

    Circumferences share one N(0, 1) size factor, so they are correlated
    the way body measurements are; weight follows the same factor.  The
    response is exp(z'beta) times log-normal error, with z the z-scored
    features the pipeline builds, and one response set to 0.  Values are
    rounded as a measurement file would hold them, and survive a text
    round trip exactly.
    """
    rng = np.random.default_rng(BODYFAT_DATA_SEED)
    n = BODYFAT_ROWS
    size = rng.standard_normal(n)
    age = np.round(rng.uniform(22.0, 81.0, n))
    height = np.round(178.0 + 7.0 * rng.standard_normal(n) + 2.0 * size, 1)
    weight = np.round(81.0 * np.exp(0.12 * size + 0.04 * rng.standard_normal(n)), 1)
    circ = np.column_stack([
        np.round(mean * np.exp(load * size + 0.03 * rng.standard_normal(n)), 1)
        for mean, load in _CIRCUMFERENCES.values()
    ])
    features = np.column_stack([age, height**4 / weight**2, circ])
    z = (features - features.mean(axis=0)) / features.std(axis=0)
    eta = BODYFAT_BETA[0] + z @ BODYFAT_BETA[1:]
    bodyfat = np.round(np.exp(eta + BODYFAT_LOG_SD * rng.standard_normal(n)), 1)
    bodyfat = np.maximum(bodyfat, 0.1)
    bodyfat[BODYFAT_ZERO_ROW] = 0.0
    return np.column_stack([bodyfat, age, height, weight, circ])


def write_bodyfat_csv(path: Path) -> None:
    table = bodyfat_table()
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BODYFAT_HEADER)
        for row in table:
            writer.writerow([repr(float(v)) for v in row])


def bodyfat_design():
    """(x, y) of the usable rows, built apart from the program.

    Drops the zero response, z-scores (age, height^4/weight^2,
    circumferences) over the usable rows and prepends an intercept; the
    pipeline trains on the first 200 rows and tests on the rest.
    """
    table = bodyfat_table()
    keep = table[:, 0] != 0
    table = table[keep]
    y = table[:, 0]
    age, height, weight = table[:, 1], table[:, 2], table[:, 3]
    features = np.column_stack([age, height**4 / weight**2, table[:, 4:]])
    z = (features - features.mean(axis=0)) / features.std(axis=0)
    return np.hstack([np.ones((y.size, 1)), z]), y
