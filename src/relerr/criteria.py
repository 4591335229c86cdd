"""The criteria table for multiplicative regression.

Every criterion the package fits is a sum of one convex loss rho applied
to the log residuals r_i = log y_i - x_i'beta.  Each row of the table
splits rho into a kink and a smooth part,

    rho(r) = kink * |r| + sigma(r),

with kink >= 0 and sigma convex and twice continuously differentiable.
The relative-error criteria g(a, b) of the two relative errors
a = |y - yhat| / y = |1 - e^{-r}| and b = |y - yhat| / yhat = |e^r - 1|
reduce to this form:

    criterion    g(a, b)          kink   sigma(r)
    product      a * b            0      2 (cosh r - 1)
    sum          a + b            2      2 sinh|r| - 2|r|
    max          max(a, b)        1      e^{|r|} - 1 - |r|
    asymmetric   a + e^b - 1      2      rho(r) - 2|r|   (rho'' = 1 at 0)
    ls_log       (log scale)      0      r^2
    lad_log      (log scale)      1      0

The product criterion (LPRE) keeps its exact gradient and Hessian in
beta; the solver in ``solver`` minimizes any row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import Dataset, check_beta
from .errors import NumericOverflowError

# exp() overflows near 709.8; predictions past this exponent are refused.
EXP_BOUND = 700.0


@dataclass(frozen=True)
class GreCriterion:
    """One row of the criteria table: rho(r) = kink * |r| + sigma(r).

    ``sigma(r)`` maps an array of log residuals to (sigma, sigma',
    sigma''), each vectorized, and ``sigma(r, derivatives=False)`` to
    sigma alone; sigma must be convex and twice continuously
    differentiable, and sigma(0) = sigma'(0) = 0.
    """

    name: str
    kink: float
    sigma: Callable[..., tuple] = field(repr=False)

    def rho(self, r: np.ndarray) -> np.ndarray:
        """The loss of each log residual (inf where it overflows)."""
        with np.errstate(over="ignore"):
            return self.kink * np.abs(r) + self.sigma(r, derivatives=False)


def _product_sigma(r, derivatives=True):
    t, u = np.exp(r), np.exp(-r)  # y e^{-x'b} and e^{x'b} / y
    value = t + u - 2.0
    return (value, t - u, t + u) if derivatives else value


def _sum_sigma(r, derivatives=True):
    a = np.abs(r)
    s = np.sinh(a)
    value = 2.0 * (s - a)
    return (value, 2.0 * np.sign(r) * (np.cosh(a) - 1.0), 2.0 * s) if derivatives else value


def _max_sigma(r, derivatives=True):
    a = np.abs(r)
    e = np.exp(a)
    value = e - 1.0 - a
    return (value, np.sign(r) * (e - 1.0), e) if derivatives else value


def _asymmetric_sigma(r, derivatives=True):
    t, u = np.exp(r), np.exp(-r)
    eb = np.exp(np.abs(t - 1.0))  # e^b
    value = np.abs(1.0 - u) + eb - 1.0 - 2.0 * np.abs(r)
    if not derivatives:
        return value
    s = np.sign(r)
    return value, s * (u + t * eb - 2.0), t * t * eb + s * (t * eb - u)


def _ls_sigma(r, derivatives=True):
    return (r * r, 2.0 * r, np.full_like(r, 2.0)) if derivatives else r * r


def _lad_sigma(r, derivatives=True):
    zero = np.zeros_like(r)
    return (zero, zero, zero) if derivatives else zero


PRODUCT = GreCriterion("product", 0.0, _product_sigma)
SUM = GreCriterion("sum", 2.0, _sum_sigma)
MAX = GreCriterion("max", 1.0, _max_sigma)
ASYMMETRIC = GreCriterion("asymmetric", 2.0, _asymmetric_sigma)

CRITERIA = {c.name: c for c in (
    PRODUCT, SUM, MAX, ASYMMETRIC,
    GreCriterion("ls_log", 0.0, _ls_sigma),
    GreCriterion("lad_log", 1.0, _lad_sigma),
)}


def log_residuals(beta: np.ndarray, data: Dataset) -> np.ndarray:
    """r = log y - x'beta."""
    return np.log(data.y) - data.x @ check_beta(beta, data)


def gre_loss(criterion: GreCriterion, beta: np.ndarray, data: Dataset) -> float:
    """General criterion sum_i rho(r_i); inf where rho overflows, which is
    the right answer for a wildly wrong fit."""
    return float(np.sum(criterion.rho(log_residuals(beta, data))))


def _finite(values, what):
    if not np.all(np.isfinite(values)):
        raise NumericOverflowError(f"{what} is not finite at this beta")
    return values


def lpre_loss(beta: np.ndarray, data: Dataset) -> float:
    """Product relative-error criterion.

    Equals sum_i { y_i e^{-x_i'b} + y_i^{-1} e^{x_i'b} - 2 }, which is
    identical to the product of the two relative errors summed over i.
    Zero iff the fit is exact; NumericOverflowError where it overflows,
    as for every named loss below.
    """
    return _finite(gre_loss(PRODUCT, beta, data), "product criterion")


def lpre_gradient(beta: np.ndarray, data: Dataset) -> np.ndarray:
    """Exact gradient of ``lpre_loss`` with respect to beta."""
    with np.errstate(over="ignore"):
        _, d1, _ = _product_sigma(log_residuals(beta, data))
    return _finite(-(data.x.T @ d1), "product criterion gradient")


def lpre_hessian(beta: np.ndarray, data: Dataset) -> np.ndarray:
    """Exact Hessian of ``lpre_loss``; positive definite for full-rank designs."""
    with np.errstate(over="ignore"):
        _, _, d2 = _product_sigma(log_residuals(beta, data))
    return _finite((data.x * d2[:, None]).T @ data.x, "product criterion Hessian")


def lare_loss(beta: np.ndarray, data: Dataset) -> float:
    """Additive relative-error criterion (sum of the two relative errors)."""
    return _finite(gre_loss(SUM, beta, data), "sum criterion")


def ls_log_loss(beta: np.ndarray, data: Dataset) -> float:
    """Sum of squared residuals of log y on x'beta."""
    return _finite(gre_loss(CRITERIA["ls_log"], beta, data), "ls_log criterion")


def lad_log_loss(beta: np.ndarray, data: Dataset) -> float:
    """Sum of absolute residuals of log y on x'beta."""
    return _finite(gre_loss(CRITERIA["lad_log"], beta, data), "lad_log criterion")
