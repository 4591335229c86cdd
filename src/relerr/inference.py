"""Inference for relative-error fits, and the estimator registry.

Plug-in sandwich covariance for the smooth product criterion, Wald-style
p-values, the criterion-difference test with its chi-squared scale, and
random-weighting resampling for estimators whose asymptotic variance
would otherwise require density estimation.

``ESTIMATORS`` is the one registry of estimators: each entry names a row
of the criteria table and how its covariance is estimated (sandwich for
LPRE, OLS for log-scale LS, random weighting otherwise).  The CLI, the
Monte Carlo studies and the prediction pipeline all look estimators up
there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.stats import chi2, norm

from . import criteria, solver
from .criteria import GreCriterion
from .data import Dataset
from .errors import ConvergenceError, RelerrError, ResamplingError, SingularDesignError
from .solver import FitResult, LinearHypothesis, SolverOptions


@dataclass(frozen=True)
class CovarianceEstimate:
    """Estimated covariance of beta-hat (already divided by n)."""

    cov: np.ndarray
    method: str  # "plugin_sandwich" or "random_weighting"
    d_hat: Optional[np.ndarray] = None
    v_hat: Optional[np.ndarray] = None
    n_skipped: int = 0

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))


@dataclass(frozen=True)
class TestResult:
    statistic: float
    df: int
    scale: float
    p_value: float


def _require_residual_dof(data: Dataset):
    if data.n <= data.p:
        raise RelerrError(
            f"inference needs more observations than coefficients "
            f"(n = {data.n}, p = {data.p}): no residual degrees of freedom")


def sandwich_covariance(fit: FitResult, data: Dataset) -> CovarianceEstimate:
    """Plug-in sandwich covariance D^{-1} V D^{-1} / n at the fitted point.

    D is the average Hessian weight matrix and V the average squared-score
    matrix; both use the sample analogue evaluated at beta-hat.
    """
    _require_residual_dof(data)
    _, score, curvature = criteria.PRODUCT.sigma(criteria.log_residuals(fit.beta, data))
    n = data.n
    d_hat = (data.x * curvature[:, None]).T @ data.x / n
    v_hat = (data.x * (score**2)[:, None]).T @ data.x / n
    try:
        d_inv = scipy.linalg.inv(d_hat)
    except scipy.linalg.LinAlgError as exc:
        raise SingularDesignError("plug-in D matrix is singular") from exc
    cov = d_inv @ v_hat @ d_inv / n
    cov = (cov + cov.T) / 2.0
    return CovarianceEstimate(cov=cov, method="plugin_sandwich",
                              d_hat=d_hat, v_hat=v_hat)


def ols_log_covariance(fit: FitResult, data: Dataset) -> CovarianceEstimate:
    """Classical OLS covariance of the log-scale LS fit: s^2 (X'X)^{-1}."""
    _require_residual_dof(data)
    r = criteria.log_residuals(fit.beta, data)
    s2 = float(r @ r) / (data.n - data.p)
    xtx_inv = scipy.linalg.inv(data.x.T @ data.x)
    return CovarianceEstimate(cov=s2 * xtx_inv, method="plugin_sandwich")


def wald_p_values(
    fit: FitResult,
    cov: CovarianceEstimate,
    two_sided: bool = False,
) -> np.ndarray:
    """Per-coefficient p-values 1 - Phi(|b_j / s_j|).

    The default one-Phi form is deliberate; pass two_sided=True for the
    conventional 2 * (1 - Phi(|z|)).  A zero standard error yields 0 for
    a nonzero coefficient and 0.5 (i.e. |z| = 0) otherwise.
    """
    se = cov.standard_errors()
    beta = np.asarray(fit.beta, dtype=float)
    z = np.empty_like(beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(beta) / se
    z[(se == 0) & (beta != 0)] = np.inf
    z[(se == 0) & (beta == 0)] = 0.0
    p = norm.sf(z)
    return 2.0 * p if two_sided else p


def _khat(fit_beta: np.ndarray, data: Dataset) -> float:
    """Plug-in chi-squared scale sum((eps-hat - 1/eps-hat)^2) / (4 sum(eps-hat)).

    This is the scale K with M_n -> K * chi2(q) under the null.  At the
    product-efficient error density the criterion is the exact negative
    log-likelihood, so K must equal 1/2 there; this form does, and its
    reciprocal does not.
    """
    eps_hat = np.exp(criteria.log_residuals(fit_beta, data))
    num = float(np.sum((eps_hat - 1.0 / eps_hat) ** 2))
    if num <= 0:
        raise RelerrError("chi-squared scale undefined: all residual ratios are 1")
    return num / (4.0 * float(np.sum(eps_hat)))


def lpre_anova_test(
    data: Dataset,
    hypothesis: LinearHypothesis,
    opts: Optional[SolverOptions] = None,
) -> TestResult:
    """Criterion-difference test of H0: H'beta = 0 under the product loss.

    The statistic is the constrained minus unconstrained minimum of the
    criterion; under H0 it is asymptotically K * chi2(q) with K estimated
    by its plug-in formula at the unconstrained fit.
    """
    _require_residual_dof(data)
    opts = opts or SolverOptions()
    free = solver.fit_lpre(data, opts)
    constrained = solver.fit_constrained_lpre(data, hypothesis, opts)
    stat = max(constrained.criterion_value - free.criterion_value, 0.0)
    k_hat = _khat(free.beta, data)
    p_value = float(chi2.sf(stat / k_hat, hypothesis.q))
    return TestResult(statistic=stat, df=hypothesis.q, scale=k_hat, p_value=p_value)


def _criterion(estimator) -> GreCriterion:
    """The criterion of a registry name, a criterion name or a criterion."""
    if isinstance(estimator, GreCriterion):
        return estimator
    if estimator in ESTIMATORS:
        return ESTIMATORS[estimator].criterion
    if estimator in criteria.CRITERIA:
        return criteria.CRITERIA[estimator]
    raise ValueError(
        f"unknown estimator kind {estimator!r}; expected one of "
        f"{sorted(ESTIMATORS)}, {sorted(criteria.CRITERIA)} or a GreCriterion")


def _resample(statistic, data: Dataset, n_resample: int, rng, what: str):
    """statistic(w) for n_resample draws of i.i.d. standard exponential
    weights.  A fit that fails (no certificate, or a singular design) is
    retried once with fresh weights, then skipped; more than 10% skips
    raise ResamplingError.  Returns (values, skipped)."""
    values = []
    skipped = 0
    for _ in range(n_resample):
        for _attempt in range(2):
            w = rng.standard_exponential(data.n)
            try:
                values.append(statistic(w))
                break
            except (ConvergenceError, SingularDesignError):
                continue
        else:
            skipped += 1
    if skipped > 0.1 * n_resample:
        raise ResamplingError(
            f"{skipped}/{n_resample} resample fits failed; {what} unreliable")
    return values, skipped


def random_weight_covariance(
    estimator,
    data: Dataset,
    n_resample: int = 500,
    rng: Optional[np.random.Generator] = None,
    opts: Optional[SolverOptions] = None,
) -> CovarianceEstimate:
    """Random-weighting covariance of an estimator.

    ``estimator`` is a registry name ("lpre", "lare", ...), a criterion
    name ("ls_log", "lad_log", ...) or a criterion.  Re-minimizes the
    criterion n_resample times with i.i.d. standard exponential (unit
    mean, unit variance) per-observation weights and returns the
    empirical covariance of the re-estimates.  A failed resample fit is
    retried once with fresh weights, then skipped and counted in
    ``n_skipped``; more than 10% skips aborts.
    """
    if n_resample < 2:
        raise ValueError("need at least two resamples")
    criterion = _criterion(estimator)
    _require_residual_dof(data)
    rng = rng if rng is not None else np.random.default_rng()
    opts = opts or SolverOptions()

    estimates, skipped = _resample(
        lambda w: solver.fit_gre(criterion, data, opts, weights=w).beta,
        data, n_resample, rng, "covariance")
    cov = np.atleast_2d(np.cov(np.array(estimates), rowvar=False))
    return CovarianceEstimate(cov=cov, method="random_weighting", n_skipped=skipped)


def gre_anova_test(
    criterion: GreCriterion,
    data: Dataset,
    hypothesis: LinearHypothesis,
    n_resample: int = 500,
    rng: Optional[np.random.Generator] = None,
    opts: Optional[SolverOptions] = None,
) -> TestResult:
    """Criterion-difference test for a general relative-error loss.

    The null scale of the statistic is unknown in general, so the null
    distribution is calibrated by random weighting: each resample's
    constrained-vs-unconstrained difference, centered at the observed
    statistic and floored at 0, serves as a draw from the approximate
    null.  The p-value is the empirical upper-tail probability; the
    reported scale is the mean calibrated statistic divided by q.
    """
    _require_residual_dof(data)
    rng = rng if rng is not None else np.random.default_rng()
    opts = opts or SolverOptions()

    def criterion_difference(weights):
        free = solver.fit_gre(criterion, data, opts, weights)
        constrained = solver.fit_gre(criterion, data, opts, weights, hypothesis)
        return max(constrained.criterion_value - free.criterion_value, 0.0)

    observed = criterion_difference(None)
    stats, _ = _resample(criterion_difference, data, n_resample, rng, "calibration")
    null_draws = np.maximum(np.asarray(stats) - observed, 0.0)
    p_value = float((1 + np.sum(null_draws >= observed)) / (1 + null_draws.size))
    scale = float(np.mean(null_draws)) / hypothesis.q
    return TestResult(statistic=observed, df=hypothesis.q,
                      scale=scale, p_value=p_value)


@dataclass(frozen=True)
class Estimator:
    """A registry entry: the criterion an estimator minimizes and how its
    covariance is estimated ("sandwich", "ols" or "random_weighting")."""

    criterion: GreCriterion
    covariance: str

    def fit(self, data: Dataset, opts: Optional[SolverOptions] = None) -> FitResult:
        return solver.fit_gre(self.criterion, data, opts)

    def covariance_of(self, fit: FitResult, data: Dataset, resamples: int,
                      rng: np.random.Generator) -> CovarianceEstimate:
        """Covariance of ``fit``; only random weighting draws from ``rng``."""
        if self.covariance == "sandwich":
            return sandwich_covariance(fit, data)
        if self.covariance == "ols":
            return ols_log_covariance(fit, data)
        return random_weight_covariance(self.criterion, data, resamples, rng)


#: every estimator, by the names the CLI, the study configs and the
#: prediction pipeline use
ESTIMATORS = {
    "lpre": Estimator(criteria.PRODUCT, "sandwich"),
    "lare": Estimator(criteria.SUM, "random_weighting"),
    "ls": Estimator(criteria.CRITERIA["ls_log"], "ols"),
    "lad": Estimator(criteria.CRITERIA["lad_log"], "random_weighting"),
    "gre:max": Estimator(criteria.MAX, "random_weighting"),
    "gre:asym": Estimator(criteria.ASYMMETRIC, "random_weighting"),
}

#: the paper's four methods, in the order its tables list them
PAPER_ESTIMATORS = ("lpre", "lare", "ls", "lad")


def estimator(name: str) -> Estimator:
    """The registry entry for ``name``; ValueError if there is none."""
    try:
        return ESTIMATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown estimator {name!r}; expected one of {sorted(ESTIMATORS)}"
        ) from None
