"""Inference for relative-error fits, and the estimator registry.

Plug-in sandwich covariance for the smooth product criterion, Wald-style
p-values, the criterion-difference test with its chi-squared scale, and
random-weighting resampling for estimators whose asymptotic variance
would otherwise require density estimation.  The sandwich and OLS
covariances and the criterion-difference test are written for a stack
of fits, which the Monte Carlo studies pass whole and the public
functions as a stack of one; random weighting fits its resamples as one
batch of the solver.

``ESTIMATORS`` is the one registry of estimators: each entry names a row
of the criteria table and how its covariance is estimated (sandwich for
LPRE, OLS for log-scale LS, random weighting otherwise).  The CLI, the
Monte Carlo studies and the prediction pipeline all look estimators up
there.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import chdtrc, ndtr

from . import criteria, solver
from .criteria import GreCriterion
from .data import Dataset, check_beta
from .errors import ConvergenceError, RelerrError, ResamplingError, SingularDesignError
from .solver import FitResult, LinearHypothesis, SolverOptions

_log = logging.getLogger("relerr")


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


def _inverses(m: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a stack; NaN for a singular one."""
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:
        if len(m) == 1:
            return np.full_like(m, np.nan)
        return np.concatenate([_inverses(m[i:i + 1]) for i in range(len(m))])


def _sandwich_covariances(x, z, beta) -> list:
    """Plug-in sandwich covariance of each fit of a stack: designs x
    (B, n, p), log responses z (B, n), estimates beta (B, p).  Per fit its
    CovarianceEstimate, or SingularDesignError."""
    n = x.shape[1]
    _, score, curvature = criteria.PRODUCT.sigma(z - solver._matvec(x, beta))
    xt = np.swapaxes(x, 1, 2)
    d_hat = xt @ (x * curvature[:, :, None]) / n
    v_hat = xt @ (x * (score**2)[:, :, None]) / n
    d_inv = _inverses(d_hat)
    cov = d_inv @ v_hat @ d_inv / n
    cov = (cov + np.swapaxes(cov, 1, 2)) / 2.0
    return [SingularDesignError("plug-in D matrix is singular") if np.isnan(c).any()
            else CovarianceEstimate(cov=c, method="plugin_sandwich", d_hat=d, v_hat=v)
            for c, d, v in zip(cov, d_hat, v_hat)]


def _ols_covariances(x, z, beta) -> list:
    """Classical OLS covariance s^2 (X'X)^{-1} of each fit of a stack (as
    in ``_sandwich_covariances``)."""
    n, p = x.shape[1:]
    r = z - solver._matvec(x, beta)
    s2 = np.sum(r * r, axis=1) / (n - p)
    xtx_inv = _inverses(np.swapaxes(x, 1, 2) @ x)
    return [SingularDesignError("X'X is singular") if np.isnan(c).any()
            else CovarianceEstimate(cov=c, method="plugin_sandwich")
            for c in s2[:, None, None] * xtx_inv]


def sandwich_covariance(fit: FitResult, data: Dataset) -> CovarianceEstimate:
    """Plug-in sandwich covariance D^{-1} V D^{-1} / n at the fitted point.

    D is the average Hessian weight matrix and V the average squared-score
    matrix; both use the sample analogue evaluated at beta-hat.
    """
    _require_residual_dof(data)
    return solver._one(_sandwich_covariances(data.x[None], np.log(data.y)[None],
                                             check_beta(fit.beta, data)[None]))


def ols_log_covariance(fit: FitResult, data: Dataset) -> CovarianceEstimate:
    """Classical OLS covariance of the log-scale LS fit: s^2 (X'X)^{-1}."""
    _require_residual_dof(data)
    return solver._one(_ols_covariances(data.x[None], np.log(data.y)[None],
                                        check_beta(fit.beta, data)[None]))


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
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(beta) / se
    z[(se == 0) & (beta != 0)] = np.inf
    z[(se == 0) & (beta == 0)] = 0.0
    p = ndtr(-z)
    return 2.0 * p if two_sided else p


def _khat(x, z, beta) -> np.ndarray:
    """Plug-in chi-squared scale sum((eps-hat - 1/eps-hat)^2) / (4 sum(eps-hat))
    of each fit of a stack (as in ``_sandwich_covariances``); NaN where
    every residual ratio is 1.

    This is the scale K with M_n -> K * chi2(q) under the null.  At the
    product-efficient error density the criterion is the exact negative
    log-likelihood, so K must equal 1/2 there; this form does, and its
    reciprocal does not.
    """
    eps_hat = np.exp(z - solver._matvec(x, beta))
    num = np.sum((eps_hat - 1.0 / eps_hat) ** 2, axis=1)
    return np.where(num > 0, num, np.nan) / (4.0 * np.sum(eps_hat, axis=1))


def _lpre_anova_tests(x, z, hypothesis: LinearHypothesis, basis: np.ndarray,
                      opts: Optional[SolverOptions] = None) -> list:
    """``lpre_anova_test`` of each problem of a stack: designs x (B, n, p)
    of full rank, log responses z (B, n), and ``basis`` the null basis of
    ``hypothesis``.  Per problem its TestResult, or the RelerrError it
    raises."""
    w = np.ones(z.shape)
    free = solver._fit_batch(criteria.PRODUCT, x, z, w, opts)
    constrained = solver._fit_batch(criteria.PRODUCT, x, z, w, opts, basis)
    fitted = [i for i, (f, c) in enumerate(zip(free, constrained))
              if not isinstance(f, Exception) and not isinstance(c, Exception)]
    stat = np.array([max(constrained[i].criterion_value - free[i].criterion_value, 0.0)
                     for i in fitted])
    k_hat = _khat(x[fitted], z[fitted], np.array([free[i].beta for i in fitted]).reshape(
        len(fitted), x.shape[2]))
    p_value = chdtrc(hypothesis.q, stat / k_hat)
    tests = [f if isinstance(f, Exception) else c for f, c in zip(free, constrained)]
    for i, s, k, pv in zip(fitted, stat, k_hat, p_value):
        tests[i] = (RelerrError("chi-squared scale undefined: all residual ratios are 1")
                    if np.isnan(k) else TestResult(statistic=float(s), df=hypothesis.q,
                                                   scale=float(k), p_value=float(pv)))
    return tests


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
    solver._require_full_rank(data)
    return solver._one(_lpre_anova_tests(data.x[None], np.log(data.y)[None], hypothesis,
                                         solver._null_basis(hypothesis, data), opts))


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


def _resample(statistic, n: int, n_resample: int, rng, what: str):
    """statistic(w) over n_resample draws of i.i.d. standard exponential
    weights, as one batch.

    ``statistic`` maps weights (B, n) to one entry per row: a value, or
    the RelerrError its fit raised.  A resample whose fit has no
    certificate is retried once with fresh weights, drawn after the whole
    batch in resample order, then skipped; other errors are raised.  More
    than 10% skips raise ResamplingError.  Returns (values, skipped).
    """
    values = statistic(rng.standard_exponential((n_resample, n)))
    failed = [i for i, value in enumerate(values) if isinstance(value, ConvergenceError)]
    if failed:
        retried = statistic(rng.standard_exponential((len(failed), n)))
        for i, value in zip(failed, retried):
            values[i] = value
    for value in values:
        if isinstance(value, RelerrError) and not isinstance(value, ConvergenceError):
            raise value
    kept = [value for value in values if not isinstance(value, ConvergenceError)]
    skipped = n_resample - len(kept)
    if skipped > 0.1 * n_resample:
        raise ResamplingError(
            f"{skipped}/{n_resample} resample fits failed; {what} unreliable")
    return kept, skipped


def _warn_skipped(method: str, cov: CovarianceEstimate):
    """One warning on the ``relerr`` logger if ``cov`` skipped resamples."""
    if cov.n_skipped:
        _log.warning("%s: %d random-weighting resample fit(s) skipped", method, cov.n_skipped)


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
    criterion n_resample times, as one batch, with i.i.d. standard
    exponential (unit mean, unit variance) per-observation weights and
    returns the empirical covariance of the re-estimates.  A failed
    resample fit is retried once with fresh weights, then skipped and
    counted in ``n_skipped``; more than 10% skips aborts.
    """
    criterion = _criterion(estimator)
    _require_residual_dof(data)
    solver._require_full_rank(data)  # positive weights keep the rank
    if n_resample < 2:
        raise ValueError("need at least two resamples")
    rng = rng if rng is not None else np.random.default_rng()
    z = np.log(data.y)

    def estimates(w):
        fits = solver._fit_batch(criterion, data.x, np.broadcast_to(z, w.shape), w, opts)
        return [fit if isinstance(fit, Exception) else fit.beta for fit in fits]

    betas, skipped = _resample(estimates, data.n, n_resample, rng, "covariance")
    cov = np.atleast_2d(np.cov(np.array(betas), rowvar=False))
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
    solver._require_full_rank(data)  # positive weights keep the rank
    basis = solver._null_basis(hypothesis, data)
    rng = rng if rng is not None else np.random.default_rng()
    z = np.log(data.y)

    def criterion_differences(w):
        z_rows = np.broadcast_to(z, w.shape)
        free = solver._fit_batch(criterion, data.x, z_rows, w, opts)
        constrained = solver._fit_batch(criterion, data.x, z_rows, w, opts, basis)
        return [f if isinstance(f, Exception) else c if isinstance(c, Exception)
                else max(c.criterion_value - f.criterion_value, 0.0)
                for f, c in zip(free, constrained)]

    observed = solver._one(criterion_differences(np.ones((1, data.n))))
    stats, _ = _resample(criterion_differences, data.n, n_resample, rng, "calibration")
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

    def fit(self, data: Dataset) -> FitResult:
        return solver.fit_gre(self.criterion, data)

    def covariance_of(self, fit: FitResult, data: Dataset, resamples: int,
                      rng: np.random.Generator) -> CovarianceEstimate:
        """Covariance of ``fit``; only random weighting draws from ``rng``."""
        if self.covariance == "sandwich":
            return sandwich_covariance(fit, data)
        if self.covariance == "ols":
            return ols_log_covariance(fit, data)
        return random_weight_covariance(self.criterion, data, resamples, rng)

    def _covariances(self, betas, datasets, x, z, resamples: int, rngs) -> list:
        """``covariance_of`` of fits of one shape: estimates betas (B, p) on
        ``datasets`` of full rank, whose designs and log responses are
        stacked in x (B, n, p) and z (B, n).  Per fit its
        CovarianceEstimate, or the RelerrError it raises."""
        _require_residual_dof(datasets[0])
        if self.covariance == "sandwich":
            return _sandwich_covariances(x, z, betas)
        if self.covariance == "ols":
            return _ols_covariances(x, z, betas)
        out = []
        for data, rng in zip(datasets, rngs):
            try:
                out.append(random_weight_covariance(self.criterion, data, resamples, rng))
            except RelerrError as exc:
                out.append(exc)
        return out


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
