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
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import criteria, solver
from .criteria import GreCriterion
from .data import Dataset, check_beta
from .errors import NumericOverflowError, RelerrError, ResamplingError, SingularDesignError
from .solver import FitResult, LinearHypothesis

_log = logging.getLogger("relerr")


@dataclass(frozen=True)
class CovarianceEstimate:
    """Estimated covariance of beta-hat (already divided by n)."""

    cov: np.ndarray
    method: str  # the registry's kind: "sandwich", "ols" or "random_weighting"
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


def _require_residual_dof(data):
    """RelerrError unless data (a Dataset, or a study's SimulationConfig)
    has n > p."""
    if data.n <= data.p:
        raise RelerrError(
            f"inference needs more observations than coefficients "
            f"(n = {data.n}, p = {data.p}): no residual degrees of freedom")


#: the error of a plug-in covariance whose matrix to invert is singular
_SINGULAR = {"sandwich": "plug-in D matrix is singular", "ols": "X'X is singular"}


def _inverses(m: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a stack; NaN for a singular one."""
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:
        if len(m) == 1:
            return np.full_like(m, np.nan)
        return np.concatenate([_inverses(m[i:i + 1]) for i in range(len(m))])


def _sandwich_stack(x, z, beta):
    """Plug-in sandwich covariance of each fit of a stack: designs x
    (B, n, p), log responses z (B, n), estimates beta (B, p).  Returns the
    stacks (cov, d_hat, v_hat); cov is NaN where D is singular."""
    n = x.shape[1]
    _, score, curvature = criteria.PRODUCT.sigma(z - solver._matvec(x, beta))
    xt = np.swapaxes(x, 1, 2)
    d_hat = xt @ (x * curvature[:, :, None]) / n
    v_hat = xt @ (x * (score**2)[:, :, None]) / n
    d_inv = _inverses(d_hat)
    cov = d_inv @ v_hat @ d_inv / n
    return (cov + np.swapaxes(cov, 1, 2)) / 2.0, d_hat, v_hat


def _ols_stack(x, z, beta) -> np.ndarray:
    """Classical OLS covariance s^2 (X'X)^{-1} of each fit of a stack (as
    in ``_sandwich_stack``); NaN where X'X is singular."""
    n, p = x.shape[1:]
    r = z - solver._matvec(x, beta)
    s2 = np.sum(r * r, axis=1) / (n - p)
    return s2[:, None, None] * _inverses(np.swapaxes(x, 1, 2) @ x)


def sandwich_covariance(fit: FitResult, data: Dataset) -> CovarianceEstimate:
    """Plug-in sandwich covariance D^{-1} V D^{-1} / n at the fitted point.

    D is the average Hessian weight matrix and V the average squared-score
    matrix; both use the sample analogue evaluated at beta-hat.
    """
    _require_residual_dof(data)
    [cov], [d_hat], [v_hat] = _sandwich_stack(data.x[None], np.log(data.y)[None],
                                              check_beta(fit.beta, data)[None])
    if np.isnan(cov).any():
        raise SingularDesignError(_SINGULAR["sandwich"])
    return CovarianceEstimate(cov=cov, method="sandwich", d_hat=d_hat, v_hat=v_hat)


def ols_log_covariance(fit: FitResult, data: Dataset) -> CovarianceEstimate:
    """Classical OLS covariance of the log-scale LS fit: s^2 (X'X)^{-1}."""
    _require_residual_dof(data)
    [cov] = _ols_stack(data.x[None], np.log(data.y)[None], check_beta(fit.beta, data)[None])
    if np.isnan(cov).any():
        raise SingularDesignError(_SINGULAR["ols"])
    return CovarianceEstimate(cov=cov, method="ols")


_SQRT_HALF = math.sqrt(0.5)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def _normal_sf(z: float) -> float:
    """1 - Phi(z), as erfc(z / sqrt(2)) / 2."""
    return 0.5 * math.erfc(z * _SQRT_HALF)


def _chi2_sf(q: int, x: float) -> float:
    """P(chi2(q) > x) for an integer q >= 1, in closed form (Abramowitz &
    Stegun 26.4.4-5): with h = x/2, e^-h sum_{j < q/2} h^j / j! for even
    q, and erfc(sqrt h) + e^-h sum_{j = 1}^{(q-1)/2} h^(j-1/2) / Gamma(j + 1/2)
    for odd q.  1 for x <= 0, 0 for x = inf, NaN for NaN.

    The sum is taken first and e^-h applied as e^(-h/2) twice, so for
    q <= 200 no step overflows and a tail above 1e-300 keeps full
    precision where e^-h alone underflows (1490 < x < 2980).  Past that,
    x = inf included, the series part is 0.
    """
    if not x > 0.0:
        return math.nan if math.isnan(x) else 1.0
    h = 0.5 * x
    if q % 2:
        root = math.sqrt(h)
        head, term, k = math.erfc(root), _TWO_OVER_SQRT_PI * root, 0.5
    else:
        head, term, k = 0.0, 1.0, 0.0
    total = 0.0
    for _ in range(q // 2):  # term is h^k / Gamma(k + 1), k = 0 or 1/2 first
        total += term
        k += 1.0
        term *= h / k
    half = math.exp(-0.5 * h)
    return head + total * half * half if half > 0.0 else head


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
    p = np.array([_normal_sf(v) for v in z])
    return 2.0 * p if two_sided else p


def _khat(x, z, beta) -> np.ndarray:
    """Plug-in chi-squared scale sum((eps-hat - 1/eps-hat)^2) / (4 sum(eps-hat))
    of each fit of a stack (as in ``_sandwich_stack``); NaN where
    every residual ratio is 1.

    This is the scale K with M_n -> K * chi2(q) under the null.  At the
    product-efficient error density the criterion is the exact negative
    log-likelihood, so K must equal 1/2 there; this form does, and its
    reciprocal does not.
    """
    eps_hat = np.exp(z - solver._matvec(x, beta))
    num = np.sum((eps_hat - 1.0 / eps_hat) ** 2, axis=1)
    return np.where(num > 0, num, np.nan) / (4.0 * np.sum(eps_hat, axis=1))


def _criterion_gaps(criterion: GreCriterion, x, z, w, basis: np.ndarray):
    """The free fits of problems of one shape (designs x, log responses z
    and weights w as in ``solver._fit_batch``); per problem the criterion
    gap max(constrained - free minimum, 0) over the null space spanned by
    ``basis``; and the fit each gap stands or falls by: the free fit where
    that failed, else the constrained one."""
    free = solver._fit_batch(criterion, x, z, w)
    constrained = solver._fit_batch(criterion, x, z, w, basis)
    with np.errstate(invalid="ignore"):  # inf - inf where a fit overflowed
        gap = np.maximum(constrained.value - free.value, 0.0)
    return free, gap, constrained.where(free.failed, free)


def _lpre_anova_tests(x, z, hypothesis: LinearHypothesis):
    """``lpre_anova_test`` of each problem of a stack: designs x (B, n, p)
    of full rank and log responses z (B, n).  Returns the stacks
    (statistic, scale, p-value) of the tests, and the RelerrError of each
    problem whose test fails, by problem."""
    free, stat, fits = _criterion_gaps(criteria.PRODUCT, x, z, np.ones(z.shape),
                                       hypothesis.null_basis())
    errors = fits.errors()
    k_hat = np.full(len(z), np.nan)
    fitted = np.flatnonzero(~fits.failed) if errors else slice(None)
    k_hat[fitted] = _khat(x[fitted], z[fitted], free.beta[fitted])
    p_value = np.array([_chi2_sf(hypothesis.q, r) for r in (stat / k_hat).tolist()])
    for b in np.flatnonzero(np.isnan(k_hat) & ~fits.failed):
        errors[int(b)] = RelerrError("chi-squared scale undefined: all residual ratios are 1")
    return (stat, k_hat, p_value), errors


def lpre_anova_test(data: Dataset, hypothesis: LinearHypothesis) -> TestResult:
    """Criterion-difference test of H0: H'beta = 0 under the product loss.

    The statistic is the constrained minus unconstrained minimum of the
    criterion; under H0 it is asymptotically K * chi2(q) with K estimated
    by its plug-in formula at the unconstrained fit.
    """
    _require_residual_dof(data)
    solver._require_full_rank(data)
    solver._null_basis(hypothesis, data)  # checks p against the design
    ([stat], [scale], [p_value]), errors = _lpre_anova_tests(
        data.x[None], np.log(data.y)[None], hypothesis)
    solver._raise(errors)
    return TestResult(statistic=float(stat), df=hypothesis.q, scale=float(scale),
                      p_value=float(p_value))


def _criterion(kind) -> GreCriterion:
    """The criterion of a registry name, or a criterion."""
    return kind if isinstance(kind, GreCriterion) else estimator(kind).criterion


def _resample(statistic, n: int, n_resample: int, rng, what: str):
    """statistic(w) over n_resample draws of i.i.d. standard exponential
    weights, all passed at once.

    ``statistic`` maps weights (B, n) to a stack of values, one per row,
    and the fits (``solver._Fits``) they stand or fall by.  A resample
    whose fit has no certificate is retried once with fresh weights, drawn
    after the whole batch in resample order, then skipped; other errors
    are raised.  More than 10% skips raise ResamplingError, fewer than two
    resamples ValueError.  Returns (values of the kept resamples, skipped).
    """
    if n_resample < 2:
        raise ValueError("need at least two resamples")
    values, fits = statistic(rng.standard_exponential((n_resample, n)))
    status = fits.status
    retry = np.flatnonzero(status == solver.UNCERTIFIED)
    if retry.size:
        retried, refits = statistic(rng.standard_exponential((retry.size, n)))
        values[retry], status = retried, status.copy()
        status[retry] = refits.status
    if (status == solver.OVERFLOW).any():
        raise NumericOverflowError(solver.OVERFLOW_MESSAGE)
    kept = status == solver.CERTIFIED
    skipped = n_resample - int(kept.sum())
    if skipped > 0.1 * n_resample:
        raise ResamplingError(
            f"{skipped}/{n_resample} resample fits failed; {what} unreliable")
    return values[kept], skipped


def random_weight_covariance(
    estimator,
    data: Dataset,
    n_resample: int = 500,
    rng: Optional[np.random.Generator] = None,
) -> CovarianceEstimate:
    """Random-weighting covariance of an estimator.

    ``estimator`` is a registry name ("lpre", "lare", "ls", ...) or a
    criterion.  Re-minimizes the criterion n_resample times, passed to
    the solver at once, with i.i.d. standard exponential (unit mean, unit
    variance) per-observation weights and returns the empirical
    covariance of the re-estimates.  A failed resample fit is retried
    once with fresh weights, then skipped and counted in ``n_skipped``;
    more than 10% skips aborts.
    """
    criterion = _criterion(estimator)
    _require_residual_dof(data)
    solver._require_full_rank(data)  # positive weights keep the rank
    rng = rng if rng is not None else np.random.default_rng()
    z = np.log(data.y)

    def estimates(w):
        fits = solver._fit_batch(criterion, data.x, np.broadcast_to(z, w.shape), w)
        return fits.beta, fits

    betas, skipped = _resample(estimates, data.n, n_resample, rng, "covariance")
    cov = np.atleast_2d(np.cov(betas, rowvar=False))
    return CovarianceEstimate(cov=cov, method="random_weighting", n_skipped=skipped)


def gre_anova_test(
    criterion: GreCriterion,
    data: Dataset,
    hypothesis: LinearHypothesis,
    n_resample: int = 500,
    rng: Optional[np.random.Generator] = None,
) -> TestResult:
    """Criterion-difference test for a general relative-error loss.

    The null scale of the statistic is unknown in general, so its null
    distribution is calibrated by random weighting (Jin, Ying & Wei 2001,
    Biometrika).  Each resample refits, with its weights, the log
    responses recentred at the unconstrained estimate, z - x beta-hat,
    under the same hypothesis.  The recentred data have estimate 0,
    which satisfies H'beta = 0, so the resample's constrained-vs-
    unconstrained difference T* is a draw from the approximate null
    whether or not H0 holds.  The p-value is (1 + #{T* >= T}) / (1 + B)
    for the observed statistic T and B resamples; the reported scale is
    mean(T*) / q.
    """
    _require_residual_dof(data)
    solver._require_full_rank(data)  # positive weights keep the rank
    basis = solver._null_basis(hypothesis, data)
    rng = rng if rng is not None else np.random.default_rng()

    def gaps(z, w):
        return _criterion_gaps(criterion, data.x, np.broadcast_to(z, w.shape), w, basis)

    z = np.log(data.y)
    free, [observed], fits = gaps(z, np.ones((1, data.n)))
    solver._raise(fits.errors())
    observed = float(observed)
    centred = z - data.x @ free.beta[0]
    null_draws, _ = _resample(lambda w: gaps(centred, w)[1:], data.n, n_resample, rng,
                              "calibration")
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

    def _standard_errors(self, betas, x, y, z, resamples: int, rngs):
        """``covariance_of(...).standard_errors()`` of fits of one shape:
        estimates betas (B, p) on designs x (B, n, p) of full rank with
        responses y (B, n) and log responses z (B, n).  Returns the SEs
        (B, p), NaN where they fail, and the RelerrError of each fit whose
        SEs fail, by fit; the plug-in SEs of the whole stack are one square
        root of the stacked diagonals."""
        if self.covariance == "random_weighting":
            se, errors = np.full(betas.shape, np.nan), {}
            for b, (xb, yb, rng) in enumerate(zip(x, y, rngs)):
                try:
                    se[b] = random_weight_covariance(
                        self.criterion, Dataset(xb, yb), resamples, rng).standard_errors()
                except RelerrError as exc:
                    errors[b] = exc
            return se, errors
        cov = _sandwich_stack(x, z, betas)[0] if self.covariance == "sandwich" \
            else _ols_stack(x, z, betas)
        return np.sqrt(np.diagonal(cov, axis1=1, axis2=2)), {
            int(b): SingularDesignError(_SINGULAR[self.covariance])
            for b in np.flatnonzero(np.isnan(cov).any(axis=(1, 2)))}


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


def fit_report(name: str, data: Dataset, resamples: int, rng: np.random.Generator,
               two_sided: bool = False):
    """(fit, standard errors, Wald p-values) of registry estimator ``name``.

    Random weighting draws ``resamples`` resamples from ``rng``; skipped
    ones are logged as one warning on the ``relerr`` logger.
    """
    entry = estimator(name)
    fit = entry.fit(data)
    cov = entry.covariance_of(fit, data, resamples, rng)
    if cov.n_skipped:
        _log.warning("%s: %d random-weighting resample fit(s) skipped", name, cov.n_skipped)
    return fit, cov.standard_errors(), wald_p_values(fit, cov, two_sided)
