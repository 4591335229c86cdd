"""One solver for every criterion in the criteria table.

Damped Newton with Armijo backtracking minimizes sum_i w_i rho(r_i) over
the log residuals r = log y - x'beta, for any row rho = kink * |r| +
sigma(r) of ``criteria``.  Without a kink this is plain Newton on a
smooth convex function.  With one, |r| is replaced by the convex
smoothing sqrt(r^2 + eps^2) - eps, and eps follows ``EPS_SCHEDULE``
from 1e-1 down to 1e-10, each stage starting where the last one ended
and taking at most ``SolverOptions.max_iterations`` Newton steps.

A fit is returned only with an optimality certificate no larger than
``SolverOptions.tol_gradient`` -- or, where the gradient's terms are so
large that rounding alone leaves more, no larger than 1000 rounding
units of their summed magnitudes.  It is reported as
``FitResult.gradient_norm``:

* without a kink, the norm of the gradient;
* with a kink, the KKT residual: the norm of the subgradient of the
  unsmoothed criterion, with the multipliers of the residuals at the
  kink (|r| <= 1e-4) chosen in [-1, 1] by least squares.

Anything else raises ``ConvergenceError`` with the best iterate attached.
Constrained fits run the same solver on the design x @ B, with B an
orthonormal basis of the hypothesis null space.  Every fit starts from
the (weighted) least-squares fit of log y on its design, or from
``SolverOptions.initial_beta``; if the criterion overflows there, from
the intercept alone at max log y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from . import criteria
from .criteria import GreCriterion
from .data import Dataset, check_beta
from .errors import ConvergenceError, NumericOverflowError, SingularDesignError

#: smoothing widths of |r| followed, in order, for a criterion with a kink
EPS_SCHEDULE = tuple(10.0 ** -k for k in range(1, 11))
ARMIJO_C = 1e-4
# Residuals this close to 0 are at the kink in the certificate.  Off it,
# the smoothed slope r / sqrt(r^2 + eps^2) of the last stage is within
# 5e-13 of sign(r), so the smoothing leaves nothing the certificate sees.
_AT_KINK = 1e6 * EPS_SCHEDULE[-1]


@dataclass(frozen=True)
class SolverOptions:
    """``tol_gradient`` bounds the certificate (see the module docstring),
    ``max_iterations`` the Newton steps of each smoothing stage, and
    ``initial_beta`` replaces the least-squares start."""

    tol_gradient: float = 1e-10
    max_iterations: int = 100
    initial_beta: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.tol_gradient <= 0:
            raise ValueError("tol_gradient must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """A fitted criterion; ``criterion`` is the name of its row in the table
    and ``gradient_norm`` its optimality certificate (the gradient norm,
    or the KKT residual for a criterion with a kink)."""

    beta: np.ndarray
    criterion_value: float
    gradient_norm: float
    iterations: int
    converged: bool
    criterion: str


@dataclass(frozen=True)
class LinearHypothesis:
    """Constraint set {b : H'b = 0} with H of shape p-by-q, full column rank."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.ndim == 1:
            h = h[:, None]
        if h.ndim != 2:
            raise ValueError("H must be a matrix")
        object.__setattr__(self, "h", h)
        p, q = h.shape
        if q > p:
            raise ValueError("more constraints than parameters")
        if np.linalg.matrix_rank(h) < q:
            raise ValueError("constraint vectors must be linearly independent")

    @property
    def q(self) -> int:
        return self.h.shape[1]

    @property
    def p(self) -> int:
        return self.h.shape[0]

    def null_basis(self) -> np.ndarray:
        """Orthonormal basis B (p-by-(p-q)) of {b : H'b = 0}."""
        return scipy.linalg.null_space(self.h.T)

    @classmethod
    def zero_coefs(cls, indices, p: int) -> "LinearHypothesis":
        """Hypothesis that the listed coefficients are jointly zero."""
        idx = sorted(set(int(i) for i in indices))
        if any(i < 0 or i >= p for i in idx):
            raise ValueError(f"coefficient indices must lie in [0, {p})")
        h = np.zeros((p, len(idx)))
        for j, i in enumerate(idx):
            h[i, j] = 1.0
        return cls(h)


@dataclass(frozen=True)
class DesignReport:
    rank: int
    p: int
    smallest_singular_value: float
    singular: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "singular", self.rank < self.p)


def check_design(data: Dataset) -> DesignReport:
    """Rank report for the design matrix (via SVD)."""
    sv = np.linalg.svd(data.x, compute_uv=False)
    tol = sv[0] * max(data.n, data.p) * np.finfo(float).eps
    rank = int(np.sum(sv > tol))
    return DesignReport(rank=rank, p=data.p, smallest_singular_value=float(sv[-1]))


def _require_full_rank(data: Dataset):
    report = check_design(data)
    if report.singular:
        raise SingularDesignError(
            f"design matrix has rank {report.rank} < p = {report.p}"
        )


class _Problem:
    """sum_i w_i rho(z_i - x_i'beta) and its smoothed versions."""

    def __init__(self, criterion: GreCriterion, x, z, w):
        self.kink = criterion.kink
        self.sigma = criterion.sigma
        self.x, self.z, self.w = x, z, w

    def value(self, beta, eps) -> float:
        """Smoothed criterion at beta; inf where it overflows."""
        return self._evaluate(beta, eps)[0]

    def gradient_norm(self, beta, eps) -> float:
        _, _, d1, _ = self._evaluate(beta, eps)
        norm = float(np.linalg.norm(self.x.T @ (self.w * d1)))
        return norm if np.isfinite(norm) else np.inf

    def _evaluate(self, beta, eps):
        r = self.z - self.x @ beta
        with np.errstate(over="ignore", invalid="ignore"):
            value, d1, d2 = self.sigma(r)
            if self.kink:
                q = np.sqrt(r * r + eps * eps)
                value = value + self.kink * (q - eps)
                d1 = d1 + self.kink * (r / q)
                d2 = d2 + self.kink * (eps * eps / q**3)
            total = float(np.sum(self.w * value))
        return (total if np.isfinite(total) else np.inf), r, d1, d2

    def parts(self, beta, eps):
        """(value, gradient, Hessian, certificate) of the stage at beta."""
        value, r, d1, d2 = self._evaluate(beta, eps)
        x, w = self.x, self.w
        with np.errstate(over="ignore", invalid="ignore"):
            grad = -(x.T @ (w * d1))
            hess = (x * (w * d2)[:, None]).T @ x
            if not self.kink:
                cert = float(np.linalg.norm(grad))
            else:
                # KKT residual of the unsmoothed criterion: the subgradient
                # with sign(r) off the kink and least-squares multipliers on it
                at_kink = np.abs(r) <= _AT_KINK
                slope = self.sigma(r)[1] + self.kink * np.sign(r) * ~at_kink
                sub = -(x.T @ (w * slope))
                if np.any(at_kink):
                    a = self.kink * (x[at_kink] * w[at_kink, None]).T
                    sub = sub - a @ _box_lstsq(a, sub)
                cert = float(np.linalg.norm(sub))
        return value, grad, hess, (cert if np.isfinite(cert) else np.inf)

    def rounding_floor(self, beta) -> float:
        """The certificate that rounding alone can leave at beta: 1000
        rounding units of the summed magnitudes of the gradient's terms."""
        r = self.z - self.x @ beta
        with np.errstate(over="ignore", invalid="ignore"):
            size = np.abs(self.x).T @ (self.w * (np.abs(self.sigma(r)[1]) + self.kink))
        return 1e3 * np.finfo(float).eps * float(np.linalg.norm(size))


def _box_lstsq(a, b) -> np.ndarray:
    """u in [-1, 1]^k with a u close to b: least squares, with any entry
    that leaves the box held at its bound while the rest are solved again."""
    u = np.zeros(a.shape[1])
    held = np.zeros(a.shape[1], dtype=bool)
    while True:
        u[~held] = np.linalg.lstsq(a[:, ~held], b - a[:, held] @ u[held], rcond=None)[0]
        over = np.abs(u) > 1.0
        if not over.any():
            return u
        u = np.clip(u, -1.0, 1.0)
        held |= over


def _minimize(problem: _Problem, beta, opts: SolverOptions):
    """Damped Newton through the smoothing stages.

    Returns (beta, value, iterations, certificate).  Each stage takes at most
    ``max_iterations`` steps.  A smoothing stage ends once its Newton
    decrement is below its own width eps; the last one also waits for the
    certificate.  Any stage ends when the line search fails.
    """
    iterations = 0
    stages = EPS_SCHEDULE if problem.kink else (0.0,)
    for eps in stages:
        value, grad, hess, cert = problem.parts(beta, eps)
        if value == np.inf:
            raise NumericOverflowError("criterion overflows at the starting point")
        for _ in range(opts.max_iterations):
            if not eps and cert <= opts.tol_gradient:
                break
            try:
                factor = scipy.linalg.cho_factor(hess, check_finite=False)
                step = scipy.linalg.cho_solve(factor, -grad, check_finite=False)
            except scipy.linalg.LinAlgError:
                # a small smoothing width can leave directions with almost
                # no curvature; step within the ones that have it
                step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
            slope = float(grad @ step)
            if -slope <= eps and (eps != stages[-1] or cert <= opts.tol_gradient):
                break
            iterations += 1
            # Below the rounding noise of the value the Armijo test is
            # meaningless, so backtrack on the gradient norm instead.
            noisy = abs(slope) <= 1e-10 * (1.0 + abs(value))
            merit = np.linalg.norm(grad) if noisy else None
            t = 1.0
            for _ in range(80):
                cand = beta + t * step
                if (problem.gradient_norm(cand, eps) < merit if noisy else
                        problem.value(cand, eps) <= value + ARMIJO_C * t * slope):
                    break
                t *= 0.5
            else:
                break
            beta = cand
            value, grad, hess, cert = problem.parts(beta, eps)
    return beta, value, iterations, cert


def _fit(
    criterion: GreCriterion,
    data: Dataset,
    opts: Optional[SolverOptions],
    weights: Optional[np.ndarray],
    hypothesis: Optional[LinearHypothesis],
) -> FitResult:
    opts = opts or SolverOptions()
    _require_full_rank(data)
    z = np.log(data.y)
    w = np.ones(data.n) if weights is None else np.asarray(weights, dtype=float)
    x, basis = data.x, None
    if hypothesis is not None:
        if hypothesis.p != data.p:
            raise ValueError("hypothesis dimension does not match the design")
        if hypothesis.q == data.p:
            value = float(np.sum(w * criterion.rho(z)))
            return FitResult(np.zeros(data.p), value, float("nan"), 0, True,
                             criterion.name)
        basis = hypothesis.null_basis()
        x = x @ basis
    problem = _Problem(criterion, x, z, w)

    sw = np.sqrt(w)
    start = np.linalg.lstsq(x * sw[:, None], z * sw, rcond=None)[0]
    if opts.initial_beta is not None:
        initial = check_beta(opts.initial_beta, data)
        initial = initial if basis is None else basis.T @ initial
        if np.isfinite(problem.value(initial, EPS_SCHEDULE[0])):
            start = initial

    try:
        coef, value, iterations, cert = _minimize(problem, start, opts)
    except NumericOverflowError:
        # The asymmetric row grows like exp(e^r) and overflows for r > 6.6;
        # start again on the intercept alone at max log y, where every
        # residual is <= 0.
        intercept = np.zeros(data.p)
        intercept[0] = z.max()
        start = intercept if basis is None else basis.T @ intercept
        coef, value, iterations, cert = _minimize(problem, start, opts)
    if criterion.kink:  # the unsmoothed criterion
        value = float(np.sum(w * criterion.rho(z - x @ coef)))
    beta = coef if basis is None else basis @ coef
    converged = cert <= opts.tol_gradient or cert <= problem.rounding_floor(coef)
    result = FitResult(beta, value, cert, iterations, converged, criterion.name)
    if not converged:
        raise ConvergenceError(
            f"{criterion.name} fit has no optimality certificate after {iterations} "
            f"iterations (residual {cert:.3g} > {opts.tol_gradient:g} and above "
            f"rounding)", result)
    return result


def fit_gre(
    criterion: GreCriterion,
    data: Dataset,
    opts: Optional[SolverOptions] = None,
    weights: Optional[np.ndarray] = None,
    hypothesis: Optional[LinearHypothesis] = None,
) -> FitResult:
    """Minimize any criterion of the table, optionally over {b : H'b = 0}.

    Every criterion is convex in beta, so the returned point is a global
    minimizer.
    """
    return _fit(criterion, data, opts, weights, hypothesis)


def fit_lpre(
    data: Dataset,
    opts: Optional[SolverOptions] = None,
    weights: Optional[np.ndarray] = None,
) -> FitResult:
    """Minimize the product relative-error criterion.

    The criterion is smooth and strictly convex for full-rank designs, so
    the returned point is the unique global minimizer regardless of the
    starting point.  Raises ConvergenceError (with the best iterate
    attached) if the gradient norm does not reach ``tol_gradient``.
    """
    return _fit(criteria.PRODUCT, data, opts, weights, None)


def fit_constrained_lpre(
    data: Dataset,
    hypothesis: LinearHypothesis,
    opts: Optional[SolverOptions] = None,
    weights: Optional[np.ndarray] = None,
) -> FitResult:
    """Minimize the product criterion over {b : H'b = 0}.

    With q = p the null space is {0} and beta = 0 is returned directly.
    """
    return _fit(criteria.PRODUCT, data, opts, weights, hypothesis)


def fit_lare(
    data: Dataset,
    opts: Optional[SolverOptions] = None,
    weights: Optional[np.ndarray] = None,
) -> FitResult:
    """Minimize the additive relative-error criterion."""
    return _fit(criteria.SUM, data, opts, weights, None)


def fit_ls_log(data: Dataset, weights: Optional[np.ndarray] = None) -> FitResult:
    """Least squares of log y on x (the solver's starting point is exact)."""
    return _fit(criteria.CRITERIA["ls_log"], data, None, weights, None)


def fit_lad_log(
    data: Dataset,
    opts: Optional[SolverOptions] = None,
    weights: Optional[np.ndarray] = None,
) -> FitResult:
    """Least absolute deviations of log y on x."""
    return _fit(criteria.CRITERIA["lad_log"], data, opts, weights, None)
