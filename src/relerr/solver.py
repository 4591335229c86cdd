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

The Newton loop works on a batch: B problems of one shape (n, p), each
with its own design (or one design shared by all), log y and weights.
It forms (B, p, p) Hessians by batched matmul and takes batched solves;
every problem keeps its own smoothing stage, line search, overflow
restart, certificate and iteration count, and is frozen once it is done,
so it ends where it would have ended alone.  The Monte Carlo studies and
random weighting fit their replications and resamples this way, in
batches of a fixed number of design elements; the public ``fit_*``
functions are the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from . import criteria
from .criteria import GreCriterion
from .data import Dataset
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


def _ranks(x: np.ndarray):
    """Numerical ranks and singular values of a stack of designs (B, n, p)."""
    sv = np.linalg.svd(x, compute_uv=False)
    tol = sv[:, :1] * max(x.shape[1:]) * np.finfo(float).eps
    return np.sum(sv > tol, axis=1), sv


def check_design(data: Dataset) -> DesignReport:
    """Rank report for the design matrix (via SVD)."""
    rank, sv = _ranks(data.x[None])
    return DesignReport(rank=int(rank[0]), p=data.p,
                        smallest_singular_value=float(sv[0, -1]))


def _rank_errors(x: np.ndarray) -> list:
    """For each design of a stack (B, n, p), from one stacked SVD: None if
    it has full column rank, else its SingularDesignError."""
    p = x.shape[2]
    return [None if rank == p else SingularDesignError(
        f"design matrix has rank {rank} < p = {p}") for rank in _ranks(x)[0]]


def _require_full_rank(data: Dataset):
    _one(_rank_errors(data.x[None]))


def _one(entries: list):
    """The single entry of a batch of one; raised if it is an error."""
    [entry] = entries
    if isinstance(entry, Exception):
        raise entry
    return entry


#: elements of the design (problems x n x p) fitted in one batch.  Larger
#: batches save little interpreter time and cost memory.  At 16,000 the
#: (B, n, p) arrays of a batch (125 KiB) stay below glibc's default mmap
#: threshold, 128 KiB, so malloc reuses its heap for them; at 40,000 a
#: Table 1 study op took 9,000-14,000 fresh pages from the kernel, 12-30 ms
#: of system time that varied from op to op.
_BATCH_ELEMENTS = 16_000


def _batch_size(n: int, p: int) -> int:
    """How many problems of shape (n, p) go into one batch."""
    return max(1, _BATCH_ELEMENTS // (n * p))


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """u with a u = b for each row of a stack; least squares for a row
    whose a is not positive definite."""
    try:
        np.linalg.cholesky(a)
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(a) > 1:
            return np.concatenate([_solve(a[i:i + 1], b[i:i + 1]) for i in range(len(a))])
        # a small smoothing width can leave directions with almost no
        # curvature; solve within the ones that have it
        return np.linalg.lstsq(a[0], b[0], rcond=None)[0][None]


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a_b @ v_b for each row b; ``a`` may be one matrix shared by all."""
    return (a @ v[:, :, None])[:, :, 0]


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v * v).sum(axis=1))


class _Batch:
    """B problems of one shape: sum_i w_bi rho(z_bi - x_bi'beta_b), and its
    smoothed versions.

    ``x`` is (B, n, p), or (n, p) for problems that share one design;
    ``z`` and ``w`` are (B, n).  Methods evaluate every problem, or those
    whose indices are ``rows``, at their beta (k, p) and smoothing width
    eps (k,).  Overflow gives inf or NaN; callers run under
    ``np.errstate(over="ignore", invalid="ignore")``.
    """

    def __init__(self, criterion: GreCriterion, x, z, w):
        self.criterion = criterion
        self.kink = criterion.kink
        self.sigma = criterion.sigma
        self.x, self.z, self.w = x, z, w

    def subset(self, rows) -> "_Batch":
        return _Batch(self.criterion, *self._data(rows))

    def _data(self, rows):
        if rows is None:
            return self.x, self.z, self.w
        return (self.x if self.x.ndim == 2 else self.x[rows]), self.z[rows], self.w[rows]

    def _residuals(self, rows, beta):
        x, z, w = self._data(rows)
        return x, z - _matvec(x, beta), w

    def value(self, beta, eps, rows=None) -> np.ndarray:
        """Smoothed criterion of each row."""
        _, r, w = self._residuals(rows, beta)
        value = self.sigma(r, derivatives=False)
        if self.kink:
            e = eps[:, None]
            value = value + self.kink * (np.sqrt(r * r + e * e) - e)
        return (w * value).sum(axis=1)

    def _derivatives(self, beta, eps, rows=None):
        x, r, w = self._residuals(rows, beta)
        xt = np.swapaxes(x, -1, -2)
        value, slope, d2 = self.sigma(r)
        d1 = slope
        if self.kink:
            e = eps[:, None]
            q = np.sqrt(r * r + e * e)
            value = value + self.kink * (q - e)
            d1 = d1 + self.kink * (r / q)
            d2 = d2 + self.kink * (e * e / q**3)
        grad = -_matvec(xt, w * d1)
        return (w * value).sum(axis=1), grad, (x, xt, r, w, slope, d2)

    def gradient_norm(self, beta, eps, rows=None) -> np.ndarray:
        return _norm(self._derivatives(beta, eps, rows)[1])

    def parts(self, beta, eps):
        """(value, gradient, Hessian, certificate) of every row's stage at
        its beta; inf or NaN where they overflow.  A kinked row's
        certificate is computed in the last stage only, the one that reads
        it, and is inf before."""
        value, grad, (x, xt, r, w, slope, d2) = self._derivatives(beta, eps)
        hess = xt @ (x * (w * d2)[:, :, None])
        if not self.kink:
            return value, grad, hess, _norm(grad)
        cert = np.full(len(beta), np.inf)
        last = np.flatnonzero(eps == EPS_SCHEDULE[-1])
        if last.size:
            cert[last] = self._kkt_residual(x, last, r[last], w[last], slope[last])
        return value, grad, hess, cert

    def _kkt_residual(self, x, rows, r, w, slope):
        """KKT residual of the unsmoothed criterion at the given rows of
        ``x``: the subgradient with sign(r) off the kink and least-squares
        multipliers on it."""
        x = x if x.ndim == 2 else x[rows]
        at_kink = np.abs(r) <= _AT_KINK
        sub = -_matvec(np.swapaxes(x, -1, -2), w * (slope + self.kink * np.sign(r) * ~at_kink))
        for b in np.flatnonzero(at_kink.any(axis=1)):
            k = at_kink[b]
            a = self.kink * ((x if x.ndim == 2 else x[b])[k] * w[b, k, None]).T
            sub[b] -= a @ _box_lstsq(a, sub[b])
        return _norm(sub)

    def rounding_floor(self, beta, rows) -> np.ndarray:
        """The certificate that rounding alone can leave at beta: 1000
        rounding units of the summed magnitudes of the gradient's terms."""
        x, r, w = self._residuals(rows, beta)
        size = _matvec(np.abs(np.swapaxes(x, -1, -2)),
                       w * (np.abs(self.sigma(r)[1]) + self.kink))
        return 1e3 * np.finfo(float).eps * _norm(size)


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


def _line_search(batch: _Batch, search, beta, value, grad, step, slope, eps):
    """Armijo backtracking along each row's step, t = 1, 1/2, ... (80
    tries), for the rows of ``batch`` where ``search`` is set.  Returns
    every row's beta, moved to the accepted points, and which rows found
    none."""
    # Below the rounding noise of the value the Armijo test is
    # meaningless, so such a row backtracks on the gradient norm instead.
    noisy = np.abs(slope) <= 1e-10 * (1.0 + np.abs(value))
    merit = _norm(grad)
    beta, left = beta.copy(), search.copy()
    t = 1.0
    for _ in range(80):
        if not left.any():
            break
        rows = None if left.all() else np.flatnonzero(left)  # None: every row
        at = slice(None) if rows is None else rows
        cand = beta[at] + t * step[at]
        by_norm = noisy[at]
        if by_norm.any():
            ok = batch.gradient_norm(cand, eps[at], rows) < merit[at]
        if not by_norm.all():
            armijo = batch.value(cand, eps[at], rows) <= value[at] + ARMIJO_C * t * slope[at]
            ok = np.where(by_norm, ok, armijo) if by_norm.any() else armijo
        accepted = np.flatnonzero(left)[ok] if rows is None else rows[ok]
        beta[accepted] = cand[ok]
        left[accepted] = False
        t *= 0.5
    return beta, left


def _minimize(batch: _Batch, beta: np.ndarray, opts: SolverOptions):
    """Damped Newton through the smoothing stages, for every row at once.

    Each row keeps its own stage, step count and line search, and is
    frozen once its last stage ends.  A stage takes at most
    ``max_iterations`` steps.  A smoothing stage ends once its Newton
    decrement is below its own width eps; the last one also waits for the
    certificate.  Any stage ends when the line search fails.

    Returns (beta, value, iterations, certificate, overflow) per row, where
    ``overflow`` marks the rows whose criterion overflowed at the start of
    a stage; they are left there.
    """
    stages = np.array(EPS_SCHEDULE if batch.kink else (0.0,))
    last = len(stages) - 1
    count, p = beta.shape
    out = (beta.copy(), np.empty(count), np.zeros(count, dtype=int), np.empty(count),
           np.zeros(count, dtype=bool))
    index = np.arange(count)  # the running rows, as rows of the input
    beta = beta.copy()
    stage = np.zeros(count, dtype=int)
    taken = np.zeros(count, dtype=int)  # steps in the current stage
    iterations = np.zeros(count, dtype=int)
    while True:
        # every running row is at a new point or in a new stage
        eps = stages[stage]
        value, grad, hess, cert = batch.parts(beta, eps)
        overflow = ~(value < np.inf)
        if overflow.any():  # such a row ends here; keep its step finite
            hess[overflow], grad[overflow] = np.eye(p), 0.0
        certified = cert <= opts.tol_gradient
        ended = overflow | (taken >= opts.max_iterations)
        step = _solve(hess, -grad)
        slope = (grad * step).sum(axis=1)
        if batch.kink:
            ended |= (-slope <= eps) & ((stage != last) | certified)
        else:  # one stage, which ends once certified
            ended |= certified
        go = ~ended
        iterations += go
        taken += go
        if go.any():
            beta, failed = _line_search(batch, go, beta, value, grad, step, slope, eps)
            ended |= failed
        done = ended & ((stage == last) | overflow)
        stage += ended
        taken[ended] = 0
        if done.any():
            for kept, now in zip(out, (beta, value, iterations, cert, overflow)):
                kept[index[done]] = now[done]
            running = np.flatnonzero(~done)
            if not running.size:
                return out
            index, beta, stage, taken, iterations = (
                index[running], beta[running], stage[running], taken[running],
                iterations[running])
            batch = batch.subset(running)


def _fit_batch(
    criterion: GreCriterion,
    x: np.ndarray,
    z: np.ndarray,
    w: np.ndarray,
    opts: Optional[SolverOptions] = None,
    basis: Optional[np.ndarray] = None,
) -> list:
    """Fit B problems of one shape (n, p), in batches of ``_batch_size``.

    ``x`` is (B, n, p), or (n, p) for problems that share one design;
    ``z = log y`` and ``w`` are (B, n).  With ``basis``, an orthonormal
    basis of a hypothesis null space, the fits run on x @ basis.  The
    caller checks the rank.  Returns per problem its FitResult, or the
    ConvergenceError or NumericOverflowError its fit raises.
    """
    opts = opts or SolverOptions()
    count, n = z.shape
    p = x.shape[-1]
    if not count:
        return []
    size = _batch_size(n, p)
    if count > size:
        return [fit for s in range(0, count, size) for fit in _fit_batch(
            criterion, x if x.ndim == 2 else x[s:s + size], z[s:s + size],
            w[s:s + size], opts, basis)]
    if basis is not None:
        if basis.shape[1] == 0:  # H'b = 0 leaves b = 0 alone
            value = np.sum(w * criterion.rho(z), axis=1)
            return [FitResult(np.zeros(p), float(v), float("nan"), 0, True, criterion.name)
                    for v in value]
        x = x @ basis
    batch = _Batch(criterion, x, z, w)
    xtw = np.swapaxes(x, -1, -2) * w[:, None, :]
    start = _solve(xtw @ x, _matvec(xtw, z))  # weighted least squares
    with np.errstate(over="ignore", invalid="ignore"):
        if opts.initial_beta is not None:
            initial = np.asarray(opts.initial_beta, dtype=float).ravel()
            if initial.shape[0] != p:
                raise ValueError(f"beta has length {initial.shape[0]}, expected {p}")
            initial = np.tile(initial if basis is None else basis.T @ initial, (count, 1))
            usable = np.isfinite(batch.value(initial, np.full(count, EPS_SCHEDULE[0])))
            start[usable] = initial[usable]
        coef, value, iterations, cert, overflow = _minimize(batch, start, opts)
        if overflow.any():
            # The asymmetric row grows like exp(e^r) and overflows for
            # r > 6.6; start again on the intercept alone at max log y,
            # where every residual is <= 0.
            again = np.flatnonzero(overflow)
            intercept = np.zeros((again.size, p))
            intercept[:, 0] = z[again].max(axis=1)
            (coef[again], value[again], iterations[again], cert[again],
             overflow[again]) = _minimize(batch.subset(again), intercept if basis is None
                                          else intercept @ basis, opts)
        if criterion.kink:  # the unsmoothed criterion
            value = np.sum(w * criterion.rho(z - _matvec(x, coef)), axis=1)
        cert[~np.isfinite(cert)] = np.inf
        converged = cert <= opts.tol_gradient
        loose = np.flatnonzero(~converged)
        if loose.size:
            converged[loose] = cert[loose] <= batch.rounding_floor(coef[loose], loose)
    beta = coef if basis is None else coef @ basis.T
    fits = []
    for b in range(count):
        if overflow[b]:
            fits.append(NumericOverflowError("criterion overflows at the starting point"))
            continue
        fit = FitResult(beta[b], float(value[b]), float(cert[b]), int(iterations[b]),
                        bool(converged[b]), criterion.name)
        fits.append(fit if fit.converged else ConvergenceError(
            f"{criterion.name} fit has no optimality certificate after {fit.iterations} "
            f"iterations (residual {fit.gradient_norm:.3g} > {opts.tol_gradient:g} and "
            f"above rounding)", fit))
    return fits


def _fit(
    criterion: GreCriterion,
    data: Dataset,
    opts: Optional[SolverOptions],
    weights: Optional[np.ndarray],
    hypothesis: Optional[LinearHypothesis],
) -> FitResult:
    """One fit: the batch of one."""
    _require_full_rank(data)
    w = np.ones(data.n) if weights is None else np.asarray(weights, dtype=float)
    basis = None
    if hypothesis is not None:
        if hypothesis.p != data.p:
            raise ValueError("hypothesis dimension does not match the design")
        basis = hypothesis.null_basis()
    return _one(_fit_batch(criterion, data.x, np.log(data.y)[None], w[None], opts, basis))


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
