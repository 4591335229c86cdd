"""One solver for every criterion in the criteria table.

Damped Newton with Armijo backtracking minimizes sum_i w_i rho(r_i) over
the log residuals r = log y - x'beta, for any row rho = kink * |r| +
sigma(r) of ``criteria``.  Without a kink this is plain Newton on a
smooth convex function.  With one, |r| is replaced by the convex
smoothing sqrt(r^2 + eps^2) - eps, and eps follows ``EPS_SCHEDULE``
from 1e-1 down to 1e-10, each stage starting where the last one ended
and taking at most ``SolverOptions.max_iterations`` Newton steps -- but
only until the residuals at the kink are known, as in the finite
smoothing algorithm of Madsen & Nielsen (1993, SIAM J. Optim.).  After a
stage, the residuals near the kink form a set S; if |S| <= p, an
active-set finish (``_Batch.finish``) solves the unsmoothed problem
exactly on the face {beta : r_S(beta) = 0}.  A finish that certifies
ends the fit; otherwise the next stage goes on from the smoothed point,
and after the last stage the finish is tried whatever |S| is.

A fit is returned only with an optimality certificate no larger than
``SolverOptions.tol_gradient`` -- or, where the gradient's terms are so
large that rounding alone leaves more, no larger than 1000 rounding
units of their summed magnitudes.  It is reported as
``FitResult.gradient_norm``:

* without a kink, the norm of the gradient;
* with a kink, the exact KKT residual of the finish: the norm of the
  subgradient of the unsmoothed criterion, with every residual off S at
  its sign and the multipliers of S, which are 0 to rounding, chosen in
  [-1, 1] by least squares.

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

from . import criteria
from .criteria import GreCriterion
from .data import Dataset
from .errors import ConvergenceError, NumericOverflowError, SingularDesignError

#: smoothing widths of |r| followed, in order, for a criterion with a kink
EPS_SCHEDULE = tuple(10.0 ** -k for k in range(1, 11))
ARMIJO_C = 1e-4
# When a smoothing stage of width eps ends, the residuals within
# _FACE_WIDTH * eps of 0 are taken to be at the kink.  At the smoothed
# optimum a residual whose multiplier is u sits at eps |u| / sqrt(1 - u^2),
# so a width of 1 would miss those with u near -1 or 1.
_FACE_WIDTH = 10.0


@dataclass(frozen=True)
class SolverOptions:
    """``tol_gradient`` bounds the certificate (see the module docstring),
    ``max_iterations`` the Newton steps of each smoothing stage and of
    each face of the finish, and ``initial_beta`` replaces the
    least-squares start."""

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
        """Orthonormal basis B (p-by-(p-q)) of {b : H'b = 0}.

        The right singular vectors of H' beyond its numerical rank, with
        the rank cut of scipy's ``null_space`` (max(p, q) = p here).
        """
        _, sv, vt = np.linalg.svd(self.h.T)
        rank = np.sum(sv > sv.max(initial=0.0) * self.p * np.finfo(float).eps)
        return vt[rank:].T

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


def _null_basis(hypothesis: LinearHypothesis, data: Dataset) -> np.ndarray:
    """The null basis of ``hypothesis``, once its p is checked against the design."""
    if hypothesis.p != data.p:
        raise ValueError("hypothesis dimension does not match the design")
    return hypothesis.null_basis()


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
        # curvature spread over more decades than double precision holds,
        # as where one residual's sinh or exp dwarfs the rest; solve within
        # the directions that have it
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
        """(value, gradient, Hessian) of every row's stage at its beta; inf
        or NaN where they overflow."""
        value, grad, (x, xt, r, w, slope, d2) = self._derivatives(beta, eps)
        return value, grad, xt @ (x * (w * d2)[:, :, None])

    def finish(self, row, beta, eps, opts, last):
        """The unsmoothed fit of problem ``row`` by an active set, from the
        end of its smoothing stage of width eps at beta: (beta, certificate,
        Newton steps), or None where it is not tried.

        S, the residuals within ``_FACE_WIDTH`` widths of the kink, is
        taken to be at the kink if |S| <= p (any S in the last stage).
        beta is projected onto the face {r_S = 0} by least squares, and
        Newton steps within the face minimize the criterion there, each
        residual off S on its side of the kink; one that a step takes to
        the kink joins S.  The multipliers of S come by least squares;
        while one leaves [-1, 1], its residual leaves S for the side the
        multiplier points to, and the face is solved again.  The
        certificate is the exact KKT residual at the returned beta.
        """
        x = self.x if self.x.ndim == 2 else self.x[row]
        z, w = self.z[row], self.w[row]
        r = z - x @ beta
        at = np.abs(r) <= _FACE_WIDTH * eps
        if at.sum() > x.shape[1] and not last:
            return None
        side = np.sign(r)
        steps = 0
        for _ in range(opts.max_iterations):
            xs = x[at]
            # the least-squares projection onto the face, and a basis of it
            left, sv, vt = np.linalg.svd(xs, full_matrices=len(xs) < len(beta))
            rank = np.sum(sv > sv[:1] * max(xs.shape) * np.finfo(float).eps)
            beta = beta + vt[:rank].T @ (left[:, :rank].T @ (z[at] - xs @ beta) / sv[:rank])
            beta, taken, hit = self._face_newton(x, z, w, beta, at, side, vt[rank:].T, opts)
            steps += taken
            if hit is not None:
                at[hit] = True
                continue
            sub, on = self._subgradient(x, z, w, beta, at, side)
            a = self.kink * (x[on] * w[on, None]).T
            u = np.linalg.lstsq(a, sub, rcond=None)[0]
            if np.all(np.abs(u) <= 1.0):
                return beta, float(np.linalg.norm(sub - a @ u)), steps
            worst = np.argmax(np.abs(u))
            leaving = np.flatnonzero(on)[worst]
            at[leaving], side[leaving] = False, np.sign(u[worst])
        return beta, np.inf, steps

    def _subgradient(self, x, z, w, beta, at, side):
        """The subgradient at beta without the terms of the residuals at
        the kink, and which those are: the residuals of S that are 0 to
        rounding.  A residual off S that is 0 to rounding is on its
        ``side``."""
        r = z - x @ beta
        zero = np.abs(r) <= 1e3 * np.finfo(float).eps * (np.abs(z) + np.abs(x) @ np.abs(beta))
        on = at & zero
        sign = np.where(zero, side, np.sign(r))
        sign[on] = 0.0
        return -(x.T @ (w * (self.sigma(r)[1] + self.kink * sign))), on

    def _face_newton(self, x, z, w, beta, at, side, basis, opts):
        """Damped Newton on beta + basis @ g for the unsmoothed criterion,
        each residual off S on its side of the kink: (beta, steps, hit),
        with ``hit`` the residual the last step took to the kink, or None.
        Where the face is flat, as for LAD, a step goes down the gradient
        to the nearest kink."""
        def face(beta):
            sub, _ = self._subgradient(x, z, w, beta, at, side)
            return np.sum(w * self.criterion.rho(z - x @ beta)), basis.T @ sub

        if not basis.shape[1]:
            return beta, 0, None
        xb = x @ basis
        value, grad = face(beta)
        for steps in range(opts.max_iterations):
            if np.linalg.norm(grad) <= 1e-2 * opts.tol_gradient:
                return beta, steps, None
            r = z - x @ beta
            move = _solve((xb.T @ (xb * (w * self.sigma(r)[2])[:, None]))[None], -grad[None])[0]
            flat = not move.any()
            if flat:
                move = -grad
            step = basis @ move
            rate = xb @ move  # r falls by t * rate
            ahead = ~at & (side * rate > 0)
            reach = np.where(ahead, r / np.where(ahead, rate, 1.0), np.inf)
            hit = int(np.argmin(reach))
            if reach[hit] <= 0.0:  # at the kink already
                return beta, steps, hit
            if flat:  # linear up to the nearest kink
                if reach[hit] == np.inf:
                    return beta, steps, None
                return beta + reach[hit] * step, steps + 1, hit
            slope = grad @ move
            # Below the rounding noise of the value, as in _line_search, the
            # full step must shrink the gradient instead.
            noisy = abs(slope) <= 1e-10 * (1.0 + abs(value))
            t = min(1.0, reach[hit])
            for _ in range(1 if noisy else 40):
                new_value, new_grad = face(beta + t * step)
                if (np.linalg.norm(new_grad) < np.linalg.norm(grad) if noisy
                        else new_value <= value + ARMIJO_C * t * slope):
                    break
                t *= 0.5
            else:
                return beta, steps, None
            if t == reach[hit]:
                return beta + t * step, steps + 1, hit
            beta, value, grad = beta + t * step, new_value, new_grad
        return beta, opts.max_iterations, None

    def rounding_floor(self, beta, rows) -> np.ndarray:
        """The certificate that rounding alone can leave at beta: 1000
        rounding units of the summed magnitudes of the gradient's terms."""
        x, r, w = self._residuals(rows, beta)
        size = _matvec(np.abs(np.swapaxes(x, -1, -2)),
                       w * (np.abs(self.sigma(r)[1]) + self.kink))
        return 1e3 * np.finfo(float).eps * _norm(size)


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
    frozen once it is done.  A stage takes at most ``max_iterations``
    steps.  A smoothing stage ends once its Newton decrement is below its
    own width eps, or when the line search fails; then the row tries
    ``_Batch.finish``, and is done if that certifies it.  Otherwise it goes
    on to the next stage from where the stage ended, and after the last
    one keeps what the finish gave.

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
        value, grad, hess = batch.parts(beta, eps)
        cert = np.full(len(beta), np.inf) if batch.kink else _norm(grad)
        overflow = ~(value < np.inf)
        if overflow.any():  # such a row ends here; keep its step finite
            hess[overflow], grad[overflow] = np.eye(p), 0.0
        ended = overflow | (taken >= opts.max_iterations)
        step = _solve(hess, -grad)
        slope = (grad * step).sum(axis=1)
        if batch.kink:
            ended |= -slope <= eps
        else:  # one stage, which ends once certified
            ended |= cert <= opts.tol_gradient
        go = ~ended
        iterations += go
        taken += go
        if go.any():
            beta, failed = _line_search(batch, go, beta, value, grad, step, slope, eps)
            ended |= failed
        done = ended & ((stage == last) | overflow)
        if batch.kink:  # a row whose stage ended tries the finish
            for b in np.flatnonzero(ended & ~overflow):
                finished = batch.finish(b, beta[b], eps[b], opts, stage[b] == last)
                if finished is None:
                    continue
                exact, exact_cert, steps = finished
                iterations[b] += steps
                floor = batch.rounding_floor(exact[None], [b])[0]
                if done[b] or exact_cert <= max(opts.tol_gradient, floor):
                    beta[b], cert[b], done[b] = exact, exact_cert, True
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
    basis = None if hypothesis is None else _null_basis(hypothesis, data)
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
