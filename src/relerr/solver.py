"""One solver for every criterion in the criteria table.

Damped Newton with Armijo backtracking minimizes sum_i w_i rho(r_i) over
the log residuals r = log y - x'beta, for any row rho = kink * |r| +
sigma(r) of ``criteria``.  Without a kink this is plain Newton on a
smooth convex function.  With one, the same Newton loop runs through the
stages of the finite smoothing algorithm of Madsen & Nielsen (1993, SIAM
J. Optim.).  A smoothing stage replaces |r| by sqrt(r^2 + eps^2) - eps,
eps following ``EPS_SCHEDULE`` from 1e-1 down to 1e-10, and takes at most
``MAX_ITERATIONS`` Newton steps -- but only until the residuals at the
kink, a set S, are known.  If |S| <= p (after the last stage, whatever S
is), the face {beta : r_S = 0} follows as a stage of its own, in which
every other residual holds its side of the kink (see ``_minimize``).  A
face that certifies ends the fit; otherwise the next smoothing stage goes
on from where the last one ended, and after the last the face's point stands.

A fit is returned only with an optimality certificate no larger than
``TOL_GRADIENT`` -- or, where the gradient's terms are so
large that rounding alone leaves more, no larger than 1000 rounding
units of their summed magnitudes, where that sum is finite.  It is
reported as ``FitResult.gradient_norm``:

* without a kink, the norm of the gradient;
* with a kink, the exact KKT residual on the face: the norm of the
  subgradient of the unsmoothed criterion, with every residual off S at
  its sign and the multipliers of S, which are 0 to rounding, chosen in
  [-1, 1] by least squares.

Anything else raises ``ConvergenceError`` with the best iterate attached.
Constrained fits run the same solver on the design x @ B, with B an
orthonormal basis of the hypothesis null space.  Every fit starts from
the (weighted) least-squares fit of log y on its design; if the
criterion overflows there, from the intercept alone at max log y.

The Newton loop works on a batch: B problems of one shape (n, p), each
with its own design (or one design shared by all), log y and weights.
It forms (B, p, p) Hessians by batched matmul and takes batched solves;
every problem keeps its own smoothing stage, line search, overflow
restart, certificate and iteration count, and is frozen once it is done,
so it ends where it would have ended alone.  Without a kink each point
is evaluated once: every trial of a line search is evaluated with its
derivatives, which the accepted one carries to the next step, and a
problem whose certificate holds leaves before its Hessian.  The
Monte Carlo studies and random weighting fit their replications and
resamples this way, in batches sized by the largest array a batch
allocates, (B, n, p) (``_batch_size``).  A batch returns its fits as one
stacked record (``_Fits``), from which a problem's FitResult, or the
error of a failed fit, is built only when asked for; the public
``fit_*`` functions are the batch of one.  The rank check of a stack of
designs screens them by the eigenvalues of X'X and leaves the decision
on any design it does not clear to the SVD (``_rank_errors``).
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
#: the bound on a fit's optimality certificate (see the module docstring)
TOL_GRADIENT = 1e-10
#: the Newton steps of each smoothing stage and of each face, and the faces of a finish
MAX_ITERATIONS = 100
# When a smoothing stage of width eps ends, the residuals within
# _FACE_WIDTH * eps of 0 are taken to be at the kink.  At the smoothed
# optimum a residual whose multiplier is u sits at eps |u| / sqrt(1 - u^2),
# so a width of 1 would miss those with u near -1 or 1.
_FACE_WIDTH = 10.0


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


#: how the fit of a problem of a batch ended, in ``_Fits.status``
CERTIFIED, UNCERTIFIED, OVERFLOW = 0, 1, 2
OVERFLOW_MESSAGE = "criterion overflows at the starting point"


@dataclass(frozen=True)
class _Fits:
    """The fits of a batch of B problems, stacked: beta (B, p) and per
    problem its criterion value, certificate, iterations and status (no
    certificate, or overflow at the start, for a failed fit).  A FitResult,
    or the error of a failed fit, is built only when asked for."""

    criterion: str
    beta: np.ndarray
    value: np.ndarray
    certificate: np.ndarray
    iterations: np.ndarray
    status: np.ndarray

    @property
    def arrays(self) -> tuple:
        return self.beta, self.value, self.certificate, self.iterations, self.status

    @property
    def failed(self) -> np.ndarray:
        return self.status != CERTIFIED

    def result(self, b) -> FitResult:
        return FitResult(self.beta[b], float(self.value[b]), float(self.certificate[b]),
                         int(self.iterations[b]), bool(self.status[b] == CERTIFIED),
                         self.criterion)

    def error(self, b):
        """The error the fit of problem b raises, None if it is certified."""
        if self.status[b] == OVERFLOW:
            return NumericOverflowError(OVERFLOW_MESSAGE)
        if self.status[b] == UNCERTIFIED:
            fit = self.result(b)
            return ConvergenceError(
                f"{fit.criterion} fit has no optimality certificate after {fit.iterations} "
                f"iterations (residual {fit.gradient_norm:.3g} > {TOL_GRADIENT:g} and "
                f"above rounding)", fit)
        return None

    def errors(self) -> dict:
        """The errors of the failed fits, by problem."""
        return {int(b): self.error(b) for b in np.flatnonzero(self.failed)}

    def where(self, mask, other: "_Fits") -> "_Fits":
        """These fits, with those of ``other`` where ``mask`` is set."""
        if not mask.any():
            return self
        return _Fits(self.criterion, *(
            np.where(mask if mine.ndim == 1 else mask[:, None], theirs, mine)
            for mine, theirs in zip(self.arrays, other.arrays)))

    @classmethod
    def concatenate(cls, parts: list) -> "_Fits":
        return cls(parts[0].criterion, *map(np.concatenate, zip(*(f.arrays for f in parts))))


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
        if q == 0:
            raise ValueError("the hypothesis has no constraints (H has no columns)")
        if not np.all(np.isfinite(h)):
            raise ValueError("H must be finite (no NaN or infinity)")
        if q > p:
            raise ValueError("more constraints than parameters")
        # the rank cut of scipy's null_space (max(p, q) = p here), which is
        # np.linalg.matrix_rank's cut for q <= p
        _, sv, vt = np.linalg.svd(h.T)
        rank = np.sum(sv > sv.max(initial=0.0) * p * np.finfo(float).eps)
        if rank < q:
            raise ValueError("constraint vectors must be linearly independent")
        object.__setattr__(self, "_basis", vt[rank:].T)

    @property
    def q(self) -> int:
        return self.h.shape[1]

    @property
    def p(self) -> int:
        return self.h.shape[0]

    def null_basis(self) -> np.ndarray:
        """Orthonormal basis B (p-by-(p-q)) of {b : H'b = 0}: the right
        singular vectors of H' beyond its rank, taken once, on construction."""
        return self._basis

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


def _rank_errors(x: np.ndarray) -> dict:
    """The designs of a stack (B, n, p) without full column rank, by index:
    {b: SingularDesignError}.  The ranks are those of ``_ranks``, but only
    the designs that a screen by the eigenvalues of X'X does not clear (one
    stacked product and one stacked ``eigvalsh``) go to its SVD."""
    _, n, p = x.shape
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.ascontiguousarray(np.swapaxes(x, 1, 2)) @ x
    finite = np.isfinite(gram).all(axis=(1, 2))
    if not finite.all():
        gram[~finite] = 0.0  # all eigenvalues 0: never cleared
    eig = np.linalg.eigvalsh(gram)
    # The SVD keeps singular values above s_max m eps, m = max(n, p).  A
    # design cleared by l_min > c l_max with l_min > tiny has full rank by
    # that cut too.  The computed X'X is within n eps |X|'|X| of the exact
    # one entrywise, so within m p eps l_max in norm (||X|'|X||| <= ||X||_F^2
    # <= p s_max^2); underflow adds at most n p eps tiny, no more, as l_max >
    # tiny.  ``eigvalsh`` is backward stable (a few p eps l_max more), and
    # the eigenvalues of a symmetric matrix move by at most the norm of its
    # perturbation (Weyl).  So with c = 1e3 m p eps or more the exact s_min^2
    # = l_min > 990 m p eps s_max^2, and s_min / s_max > sqrt(990 m p eps),
    # hundreds of times the cut m eps (and the SVD's error) for any m < 1e13.
    cut = max(1e-6, 1e3 * max(n, p) * p * np.finfo(float).eps)
    judged = np.flatnonzero(~(eig[:, 0] > np.maximum(cut * eig[:, -1], np.finfo(float).tiny)))
    if not judged.size:
        return {}
    return {int(b): SingularDesignError(f"design matrix has rank {rank} < p = {p}")
            for b, rank in zip(judged, _ranks(x[judged])[0]) if rank < p}


def _raise(errors: dict):
    """Raise the first error of ``errors``, if there is one."""
    for error in errors.values():
        raise error


def _require_full_rank(data: Dataset):
    _raise(_rank_errors(data.x[None]))


def _null_basis(hypothesis: LinearHypothesis, data: Dataset) -> np.ndarray:
    """The null basis of ``hypothesis``, once its p is checked against the design."""
    if hypothesis.p != data.p:
        raise ValueError("hypothesis dimension does not match the design")
    return hypothesis.null_basis()


# glibc serves a block above its mmap threshold (128 KiB at start) with
# fresh pages from the kernel and unmaps them on free.  Freeing one such
# block raises the threshold to the block's size, and the heap's trim
# threshold to twice that, so blocks up to 2 MiB allocated after this line
# are reused from the heap.  Without it, a Table 1 study op took 7,000-
# 14,500 minor page faults and a power study op about 20,000, 15-40 ms of
# system time per op.  Elsewhere than glibc this only allocates and frees
# 2 MiB.
_MMAP_THRESHOLD = 2 << 20
np.empty(_MMAP_THRESHOLD, dtype=np.uint8)

#: elements (8 bytes each) of the largest array one batch allocates: 375
#: KiB, well below the threshold above, so a batch's arrays come from the
#: heap.  Larger batches pay the Newton loop's per-step overhead fewer
#: times: at n = 200, p = 3 a study chunk holds 80 replications, and with
#: the 26 of a 16,000 budget a Table 1 study op took 20-25% longer.  The
#: peak memory of a study grows with the budget (2.2-2.7 MB more than at
#: 16,000 for a Table 1 or power study).
_BATCH_ELEMENTS = 48_000


def _batch_size(n: int, p: int) -> int:
    """How many problems of shape (n, p) go into one batch: as many as keep
    its largest array, (B, n, p), within ``_BATCH_ELEMENTS``.  That is the
    designs of a stack, or the temporary x * s of the Hessians of a shared
    design; every other array of the batch is no larger, as p <= n."""
    return max(1, _BATCH_ELEMENTS // (n * p))


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """u with a u = b for each row of a stack; least squares for the stack
    if a row's a is not positive definite."""
    try:
        np.linalg.cholesky(a)
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # curvature spread over more decades than double precision holds,
        # as where one residual's sinh or exp dwarfs the rest; solve within
        # the directions that have it
        return _least_squares(a, b, np.full(len(a), a.shape[-1]))[0]


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a_b @ v_b for each row b; ``a`` may be one matrix shared by all."""
    return (a @ v[:, :, None])[:, :, 0]


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v * v).sum(axis=1))


def _least_squares(a, b, terms):
    """(u, V, kept): the least-squares u of smallest norm with a u = b for each
    row of a stack, the singular values cut as np.linalg.lstsq cuts them for
    ``terms`` (k,) equations or unknowns; V of a's SVD, and its kept columns."""
    left, sv, vt = np.linalg.svd(a, full_matrices=False)
    kept = sv > sv[:, :1] * (terms * np.finfo(float).eps)[:, None]
    v = np.swapaxes(vt, 1, 2)
    return _matvec(v, _matvec(np.swapaxes(left, 1, 2), b) / np.where(kept, sv, np.inf)), v, kept


class _Batch:
    """B problems of one shape: sum_i w_bi rho(z_bi - x_bi'beta_b), and its
    smoothed and face versions.

    ``x`` is (B, n, p), or (n, p) for problems that share one design;
    ``z`` and ``w`` are (B, n).  Methods evaluate every problem at its beta
    (k, p) and smoothing width eps (k,), or where ``face`` is set on its face:
    ``side`` holds each residual's side of the kink, 0 on S (NaN off a face),
    and ``basis`` a basis of the face padded with zero columns.  Overflow gives
    inf or NaN; callers run under ``np.errstate(over="ignore", invalid="ignore")``.
    """

    def __init__(self, criterion: GreCriterion, x, z, w, side=None, basis=None):
        self.criterion = criterion
        self.kink = criterion.kink
        self.sigma = criterion.sigma
        self.x, self.z, self.w = x, z, w
        self.side = np.full(z.shape, np.nan) if side is None else side  # no face yet
        self.basis = np.zeros((len(z), x.shape[-1], x.shape[-1])) if basis is None else basis
        self.faces_changed()

    def faces_changed(self):
        self.face = ~np.isnan(self.side[:, 0])
        self.on_face = bool(self.face.any())

    def subset(self, rows) -> "_Batch":
        return _Batch(self.criterion, self.x if self.x.ndim == 2 else self.x[rows],
                      self.z[rows], self.w[rows], self.side[rows], self.basis[rows])

    def _residuals(self, beta):
        return self.z - _matvec(self.x, beta)

    def _kink(self, r, eps, derivatives=True):
        """|r|, and with ``derivatives`` its first two derivatives: smoothed
        to sqrt(r^2 + eps^2) - eps, or held at side * r on a face."""
        e = eps[:, None]
        q = np.sqrt(r * r + e * e)
        terms = (q - e, r / q, e * e / q**3) if derivatives else (q - e,)
        if self.on_face:
            side = self.side[self.face]
            for term, held in zip(terms, (side * r[self.face], side, 0.0)):
                term[self.face] = held
        return terms

    def value(self, beta, eps) -> np.ndarray:
        """Smoothed or face criterion of each row."""
        r = self._residuals(beta)
        value = self.sigma(r, derivatives=False)
        if self.kink:
            value = value + self.kink * self._kink(r, eps, derivatives=False)[0]
        return (self.w * value).sum(axis=1)

    def _derivatives(self, beta, eps):
        """(value, gradient, residuals, rho'') of every row's stage at its
        beta, a face row's gradient within its face; inf or NaN on overflow."""
        r = self._residuals(beta)
        value, d1, d2 = self.sigma(r)
        if self.kink:
            k0, k1, k2 = self._kink(r, eps)
            value, d1, d2 = value + self.kink * k0, d1 + self.kink * k1, d2 + self.kink * k2
        grad = -_matvec(np.swapaxes(self.x, -1, -2), self.w * d1)
        if self.on_face:  # within each face: the coordinates g of beta + basis @ g
            grad[self.face] = _matvec(np.swapaxes(self.basis[self.face], 1, 2), grad[self.face])
        return (self.w * value).sum(axis=1), grad, r, d2

    def hessians(self, d2, rows=slice(None)):
        """The Hessians of the rows ``rows`` from their rho'' d2 (k, n); the
        temporary x * s is (k, n, p)."""
        x = self.x if self.x.ndim == 2 else self.x[rows]
        return np.swapaxes(x, -1, -2) @ (x * (self.w[rows] * d2)[:, :, None])

    def _gather(self, on, m):
        """(x, at, used): the design rows of each row's residuals in ``on``
        (k, n), moved to the front of m rows padded with zeros, which an SVD's
        rank cut drops; ``at`` indexes the m in (k, n), ``used`` marks ``on``."""
        at = (np.arange(len(on))[:, None], np.argsort(~on, axis=1, kind="stable")[:, :m])
        used = on[at]
        return (self.x[at[1]] if self.x.ndim == 2 else self.x[at]) * used[:, :, None], at, used

    def project(self, beta):
        """Each row's beta moved onto its face {r_S = 0} by least squares,
        and its basis of the face, padded with zero columns to p: one
        stacked SVD of the design rows of S."""
        on, p = self.side == 0.0, beta.shape[1]
        size = on.sum(axis=1)
        xs, at, used = self._gather(on, max(p, size.max()))
        move, v, kept = _least_squares(xs, self._residuals(beta)[at] * used, np.maximum(size, p))
        return beta + move, v * ~kept[:, None, :]

    def multipliers(self, beta):
        """For rows on a face: the exact KKT residual at beta, and the multipliers
        (least squares) of the residuals of S that are 0 to rounding, with their
        indices.  The subgradient holds every other residual at its sign, or at
        its side where it is 0 to rounding.  A row's design rows of S are
        padded to max(p, |S|), and the rows of each padded size take their own
        stacked SVD, so that a row's bits do not depend on the rows checked
        with it."""
        x, w, side, r = self.x, self.w, self.side, self._residuals(beta)
        zero = np.abs(r) <= 1e3 * np.finfo(float).eps * (
            np.abs(self.z) + _matvec(np.abs(x), np.abs(beta)))
        sign = np.where(zero, side, np.sign(r))
        sub = -_matvec(np.swapaxes(x, -1, -2), w * (self.sigma(r)[1] + self.kink * sign))
        on = zero & (side == 0.0)
        size = np.maximum(on.sum(axis=1), beta.shape[1])
        xs, at, _ = self._gather(on, size.max())
        a = self.kink * np.swapaxes(xs * w[at][:, :, None], 1, 2)
        if size.min() == size.max():  # the usual case, without the loop's copies
            u = _least_squares(a, sub, size)[0]
            return _norm(sub - _matvec(a, u)), u, at[1]
        kkt, u = np.empty(len(beta)), np.zeros(at[1].shape)
        for m in np.unique(size):
            rows = size == m
            u[rows, :m] = _least_squares(a[rows, :, :m], sub[rows], size[rows])[0]
            kkt[rows] = _norm(sub[rows] - _matvec(a[rows, :, :m], u[rows, :m]))
        return kkt, u, at[1]

    def certified(self, beta, cert) -> np.ndarray:
        """Whether each row's certificate is within ``TOL_GRADIENT``, or
        within what rounding alone can leave at beta: 1000 rounding units of
        the summed magnitudes of the gradient's terms, if that is finite."""
        ok = cert <= TOL_GRADIENT
        loose = np.flatnonzero(~ok)
        if loose.size:
            rows = self.subset(loose)
            size = _matvec(np.abs(np.swapaxes(rows.x, -1, -2)), rows.w * (
                np.abs(self.sigma(rows._residuals(beta[loose]))[1]) + self.kink))
            floor = 1e3 * np.finfo(float).eps * _norm(size)
            ok[loose] = (cert[loose] <= floor) & np.isfinite(floor)
        return ok


def _line_search(batch: _Batch, search, beta, value, grad, step, slope, eps, cap):
    """Armijo backtracking along each row's step, t = t0, t0/2, ... (80
    tries) from t0 = min(1, cap), for the rows of ``batch`` where
    ``search`` is set.  Returns every row's beta, moved to the accepted
    points; the t accepted for each row, NaN where none was; and, without a
    kink, each searched row's (value, gradient, residuals, rho'') at its
    accepted point (None with a kink).

    Without a kink every trial is evaluated with its derivatives, so that
    the next step needs only its Hessian.  With one a trial takes the value
    alone, as the face check may yet move the point or change its stage or
    face; a trial where some row backtracks on the gradient norm takes the
    derivatives instead, and the value with them."""
    # Below the rounding noise of the value the Armijo test is
    # meaningless, so such a row backtracks on the gradient norm instead.
    noisy = np.abs(slope) <= 1e-10 * (1.0 + np.abs(value))
    merit = _norm(grad)
    beta, t, accepted_t = beta.copy(), np.minimum(1.0, cap), np.full(len(beta), np.nan)
    parts = None
    # the rows still searching (a slice while that is every row), and their batch
    rows, trying = (slice(None), batch) if search.all() else (
        np.flatnonzero(search), batch.subset(np.flatnonzero(search)))
    for _ in range(80):
        cand = beta[rows] + t[rows, None] * step[rows]
        by_norm = noisy[rows]
        bound = value[rows] + ARMIJO_C * t[rows] * slope[rows]
        if batch.kink and not by_norm.any():
            ok = trying.value(cand, eps[rows]) <= bound
        else:  # _derivatives' value is ``value``'s, bit for bit
            at = trying._derivatives(cand, eps[rows])
            ok = np.where(by_norm, _norm(at[1]) < merit[rows], at[0] <= bound)
        if ok.all() and isinstance(rows, slice):  # every row takes this trial
            return cand, t, None if batch.kink else at
        if ok.any():
            rows = np.arange(len(beta))[rows]
            took = rows[ok]
            beta[took], accepted_t[took] = cand[ok], t[took]
            if not batch.kink:
                parts = parts or tuple(np.empty((len(beta),) + a.shape[1:]) for a in at)
                for kept, now in zip(parts, at):
                    kept[took] = now[ok]
            if ok.all():
                break
            rows, trying = rows[~ok], trying.subset(np.flatnonzero(~ok))
        t = t * 0.5
    return beta, accepted_t, parts


def _minimize(batch: _Batch, beta: np.ndarray):
    """Damped Newton through the stages, for every row at once.

    Each row keeps its own stage, step count and line search, and is frozen
    once it is done.  A smoothing stage ends once its Newton decrement is
    below its width eps, after ``MAX_ITERATIONS`` steps, or when the line
    search fails.  On a face a row is projected by least squares and takes up
    to ``MAX_ITERATIONS`` Newton steps within it, each stopping where the
    nearest residual ahead reaches the kink, which joins S; on a flat face,
    as for LAD, the step runs down the gradient to that kink, as a simplex
    pivot does.  Then the multipliers of S come by least squares: a row with
    one outside [-1, 1] drops it and stays on the face, and otherwise the KKT
    residual is its certificate.  A face with no free direction (|S| = p)
    has gradient 0 within it, so its steps end at its first evaluation.  A
    row needing over ``MAX_ITERATIONS`` faces fails.

    A smooth row evaluates each point once: it carries the derivatives of
    the trial its line search accepts to its next step (see
    ``_line_search``), and it leaves before its Hessian once certified.

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
    taken = np.zeros(count, dtype=int)  # steps in the current stage or on the current face
    iterations = np.zeros(count, dtype=int)
    # the faces of the current finish, and where the smoothing stage before it ended
    faces, smoothed = np.zeros(count, dtype=int), beta.copy()
    parts = None  # each row's (value, gradient, residuals, rho'') if its line search has them
    while True:
        # every running row is at a new point, in a new stage or on a new face
        eps = stages[stage]
        value, grad, r, d2 = batch._derivatives(beta, eps) if parts is None else parts
        parts = None
        face, on_face = batch.face, batch.on_face
        overflow = ~(value < np.inf)
        ended = overflow | (taken >= MAX_ITERATIONS)
        flat = np.zeros(len(beta), dtype=bool)
        if batch.kink:
            cert = np.full(len(beta), np.inf)
            hess = batch.hessians(d2)
            if overflow.any():  # such a row ends here; keep its step finite
                hess[overflow], grad[overflow] = np.eye(p), 0.0
            if on_face:  # Newton steps in the coordinates g of beta + basis @ g
                basis = batch.basis[face]
                curv = np.swapaxes(basis, 1, 2) @ hess[face] @ basis
                flat[face] = ~curv.any(axis=(1, 2))
                # identity curvature in the padded directions, and on a flat face,
                # whose step is then down the gradient
                hess[face] = curv + np.eye(p) * (~basis.any(axis=1) | flat[face, None])[:, None, :]
                ended |= face & (_norm(grad) <= 1e-2 * TOL_GRADIENT)
            step = _solve(hess, -grad)
            slope = (grad * step).sum(axis=1)
            ended |= ~face & (-slope <= eps)
        else:  # one stage, which ends once certified: before the row's Hessian
            cert = _norm(grad)
            ended |= cert <= TOL_GRADIENT
            step = np.zeros_like(grad)
            if not ended.all():
                going = np.flatnonzero(~ended) if ended.any() else slice(None)
                step[going] = _solve(batch.hessians(d2[going], going), -grad[going])
            slope = (grad * step).sum(axis=1)
            r = d2 = None  # free before the line search evaluates the next points
        go = ~ended
        cap, hit = np.full(len(beta), np.inf), np.zeros(len(beta), dtype=bool)  # hit: at a kink
        if on_face:
            step[face] = _matvec(basis, step[face])
            rate = _matvec(batch.x, step)  # r falls by t * rate
            ahead = batch.side * rate > 0.0  # never off a face, where side is NaN
            reach = np.where(ahead, r / np.where(ahead, rate, 1.0), np.inf)
            nearest = reach.argmin(axis=1)
            cap = np.maximum(reach[np.arange(len(beta)), nearest], 0.0)  # 0: at the kink
            ended |= go & flat & (cap == np.inf)
            hit = go & ~ended & (flat | (cap == 0.0))  # straight to the kink
            beta[hit] += cap[hit, None] * step[hit]
            go &= ~ended & (cap > 0.0)
        iterations += go
        taken += go
        search = go & ~flat
        if search.any():
            beta, t, parts = _line_search(batch, search, beta, value, grad, step, slope, eps, cap)
            ended |= search & np.isnan(t)
            hit |= t == cap
        done = overflow & ~face if batch.kink else ended  # a face row's finish fails instead
        if batch.kink and (ended | hit).any():
            enter = ended & ~face & ~overflow  # a smoothing stage ended
            if enter.any():  # enter the face of S if |S| <= p, or after the last stage
                at = np.abs(r) <= _FACE_WIDTH * eps[:, None]
                small = (at.sum(axis=1) <= p) | (stage == last)
                stage += enter & ~small
                enter &= small
                if enter.any():
                    batch.side[enter] = np.where(at[enter], 0.0, np.sign(r[enter]))
                    smoothed[enter], faces[enter] = beta[enter], 0
                    batch.faces_changed()
            if on_face:
                batch.side[hit, nearest[hit]] = 0.0
            # a row whose steps on its face ended gets the multipliers of S
            check = ended & face
            if check.any():
                rows = np.flatnonzero(check)
                kkt, u, residual = batch.subset(rows).multipliers(beta[rows])
                worst = (np.arange(rows.size), np.abs(u).argmax(axis=1))
                largest = np.abs(u[worst])
                cert[rows] = np.where(largest <= 1.0, kkt, np.nan)  # NaN certifies nothing
                drop = (largest > 1.0) & np.isfinite(kkt)
                batch.side[rows[drop], residual[worst][drop]] = np.sign(u[worst][drop])
                hit[rows[drop]] = True
            if check.any() or hit.any():
                finished = check & ~hit | hit & (faces >= MAX_ITERATIONS)
                hit &= ~finished
                end = np.flatnonzero(finished)
                done[end] |= (stage[end] == last) | batch.subset(end).certified(beta[end], cert[end])
                back = finished & ~done  # to the next stage, from where the last one ended
                beta[back], stage[back], batch.side[back] = smoothed[back], stage[back] + 1, np.nan
                batch.faces_changed()
            taken[ended | hit] = 0
            project = np.flatnonzero(enter | hit)
            if project.size:
                beta[project], batch.basis[project] = batch.subset(project).project(beta[project])
                faces[project] += 1
        if done.any():
            for kept, now in zip(out, (beta, value, iterations, cert, overflow & ~face)):
                kept[index[done]] = now[done]
            running = np.flatnonzero(~done)
            if not running.size:
                return out
            index, beta, stage, taken, iterations, faces, smoothed = (
                a[running] for a in (index, beta, stage, taken, iterations, faces, smoothed))
            if parts is not None:
                parts = tuple(a[running] for a in parts)
            batch = batch.subset(running)


def _fit_batch(
    criterion: GreCriterion,
    x: np.ndarray,
    z: np.ndarray,
    w: np.ndarray,
    basis: Optional[np.ndarray] = None,
) -> _Fits:
    """Fit B problems of one shape (n, p), in batches of ``_batch_size``.

    ``x`` is (B, n, p), or (n, p) for problems that share one design;
    ``z = log y`` and ``w`` are (B, n).  With ``basis``, an orthonormal
    basis of a hypothesis null space, the fits run on x @ basis.  The
    caller checks the rank.  Returns the fits stacked, the batches'
    arrays concatenated in problem order.
    """
    count, n = z.shape
    p = x.shape[-1]
    size = _batch_size(n, p)
    if count > size:
        return _Fits.concatenate([_fit_batch(
            criterion, x if x.ndim == 2 else x[s:s + size], z[s:s + size],
            w[s:s + size], basis) for s in range(0, count, size)])
    if not count or basis is not None and basis.shape[1] == 0:
        # no problems, or H'b = 0 leaves b = 0 alone
        return _Fits(criterion.name, np.zeros((count, p)), np.sum(w * criterion.rho(z), axis=1),
                     np.full(count, np.nan), np.zeros(count, dtype=int),
                     np.full(count, CERTIFIED))
    if basis is not None:
        x = x @ basis
    batch = _Batch(criterion, x, z, w)
    xtw = np.swapaxes(x, -1, -2) * w[:, None, :]
    start = _solve(xtw @ x, _matvec(xtw, z))  # weighted least squares
    with np.errstate(over="ignore", invalid="ignore"):
        coef, value, iterations, cert, overflow = _minimize(batch, start)
        if overflow.any():
            # The asymmetric row grows like exp(e^r) and overflows for
            # r > 6.6; start again on the intercept alone at max log y,
            # where every residual is <= 0.
            again = np.flatnonzero(overflow)
            intercept = np.zeros((again.size, p))
            intercept[:, 0] = z[again].max(axis=1)
            (coef[again], value[again], iterations[again], cert[again],
             overflow[again]) = _minimize(batch.subset(again), intercept if basis is None
                                          else intercept @ basis)
        if criterion.kink:  # the unsmoothed criterion
            value = np.sum(w * criterion.rho(z - _matvec(x, coef)), axis=1)
        cert[~np.isfinite(cert)] = np.inf
        converged = batch.certified(coef, cert)
    status = np.where(overflow, OVERFLOW, np.where(converged, CERTIFIED, UNCERTIFIED))
    return _Fits(criterion.name, coef if basis is None else coef @ basis.T, value, cert,
                 iterations, status)


def _fit(
    criterion: GreCriterion,
    data: Dataset,
    weights: Optional[np.ndarray],
    hypothesis: Optional[LinearHypothesis],
) -> FitResult:
    """One fit: the batch of one."""
    _require_full_rank(data)
    w = np.ones(data.n) if weights is None else np.asarray(weights, dtype=float)
    basis = None if hypothesis is None else _null_basis(hypothesis, data)
    fits = _fit_batch(criterion, data.x, np.log(data.y)[None], w[None], basis)
    _raise(fits.errors())
    return fits.result(0)


def fit_gre(
    criterion: GreCriterion,
    data: Dataset,
    weights: Optional[np.ndarray] = None,
    hypothesis: Optional[LinearHypothesis] = None,
) -> FitResult:
    """Minimize any criterion of the table, optionally over {b : H'b = 0}.

    Every criterion is convex in beta, so the returned point is a global
    minimizer.
    """
    return _fit(criterion, data, weights, hypothesis)


def fit_lpre(data: Dataset, weights: Optional[np.ndarray] = None) -> FitResult:
    """Minimize the product relative-error criterion.

    The criterion is smooth and strictly convex for full-rank designs, so
    the returned point is the unique global minimizer regardless of the
    starting point.  Raises ConvergenceError (with the best iterate
    attached) if the gradient norm does not reach ``TOL_GRADIENT``.
    """
    return _fit(criteria.PRODUCT, data, weights, None)


def fit_constrained_lpre(
    data: Dataset,
    hypothesis: LinearHypothesis,
    weights: Optional[np.ndarray] = None,
) -> FitResult:
    """Minimize the product criterion over {b : H'b = 0}.

    With q = p the null space is {0} and beta = 0 is returned directly.
    """
    return _fit(criteria.PRODUCT, data, weights, hypothesis)


def fit_ls_log(data: Dataset, weights: Optional[np.ndarray] = None) -> FitResult:
    """Least squares of log y on x (the solver's starting point is exact)."""
    return _fit(criteria.CRITERIA["ls_log"], data, weights, None)


def fit_lad_log(data: Dataset, weights: Optional[np.ndarray] = None) -> FitResult:
    """Least absolute deviations of log y on x."""
    return _fit(criteria.CRITERIA["lad_log"], data, weights, None)
