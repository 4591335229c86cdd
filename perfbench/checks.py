"""Output checks computed apart from the program.

Nothing here imports ``relerr``.  Each check takes what an op returned
(plain numbers) and compares it with a closed form, a Monte Carlo band or
an optimum this module computes itself with numpy and scipy.  A check
returns a list of messages, one per violation; an empty list means the
output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog
from scipy.special import k0, k1
from scipy.stats import binom, chi2, ncx2

#: width of every Monte Carlo band, in standard errors
Z_BAND = 5.0
#: relative optimality tolerance of the LARE and LAD criteria
CRITERION_RTOL = 1e-6
#: tolerance on the recomputed LPRE gradient norm
LPRE_GRADIENT_TOL = 1e-6
LS_BETA_RTOL = 1e-8
METRIC_RTOL = 1e-9


# -- references -------------------------------------------------------------

def lare_criterion(x, z, beta, w=None) -> float:
    """sum_i w_i (|y-yhat|/y + |y-yhat|/yhat) = sum_i w_i 2 sinh|r_i|, r = z - x'beta."""
    r = np.abs(z - x @ beta)
    w = 1.0 if w is None else w
    return float(np.sum(w * 2.0 * np.sinh(r)))


def lare_minimum(x, z, w=None) -> tuple[np.ndarray, float]:
    """Minimizer and minimum of the LARE criterion, by smoothed Newton.

    The criterion is convex in beta.  |r| is replaced by
    sqrt(r^2 + e^2) - e, which keeps it convex and lies below it, and
    damped Newton follows e from 1e-1 down to 1e-10.  At the last e the
    smoothed and true criteria differ by at most 2 e sum_i w_i cosh(r_i),
    far below ``CRITERION_RTOL``.  Raises RuntimeError if Newton stalls, so a
    failed reference never passes for a failed program.
    """
    w = np.ones(z.size) if w is None else np.asarray(w, dtype=float)
    sw = np.sqrt(w)
    beta = np.linalg.lstsq(x * sw[:, None], z * sw, rcond=None)[0]

    def parts(b, eps):
        r = z - x @ b
        q = np.sqrt(r * r + eps * eps)
        s = q - eps
        ds = r / q
        value = float(np.sum(w * 2.0 * np.sinh(s)))
        d1 = w * 2.0 * np.cosh(s) * ds
        d2 = w * (2.0 * np.sinh(s) * ds * ds + 2.0 * np.cosh(s) * eps * eps / q**3)
        return value, -x.T @ d1, (x * d2[:, None]).T @ x

    for eps in 10.0 ** -np.arange(1, 11):
        value, grad, hess = parts(beta, eps)
        for _ in range(200):
            step = np.linalg.solve(hess, -grad)
            decrement = float(-grad @ step)
            if decrement <= 1e-13 * max(1.0, abs(value)):
                break
            t = 1.0
            while True:
                cand = beta + t * step
                cand_value = parts(cand, eps)[0]
                if cand_value <= value - 1e-4 * t * decrement:
                    break
                t *= 0.5
                if t < 1e-12:
                    raise RuntimeError("LARE reference line search failed")
            beta = cand
            value, grad, hess = parts(beta, eps)
        else:
            raise RuntimeError("LARE reference Newton did not converge")
    return beta, lare_criterion(x, z, beta, w)


def lad_minimum(x, z) -> float:
    """min_beta sum_i |z_i - x_i'beta| as a linear program (HiGHS)."""
    n, p = x.shape
    cost = np.concatenate([np.zeros(p), np.ones(2 * n)])
    a_eq = np.hstack([x, np.eye(n), -np.eye(n)])
    bounds = [(None, None)] * p + [(0, None)] * (2 * n)
    res = linprog(cost, A_eq=a_eq, b_eq=z, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"LAD reference linear program failed: {res.message}")
    return float(res.fun)


def lpre_gradient(x, y, beta) -> np.ndarray:
    eta = x @ beta
    return x.T @ (np.exp(eta) / y - y * np.exp(-eta))


def prediction_metrics(y, yhat) -> tuple:
    """(MPE, MPPE, MAPE, MSPE): medians of four prediction-error measures."""
    err = np.abs(y - yhat)
    return (float(np.median(err)), float(np.median(err**2 / (y * yhat))),
            float(np.median(err / y + err / yhat)), float(np.median(err**2)))


# -- closed forms -----------------------------------------------------------

def lpre_se_lognormal(n: int) -> float:
    """Asymptotic SE of each LPRE coefficient: log-normal(0, 1) errors,
    N(0, 1) covariates, so E(xx') = I and D^-1 V D^-1 = (2e^2 - 2)/(4e)."""
    return math.sqrt((2 * math.e**2 - 2) / (4 * math.e) / n)


def ls_se_lognormal(n: int) -> float:
    """SE of each log-scale LS coefficient under log-normal(0, 1) errors."""
    return 1.0 / math.sqrt(n)


def lpre_power(n: int, beta2: float, alpha: float) -> float:
    """Asymptotic rejection rate of the criterion-difference test of beta_2 = 0.

    Under LPRE-efficient errors (GIG with a = b = 2, p = 0) and a N(0, 1)
    covariate, the statistic over its scale is noncentral chi^2_1 with
    lambda = n beta_2^2 2 K_1(2) / K_0(2); lambda = 0 gives the size alpha.
    """
    lam = n * beta2**2 * 2.0 * k1(2.0) / k0(2.0)
    return float(ncx2.sf(chi2.isf(alpha, 1), 1, lam)) if lam > 0 else alpha


def _rate_band(p: float, reps: int, slack: float) -> tuple[float, float]:
    """Binomial band of a rejection rate from ``reps`` draws: tail
    probability 1e-7 on each side of [p - slack, p + slack]."""
    lo = binom.ppf(1e-7, reps, max(p - slack, 0.0)) / reps
    hi = binom.isf(1e-7, reps, min(p + slack, 1.0)) / reps
    return lo, hi


def _close(a, b, rtol) -> bool:
    return bool(np.allclose(a, b, rtol=rtol, atol=rtol))


# -- per-workload checks ----------------------------------------------------

TABLE1_N = 200
TABLE1_ESTIMATORS = {"lpre": lpre_se_lognormal, "ls": ls_se_lognormal}
TABLE1_P = 3
#: allowances for the finite-n gap between Monte Carlo and asymptotic
#: figures at n = 200.  The mean of 1000 estimated SEs is precise to
#: ~0.3%, but sandwich SEs run 5-8% below the asymptotic form and OLS
#: ones ~1% above it (E (X'X)^-1 = I/(n-p-1)); so the band on the mean
#: estimated SE is one-sided, and LPRE coverage sits near 0.93.
SE_SLACK = 0.06
SEE_BAND = (-0.12, 0.03)
BIAS_SLACK = 0.005
COVERAGE_SLACK = 0.03


def check_table1(rows: list[dict], reps: int) -> list[str]:
    """Bias, Monte Carlo SE, mean estimated SE and 95% coverage of LPRE and
    LS under log-normal(0, 1) errors, against closed forms and MC bands."""
    bad = []
    want = {(e, j) for e in TABLE1_ESTIMATORS for j in range(TABLE1_P)}
    got = {(r["estimator"], r["coef"]) for r in rows}
    if got != want or len(rows) != len(want):
        return [f"table1: rows {sorted(got)} != {sorted(want)}"]
    cp_sd = math.sqrt(0.95 * 0.05 / reps)
    for r in rows:
        tag = f"table1 {r['estimator']}[{r['coef']}]"
        s0 = TABLE1_ESTIMATORS[r["estimator"]](TABLE1_N)
        values = [r["bias"], r["se"], r["see"], r["cp"]]
        if not all(math.isfinite(v) for v in values):
            bad.append(f"{tag}: non-finite output {values}")
            continue
        if abs(r["bias"]) > Z_BAND * s0 / math.sqrt(reps) + BIAS_SLACK:
            bad.append(f"{tag}: bias {r['bias']:.4g} outside MC band")
        se_band = Z_BAND / math.sqrt(2 * (reps - 1)) + SE_SLACK
        if abs(r["se"] / s0 - 1) > se_band:
            bad.append(f"{tag}: MC SE {r['se']:.4g} not within {se_band:.0%} of {s0:.4g}")
        if not SEE_BAND[0] <= r["see"] / s0 - 1 <= SEE_BAND[1]:
            bad.append(f"{tag}: mean SE {r['see']:.4g} not within {SEE_BAND} of {s0:.4g}")
        lo = 0.95 - Z_BAND * cp_sd - COVERAGE_SLACK
        hi = 0.95 + Z_BAND * cp_sd
        if not lo <= r["cp"] <= hi:
            bad.append(f"{tag}: coverage {r['cp']:.4g} outside [{lo:.3f}, {hi:.3f}]")
    return bad


POWER_N = 200
POWER_ALPHA = 0.05
SIZE_SLACK = 0.01
POWER_SLACK = 0.03


def check_power(rows: list[tuple], grid: tuple, reps: int) -> list[str]:
    """Size and power of the LPRE test of beta_2 = 0 per grid point, against
    binomial bands around the noncentral chi^2_1 rejection rate."""
    if sorted((b, a) for b, a, _ in rows) != [(b, POWER_ALPHA) for b in sorted(grid)]:
        return [f"power: rows {rows} do not cover beta_2 grid {grid} at alpha {POWER_ALPHA}"]
    bad = []
    for beta2, alpha, rate in rows:
        expected = lpre_power(POWER_N, beta2, alpha)
        lo, hi = _rate_band(expected, reps, SIZE_SLACK if beta2 == 0 else POWER_SLACK)
        if not lo <= rate <= hi:
            bad.append(f"power beta_2={beta2}: rejection rate {rate:.4g} "
                       f"outside [{lo:.3f}, {hi:.3f}] around {expected:.3f}")
    return bad


BODYFAT_METHODS = ("lpre", "lare", "ls", "lad")
BODYFAT_TRAIN = 200


class BodyfatReference:
    """Optima of the body-fat training block and its test block, computed
    once per run from the benchmark's own copy of the design."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x, self.y = x[:BODYFAT_TRAIN], y[:BODYFAT_TRAIN]
        self.z = np.log(self.y)
        self.test_x, self.test_y = x[BODYFAT_TRAIN:], y[BODYFAT_TRAIN:]
        self.ls_beta = np.linalg.lstsq(self.x, self.z, rcond=None)[0]
        self.lad_min = lad_minimum(self.x, self.z)
        self.lare_beta, self.lare_min = lare_minimum(self.x, self.z)


def check_bodyfat(coef_rows, metric_rows, ref: BodyfatReference):
    """Check one body-fat pipeline output; returns (violations, lare_violations).

    ``coef_rows`` are (method, name, estimate, se, p_value) and
    ``metric_rows`` are (method, (mpe, mppe, mape, mspe)).  The LARE
    optimality check is reported apart, because a known solver fault makes
    it fail today.
    """
    p = ref.x.shape[1]
    by_method = {}
    for method, _name, est, se, pval in coef_rows:
        by_method.setdefault(method, []).append((est, se, pval))
    metrics = dict(metric_rows)
    if (sorted(by_method) != sorted(BODYFAT_METHODS) or sorted(metrics) != sorted(BODYFAT_METHODS)
            or any(len(v) != p for v in by_method.values())):
        return [f"bodyfat: expected {p} coefficients and one metric row per method "
                f"{BODYFAT_METHODS}"], []
    bad = []
    beta = {m: np.array([r[0] for r in rows]) for m, rows in by_method.items()}
    for method, rows in by_method.items():
        se = np.array([r[1] for r in rows])
        pval = np.array([r[2] for r in rows])
        if not (np.all(np.isfinite(beta[method])) and np.all(np.isfinite(se)) and np.all(se > 0)):
            bad.append(f"bodyfat {method}: estimates/SEs not finite and positive: {se}")
        if not np.all((pval >= 0) & (pval <= 0.5)):
            bad.append(f"bodyfat {method}: one-sided p-values outside [0, 0.5]")
        yhat = np.exp(ref.test_x @ beta[method])
        want = prediction_metrics(ref.test_y, yhat)
        if not _close(metrics[method], want, METRIC_RTOL):
            bad.append(f"bodyfat {method}: prediction metrics {metrics[method]} != {want}")
    if not _close(beta["ls"], ref.ls_beta, LS_BETA_RTOL):
        bad.append("bodyfat ls: beta differs from lstsq")
    gnorm = float(np.linalg.norm(lpre_gradient(ref.x, ref.y, beta["lpre"])))
    if gnorm > LPRE_GRADIENT_TOL:
        bad.append(f"bodyfat lpre: gradient norm {gnorm:.3g} > {LPRE_GRADIENT_TOL}")
    lad = float(np.sum(np.abs(ref.z - ref.x @ beta["lad"])))
    if lad > ref.lad_min * (1 + CRITERION_RTOL):
        bad.append(f"bodyfat lad: criterion {lad!r} above LP optimum {ref.lad_min!r}")
    lare = lare_criterion(ref.x, ref.z, beta["lare"])
    lare_bad = []
    if not lare <= ref.lare_min * (1 + CRITERION_RTOL):
        lare_bad.append(f"bodyfat lare: criterion {lare!r} above convex minimum "
                        f"{ref.lare_min!r} (gap {lare - ref.lare_min:.3g})")
    return bad, lare_bad
