"""End-to-end acceptance checks.

Each test prints (and records for the terminal summary) a single
pass/fail line.  The body-fat check is skipped when the dataset file is
not present; everything else is self-contained and deterministic.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.stats import chisquare, ks_2samp

from relerr.criteria import ASYMMETRIC, MAX, PRODUCT, SUM, gre_loss
from relerr.data import Dataset
from relerr.distributions import (
    EFFICIENT_KINDS,
    ErrorLaw,
    Sampler,
    density,
    population_constants,
)
from relerr.evaluate import bodyfat_pipeline
from relerr.simulate import SimulationConfig, run_estimation_study, run_power_study
from relerr.solver import TOL_GRADIENT, fit_gre, fit_lpre

import conftest
from conftest import lpre_gradient, lpre_hessian, random_dataset

BODYFAT_CSV = Path(__file__).resolve().parent.parent / "data" / "bodyfat.csv"


def _report(num, passed, description):
    status = "PASS" if passed else "FAIL"
    line = f"criterion {num:2d}: {status} - {description}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


def _skip(num, description):
    line = f"criterion {num:2d}: SKIP - {description}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    pytest.skip(line)


def test_criterion_01_derivatives_match_finite_differences():
    rng = np.random.default_rng(20130501)
    h = 1e-6
    started = time.perf_counter()
    ok = True
    for _ in range(200):
        n = int(rng.integers(10, 51))
        p = int(rng.integers(1, 6))
        data, _ = random_dataset(rng, n=n, p=p)
        beta = rng.uniform(-1, 1, p)
        grad = lpre_gradient(beta, data)
        hess = lpre_hessian(beta, data)
        fd_grad = np.empty(p)
        fd_hess = np.empty((p, p))
        for j in range(p):
            e = np.zeros(p)
            e[j] = h
            fd_grad[j] = (gre_loss(PRODUCT, beta + e, data)
                          - gre_loss(PRODUCT, beta - e, data)) / (2 * h)
            fd_hess[:, j] = (lpre_gradient(beta + e, data)
                             - lpre_gradient(beta - e, data)) / (2 * h)
        ok &= bool(np.allclose(grad, fd_grad, rtol=1e-6, atol=1e-8))
        ok &= bool(np.allclose(hess, fd_hess, rtol=1e-5, atol=1e-6))
    elapsed = time.perf_counter() - started
    _report(1, ok and elapsed < 5.0,
            f"gradient/Hessian vs finite differences on 200 draws ({elapsed:.1f}s)")


def test_criterion_02_minimizer_unique_across_starts():
    rng = np.random.default_rng(20130501)
    started = time.perf_counter()
    worst = 0.0
    certified = True
    for _ in range(50):
        data, _ = random_dataset(rng, n=60, p=3)
        fits = []
        for _ in range(10):
            beta, cert, overflow = conftest.minimize_from(PRODUCT, data, rng.uniform(-2, 2, 3))
            certified &= not overflow and cert <= TOL_GRADIENT
            fits.append(beta)
        fits = np.array(fits)
        spread = np.max(fits, axis=0) - np.min(fits, axis=0)
        worst = max(worst, float(spread.max()))
    elapsed = time.perf_counter() - started
    _report(2, certified and worst < 1e-8 and elapsed < 10.0,
            f"10 starts x 50 datasets certify and agree (max spread {worst:.1e}, "
            f"{elapsed:.1f}s)")


def test_criterion_03_intercept_only_closed_form():
    rng = np.random.default_rng(20130501)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 200))
        y = rng.uniform(0.05, 20.0, n)
        fit = fit_lpre(Dataset(np.ones((n, 1)), y))
        expected = 0.5 * math.log(np.sum(y) / np.sum(1.0 / y))
        worst = max(worst, abs(fit.beta[0] - expected))
    _report(3, worst < 1e-10,
            f"intercept-only fit equals closed form (max error {worst:.1e})")


def test_criterion_04_lognormal_estimation_metrics():
    config = SimulationConfig(
        beta_true=(1.0, 1.0, 1.0),
        error_law=ErrorLaw.log_normal(0.0, 1.0),
        n=200,
        replications=500,
        estimators=("lpre",),
        seed=10,
    )
    rows = run_estimation_study(config)
    ok = all(
        abs(r.bias) < 0.01
        and 0.065 <= r.se <= 0.085
        and 0.065 <= r.see <= 0.085
        and abs(r.se - r.see) < 0.008
        and 0.93 <= r.cp <= 0.97
        for r in rows
    )
    detail = "; ".join(
        f"b{r.coef}: bias {r.bias:+.4f} se {r.se:.4f} see {r.see:.4f} cp {r.cp:.3f}"
        for r in rows
    )
    _report(4, ok, f"log-normal study metrics ({detail})")


def test_criterion_05_efficiency_ordering_at_product_density():
    config = SimulationConfig(
        beta_true=(1.0, 1.0, 1.0),
        error_law=ErrorLaw("lpre_efficient"),
        n=200,
        replications=500,
        estimators=("lpre", "lare", "ls", "lad"),
        seed=10,
        compute_see=False,
    )
    rows = run_estimation_study(config)
    mean_se = {
        est: float(np.mean([r.se for r in rows if r.estimator == est]))
        for est in ("lpre", "lare", "ls", "lad")
    }
    # the LPRE-vs-LS asymptotic gap is ~1%, below per-coordinate Monte
    # Carlo noise at 500 replications, so compare coordinate-averaged SEs
    ok = (mean_se["lpre"] < mean_se["lad"]
          and mean_se["lpre"] <= mean_se["lare"]
          and mean_se["lpre"] <= mean_se["ls"])
    detail = ", ".join(f"{k} {v:.4f}" for k, v in mean_se.items())
    _report(5, ok, f"SE ordering at the product-efficient density ({detail})")


def test_criterion_06_test_size_lognormal():
    config = SimulationConfig(
        beta_true=(1.0, 1.0, 0.0),
        error_law=ErrorLaw.log_normal(0.0, 1.0),
        n=200,
        replications=1000,
        seed=10,
        compute_see=False,
    )
    rows = run_power_study(config, hypothesis_coefs=[2],
                           beta_grid=[(1.0, 1.0, 0.0)],
                           alpha_levels=(0.05, 0.01))
    rate = {r.alpha: r.reject_rate for r in rows}
    ok = 0.03 <= rate[0.05] <= 0.07 and rate[0.01] <= 0.02
    _report(6, ok,
            f"size under a true null (alpha 0.05 -> {rate[0.05]:.3f}, "
            f"0.01 -> {rate[0.01]:.3f})")


def test_criterion_07_test_power_loguniform():
    config = SimulationConfig(
        beta_true=(1.0, 1.0, 0.0),
        error_law=ErrorLaw.log_uniform(-2.0, 2.0),
        n=200,
        replications=500,
        seed=42,
        compute_see=False,
    )
    grid = [(1.0, 1.0, b2) for b2 in (0.0, 0.1, 0.2, 0.3, 0.4)]
    rows = run_power_study(config, hypothesis_coefs=[2], beta_grid=grid,
                           alpha_levels=(0.05,))
    rates = [r.reject_rate for r in rows]
    monotone = all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    ok = monotone and 0.77 <= rates[2] <= 0.87
    _report(7, ok,
            "power along beta2 grid "
            + " -> ".join(f"{r:.3f}" for r in rates))


def test_criterion_08_d_equals_v_at_efficient_density():
    con = population_constants(ErrorLaw("lpre_efficient"))
    rel = abs(con["d_scalar"] - con["v_scalar"]) / con["d_scalar"]
    _report(8, rel < 1e-5,
            f"E(eps + 1/eps) = E((eps - 1/eps)^2) to relative error {rel:.1e}")


def test_criterion_09_sampler_goodness_of_fit():
    n_draws = 100_000
    n_bins = 50
    ok = True
    details = []
    for kind in EFFICIENT_KINDS:
        law = ErrorLaw(kind)
        draws = Sampler(law).draw(np.random.default_rng(20130501), n_draws)

        # Quantiles of eps from its density alone: r = log eps has the even
        # density eps * density(eps), so P(r <= s) = 1/2 + sign(s) H(|s|)
        # with H the cumulative integral of that density over [0, |s|].
        r = np.linspace(0.0, 8.0, 8001)
        half = cumulative_simpson(np.exp(r) * density(law, np.exp(r)), x=r, initial=0.0)
        assert abs(half[-1] - 0.5) < 1e-9
        probs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
        edges = np.exp(np.sign(probs - 0.5) * np.interp(np.abs(probs - 0.5), half, r))
        counts, _ = np.histogram(draws, bins=[0.0, *edges, np.inf])
        gof_p = float(chisquare(counts, f_exp=n_draws / n_bins).pvalue)
        # eps and 1/eps must share one distribution; use an independent
        # second sample so the two-sample statistic has its usual scale
        second = Sampler(law).draw(np.random.default_rng(20130502), n_draws)
        ks = float(ks_2samp(draws, 1.0 / second).statistic)
        ok &= gof_p > 0.01 and ks < 0.01
        details.append(f"{kind}: chi2 p {gof_p:.3f}, KS {ks:.4f}")
    _report(9, ok, "; ".join(details))


def test_criterion_10_bodyfat_case_study():
    if not BODYFAT_CSV.exists():
        _skip(10, f"body-fat dataset not present at {BODYFAT_CSV}")
    coef_rows, metric_rows = bodyfat_pipeline(BODYFAT_CSV)
    metrics = {m: vals for m, vals in metric_rows}
    reference = {"mpe": 3.679, "mppe": 0.039, "mape": 0.401, "mspe": 13.537}
    lpre = metrics["lpre"]
    within = all(
        abs(getattr(lpre, key) - ref) <= 0.10 * ref
        for key, ref in reference.items()
    )
    smallest = all(
        getattr(lpre, key) <= min(getattr(vals, key) for vals in metrics.values())
        for key in reference
    )
    abdomen = all(
        p < 0.001
        for method, name, _est, _see, p in coef_rows
        if name == "abdomen"
    )
    _report(10, within and smallest and abdomen,
            f"body-fat study (lpre metrics {lpre.as_tuple()})")


def test_criterion_11_response_scale_invariance():
    rng = np.random.default_rng(3)
    n = 80
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 2))])
    beta = np.array([1.0, 0.5, -0.5])
    y = np.exp(x @ beta) * np.exp(0.4 * rng.standard_normal(n))
    data = Dataset(x, y)
    scaled = Dataset(x, y * 1000.0)
    worst_slope = 0.0
    worst_intercept = 0.0
    fitters = (
        fit_lpre,
        lambda d: fit_gre(SUM, d),
        lambda d: fit_gre(MAX, d),
        lambda d: fit_gre(ASYMMETRIC, d),
    )
    for fitter in fitters:
        base = fitter(data)
        shifted = fitter(scaled)
        worst_intercept = max(
            worst_intercept,
            abs(shifted.beta[0] - base.beta[0] - math.log(1000.0)))
        worst_slope = max(
            worst_slope, float(np.max(np.abs(shifted.beta[1:] - base.beta[1:]))))
    _report(11, worst_slope <= 1e-8 and worst_intercept <= 1e-6,
            f"y x1000 shifts only the intercept (slope diff {worst_slope:.1e}, "
            f"intercept diff {worst_intercept:.1e})")
