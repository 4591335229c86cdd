import math

import numpy as np
import pytest
from scipy.optimize import minimize

from relerr.criteria import (
    ASYMMETRIC,
    CRITERIA,
    MAX,
    SUM,
    gre_loss,
    lad_log_loss,
    lpre_gradient,
    lpre_loss,
)
from relerr.data import Dataset, make_dataset
from relerr.errors import ConvergenceError, SingularDesignError
from relerr.solver import (
    LinearHypothesis,
    SolverOptions,
    check_design,
    fit_constrained_lpre,
    fit_gre,
    fit_lad_log,
    fit_lare,
    fit_lpre,
    fit_ls_log,
)

from conftest import random_dataset


class TestFitLpre:
    def test_exact_data_recovers_beta(self, rng):
        data, beta = random_dataset(rng)
        exact = Dataset(data.x, np.exp(data.x @ beta))
        fit = fit_lpre(exact)
        assert fit.converged
        np.testing.assert_allclose(fit.beta, beta, atol=1e-8)
        assert fit.criterion_value == pytest.approx(0.0, abs=1e-12)

    def test_intercept_only_closed_form(self, rng):
        # with only an intercept the minimizer is b = 0.5*log(sum y / sum 1/y)
        y = rng.uniform(0.2, 5.0, 40)
        data = Dataset(np.ones((40, 1)), y)
        fit = fit_lpre(data)
        expected = 0.5 * math.log(np.sum(y) / np.sum(1.0 / y))
        assert fit.beta[0] == pytest.approx(expected, abs=1e-10)

    def test_stationarity_and_gradient_norm(self, rng):
        data, _ = random_dataset(rng, n=80)
        fit = fit_lpre(data)
        assert fit.converged
        gnorm = np.linalg.norm(lpre_gradient(fit.beta, data))
        assert gnorm <= 1e-8
        assert fit.gradient_norm == pytest.approx(gnorm, abs=1e-12)

    def test_agrees_with_generic_optimizer(self, rng):
        data, _ = random_dataset(rng, n=60)
        fit = fit_lpre(data)
        ref = minimize(
            lambda b: lpre_loss(b, data),
            fit_ls_log(data).beta,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000},
        )
        np.testing.assert_allclose(fit.beta, ref.x, atol=1e-6)
        assert fit.criterion_value <= ref.fun + 1e-10

    def test_beats_nearby_points(self, rng):
        data, _ = random_dataset(rng, n=50)
        fit = fit_lpre(data)
        for _ in range(200):
            trial = fit.beta + rng.uniform(-0.05, 0.05, data.p)
            assert lpre_loss(trial, data) >= fit.criterion_value - 1e-12

    def test_scale_equivariance(self, rng):
        data, _ = random_dataset(rng, n=50)
        fit = fit_lpre(data)
        scaled = fit_lpre(data.scale_y(1000.0))
        assert scaled.beta[0] == pytest.approx(fit.beta[0] + math.log(1000.0), abs=1e-9)
        np.testing.assert_allclose(scaled.beta[1:], fit.beta[1:], atol=1e-9)

    def test_extreme_start_still_converges(self, rng):
        data, _ = random_dataset(rng, n=50)
        opts = SolverOptions(initial_beta=np.full(data.p, 5.0))
        fit = fit_lpre(data, opts)
        assert fit.converged
        ref = fit_lpre(data)
        np.testing.assert_allclose(fit.beta, ref.beta, atol=1e-8)


class TestDesignChecks:
    def test_duplicate_column_rejected(self, rng):
        z = rng.standard_normal(20)
        x = np.column_stack([np.ones(20), z, z])
        data = Dataset(x, np.exp(z) * rng.uniform(0.5, 2.0, 20))
        report = check_design(data)
        assert report.singular
        with pytest.raises(SingularDesignError):
            fit_lpre(data)

    def test_well_conditioned_design_passes(self, rng):
        data, _ = random_dataset(rng)
        report = check_design(data)
        assert not report.singular
        assert report.rank == data.p


class TestConstrainedFit:
    def test_zero_coef_constraint(self, rng):
        data, _ = random_dataset(rng, n=60, p=4)
        hyp = LinearHypothesis.zero_coefs([2], 4)
        fit = fit_constrained_lpre(data, hyp)
        assert fit.beta[2] == pytest.approx(0.0, abs=1e-12)
        # must equal an unconstrained fit on the reduced design
        reduced = Dataset(data.x[:, [0, 1, 3]], data.y)
        ref = fit_lpre(reduced)
        np.testing.assert_allclose(fit.beta[[0, 1, 3]], ref.beta, atol=1e-8)
        assert fit.criterion_value >= fit_lpre(data).criterion_value - 1e-12

    def test_general_linear_constraint(self, rng):
        data, _ = random_dataset(rng, n=60, p=3)
        h = np.array([[0.0], [1.0], [-1.0]])  # beta_1 = beta_2
        fit = fit_constrained_lpre(data, LinearHypothesis(h))
        assert fit.beta[1] == pytest.approx(fit.beta[2], abs=1e-10)
        # stationary within the constraint subspace
        basis = LinearHypothesis(h).null_basis()
        proj = basis.T @ lpre_gradient(fit.beta, data)
        np.testing.assert_allclose(proj, 0.0, atol=1e-8)

    def test_full_constraint_returns_zero(self, rng):
        data, _ = random_dataset(rng, p=3)
        fit = fit_constrained_lpre(data, LinearHypothesis(np.eye(3)))
        np.testing.assert_allclose(fit.beta, 0.0)
        assert fit.criterion_value == pytest.approx(lpre_loss(np.zeros(3), data))


class TestLogScaleFits:
    def test_ls_log_matches_lstsq(self, rng):
        data, _ = random_dataset(rng, n=50)
        fit = fit_ls_log(data)
        ref, *_ = np.linalg.lstsq(data.x, np.log(data.y), rcond=None)
        np.testing.assert_allclose(fit.beta, ref, atol=1e-10)

    def test_lad_log_odd_sample_interpolates_median(self, rng):
        # intercept-only LAD on an odd sample is the sample median
        y = np.exp(rng.standard_normal(21))
        data = Dataset(np.ones((21, 1)), y)
        fit = fit_lad_log(data)
        assert fit.beta[0] == pytest.approx(np.median(np.log(y)), abs=1e-6)

    def test_lad_log_beats_ls_on_lad_loss(self, rng):
        data, _ = random_dataset(rng, n=60)
        lad = fit_lad_log(data)
        ls = fit_ls_log(data)
        assert lad_log_loss(lad.beta, data) <= lad_log_loss(ls.beta, data) + 1e-8


class TestGreFits:
    def test_product_dispatches_to_newton(self, rng):
        from relerr.criteria import PRODUCT
        data, _ = random_dataset(rng, n=50)
        fit = fit_gre(PRODUCT, data)
        ref = fit_lpre(data)
        np.testing.assert_allclose(fit.beta, ref.beta, atol=1e-10)

    def test_lare_minimizes_sum_criterion(self, rng):
        data, _ = random_dataset(rng, n=50)
        fit = fit_lare(data)
        assert fit.criterion == "lare"
        base = gre_loss(SUM, fit.beta, data)
        for _ in range(200):
            trial = fit.beta + rng.uniform(-0.05, 0.05, data.p)
            assert gre_loss(SUM, trial, data) >= base - 1e-9

    @pytest.mark.parametrize("crit", [MAX, ASYMMETRIC])
    def test_nonsmooth_fits_beat_neighbours(self, rng, crit):
        data, _ = random_dataset(rng, n=40)
        fit = fit_gre(crit, data)
        base = gre_loss(crit, fit.beta, data)
        for _ in range(100):
            trial = fit.beta + rng.uniform(-0.05, 0.05, data.p)
            assert gre_loss(crit, trial, data) >= base - 1e-8

    @pytest.mark.parametrize("crit", [MAX, ASYMMETRIC])
    def test_gre_scale_equivariance(self, rng, crit):
        data, _ = random_dataset(rng, n=40)
        fit = fit_gre(crit, data)
        scaled = fit_gre(crit, data.scale_y(1000.0))
        assert scaled.beta[0] == pytest.approx(fit.beta[0] + math.log(1000.0), abs=1e-6)
        np.testing.assert_allclose(scaled.beta[1:], fit.beta[1:], atol=1e-6)


def test_make_dataset_adds_intercept(rng):
    z = rng.standard_normal((10, 2))
    data = make_dataset(z, np.exp(rng.standard_normal(10)))
    assert data.p == 3
    np.testing.assert_array_equal(data.x[:, 0], 1.0)


# -- optimality certificates computed apart from the solver -----------------

#: derivative of rho off the kink, and the half-width of its subgradient
#: interval at r = 0, from the relative-error definitions a = |1 - e^-r|,
#: b = |e^r - 1|
KINKED = {
    "sum": (lambda r: 2.0 * np.sign(r) * np.cosh(r), 2.0),
    "max": (lambda r: np.sign(r) * np.exp(np.abs(r)), 1.0),
    "asymmetric": (lambda r: np.sign(r) * (np.exp(-r) + np.exp(r)
                                           * np.exp(np.abs(np.exp(r) - 1.0))), 2.0),
    "lad_log": (lambda r: np.sign(r), 1.0),
}
AT_KINK = 1e-6


def correlated_design(seed=13, n=200, p=13):
    """Covariates sharing one N(0, 1) factor (pairwise correlation ~0.8)."""
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal((n, 1))
    z = 2.0 * factor + rng.standard_normal((n, p - 1))
    x = np.hstack([np.ones((n, 1)), z])
    beta = np.concatenate([[1.0], rng.uniform(-0.2, 0.2, p - 1)])
    y = np.exp(x @ beta + 0.4 * rng.standard_normal(n))
    return Dataset(x, y), rng.standard_exponential(n)


def kkt_residual(name, beta, data, weights=None, basis=None):
    """min over multipliers v in [-1, 1] (residuals within AT_KINK of 0) of
    the sup-norm of a subgradient, by linear program."""
    from scipy.optimize import linprog

    slope, half = KINKED[name]
    w = np.ones(data.n) if weights is None else weights
    r = np.log(data.y) - data.x @ beta
    kink = np.abs(r) <= AT_KINK
    basis = np.eye(data.p) if basis is None else basis
    g = basis.T @ (-(data.x[~kink].T @ (w[~kink] * slope(r[~kink]))))
    a = basis.T @ (-(half * data.x[kink] * w[kink, None]).T)
    k, m = a.shape[1], g.shape[0]
    # variables (v, t): minimize t subject to -t <= g + a v <= t
    cost = np.concatenate([np.zeros(k), [1.0]])
    ones = np.ones((m, 1))
    a_ub = np.vstack([np.hstack([a, -ones]), np.hstack([-a, -ones])])
    b_ub = np.concatenate([-g, g])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(-1.0, 1.0)] * k + [(0.0, None)], method="highs")
    assert res.status == 0, res.message
    return res.fun


def lad_minimum(data, weights):
    """min_beta sum_i w_i |log y_i - x_i'beta| by linear program (HiGHS)."""
    from scipy.optimize import linprog

    n, p = data.x.shape
    cost = np.concatenate([np.zeros(p), weights, weights])
    a_eq = np.hstack([data.x, np.eye(n), -np.eye(n)])
    res = linprog(cost, A_eq=a_eq, b_eq=np.log(data.y),
                  bounds=[(None, None)] * p + [(0, None)] * (2 * n), method="highs")
    assert res.status == 0, res.message
    return res.fun


class TestKinkedCertificates:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("name", sorted(KINKED))
    def test_kkt_holds(self, name, weighted):
        data, w = correlated_design()
        w = w if weighted else None
        fit = fit_gre(CRITERIA[name], data, weights=w)
        assert kkt_residual(name, fit.beta, data, w) <= 1e-8
        assert fit.converged and fit.gradient_norm <= 1e-10

    @pytest.mark.parametrize("name", sorted(KINKED))
    def test_constrained_kkt_holds(self, name):
        data, w = correlated_design()
        hyp = LinearHypothesis.zero_coefs([2, 7], data.p)
        fit = fit_gre(CRITERIA[name], data, weights=w, hypothesis=hyp)
        np.testing.assert_allclose(fit.beta[[2, 7]], 0.0, atol=1e-14)
        assert kkt_residual(name, fit.beta, data, w, hyp.null_basis()) <= 1e-8
        free = fit_gre(CRITERIA[name], data, weights=w)
        assert fit.criterion_value >= free.criterion_value

    @pytest.mark.parametrize("weighted", [False, True])
    def test_lad_reaches_linear_program_optimum(self, weighted):
        data, w = correlated_design()
        w = w if weighted else np.ones(data.n)
        fit = fit_lad_log(data, weights=w)
        best = lad_minimum(data, w)
        assert abs(fit.criterion_value - best) <= 1e-10 * best

    def test_asymmetric_fit_with_a_large_residual(self):
        # e^b = exp(e^r - 1) overflows at the least-squares start when one
        # response is e^8 times its neighbours
        data, _ = correlated_design(p=4)
        y = data.y.copy()
        y[0] *= math.exp(8.0)
        data = Dataset(data.x, y)
        fit = fit_gre(ASYMMETRIC, data)
        assert math.isfinite(fit.criterion_value)
        assert kkt_residual("asymmetric", fit.beta, data) <= 1e-8

    def test_iteration_cap_raises_with_best_iterate(self):
        data, _ = correlated_design()
        with pytest.raises(ConvergenceError) as info:
            fit_lare(data, SolverOptions(max_iterations=1))
        assert info.value.result is not None
        assert info.value.result.gradient_norm > 1e-10
