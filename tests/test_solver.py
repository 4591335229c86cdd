import collections
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import minimize

from relerr.criteria import ASYMMETRIC, CRITERIA, MAX, PRODUCT, SUM, gre_loss
from relerr import solver
from relerr.data import Dataset
from relerr.errors import ConvergenceError, SingularDesignError
from relerr.inference import random_weight_covariance
from relerr.solver import (
    LinearHypothesis,
    check_design,
    fit_constrained_lpre,
    fit_gre,
    fit_lad_log,
    fit_lpre,
    fit_ls_log,
)

from conftest import (fit_batch, lad_log_loss, lpre_gradient, lpre_loss, minimize_from,
                      random_dataset)


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
        scaled = fit_lpre(Dataset(data.x, data.y * 1000.0))
        assert scaled.beta[0] == pytest.approx(fit.beta[0] + math.log(1000.0), abs=1e-9)
        np.testing.assert_allclose(scaled.beta[1:], fit.beta[1:], atol=1e-9)

    def test_extreme_start_still_converges(self, rng):
        data, _ = random_dataset(rng, n=50)
        beta, cert, overflow = minimize_from(PRODUCT, data, np.full(data.p, 5.0))
        assert not overflow and cert <= solver.TOL_GRADIENT
        ref = fit_lpre(data)
        np.testing.assert_allclose(beta, ref.beta, atol=1e-8)


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


class TestRankScreen:
    """``_rank_errors`` screens designs by the eigenvalues of X'X and sends
    the ones it does not clear to the SVD of ``_ranks``; its decision is the
    SVD's on every design."""

    @staticmethod
    def designs(p, n=40):
        """Designs (B, n, p) with s_min / s_max from 1e-1 down to 1e-16 (and
        around the SVD's cut n * eps), a repeated column, a zero column,
        columns and designs scaled by 1e+-150, and a design scaled beyond
        underflow and one whose X'X overflows."""
        rng = np.random.default_rng(p)
        out = []
        for ratio in [*10.0 ** -np.arange(1, 17), 3e-14, 9e-15, 8e-15, 5e-15]:
            u = np.linalg.qr(rng.standard_normal((n, p)))[0]
            v = np.linalg.qr(rng.standard_normal((p, p)))[0]
            out.append(u * np.geomspace(1.0, ratio, p) @ v.T)
        base = rng.standard_normal((n, p))
        out.append(base)
        for scale in (1e150, 1e-150, 1e-161, 1e160):
            out.append(base * scale)
            column = base.copy()
            column[:, -1] *= scale
            out.append(column)
        repeated, zero = base.copy(), base.copy()
        repeated[:, -1] = base[:, 0]
        zero[:, -1] = 0.0
        return np.stack(out + [repeated, zero])

    @pytest.mark.parametrize("p", [1, 3, 13])
    def test_decisions_are_the_svds(self, p, monkeypatch):
        x = self.designs(p)
        ranks = solver._ranks(x)[0]
        judged = []
        ranks_ = solver._ranks

        def counted(xs):
            judged.append(len(xs))
            return ranks_(xs)

        monkeypatch.setattr(solver, "_ranks", counted)
        errors = solver._rank_errors(x)
        assert {b: str(e) for b, e in errors.items()} == {
            b: f"design matrix has rank {r} < p = {p}" for b, r in enumerate(ranks) if r < p}
        assert all(isinstance(e, SingularDesignError) for e in errors.values())
        # both decisions occur, and the screen clears some designs itself
        assert 0 < len(errors) < len(x)
        assert judged and judged[0] < len(x)

    def test_screen_clears_every_table1_design(self, monkeypatch):
        from relerr import simulate

        def no_svd(x):
            raise AssertionError("a design went to the SVD")

        config = simulate.load_config(
            Path(__file__).parents[1] / "configs" / "table1_lognormal.cfg")["config"]
        monkeypatch.setattr(solver, "_ranks", no_svd)
        for start in (0, 80, 160):
            _, x, _, _ = simulate._draw_chunk(config, range(start, start + 80))
            assert solver._rank_errors(x) == {}


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

    @pytest.mark.parametrize("hyp", [
        LinearHypothesis.zero_coefs([2], 3), LinearHypothesis.zero_coefs([1, 2], 3),
        LinearHypothesis.zero_coefs([1], 13), LinearHypothesis.zero_coefs([3, 5, 7], 13),
        LinearHypothesis(np.random.default_rng(4).standard_normal((13, 4))),
    ], ids=["p3_q1", "p3_q2", "p13_q1", "p13_q3", "random_13x4"])
    def test_null_basis_matches_scipy_null_space(self, hyp):
        basis = hyp.null_basis()
        assert basis.shape == (hyp.p, hyp.p - hyp.q)
        np.testing.assert_allclose(basis, scipy.linalg.null_space(hyp.h.T), rtol=0, atol=1e-15)
        np.testing.assert_allclose(basis.T @ basis, np.eye(hyp.p - hyp.q), rtol=0, atol=1e-15)
        np.testing.assert_allclose(hyp.h.T @ basis, 0.0, atol=1e-15)

    def test_one_svd_per_hypothesis(self, monkeypatch):
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        hyp = LinearHypothesis.zero_coefs([1, 2], 4)
        assert hyp.null_basis() is hyp.null_basis()
        assert len(calls) == 1

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
        fit = fit_gre(SUM, data)
        assert fit.criterion == "sum"
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
        scaled = fit_gre(crit, Dataset(data.x, data.y * 1000.0))
        assert scaled.beta[0] == pytest.approx(fit.beta[0] + math.log(1000.0), abs=1e-6)
        np.testing.assert_allclose(scaled.beta[1:], fit.beta[1:], atol=1e-6)


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


def weighted_problem(seed, index):
    """random_dataset(n = 200, p = 3) from ``seed``, and the ``index``-th
    of 20 exponential weight vectors drawn after it."""
    rng = np.random.default_rng(seed)
    data, _ = random_dataset(rng, n=200)
    return data, rng.standard_exponential((20, data.n))[index]


def lad_minimum(data, weights, basis=None):
    """(beta, value) minimizing sum_i w_i |log y_i - x_i'beta| by linear
    program (HiGHS), over beta = basis @ g if a basis is given."""
    from scipy.optimize import linprog

    basis = np.eye(data.p) if basis is None else basis
    x = data.x @ basis
    n, p = x.shape
    cost = np.concatenate([np.zeros(p), weights, weights])
    a_eq = np.hstack([x, np.eye(n), -np.eye(n)])
    res = linprog(cost, A_eq=a_eq, b_eq=np.log(data.y),
                  bounds=[(None, None)] * p + [(0, None)] * (2 * n), method="highs")
    assert res.status == 0, res.message
    return basis @ res.x[:p], res.fun


class TestKinkedCertificates:
    @pytest.mark.parametrize("cert", [math.inf, 5.0])
    @pytest.mark.parametrize("criterion", [ASYMMETRIC, SUM], ids=["asymmetric", "sum"])
    def test_infinite_rounding_floor_certifies_nothing(self, criterion, cert):
        # sigma' overflows at a residual of 800, so the rounding floor is inf
        batch = solver._Batch(criterion, np.ones((1, 1)), np.array([[800.0]]), np.ones((1, 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            assert not batch.certified(np.zeros((1, 1)), np.array([cert]))[0]

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
        _, best = lad_minimum(data, w)
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

    @pytest.mark.parametrize("name", ["sum", "max"])
    def test_fit_with_a_huge_residual(self, name):
        # sinh or exp of one residual near 60 dwarfs the rest of the
        # Hessian, so Cholesky fails on it and the step comes by least
        # squares; the certificate is then at the rounding floor
        data, _ = correlated_design(p=4)
        y = data.y.copy()
        y[0] *= math.exp(60.0)
        y[1] *= math.exp(-30.0)
        assert fit_gre(CRITERIA[name], Dataset(data.x, y)).converged

    # Fits that a certificate treating every |r| <= 1e-4 as at the kink
    # passed away from the minimum, or that stalled; found by scanning the
    # seeds of weighted_problem.
    @pytest.mark.parametrize("seed, index", [(150, 0), (11, 3), (88, 19), (182, 12)])
    def test_weighted_lad_at_linear_program_optimum(self, seed, index):
        # (150, 0) certified 1.7e-7 above the minimum, beta 1.8e-5 off;
        # (88, 19) and (182, 12) raised ConvergenceError
        data, w = weighted_problem(seed, index)
        fit = fit_lad_log(data, weights=w)
        beta, best = lad_minimum(data, w)
        assert fit.converged and fit.gradient_norm <= 1e-10
        np.testing.assert_allclose(fit.beta, beta, rtol=0, atol=1e-10)
        assert abs(fit.criterion_value - best) <= 1e-10 * best

    def test_weighted_lare_that_stalled(self):
        # raised ConvergenceError with KKT residual 0.02
        data, w = weighted_problem(66, 6)
        fit = fit_gre(SUM, data, weights=w)
        assert fit.converged and fit.gradient_norm <= 1e-10
        assert kkt_residual("sum", fit.beta, data, w) <= 1e-8

    def test_resample_at_p13_that_raised(self):
        # resample 36 of 100 raised ConvergenceError with KKT residual 0.089
        data, _ = correlated_design()
        w = np.random.default_rng(2).standard_exponential((100, data.n))[36]
        fit = fit_lad_log(data, weights=w)
        beta, _ = lad_minimum(data, w)
        assert fit.converged and fit.gradient_norm <= 1e-10
        np.testing.assert_allclose(fit.beta, beta, rtol=0, atol=1e-10)

    def test_iteration_cap_raises_with_best_iterate(self, monkeypatch):
        data, _ = correlated_design()
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError) as info:
            fit_gre(SUM, data)
        assert info.value.result is not None
        assert info.value.result.gradient_norm > 1e-10


# -- batches: one Newton loop fits many problems, each as if alone ----------

BATCH = 4


def batch_problems(p):
    """BATCH correlated designs of one shape, their datasets and log y."""
    datasets = [correlated_design(seed=s, p=p)[0] for s in range(20, 20 + BATCH)]
    x = np.stack([d.x for d in datasets])
    return datasets, x, np.log(np.stack([d.y for d in datasets]))


def record_phases(monkeypatch):
    """The set of phase events the Newton loop passes through in the fits
    that follow: "smoothing beside a face" (a batch with rows in both), "hit"
    (a step stopped at the kink ahead), "dropped" (a multiplier outside
    [-1, 1]), "flat face" (a LAD step within a face) and "|S| > p"."""
    seen = set()
    batch, line_search = solver._Batch, solver._line_search
    derivatives, hessians = batch._derivatives, batch.hessians
    project, multipliers = batch.project, batch.multipliers

    def derivatives_(self, beta, eps):
        found = derivatives(self, beta, eps)  # (value, gradient within faces, ...)
        if self.criterion.name == "lad_log" and (solver._norm(found[1][self.face]) > 1e-12).any():
            seen.add("flat face")
        return found

    def hessians_(self, d2, *rows):  # every loop iteration of a kinked batch, for every row
        if 0 < self.face.sum() < len(self.z):
            seen.add("smoothing beside a face")
        return hessians(self, d2, *rows)

    def project_(self, beta):
        if ((self.side == 0.0).sum(axis=1) > beta.shape[1]).any():
            seen.add("|S| > p")
        return project(self, beta)

    def multipliers_(self, beta):
        found = multipliers(self, beta)  # (KKT residual, multipliers, ...)
        if (np.abs(found[1]) > 1.0).any():
            seen.add("dropped")
        return found

    def line_search_(batch, search, beta, value, grad, step, slope, eps, cap):
        found = line_search(batch, search, beta, value, grad, step, slope, eps, cap)
        if (found[1] == cap).any():  # (beta, accepted t, ...)
            seen.add("hit")
        return found

    for name, wrapper in (("_derivatives", derivatives_), ("hessians", hessians_),
                          ("project", project_), ("multipliers", multipliers_)):
        monkeypatch.setattr(batch, name, wrapper)
    monkeypatch.setattr(solver, "_line_search", line_search_)
    return seen


class TestBatchEqualsSingleFits:
    @pytest.mark.parametrize("p", [3, 13])
    @pytest.mark.parametrize("name", sorted(CRITERIA))
    def test_unweighted(self, name, p):
        # the Monte Carlo studies: one design per problem
        datasets, x, z = batch_problems(p)
        fits = fit_batch(CRITERIA[name], x, z, np.ones(z.shape))
        for data, fit in zip(datasets, fits):
            single = fit_gre(CRITERIA[name], data)
            np.testing.assert_allclose(fit.beta, single.beta, rtol=0, atol=1e-10)
            assert fit.gradient_norm == single.gradient_norm
            assert fit.gradient_norm <= solver.TOL_GRADIENT

    @pytest.mark.parametrize("p", [3, 13])
    @pytest.mark.parametrize("name", sorted(CRITERIA))
    def test_exponential_weights(self, name, p):
        # random weighting: one design shared by every problem
        data, _ = correlated_design(p=p)
        w = np.random.default_rng(p).standard_exponential((BATCH, data.n))
        z = np.broadcast_to(np.log(data.y), w.shape)
        fits = fit_batch(CRITERIA[name], data.x, z, w)
        for weights, fit in zip(w, fits):
            single = fit_gre(CRITERIA[name], data, weights=weights)
            # each row's products are those of its fit alone, bit for bit
            np.testing.assert_array_equal(fit.beta, single.beta)
            assert fit.gradient_norm == single.gradient_norm
            assert fit.gradient_norm <= solver.TOL_GRADIENT

    @pytest.mark.parametrize("p", [3, 13])
    @pytest.mark.parametrize("name", sorted(CRITERIA))
    def test_constrained(self, name, p):
        datasets, x, z = batch_problems(p)
        hyp = LinearHypothesis.zero_coefs([2] if p == 3 else [2, 7], p)
        w = np.random.default_rng(p).standard_exponential(z.shape)
        fits = fit_batch(CRITERIA[name], x, z, w, basis=hyp.null_basis())
        for data, weights, fit in zip(datasets, w, fits):
            single = fit_gre(CRITERIA[name], data, weights=weights, hypothesis=hyp)
            np.testing.assert_allclose(fit.beta, single.beta, rtol=0, atol=1e-10)
            assert fit.gradient_norm == single.gradient_norm
            assert fit.gradient_norm <= solver.TOL_GRADIENT

    @pytest.mark.parametrize("name", sorted(KINKED))
    def test_rows_in_different_phases(self, name, monkeypatch):
        # Random weighting of one dataset (20 resamples) beside its exactly
        # fitted twin: in one batch, rows smooth while others are on a face,
        # steps hit kinks while multipliers are dropped, LAD steps down flat
        # faces, and the exact row ends its last stage with |S| = n > p.
        seen = record_phases(monkeypatch)
        rng = np.random.default_rng(2)
        data, beta = random_dataset(rng, n=200)
        exact = Dataset(data.x, np.exp(data.x @ beta))
        z = np.log(np.vstack([np.tile(data.y, (20, 1)), exact.y]))
        w = np.vstack([rng.standard_exponential((20, data.n)), np.ones(data.n)])
        fits = fit_batch(CRITERIA[name], data.x, z, w)
        events = {"smoothing beside a face", "dropped", "|S| > p"}
        assert events | {"flat face" if name == "lad_log" else "hit"} <= seen
        for dataset, weights, fit in zip([data] * 20 + [exact], w, fits):
            single = fit_gre(CRITERIA[name], dataset, weights=weights)
            np.testing.assert_array_equal(fit.beta, single.beta)
            assert fit.gradient_norm <= solver.TOL_GRADIENT

    def test_uncertified_row_is_reported_alone(self, monkeypatch):
        # One Newton step per smoothing stage and per face cannot certify a
        # LARE fit of noisy data at p = 13; exact responses are certified at
        # their least-squares start.
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
        datasets, x, z = batch_problems(13)
        z[1:] = (x[1:] @ np.linspace(1.0, -0.2, 13)[:, None])[:, :, 0]
        w = np.ones(z.shape)
        fits = fit_batch(SUM, x, z, w)
        assert isinstance(fits[0], ConvergenceError)
        assert fits[0].result.gradient_norm > solver.TOL_GRADIENT
        with pytest.raises(ConvergenceError) as info:
            fit_gre(SUM, datasets[0])
        np.testing.assert_allclose(fits[0].result.beta, info.value.result.beta,
                                   rtol=0, atol=1e-10)
        alone = fit_batch(SUM, x[1:], z[1:], w[1:])
        for fit, ref in zip(fits[1:], alone):
            assert fit.converged
            np.testing.assert_array_equal(fit.beta, ref.beta)


class TestSharedDesignBatches:
    """Random weighting on a correlated design of the body-fat shape (n = 200,
    p = 13): the covariance does not depend on how the resamples are batched."""

    @pytest.mark.parametrize("name", ["lpre", "lare", "lad", "gre:max", "gre:asym"])
    def test_covariance_equal_for_any_batching(self, name, monkeypatch):
        data, _ = correlated_design()
        covs = []
        for rows in (1, 7, 30):  # 30: every resample in one batch
            monkeypatch.setattr(solver, "_BATCH_ELEMENTS", rows * data.n * data.p)
            assert solver._batch_size(data.n, data.p) == rows
            covs.append(random_weight_covariance(name, data, 30, np.random.default_rng(5)).cov)
        assert np.array_equal(covs[0], covs[2]) and np.array_equal(covs[1], covs[2])


class TestBatchBudget:
    """Every array of a batch stays within the mmap threshold that ``solver``
    sets at import, so the studies and random weighting reuse heap blocks
    instead of taking fresh pages from the kernel.  LAD on exactly fitted
    data ends with every residual at the kink, so the face stage gathers all
    n design rows of each problem, the most it can."""

    @pytest.mark.parametrize("shared", [False, True], ids=["stacked", "shared"])
    @pytest.mark.parametrize("n, p", [(200, 3), (200, 13), (251, 13), (60, 3)])
    def test_arrays_within_threshold(self, n, p, shared, monkeypatch):
        seen = []  # (problems in the batch, bytes of its largest array)
        gathered = []  # design rows per problem that a face stage gathers

        def watch(method, extra):
            def watched(batch, *args):
                out = method(batch, *args)
                found = out if isinstance(out, tuple) else (out,)
                arrays = [a for a in (*vars(batch).values(), *found) if isinstance(a, np.ndarray)]
                arrays += extra(batch)
                seen.append((len(batch.z), max(a.nbytes for a in arrays)))
                return out
            return watched

        def gather(batch, on, m):
            out = gather_(batch, on, m)
            gathered.append(m)
            seen.append((len(batch.z), out[0].nbytes))
            return out

        # the temporary x * s of the Hessians is (B, n, p)
        stack = lambda batch: [np.broadcast_to(batch.x, (len(batch.z), n, p))]
        gather_ = solver._Batch._gather
        monkeypatch.setattr(solver._Batch, "_derivatives",
                            watch(solver._Batch._derivatives, lambda b: []))
        monkeypatch.setattr(solver._Batch, "hessians", watch(solver._Batch.hessians, stack))
        monkeypatch.setattr(solver._Batch, "project", watch(solver._Batch.project, lambda b: []))
        monkeypatch.setattr(solver._Batch, "multipliers",
                            watch(solver._Batch.multipliers, lambda b: []))
        monkeypatch.setattr(solver._Batch, "_gather", gather)
        size = solver._batch_size(n, p)
        rng = np.random.default_rng(n + p)
        x = np.concatenate([np.ones((size + 1, n, 1)),
                            rng.standard_normal((size + 1, n, p - 1))], axis=2)
        x = x[0] if shared else x
        z = (x @ rng.uniform(-0.2, 0.2, (size + 1, p, 1)))[:, :, 0]
        w = rng.standard_exponential(z.shape)
        fits = fit_batch(CRITERIA["lad_log"], x, z, w)  # a full batch and one more
        assert all(fit.converged for fit in fits)
        assert max(problems for problems, _ in seen) == size
        assert max(gathered) == n
        assert max(largest for _, largest in seen) <= solver._MMAP_THRESHOLD


class TestLineSearch:
    """Without a kink every trial of the line search is evaluated with its
    derivatives, and each searched row's are returned at its accepted point;
    with one, a trial that takes them reads its Armijo value from them."""

    @staticmethod
    def problems():
        """Three problems of ``batch_problems`` and their least-squares fits."""
        _, x, z = batch_problems(3)
        x, z = x[:3], z[:3]
        xt = np.swapaxes(x, 1, 2)
        return x, z, np.linalg.solve(xt @ x, xt @ z[:, :, None])[:, :, 0]

    def test_parts_at_accepted_points_after_a_rejected_trial(self):
        # Damped Newton on LPRE accepts t = 1 even from far away, so one row's
        # step is stretched 20-fold for t = 1 to fail the Armijo test.
        x, z, beta = self.problems()
        batch = solver._Batch(PRODUCT, x, z, np.ones(z.shape))
        eps = np.zeros(3)
        value, grad, _, d2 = batch._derivatives(beta, eps)
        step = solver._solve(batch.hessians(d2), -grad)
        step[1] *= 20.0
        slope = (grad * step).sum(axis=1)
        moved, t, parts = solver._line_search(batch, np.ones(3, dtype=bool), beta, value, grad,
                                              step, slope, eps, np.full(3, np.inf))
        assert t[0] == t[2] == 1.0 and 0.0 < t[1] < 1.0
        np.testing.assert_array_equal(moved, beta + t[:, None] * step)
        for got, want in zip(parts, batch._derivatives(moved, eps)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(CRITERIA))
    def test_derivatives_value_is_the_value(self, name):
        # smoothing rows at two widths and a row on a face
        x, z, beta = self.problems()
        w = np.random.default_rng(1).standard_exponential(z.shape)
        batch = solver._Batch(CRITERIA[name], x, z, w)
        r = batch._residuals(beta)
        batch.side[2] = np.where(np.arange(z.shape[1]) < 3, 0.0, np.sign(r[2]))
        batch.faces_changed()
        eps = np.array([1e-1, 1e-6, 1e-6])
        np.testing.assert_array_equal(batch._derivatives(beta, eps)[0], batch.value(beta, eps))


class TestEvaluationsPerPoint:
    """A smooth batch evaluates each Newton point once and forms a Hessian
    only for a row that steps: a row carries the value, gradient and rho''
    of the trial its line search accepts to its next step, and a certified
    row leaves the batch before its Hessian."""

    @staticmethod
    def counted(monkeypatch):
        """(evaluations by (problem, beta, eps), Hessian rows formed) in the fits that follow."""
        points, hessian_rows = collections.Counter(), []
        derivatives, value, hessians = (solver._Batch._derivatives, solver._Batch.value,
                                        solver._Batch.hessians)

        def evaluating(method):
            def counted_(batch, beta, eps):
                for z, w, b, e in zip(batch.z, batch.w, beta, eps):
                    points[z.tobytes(), w.tobytes(), b.tobytes(), float(e)] += 1
                return method(batch, beta, eps)
            return counted_

        def hessians_(batch, d2, *rows):
            hessian_rows.append(len(d2))
            return hessians(batch, d2, *rows)

        monkeypatch.setattr(solver._Batch, "_derivatives", evaluating(derivatives))
        monkeypatch.setattr(solver._Batch, "value", evaluating(value))
        monkeypatch.setattr(solver._Batch, "hessians", hessians_)
        return points, hessian_rows

    @staticmethod
    def problems(shared, p):
        """BATCH problems: stacked designs, or one design with exponential weights."""
        if shared:
            data, _ = correlated_design(p=p)
            w = np.random.default_rng(p).standard_exponential((BATCH, data.n))
            return data.x, np.broadcast_to(np.log(data.y), w.shape), w
        _, x, z = batch_problems(p)
        return x, z, np.ones(z.shape)

    @pytest.mark.parametrize("shared", [False, True], ids=["stacked", "shared"])
    @pytest.mark.parametrize("p", [3, 13])
    @pytest.mark.parametrize("name", ["product", "ls_log"])
    def test_each_point_evaluated_once(self, name, p, shared, monkeypatch):
        points, hessian_rows = self.counted(monkeypatch)
        fits = fit_batch(CRITERIA[name], *self.problems(shared, p))
        assert all(fit.converged for fit in fits)
        assert max(points.values()) == 1
        assert sum(hessian_rows) == sum(fit.iterations for fit in fits)
        if name == "product":
            assert all(fit.iterations > 0 for fit in fits)
        else:  # the weighted least-squares start is certified: no Hessian at all
            assert len(points) == BATCH and hessian_rows == []

