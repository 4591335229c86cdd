
import math

import numpy as np
import pytest
from scipy.special import chdtrc, ndtr
from scipy.stats import chi2, norm

from relerr.criteria import PRODUCT, SUM
from relerr.data import Dataset
from relerr.distributions import ErrorLaw, Sampler, population_constants
from relerr import solver
from relerr.errors import RelerrError, ResamplingError
from relerr.inference import (
    ESTIMATORS,
    _chi2_sf,
    _normal_sf,
    gre_anova_test,
    lpre_anova_test,
    ols_log_covariance,
    random_weight_covariance,
    sandwich_covariance,
    wald_p_values,
)
from relerr.solver import FitResult, LinearHypothesis, fit_lpre, fit_ls_log

from conftest import random_dataset


def big_dataset(seed, n=2000, law=None, beta=(1.0, 0.5, -0.5)):
    rng = np.random.default_rng(seed)
    law = law or ErrorLaw.log_normal(0.0, 0.5)
    beta = np.asarray(beta, dtype=float)
    p = beta.shape[0]
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p - 1))])
    y = np.exp(x @ beta) * Sampler(law).draw(rng, n)
    return Dataset(x, y), beta


class TestSandwich:
    def test_matches_population_formula(self):
        # with standard-normal covariates and independent errors the
        # asymptotic covariance is (V / D^2) * E(xx')^{-1} / n
        law = ErrorLaw.log_normal(0.0, 0.5)
        con = population_constants(law)
        data, _ = big_dataset(0, n=20_000, law=law)
        fit = fit_lpre(data)
        cov = sandwich_covariance(fit, data)
        target = (con["v_scalar"] / con["d_scalar"] ** 2) / data.n
        np.testing.assert_allclose(np.diag(cov.cov), target, rtol=0.08)

    def test_d_and_v_hats_symmetric_psd(self, rng):
        data, _ = random_dataset(rng, n=100)
        cov = sandwich_covariance(fit_lpre(data), data)
        for m in (cov.d_hat, cov.v_hat, cov.cov):
            np.testing.assert_allclose(m, m.T, atol=1e-12)
            assert np.linalg.eigvalsh(m).min() > -1e-12

    def test_covariance_shrinks_with_n(self):
        small, _ = big_dataset(1, n=200)
        large, _ = big_dataset(1, n=3200)
        se_small = sandwich_covariance(fit_lpre(small), small).standard_errors()
        se_large = sandwich_covariance(fit_lpre(large), large).standard_errors()
        np.testing.assert_allclose(se_large / se_small, 0.25, rtol=0.35)


class TestWald:
    def test_one_sided_default_and_two_sided(self):
        fit = FitResult(np.array([2.0]), 0.0, 0.0, 1, True, "lpre")
        from relerr.inference import CovarianceEstimate
        est = CovarianceEstimate(cov=np.array([[1.0]]), method="sandwich")
        p1 = wald_p_values(fit, est)
        p2 = wald_p_values(fit, est, two_sided=True)
        assert p1[0] == pytest.approx(norm.sf(2.0), rel=1e-12)
        assert p2[0] == pytest.approx(2 * norm.sf(2.0), rel=1e-12)

    def test_matches_scipy_norm_sf_exactly(self):
        from relerr.inference import CovarianceEstimate
        rng = np.random.default_rng(11)
        beta = np.concatenate([rng.standard_normal(200) * 10.0 ** rng.integers(-3, 3, 200),
                               [0.0, 1.0, -2.5, 0.0, 40.0, -1e-300]])
        se = np.concatenate([rng.uniform(0.01, 3.0, 200), [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]])
        fit = FitResult(beta, 0.0, 0.0, 1, True, "lpre")
        est = CovarianceEstimate(cov=np.diag(se**2), method="sandwich")
        z = np.where(se == 0, np.where(beta == 0, 0.0, np.inf),
                     np.abs(beta) / np.where(se == 0, 1.0, se))
        # equal to rounding: relerr takes the tail from math.erfc
        np.testing.assert_allclose(wald_p_values(fit, est), norm.sf(z), rtol=1e-13, atol=0)
        np.testing.assert_allclose(wald_p_values(fit, est, two_sided=True), 2.0 * norm.sf(z),
                                   rtol=1e-13, atol=0)

    def test_zero_se_edge_cases(self):
        from relerr.inference import CovarianceEstimate
        fit = FitResult(np.array([1.0, 0.0]), 0.0, 0.0, 1, True, "lpre")
        est = CovarianceEstimate(cov=np.zeros((2, 2)), method="sandwich")
        p = wald_p_values(fit, est)
        assert p[0] == 0.0
        assert p[1] == pytest.approx(0.5)


class TestTails:
    # the grid steps by 0.1; at x = 1500, e^(-x/2) underflows
    X = np.concatenate([[0.0, 1e-300], np.linspace(0.0, 60.0, 601), [700.0, 1500.0]])

    @pytest.mark.parametrize("q", range(1, 31))
    def test_chi2_matches_scipy(self, q):
        ours = np.array([_chi2_sf(q, x) for x in self.X])
        ref = chdtrc(q, self.X)
        big = ref > 1e-300
        np.testing.assert_allclose(ours[big], ref[big], rtol=1e-13, atol=0)
        assert np.all(ours[~big] <= 1e-290)
        # a plain odd-q series has sqrt(x) e^(-x/2) = inf * 0 = NaN at x = inf
        assert _chi2_sf(q, math.inf) == 0.0
        assert math.isnan(_chi2_sf(q, math.nan))

    def test_normal_matches_scipy(self):
        z = np.linspace(0.0, 40.0, 4001)
        ours = np.array([_normal_sf(v) for v in z])
        ref = ndtr(-z)
        big = ref > 1e-300
        np.testing.assert_allclose(ours[big], ref[big], rtol=1e-13, atol=0)
        assert np.all(ours[~big] <= 1e-290)
        assert _normal_sf(math.inf) == 0.0
        assert math.isnan(_normal_sf(math.nan))


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_covariance_method_is_the_registry_kind(rng, name):
    data, _ = random_dataset(rng, n=40)
    entry = ESTIMATORS[name]
    cov = entry.covariance_of(entry.fit(data), data, 10, np.random.default_rng(0))
    assert cov.method == entry.covariance


class TestOlsCovariance:
    def test_matches_textbook_formula(self, rng):
        data, _ = random_dataset(rng, n=80)
        fit = fit_ls_log(data)
        cov = ols_log_covariance(fit, data)
        r = np.log(data.y) - data.x @ fit.beta
        s2 = r @ r / (data.n - data.p)
        ref = s2 * np.linalg.inv(data.x.T @ data.x)
        np.testing.assert_allclose(cov.cov, ref, rtol=1e-10)


class TestAnovaTest:
    def test_true_null_large_sample_p_uniformish(self):
        # beta_2 = 0 truly; statistic / k should look chi2(1)
        pvals = []
        for seed in range(40):
            data, _ = big_dataset(seed, n=400, beta=(1.0, 0.5, 0.0))
            res = lpre_anova_test(data, LinearHypothesis.zero_coefs([2], 3))
            assert res.df == 1
            pvals.append(res.p_value)
        pvals = np.asarray(pvals)
        assert 0.2 < pvals.mean() < 0.8
        assert (pvals < 0.05).mean() < 0.25

    def test_false_null_rejected(self):
        data, _ = big_dataset(5, n=1000, beta=(1.0, 0.5, -0.5))
        res = lpre_anova_test(data, LinearHypothesis.zero_coefs([2], 3))
        assert res.p_value < 1e-6
        assert res.statistic > 0

    def test_statistic_is_criterion_gap(self):
        from relerr.solver import fit_constrained_lpre
        data, _ = big_dataset(6, n=300)
        hyp = LinearHypothesis.zero_coefs([1], 3)
        res = lpre_anova_test(data, hyp)
        gap = (fit_constrained_lpre(data, hyp).criterion_value
               - fit_lpre(data).criterion_value)
        assert res.statistic == pytest.approx(gap, abs=1e-10)
        assert res.p_value == pytest.approx(chi2.sf(res.statistic / res.scale, 1), rel=1e-13)

    @pytest.mark.parametrize("seed, beta, zero", [
        (0, (1.0, 0.5, 0.0), [2]), (1, (1.0, 0.5, 0.0), [1, 2]),
        (2, (1.0, 0.5, -0.5), [2]), (3, (1.0, 0.0, 0.0), [1, 2]),
    ])
    def test_p_value_is_scipy_chi2_sf_exactly(self, seed, beta, zero):
        data, _ = big_dataset(seed, n=300, beta=beta)
        res = lpre_anova_test(data, LinearHypothesis.zero_coefs(zero, 3))
        # equal to rounding: relerr takes the tail in closed form
        assert res.p_value == pytest.approx(chi2.sf(res.statistic / res.scale, res.df),
                                            rel=1e-13)

    def test_scale_near_half_at_efficient_density(self):
        law = ErrorLaw("lpre_efficient")
        data, _ = big_dataset(7, n=5000, law=law)
        res = lpre_anova_test(data, LinearHypothesis.zero_coefs([2], 3))
        assert res.scale == pytest.approx(0.5, abs=0.05)


class TestRandomWeighting:
    def test_tracks_sandwich_for_lpre(self):
        data, _ = big_dataset(2, n=300)
        fit = fit_lpre(data)
        plug = sandwich_covariance(fit, data).standard_errors()
        rw = random_weight_covariance(
            "lpre", data, n_resample=400, rng=np.random.default_rng(3))
        assert rw.method == "random_weighting"
        assert rw.n_skipped == 0
        np.testing.assert_allclose(rw.standard_errors(), plug, rtol=0.2)

    def test_tracks_analytic_for_ls_log(self):
        data, _ = big_dataset(3, n=300)
        fit = fit_ls_log(data)
        rw = random_weight_covariance(
            "ls", data, n_resample=400, rng=np.random.default_rng(1))
        analytic = ols_log_covariance(fit, data).standard_errors()
        np.testing.assert_allclose(rw.standard_errors(), analytic, rtol=0.25)

    def test_reproducible_given_rng(self):
        data, _ = big_dataset(4, n=120)
        a = random_weight_covariance("lare", data, n_resample=50,
                                     rng=np.random.default_rng(9))
        b = random_weight_covariance("lare", data, n_resample=50,
                                     rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a.cov, b.cov)

    def test_rejects_tiny_resample_count(self, rng):
        data, _ = random_dataset(rng)
        with pytest.raises(ValueError):
            random_weight_covariance("lpre", data, n_resample=1)

    def test_unknown_estimator_rejected(self, rng):
        data, _ = random_dataset(rng)
        with pytest.raises(ValueError, match=r"unknown estimator 'huber'; expected one of"):
            random_weight_covariance("huber", data, n_resample=10)

    def test_criterion_row_name_rejected(self, rng):
        # "ls_log" is a criterion row; the registry calls that estimator "ls"
        data, _ = random_dataset(rng)
        with pytest.raises(ValueError, match=r"unknown estimator 'ls_log'; expected one of"):
            random_weight_covariance("ls_log", data, n_resample=10)

    def test_uncertified_resample_fits_raise(self, monkeypatch):
        # one Newton step per smoothing stage never certifies a LARE fit
        data, _ = big_dataset(4, n=120)
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
        with pytest.raises(ResamplingError):
            random_weight_covariance("lare", data, n_resample=20,
                                     rng=np.random.default_rng(9))

    def test_failed_resample_fit_is_retried_then_counted(self, monkeypatch):
        data, _ = big_dataset(4, n=120)
        calls = []
        batches = []
        fit_batch = solver._fit_batch

        def first_two_fail(*args, **kwargs):
            # resamples are fitted as batches: fail resample 0 in the first
            # batch and again in the batch of its retry
            fits = fit_batch(*args, **kwargs)
            calls.extend(fits.status)
            batches.append(None)
            if len(batches) <= 2:
                fits.status[0] = solver.UNCERTIFIED
            return fits

        monkeypatch.setattr(solver, "_fit_batch", first_two_fail)
        est = random_weight_covariance("lpre", data, n_resample=20,
                                       rng=np.random.default_rng(9))
        assert est.n_skipped == 1
        assert len(calls) == 21


class TestGreAnova:
    def test_product_agrees_with_chi_squared_version(self):
        data, _ = big_dataset(8, n=300, beta=(1.0, 0.5, 0.0))
        hyp = LinearHypothesis.zero_coefs([2], 3)
        ref = lpre_anova_test(data, hyp)
        res = gre_anova_test(PRODUCT, data, hyp, n_resample=300,
                             rng=np.random.default_rng(12))
        assert res.statistic == pytest.approx(ref.statistic, abs=1e-10)
        assert abs(res.p_value - ref.p_value) < 0.12

    @pytest.mark.parametrize("n_resample", [0, 1])
    def test_rejects_tiny_resample_count(self, n_resample):
        data, _ = big_dataset(9, n=60, beta=(1.0, 0.5, 0.0))
        with pytest.raises(ValueError, match="need at least two resamples"):
            gre_anova_test(SUM, data, LinearHypothesis.zero_coefs([2], 3),
                           n_resample=n_resample, rng=np.random.default_rng(2))

    def test_sum_criterion_false_null_rejected(self):
        data, _ = big_dataset(9, n=250, beta=(1.0, 0.5, -0.8))
        hyp = LinearHypothesis.zero_coefs([2], 3)
        res = gre_anova_test(SUM, data, hyp, n_resample=120,
                             rng=np.random.default_rng(2))
        assert res.p_value < 0.05
        assert res.p_value >= 1.0 / 121.0  # empirical floor

    @pytest.mark.parametrize("criterion", [PRODUCT, SUM], ids=["product", "sum"])
    def test_null_draws_invariant_to_the_tested_coefficient(self, criterion):
        # the resamples refit the data recentred at beta-hat, so moving the
        # data along the tested coefficient leaves the null draws alone
        data, _ = big_dataset(10, n=100, beta=(1.0, 0.5, 0.0))
        shifted = Dataset(data.x, data.y * np.exp(data.x @ np.array([0.0, 0.0, 0.5])))
        hyp = LinearHypothesis.zero_coefs([2], 3)
        a, b = (gre_anova_test(criterion, d, hyp, n_resample=50, rng=np.random.default_rng(3))
                for d in (data, shifted))
        assert b.scale == pytest.approx(a.scale, rel=1e-10)


@pytest.mark.parametrize("inference", [
    lambda data: sandwich_covariance(fit_lpre(data), data),
    lambda data: ols_log_covariance(fit_ls_log(data), data),
    lambda data: random_weight_covariance("lpre", data, n_resample=10,
                                          rng=np.random.default_rng(0)),
    lambda data: lpre_anova_test(data, LinearHypothesis.zero_coefs([2], 3)),
], ids=["sandwich", "ols_log", "random_weighting", "lpre_anova"])
def test_no_residual_degrees_of_freedom_rejected(rng, inference):
    data, _ = random_dataset(rng, n=3, p=3)
    with pytest.raises(RelerrError, match="degrees of freedom"):
        inference(data)


@pytest.mark.parametrize("test", [
    lambda data, hyp: solver.fit_gre(SUM, data, hypothesis=hyp),
    lambda data, hyp: lpre_anova_test(data, hyp),
    lambda data, hyp: gre_anova_test(SUM, data, hyp, n_resample=10,
                                     rng=np.random.default_rng(0)),
], ids=["fit_gre", "lpre_anova", "gre_anova"])
def test_hypothesis_of_wrong_dimension_rejected(rng, test):
    data, _ = random_dataset(rng, n=30, p=3)
    with pytest.raises(ValueError, match="does not match the design"):
        test(data, LinearHypothesis.zero_coefs([1], 4))


def test_khat_undefined_for_perfect_fit():
    x = np.ones((5, 1))
    data = Dataset(x, np.full(5, 1.0))
    with pytest.raises(RelerrError):
        lpre_anova_test(data, LinearHypothesis.zero_coefs([0], 1))
