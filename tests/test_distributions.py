import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv
from scipy.stats import geninvgauss, kstest, lognorm

from relerr.distributions import (
    EFFICIENT_KINDS,
    ErrorLaw,
    Sampler,
    density,
    normalizing_constant,
    population_constants,
    solve_uniform_upper,
    unnormalized_density,
)


class TestNormalizingConstants:
    def test_product_constant_matches_bessel_form(self):
        # the product-efficient density integrates via modified Bessel
        # functions: c = 1 / (2 e^2 K_0(2))
        expected = 1.0 / (2.0 * math.e**2 * kv(0, 2.0))
        assert normalizing_constant("lpre_efficient") == pytest.approx(
            expected, rel=1e-10)

    @pytest.mark.parametrize("kind", EFFICIENT_KINDS)
    def test_density_integrates_to_one(self, kind):
        law = ErrorLaw(kind)
        upper, _ = quad(lambda x: float(density(law, np.array([x]))[0]),
                        1.0, np.inf, limit=200)
        lower, _ = quad(lambda x: float(density(law, np.array([x]))[0]),
                        0.0, 1.0, limit=200)
        assert upper + lower == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("kind", EFFICIENT_KINDS)
    def test_inverse_symmetry_of_density(self, kind):
        # f(x) = f(1/x) / x^2, i.e. eps and 1/eps share one distribution
        law = ErrorLaw(kind)
        xs = np.array([0.1, 0.5, 0.9, 1.5, 3.0, 7.0])
        np.testing.assert_allclose(
            density(law, xs), density(law, 1.0 / xs) / xs**2, rtol=1e-10)

    @pytest.mark.parametrize("kind", EFFICIENT_KINDS)
    def test_unnormalized_density_matches_paper_g(self, kind):
        # the paper writes each density as exp(-g(a, b) - log x) in the two
        # relative errors a = |1 - x| and b = |1 - 1/x|
        g = {
            "lpre_efficient": lambda a, b: a * b,
            "lare_efficient": lambda a, b: a + b,
            "max_efficient": np.maximum,
            "ls_like_efficient": lambda a, b: a**2 + b**2,
        }[kind]
        xs = np.geomspace(0.05, 20.0, 500)
        expected = np.exp(-g(np.abs(1.0 - xs), np.abs(1.0 - 1.0 / xs)) - np.log(xs))
        np.testing.assert_allclose(unnormalized_density(kind, xs), expected, rtol=1e-10)

    def test_unnormalized_density_zero_for_nonpositive(self):
        vals = unnormalized_density("lpre_efficient", np.array([-1.0, 0.0, 1.0]))
        assert vals[0] == 0.0 and vals[1] == 0.0 and vals[2] > 0.0


class TestMoments:
    def test_product_moments_match_bessel(self):
        # E(eps) = E(1/eps) = K_1(2)/K_0(2); E{(eps-1/eps)^2} = 2 K_1(2)/K_0(2)
        con = population_constants(ErrorLaw("lpre_efficient"))
        ratio = kv(1, 2.0) / kv(0, 2.0)
        assert con["e_eps"] == pytest.approx(ratio, rel=1e-9)
        assert con["e_inv"] == pytest.approx(ratio, rel=1e-9)
        assert con["v_scalar"] == pytest.approx(2.0 * ratio, rel=1e-9)
        # D = V at this density, so the criterion is exactly calibrated
        assert con["d_v_residual"] < 1e-9
        assert con["k"] == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (0.3, 0.2), (-1.0, 2.5)])
    def test_log_normal_density_matches_scipy(self, mu, sigma):
        x = np.concatenate([[-1.0, 0.0], np.exp(mu + sigma * np.linspace(-8.0, 8.0, 2001))])
        np.testing.assert_allclose(
            density(ErrorLaw.log_normal(mu, sigma), x),
            lognorm.pdf(x, s=sigma, scale=math.exp(mu)), rtol=1e-13, atol=0)

    def test_log_normal_moments_closed_form(self):
        con = population_constants(ErrorLaw.log_normal(0.0, 1.0))
        assert con["e_eps"] == pytest.approx(math.exp(0.5), rel=1e-12)
        assert con["e_inv"] == pytest.approx(math.exp(0.5), rel=1e-12)
        assert con["v_scalar"] == pytest.approx(2 * math.exp(2.0) - 2.0, rel=1e-12)

    def test_log_uniform_moments_closed_form(self):
        con = population_constants(ErrorLaw.log_uniform(-1.0, 1.0))
        assert con["e_eps"] == pytest.approx((math.e - 1 / math.e) / 2, rel=1e-12)
        assert con["e_inv"] == pytest.approx(con["e_eps"], rel=1e-12)

    def test_uniform_balanced_moments_match(self):
        con = population_constants(ErrorLaw.uniform_balanced())
        assert con["e_eps"] == pytest.approx(con["e_inv"], abs=1e-10)

    def test_solve_uniform_upper_root(self):
        a = solve_uniform_upper()
        assert 1.5 < a < 1.7
        # the defining balance: (0.5 + a)/2 == log(2a)/(a - 0.5)
        assert (0.5 + a) / 2 == pytest.approx(math.log(2 * a) / (a - 0.5), abs=1e-10)

    @pytest.mark.parametrize("kind", EFFICIENT_KINDS)
    def test_efficient_families_have_balanced_moments(self, kind):
        con = population_constants(ErrorLaw(kind))
        assert con["e_eps"] == pytest.approx(con["e_inv"], rel=1e-8)


class TestSampling:
    @pytest.mark.parametrize("kind", EFFICIENT_KINDS)
    def test_rejection_sampler_matches_cdf(self, kind):
        law = ErrorLaw(kind)
        draws = Sampler(law).draw(np.random.default_rng(7), 20_000)
        assert np.all(draws > 0)

        def cdf(x):
            val, _ = quad(lambda t: float(density(law, np.array([t]))[0]),
                          0.0, x, limit=200)
            return val

        probe = np.quantile(draws, [0.1, 0.25, 0.5, 0.75, 0.9])
        for q, x in zip([0.1, 0.25, 0.5, 0.75, 0.9], probe):
            assert cdf(x) == pytest.approx(q, abs=0.015)

    def test_product_sampler_draws_gig(self):
        # the product-efficient law is exactly GIG(p = 0, b = 2)
        draws = Sampler(ErrorLaw("lpre_efficient")).draw(np.random.default_rng(1), 50_000)
        assert kstest(draws, geninvgauss(p=0, b=2).cdf).pvalue > 0.01

    def test_sampler_reproducible(self):
        law = ErrorLaw("lare_efficient")
        a = Sampler(law).draw(np.random.default_rng(3), 100)
        b = Sampler(law).draw(np.random.default_rng(3), 100)
        np.testing.assert_array_equal(a, b)

    def test_log_normal_sampler_exact_law(self):
        draws = Sampler(ErrorLaw.log_normal(0.2, 0.7)).draw(np.random.default_rng(5), 50_000)
        stat = kstest(np.log(draws), "norm", args=(0.2, 0.7)).pvalue
        assert stat > 0.01

    def test_uniform_sampler_bounds(self):
        law = ErrorLaw.uniform(0.5, 1.6)
        draws = Sampler(law).draw(np.random.default_rng(1), 1000)
        assert draws.min() >= 0.5 and draws.max() <= 1.6

    def test_degenerate_sampler(self):
        np.testing.assert_array_equal(
            Sampler(ErrorLaw("degenerate")).draw(np.random.default_rng(0), 5), 1.0)

    def test_sample_moments_match_quadrature(self):
        law = ErrorLaw("max_efficient")
        con = population_constants(law)
        draws = Sampler(law).draw(np.random.default_rng(11), 100_000)
        assert draws.mean() == pytest.approx(con["e_eps"], abs=0.01)
        assert (1.0 / draws).mean() == pytest.approx(con["e_inv"], abs=0.01)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ErrorLaw("cauchy")

    def test_uniform_needs_positive_support(self):
        with pytest.raises(ValueError):
            ErrorLaw.uniform(-1.0, 2.0)

    def test_log_normal_needs_positive_sigma(self):
        with pytest.raises(ValueError):
            ErrorLaw.log_normal(0.0, 0.0)

    def test_degenerate_has_no_density(self):
        with pytest.raises(ValueError):
            density(ErrorLaw("degenerate"), np.array([1.0]))

