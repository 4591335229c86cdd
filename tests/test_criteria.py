import math

import numpy as np
import pytest

from relerr.criteria import (
    ASYMMETRIC,
    MAX,
    PRODUCT,
    SUM,
    gre_loss,
    lad_log_loss,
    lare_loss,
    lpre_gradient,
    lpre_hessian,
    lpre_loss,
    ls_log_loss,
)
from relerr.data import Dataset
from relerr.errors import NumericOverflowError

from conftest import random_dataset

E = math.e


def one_point(y):
    return Dataset(np.ones((1, 1)), np.array([y]))


class TestLpreLoss:
    def test_exact_fit_is_zero(self):
        assert lpre_loss(np.array([0.0]), one_point(1.0)) == 0.0

    def test_single_point_value(self):
        got = lpre_loss(np.array([0.0]), one_point(E))
        assert got == pytest.approx(E + 1 / E - 2, abs=1e-12)

    def test_two_point_value(self):
        data = Dataset(np.ones((2, 1)), np.array([1.0, E**2]))
        got = lpre_loss(np.array([1.0]), data)
        assert got == pytest.approx(2 * (E + 1 / E) - 4, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lpre_loss(np.array([0.0, 1.0]), one_point(1.0))

    def test_overflow_raises(self):
        with pytest.raises(NumericOverflowError):
            lpre_loss(np.array([800.0]), one_point(1.0))

    def test_product_form_identity(self, rng):
        # the two algebraic forms of the summand agree
        for _ in range(50):
            data, _ = random_dataset(rng, n=10)
            beta = rng.uniform(-1, 1, data.p)
            eta = data.x @ beta
            product_form = np.sum((data.y - np.exp(eta)) ** 2 / (data.y * np.exp(eta)))
            assert lpre_loss(beta, data) == pytest.approx(product_form, rel=1e-12)

    def test_nonnegative_and_zero_iff_exact(self, rng):
        data, beta = random_dataset(rng)
        assert lpre_loss(beta + 0.1, data) > 0
        exact = Dataset(data.x, np.exp(data.x @ beta))
        assert lpre_loss(beta, exact) == pytest.approx(0.0, abs=1e-12)

    def test_convex_along_segments(self, rng):
        for _ in range(50):
            data, _ = random_dataset(rng, n=15)
            b1 = rng.uniform(-1, 1, data.p)
            b2 = rng.uniform(-1, 1, data.p)
            lam = rng.uniform(0.01, 0.99)
            mid = lam * b1 + (1 - lam) * b2
            assert lpre_loss(mid, data) <= (
                lam * lpre_loss(b1, data) + (1 - lam) * lpre_loss(b2, data) + 1e-10
            )


class TestDerivatives:
    def test_gradient_zero_at_exact_fit(self, rng):
        data, beta = random_dataset(rng)
        exact = Dataset(data.x, np.exp(data.x @ beta))
        np.testing.assert_allclose(lpre_gradient(beta, exact), 0.0, atol=1e-10)

    def test_gradient_single_point(self):
        got = lpre_gradient(np.array([1.0]), one_point(1.0))
        assert got[0] == pytest.approx(E - 1 / E, abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        h = 1e-6
        for _ in range(30):
            data, _ = random_dataset(rng, n=12)
            beta = rng.uniform(-1, 1, data.p)
            grad = lpre_gradient(beta, data)
            for j in range(data.p):
                step = np.zeros(data.p)
                step[j] = h
                fd = (lpre_loss(beta + step, data) - lpre_loss(beta - step, data)) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-6)

    def test_hessian_single_point(self):
        got = lpre_hessian(np.array([0.0]), one_point(1.0))
        assert got[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_hessian_matches_finite_differences(self, rng):
        h = 1e-6
        for _ in range(20):
            data, _ = random_dataset(rng, n=12)
            beta = rng.uniform(-1, 1, data.p)
            hess = lpre_hessian(beta, data)
            for j in range(data.p):
                step = np.zeros(data.p)
                step[j] = h
                fd = (lpre_gradient(beta + step, data)
                      - lpre_gradient(beta - step, data)) / (2 * h)
                np.testing.assert_allclose(hess[:, j], fd, rtol=1e-5)

    def test_hessian_positive_definite(self, rng):
        for _ in range(100):
            data, _ = random_dataset(rng, n=10)
            beta = rng.uniform(-1, 1, data.p)
            eig = np.linalg.eigvalsh(lpre_hessian(beta, data))
            assert eig.min() > 0


class TestOtherCriteria:
    def test_lare_exact_fit(self, rng):
        data, beta = random_dataset(rng)
        exact = Dataset(data.x, np.exp(data.x @ beta))
        assert lare_loss(beta, exact) == pytest.approx(0.0, abs=1e-12)

    def test_lare_single_point(self):
        got = lare_loss(np.array([0.0]), one_point(E))
        assert got == pytest.approx(abs(1 - 1 / E) + (E - 1), abs=1e-12)

    def test_sum_criterion_equals_lare(self, rng):
        for _ in range(100):
            data, _ = random_dataset(rng, n=8)
            beta = rng.uniform(-1, 1, data.p)
            assert gre_loss(SUM, beta, data) == pytest.approx(
                lare_loss(beta, data), rel=1e-12)

    def test_product_criterion_equals_lpre(self, rng):
        data, _ = random_dataset(rng)
        beta = rng.uniform(-1, 1, data.p)
        assert gre_loss(PRODUCT, beta, data) == pytest.approx(
            lpre_loss(beta, data), rel=1e-12)

    def test_max_single_point(self):
        got = gre_loss(MAX, np.array([0.0]), one_point(E))
        assert got == pytest.approx(E - 1, abs=1e-12)

    def test_all_criteria_vanish_on_exact_fit(self, rng):
        data, beta = random_dataset(rng)
        exact = Dataset(data.x, np.exp(data.x @ beta))
        for crit in (PRODUCT, SUM, MAX, ASYMMETRIC):
            assert gre_loss(crit, beta, exact) == pytest.approx(0.0, abs=1e-12)

    def test_log_scale_losses(self):
        data = one_point(E**2)
        assert ls_log_loss(np.array([0.0]), data) == pytest.approx(4.0, abs=1e-12)
        assert lad_log_loss(np.array([0.0]), data) == pytest.approx(2.0, abs=1e-12)


class TestScaleInvariance:
    @pytest.mark.parametrize("crit", [PRODUCT, SUM, MAX, ASYMMETRIC])
    def test_criteria_scale_invariant(self, rng, crit):
        # multiplying y by c and shifting the intercept by log c is a no-op;
        # a draw whose residuals overflow rho must overflow on both sides
        finite = 0
        for _ in range(20):
            data, _ = random_dataset(rng, n=10)
            beta = rng.uniform(-1, 1, data.p)
            c = rng.uniform(0.1, 10.0)
            shifted = beta.copy()
            shifted[0] += math.log(c)
            moved = gre_loss(crit, shifted, data.scale_y(c))
            base = gre_loss(crit, beta, data)
            assert math.isfinite(moved) == math.isfinite(base)
            if math.isfinite(base):
                finite += 1
                assert moved == pytest.approx(base, rel=1e-12)
        assert finite >= 10
