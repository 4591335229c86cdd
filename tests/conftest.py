import numpy as np
import pytest
from hypothesis import settings

from relerr.data import Dataset

#: property tests run the same examples every time, and store none
settings.register_profile("relerr", derandomize=True, database=None, deadline=None,
                          max_examples=40)
settings.load_profile("relerr")

#: one status line per acceptance criterion, echoed after the test run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_dataset(rng, n=30, p=3, beta=None, law=None):
    """Dataset with standard normal covariates and log-normal-ish errors."""
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p - 1))])
    if beta is None:
        beta = rng.uniform(-1, 1, p)
    if law is None:
        eps = np.exp(0.5 * rng.standard_normal(n))
    else:
        from relerr.distributions import Sampler
        eps = Sampler(law).draw(rng, n)
    y = np.exp(x @ np.asarray(beta)) * eps
    return Dataset(x, y), np.asarray(beta, dtype=float)


# -- closed-form criteria, written from the relative errors of the paper
# and not from relerr.criteria, as oracles for the criteria table ----------

def lpre_loss(beta, data):
    """sum_i y_i e^{-x_i'b} + e^{x_i'b} / y_i - 2"""
    eta = data.x @ beta
    return float(np.sum(data.y * np.exp(-eta) + np.exp(eta) / data.y - 2.0))


def lpre_gradient(beta, data):
    eta = data.x @ beta
    return data.x.T @ (np.exp(eta) / data.y - data.y * np.exp(-eta))


def lpre_hessian(beta, data):
    eta = data.x @ beta
    return (data.x * (data.y * np.exp(-eta) + np.exp(eta) / data.y)[:, None]).T @ data.x


def lare_loss(beta, data):
    """sum_i |y_i - yhat_i| / y_i + |y_i - yhat_i| / yhat_i"""
    y_hat = np.exp(data.x @ beta)
    err = np.abs(data.y - y_hat)
    return float(np.sum(err / data.y + err / y_hat))


def ls_log_loss(beta, data):
    """sum_i r_i^2 of the log residuals r = log y - x'b"""
    r = np.log(data.y) - data.x @ beta
    return float(np.sum(r * r))


def lad_log_loss(beta, data):
    """sum_i |r_i| of the log residuals r = log y - x'b"""
    return float(np.sum(np.abs(np.log(data.y) - data.x @ beta)))


def minimize_from(criterion, data, beta):
    """``solver._minimize`` of ``criterion`` on ``data`` from ``beta``, as a
    batch of one: (beta, certificate, overflow)."""
    from relerr import solver

    batch = solver._Batch(criterion, data.x, np.log(data.y)[None], np.ones((1, data.n)))
    with np.errstate(over="ignore", invalid="ignore"):
        coef, _, _, cert, overflow = solver._minimize(
            batch, np.asarray(beta, dtype=float)[None])
    return coef[0], cert[0], overflow[0]


def fit_batch(*args, **kwargs) -> list:
    """``solver._fit_batch``, per problem as its FitResult or the error its
    fit raises, both built from the stacked record."""
    from relerr import solver

    fits = solver._fit_batch(*args, **kwargs)
    return [fits.error(b) or fits.result(b) for b in range(len(fits.status))]


def skip_one_resample(monkeypatch):
    """Make the first resample of a random-weighting covariance fail, and
    its retry too, so that the covariance skips it.  Of the outermost calls
    of ``solver._fit_batch`` (a large batch calls it again per chunk), the
    first is taken to be the point fit, the second the resamples and the
    third the retry."""
    from relerr import solver

    fit_batch = solver._fit_batch
    calls, depth = [], [0]

    def fails(*args, **kwargs):
        depth[0] += 1
        try:
            fits = fit_batch(*args, **kwargs)
        finally:
            depth[0] -= 1
        if not depth[0]:
            calls.append(None)
            if len(calls) in (2, 3):
                fits.status[0] = solver.UNCERTIFIED
        return fits

    monkeypatch.setattr(solver, "_fit_batch", fails)


@pytest.fixture
def rng():
    return np.random.default_rng(20130501)
