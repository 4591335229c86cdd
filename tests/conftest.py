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


def skip_one_resample(monkeypatch):
    """Make the first resample of a random-weighting covariance fail, and
    its retry too, so that the covariance skips it.  Of the outermost calls
    of ``solver._fit_batch`` (a large batch calls it again per chunk), the
    first is taken to be the point fit, the second the resamples and the
    third the retry."""
    from relerr import solver
    from relerr.errors import ConvergenceError

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
                fits[0] = ConvergenceError("no certificate")
        return fits

    monkeypatch.setattr(solver, "_fit_batch", fails)


@pytest.fixture
def rng():
    return np.random.default_rng(20130501)
