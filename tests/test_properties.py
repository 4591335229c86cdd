"""Properties of kinked fits over random shapes (hypothesis).

Every row with a kink, weighted and not, free and constrained, over
n in 5..60 and p in 1..6: each fit carries its certificate, a batch
equals a loop of single fits, and LAD reaches the linear-program optimum.
"""

import numpy as np
from hypothesis import given, strategies as st

from relerr import solver
from relerr.criteria import CRITERIA
from relerr.data import Dataset
from relerr.solver import LinearHypothesis, fit_gre

from test_solver import kkt_residual, lad_minimum

KINKED = ("sum", "max", "asymmetric", "lad_log")
BATCH = 3


@st.composite
def problems(draw):
    """BATCH problems of one shape: (criterion name, datasets, weights or
    None, hypothesis or None)."""
    n = draw(st.integers(5, 60))
    p = draw(st.integers(1, min(6, n - 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    datasets = []
    for _ in range(BATCH):
        x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p - 1))])
        beta = rng.uniform(-1.0, 1.0, p)
        datasets.append(Dataset(x, np.exp(x @ beta + 0.5 * rng.standard_normal(n))))
    weights = rng.standard_exponential((BATCH, n)) if draw(st.booleans()) else None
    hypothesis = None
    if p > 1 and draw(st.booleans()):
        hypothesis = LinearHypothesis.zero_coefs([draw(st.integers(1, p - 1))], p)
    return draw(st.sampled_from(KINKED)), datasets, weights, hypothesis


@given(problems())
def test_batch_equals_certified_single_fits(problem):
    name, datasets, weights, hypothesis = problem
    criterion = CRITERIA[name]
    n = datasets[0].n
    w = np.ones((BATCH, n)) if weights is None else weights
    basis = None if hypothesis is None else hypothesis.null_basis()
    x = np.stack([d.x for d in datasets])
    z = np.log(np.stack([d.y for d in datasets]))
    fits = solver._fit_batch(criterion, x, z, w, basis=basis)
    for data, wb, fit in zip(datasets, w, fits):
        # a returned fit is certified: within tol_gradient or the rounding floor
        assert not isinstance(fit, Exception), fit
        assert fit.converged
        single = fit_gre(criterion, data, weights=None if weights is None else wb,
                         hypothesis=hypothesis)
        np.testing.assert_allclose(fit.beta, single.beta, rtol=0, atol=1e-10)
        if name == "lad_log":
            _, best = lad_minimum(data, wb, basis)
            assert abs(fit.criterion_value - best) <= 1e-10 * max(best, 1.0)
        else:
            assert kkt_residual(name, fit.beta, data, wb, basis) <= 1e-8
