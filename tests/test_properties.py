"""Properties of fits over random shapes (hypothesis).

Every row of the criteria table, weighted and not, free and constrained,
over n in 5..60 and p in 1..6: each fit carries its certificate, a batch
equals a loop of single fits, LAD reaches the linear-program optimum,
and fits are unchanged by unit weights, scaling y or reordering rows.
A batch may hold an exactly fitted problem, whose kinked fit ends its
last smoothing stage with every residual at the kink (|S| = n > p) while
the others smooth or step on faces of their own.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from relerr.criteria import CRITERIA
from relerr.data import Dataset
from relerr.solver import LinearHypothesis, fit_gre

from conftest import fit_batch
from test_solver import kkt_residual, lad_minimum

ROWS = sorted(CRITERIA)
SMOOTH = ("ls_log", "product")
BATCH = 3


def dataset(rng, n, p):
    x = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p - 1))])
    beta = rng.uniform(-1.0, 1.0, p)
    return Dataset(x, np.exp(x @ beta + 0.5 * rng.standard_normal(n)))


@st.composite
def problems(draw):
    """BATCH problems of one shape: (criterion name, datasets, weights or
    None, hypothesis or None); the first may have exact responses."""
    n = draw(st.integers(5, 60))
    p = draw(st.integers(1, min(6, n - 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    datasets = [dataset(rng, n, p) for _ in range(BATCH)]
    if draw(st.booleans()):
        x = datasets[0].x
        datasets[0] = Dataset(x, np.exp(x @ rng.uniform(-1.0, 1.0, p)))
    weights = rng.standard_exponential((BATCH, n)) if draw(st.booleans()) else None
    hypothesis = None
    if p > 1 and draw(st.booleans()):
        hypothesis = LinearHypothesis.zero_coefs([draw(st.integers(1, p - 1))], p)
    return draw(st.sampled_from(ROWS)), datasets, weights, hypothesis


# 60 examples: about 40 of them fall on the four kinked rows
@settings(max_examples=60)
@given(problems())
def test_batch_equals_certified_single_fits(problem):
    name, datasets, weights, hypothesis = problem
    criterion = CRITERIA[name]
    n = datasets[0].n
    w = np.ones((BATCH, n)) if weights is None else weights
    basis = None if hypothesis is None else hypothesis.null_basis()
    x = np.stack([d.x for d in datasets])
    z = np.log(np.stack([d.y for d in datasets]))
    fits = fit_batch(criterion, x, z, w, basis=basis)
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
        elif name == "ls_log":
            # weighted least squares, over beta = basis @ g under a hypothesis
            xb = data.x if basis is None else data.x @ basis
            root = np.sqrt(wb)
            g = np.linalg.lstsq(xb * root[:, None], np.log(data.y) * root, rcond=None)[0]
            np.testing.assert_allclose(fit.beta, g if basis is None else basis @ g,
                                       rtol=0, atol=1e-10)
        elif name != "product":
            assert kkt_residual(name, fit.beta, data, wb, basis) <= 1e-8


@given(st.sampled_from(ROWS), st.integers(5, 60), st.integers(1, 6),
       st.integers(0, 2**32 - 1), st.booleans(), st.floats(-5.0, 5.0))
def test_invariances(name, n, p, seed, weighted, log_c):
    criterion = CRITERIA[name]
    p = min(p, n - 2)
    rng = np.random.default_rng(seed)
    data = dataset(rng, n, p)
    w = rng.standard_exponential(n) if weighted else None
    fit = fit_gre(criterion, data, weights=w)
    tol = 1e-9 * max(1.0, fit.criterion_value)

    # unit weights are no weights
    if w is None:
        np.testing.assert_array_equal(fit_gre(criterion, data, weights=np.ones(n)).beta,
                                      fit.beta)

    # y -> c y moves only the intercept, by log c
    scaled = fit_gre(criterion, Dataset(data.x, data.y * math.exp(log_c)), weights=w)
    np.testing.assert_allclose(scaled.beta - fit.beta, np.eye(p)[0] * log_c,
                               rtol=0, atol=1e-8)
    assert abs(scaled.criterion_value - fit.criterion_value) <= tol

    # reordering the rows changes neither the minimum nor, for a smooth row,
    # the minimizer
    order = rng.permutation(n)
    permuted = fit_gre(criterion, Dataset(data.x[order], data.y[order]),
                       weights=None if w is None else w[order])
    assert abs(permuted.criterion_value - fit.criterion_value) <= tol
    if name in SMOOTH:
        np.testing.assert_allclose(permuted.beta, fit.beta, rtol=0, atol=1e-10)

    # a constraint can only raise the minimum (with p = 1 it pins beta to 0)
    hypothesis = LinearHypothesis.zero_coefs([int(rng.integers(p))], p)
    constrained = fit_gre(criterion, data, weights=w, hypothesis=hypothesis)
    assert constrained.criterion_value >= fit.criterion_value - tol
