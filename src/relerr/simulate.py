"""Monte Carlo harness.

Generates data from the multiplicative model with standard normal
covariates, runs the configured estimators over chunks of replications,
and aggregates bias / Monte Carlo SE / mean estimated SE / coverage, or
rejection rates of the criterion-difference test over a grid of true
coefficient vectors.

Each chunk is fitted as one batch of the solver: one stacked rank check,
one batched fit per estimator, batched sandwich and OLS covariances; a
random-weighting covariance is one batch of resamples per replication.
With ``n_jobs`` > 1 a process pool maps the chunks.

Determinism contract: the per-replication RNG stream is derived from
(seed, replication index), and each replication draws its data and then,
in estimator order, its random weights from it, so results are identical
for any chunking, execution order or worker count.  Failed replications
are skipped and logged as one warning on the ``relerr`` logger.
"""

from __future__ import annotations

import collections
import concurrent.futures
import csv
import itertools
import logging
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import inference, solver
from .data import Dataset
from .distributions import ErrorLaw, Sampler
from .errors import RelerrError
from .solver import LinearHypothesis

_log = logging.getLogger("relerr")

METRICS_HEADER = "estimator,coef,bias,se,see,cp"
POWER_HEADER = "beta0,beta1,beta2,alpha,reject_rate"


@dataclass(frozen=True)
class SimulationConfig:
    beta_true: tuple
    error_law: ErrorLaw
    n: int = 200
    replications: int = 1000
    resample_size: int = 500
    estimators: tuple = inference.PAPER_ESTIMATORS
    seed: int = 0
    compute_see: bool = True

    def __post_init__(self):
        object.__setattr__(self, "beta_true", tuple(float(b) for b in self.beta_true))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.n < len(self.beta_true):
            raise ValueError("sample size must be at least the parameter dimension")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        unknown = set(self.estimators) - set(inference.ESTIMATORS)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")

    @property
    def p(self) -> int:
        return len(self.beta_true)


@dataclass(frozen=True)
class MetricsRow:
    estimator: str
    coef: int
    bias: float
    se: float
    see: float
    cp: float


@dataclass(frozen=True)
class PowerRow:
    beta: tuple
    alpha: float
    reject_rate: float


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, rep]))


def generate_dataset(config: SimulationConfig, rng: np.random.Generator) -> Dataset:
    """Draw one dataset: i.i.d. N(0,1) covariates, multiplicative error."""
    beta = np.asarray(config.beta_true)
    covariates = rng.standard_normal((config.n, config.p - 1))
    x = np.hstack([np.ones((config.n, 1)), covariates])
    eps = Sampler(config.error_law).draw(rng, config.n)
    y = np.exp(x @ beta) * eps
    return Dataset(x, y)


def _draw_chunk(config: SimulationConfig, reps):
    """Each replication's RNG stream and dataset, and the datasets stacked
    into designs x (B, n, p) and log responses z (B, n)."""
    rngs = [_rep_rng(config.seed, rep) for rep in reps]
    datasets = [generate_dataset(config, rng) for rng in rngs]
    x = np.stack([data.x for data in datasets])
    return rngs, datasets, x, np.log(np.stack([data.y for data in datasets]))


def _estimation_chunk(config: SimulationConfig, reps):
    """Replications ``reps`` as one batch: per replication, beta-hat and
    reported SEs by estimator, or the RelerrError it raised.

    Each replication draws its data and then, in estimator order, its
    random weights from its own stream, as a replication run alone would.
    """
    rngs, datasets, x, z = _draw_chunk(config, reps)
    outcomes = solver._rank_errors(x)
    out = [{} for _ in reps]
    for name in config.estimators:
        live = [i for i, outcome in enumerate(outcomes) if outcome is None]
        if not live:
            break
        est = inference.ESTIMATORS[name]
        fits = solver._fit_batch(est.criterion, x[live], z[live], np.ones((len(live), config.n)))
        for i, fit in zip(live, fits):
            if isinstance(fit, RelerrError):
                outcomes[i] = fit
            else:
                out[i][name] = (fit.beta, None)
        if not config.compute_see:
            continue
        live = [i for i in live if outcomes[i] is None]
        covs = est._covariances(np.array([out[i][name][0] for i in live]),
                                [datasets[i] for i in live], x[live], z[live],
                                config.resample_size, [rngs[i] for i in live])
        for i, cov in zip(live, covs):
            if isinstance(cov, RelerrError):
                outcomes[i] = cov
            else:
                out[i][name] = (out[i][name][0], cov.standard_errors())
    return [result if outcome is None else outcome for outcome, result in zip(outcomes, out)]


def _chunk_outcomes(task, config, reps):
    """task(config, reps), or its error for every replication of the chunk."""
    try:
        return task(config, reps)
    except RelerrError as exc:
        return [exc] * len(reps)


def _run_reps(task, config, n_jobs):
    """Run task(config, reps) over chunks of replications and return the
    results of those that did not fail, in replication order.

    ``task`` returns per replication of its chunk a result or the
    RelerrError it raised.  The chunks are sized by the solver's batch
    budget; with ``n_jobs`` > 1 a process pool maps them.  Failed
    replications are logged as one warning on the ``relerr`` logger; more
    than 1% of them raise RelerrError.
    """
    size = solver._batch_size(config.n, config.p)
    chunks = [range(start, min(start + size, config.replications))
              for start in range(0, config.replications, size)]
    if n_jobs and n_jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_jobs) as pool:
            outcomes = pool.map(_chunk_outcomes, itertools.repeat(task),
                                itertools.repeat(config), chunks)
            outcomes = [outcome for chunk in outcomes for outcome in chunk]
    else:
        outcomes = [outcome for chunk in chunks
                    for outcome in _chunk_outcomes(task, config, chunk)]
    failures = collections.Counter(type(outcome).__name__ for outcome in outcomes
                                   if isinstance(outcome, RelerrError))
    failed = sum(failures.values())
    if failed:
        _log.warning("%d/%d replications failed (%s)", failed, config.replications,
                     ", ".join(f"{kind}: {count}" for kind, count in sorted(failures.items())))
    if failed > 0.01 * config.replications:
        raise RelerrError(
            f"{failed}/{config.replications} replications failed"
        )
    return [outcome for outcome in outcomes if not isinstance(outcome, RelerrError)]


def run_estimation_study(
    config: SimulationConfig, n_jobs: Optional[int] = None
) -> list[MetricsRow]:
    """Bias / SE / SEE / 95% coverage per estimator and coefficient."""
    reps = _run_reps(_estimation_chunk, config, n_jobs)
    beta_true = np.asarray(config.beta_true)
    rows = []
    for est in config.estimators:
        betas = np.array([r[est][0] for r in reps])
        sees = None
        if config.compute_see:
            sees = np.array([r[est][1] for r in reps])
        for j in range(config.p):
            bias = float(np.mean(betas[:, j]) - beta_true[j])
            se = float(np.std(betas[:, j], ddof=1)) if len(reps) > 1 else 0.0
            if sees is not None:
                see = float(np.mean(sees[:, j]))
                covered = np.abs(betas[:, j] - beta_true[j]) <= 1.96 * sees[:, j]
                cp = float(np.mean(covered))
            else:
                see = float("nan")
                cp = float("nan")
            rows.append(MetricsRow(est, j, bias, se, see, cp))
    return rows


@dataclass(frozen=True)
class _PowerTask:
    """The criterion-difference test of one hypothesis, with its null
    basis, on each replication of a chunk."""

    hypothesis: LinearHypothesis
    basis: np.ndarray

    def __call__(self, config, reps):
        _, _, x, z = _draw_chunk(config, reps)
        outcomes = solver._rank_errors(x)
        live = [i for i, outcome in enumerate(outcomes) if outcome is None]
        tests = inference._lpre_anova_tests(x[live], z[live], self.hypothesis, self.basis)
        for i, test in zip(live, tests):
            outcomes[i] = test if isinstance(test, RelerrError) else test.p_value
        return outcomes


def run_power_study(
    config: SimulationConfig,
    hypothesis_coefs: Sequence[int],
    beta_grid: Sequence[Sequence[float]],
    alpha_levels: Sequence[float] = (0.05, 0.01),
    n_jobs: Optional[int] = None,
) -> list[PowerRow]:
    """Rejection rate of the criterion-difference test per grid point and level.

    ``hypothesis_coefs`` are the coefficient indices tested jointly zero;
    grid points where those entries are zero measure size, others power.
    """
    rows = []
    hypothesis = LinearHypothesis.zero_coefs(hypothesis_coefs, config.p)
    task = _PowerTask(hypothesis, hypothesis.null_basis())
    for g, beta in enumerate(beta_grid):
        # distinct seed stream per grid point, still fully deterministic
        cfg = replace(config, beta_true=tuple(beta), seed=config.seed + 1_000_003 * g)
        pvals = np.asarray(_run_reps(task, cfg, n_jobs))
        for alpha in alpha_levels:
            rows.append(PowerRow(tuple(float(b) for b in beta), float(alpha),
                                 float(np.mean(pvals < alpha))))
    return rows


def write_metrics_csv(rows: Sequence[MetricsRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER.split(","))
        for r in rows:
            writer.writerow([r.estimator, r.coef,
                             f"{r.bias:.6g}", f"{r.se:.6g}",
                             f"{r.see:.6g}", f"{r.cp:.6g}"])


def write_power_csv(rows: Sequence[PowerRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(POWER_HEADER.split(","))
        for r in rows:
            beta = list(r.beta) + [""] * (3 - len(r.beta))
            writer.writerow([*beta[:3], f"{r.alpha:g}", f"{r.reject_rate:.6g}"])


def parse_error_law(text: str) -> ErrorLaw:
    """Parse an error-law spec like ``log_normal(0,1)`` or ``lpre_efficient``."""
    text = text.strip()
    if "(" not in text:
        if text == "uniform_balanced":
            return ErrorLaw.uniform_balanced()
        return ErrorLaw(text)
    name, _, rest = text.partition("(")
    if not rest.endswith(")"):
        raise ValueError(f"malformed error law spec: {text!r}")
    args = [float(a) for a in rest[:-1].split(",") if a.strip()]
    if name == "log_uniform":
        return ErrorLaw.log_uniform(*args)
    if name == "log_normal":
        return ErrorLaw.log_normal(*args)
    if name == "uniform":
        return ErrorLaw.uniform(*args)
    raise ValueError(f"unknown parametric error law: {name!r}")


def load_config(path) -> dict:
    """Read a key=value simulation config file.

    Recognized keys: mode (estimation|power), beta (comma list),
    error_law, n, replications, resample_size, estimators (comma list),
    seed, compute_see, zero_coefs (comma list), beta_grid
    (semicolon-separated comma lists), alphas (comma list).  Returns the
    parsed SimulationConfig under "config" plus mode-specific entries.
    """
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = stripped.partition("=")
            raw[key.strip()] = (value.strip(), lineno)

    def take(key, default=None, required=False):
        if key in raw:
            return raw.pop(key)[0]
        if required:
            raise ValueError(f"{path}: missing required key {key!r}")
        return default

    mode = take("mode", "estimation")
    if mode not in ("estimation", "power"):
        raise ValueError(f"{path}: mode must be 'estimation' or 'power'")
    beta = tuple(float(b) for b in take("beta", required=True).split(","))
    law = parse_error_law(take("error_law", required=True))
    config = SimulationConfig(
        beta_true=beta,
        error_law=law,
        n=int(take("n", "200")),
        replications=int(take("replications", "1000")),
        resample_size=int(take("resample_size", "500")),
        estimators=tuple(e.strip() for e in take(
            "estimators", ",".join(inference.PAPER_ESTIMATORS)).split(",")),
        seed=int(take("seed", "0")),
        compute_see=take("compute_see", "true").lower() in ("true", "1", "yes"),
    )
    out = {"mode": mode, "config": config}
    if mode == "power":
        out["zero_coefs"] = tuple(
            int(i) for i in take("zero_coefs", required=True).split(","))
        grid_text = take("beta_grid", required=True)
        out["beta_grid"] = [
            tuple(float(v) for v in point.split(","))
            for point in grid_text.split(";") if point.strip()
        ]
        out["alphas"] = tuple(
            float(a) for a in take("alphas", "0.05,0.01").split(","))
    if raw:
        key, (_, lineno) = next(iter(raw.items()))
        raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return out
