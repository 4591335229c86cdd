"""Monte Carlo harness.

Generates data from the multiplicative model with standard normal
covariates, runs the configured estimators over chunks of replications,
and aggregates bias / Monte Carlo SE / mean estimated SE / coverage, or
rejection rates of the criterion-difference test over a grid of true
coefficient vectors.

Each chunk is drawn and fitted as one batch: its streams are seeded in
one pass (``_rep_rngs``), the replications' data go straight into
stacked designs and responses (the rejection sampler runs its accept
test once per round for the whole chunk), then one stacked
rank check, one batched fit per estimator, and the sandwich and OLS
standard errors of the chunk as one stack; a random-weighting covariance
passes its replication's resamples to the solver at once.  A chunk's
estimates, standard errors and p-values stay stacked arrays from the
solver's record to the written table; only a replication that fails
gets an object, its RelerrError.  With ``n_jobs`` > 1 a process pool
maps the chunks.

Determinism contract: the per-replication RNG stream is that of
numpy's SeedSequence([seed, replication index]), and each replication
draws its data and then, in estimator order, its random weights from it,
so results are identical for any chunking, execution order or worker
count.  Failed replications are skipped and logged as one warning on
the ``relerr`` logger.
"""

from __future__ import annotations

import collections
import concurrent.futures
import functools
import itertools
import logging
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import inference, solver
from .data import Dataset, _check_values, write_csv
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
        if self.compute_see:
            inference._require_residual_dof(self)
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed}: must be non-negative")
        entries = [inference.estimator(name) for name in self.estimators]
        if self.compute_see and self.resample_size < 2 and any(
                entry.covariance == "random_weighting" for entry in entries):
            raise ValueError(f"resample_size = {self.resample_size}: random-weighting "
                             "standard errors need at least two resamples")

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


# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx):
# its hash multipliers run from _INIT_A by _MULT_A while it mixes entropy
# into a pool of 4 words, and from _INIT_B by _MULT_B while it draws state.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _multipliers(init: int, mult: int, count: int) -> np.ndarray:
    """init, init * mult, init * mult^2, ... (count + 1 of them) mod 2^32."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFF_FFFF)
    return np.array(out, dtype=np.uint32)


def _hash(values, consts, at):
    """SeedSequence's hashmix of uint32 ``values`` by the multipliers
    consts[at] and consts[at + 1]; ``at`` may be an array, broadcast along
    the last axis of ``values``."""
    v = (values ^ consts[at]) * consts[at + 1]
    return v ^ (v >> 16)


def _mix(x, y):
    v = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return v ^ (v >> 16)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """The PCG64 state words (k, 4) of SeedSequence(e).generate_state(4,
    uint64) for each row e of ``entropy`` (k, m) uint32: its pool mixed as
    SeedSequence mixes it, for every row at once."""
    m = entropy.shape[1]
    a = _multipliers(_INIT_A, _MULT_A, _POOL * max(m, _POOL))
    pool = np.zeros((len(entropy), _POOL), dtype=np.uint32)
    pool[:, :min(m, _POOL)] = entropy[:, :_POOL]
    pool = _hash(pool, a, np.arange(_POOL))
    at = _POOL
    for src in range(_POOL):  # every word into every other, in order
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, src, None], a, at + np.arange(_POOL - 1)))
        at += _POOL - 1
    for src in range(_POOL, m):  # entropy beyond the pool, into every word
        pool = _mix(pool, _hash(entropy[:, src, None], a, at + np.arange(_POOL)))
        at += _POOL
    words = _hash(pool[:, np.arange(8) % _POOL], _multipliers(_INIT_B, _MULT_B, 8), np.arange(8))
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)


class _State:
    """A seed sequence that hands a bit generator the state words it holds
    (registered as numpy's ISeedSequence by ``_pcg64``)."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@functools.cache
def _pcg64():
    """numpy.random's Generator and PCG64, with ``_State`` registered as a
    seed sequence: loaded on first use, so that ``import relerr`` does not
    load numpy.random (about 10 ms of start-up)."""
    from numpy.random import PCG64, Generator, bit_generator

    bit_generator.ISeedSequence.register(_State)
    return Generator, PCG64


def _width(k: int) -> int:
    """How many 32-bit words SeedSequence makes of k >= 0 (one for 0)."""
    return max(1, -(-k.bit_length() // 32))


def _rep_rngs(seed: int, reps) -> list:
    """The streams of SeedSequence([seed, rep]) for each rep of ``reps``,
    seeded in one pass over the chunk per entropy length: the reps below
    2^32 make one group, those below 2^64 the next, and so on.  A group's
    entropy, the seed's 32-bit words and then the rep's, is read from one
    run of little-endian bytes."""
    generator, pcg64 = _pcg64()
    reps = list(reps)
    head = seed.to_bytes(4 * _width(seed), "little")
    width = [_width(rep) for rep in reps]
    rngs = [None] * len(reps)
    for count in set(width):
        group = [i for i, w in enumerate(width) if w == count]
        entropy = np.frombuffer(b"".join([head + reps[i].to_bytes(4 * count, "little")
                                          for i in group]), dtype="<u4")
        for i, words in zip(group, _seed_states(entropy.reshape(len(group), -1))):
            rngs[i] = generator(pcg64(_State(words)))
    return rngs


def _draw(config: SimulationConfig, rngs):
    """One dataset per stream of ``rngs``: designs x (B, n, p) with i.i.d.
    N(0,1) covariates and responses y (B, n) with multiplicative error.

    Each stream draws its covariates and then its errors, as a dataset
    drawn alone would; x and y are checked as a Dataset checks them.
    """
    n, p = config.n, config.p
    x = np.empty((len(rngs), n, p))
    x[:, :, 0] = 1.0
    covariates = np.empty((n, p - 1))  # one buffer, drawn into by every stream
    for xb, rng in zip(x, rngs):
        xb[:, 1:] = rng.standard_normal(out=covariates)
    eps = Sampler(config.error_law).draw(rngs, n)
    y = np.exp(x @ np.asarray(config.beta_true)) * eps
    _check_values(x, y)
    return x, y


def generate_dataset(config: SimulationConfig, rng: np.random.Generator) -> Dataset:
    """Draw one dataset: i.i.d. N(0,1) covariates, multiplicative error
    (the chunk of one of the studies' draws)."""
    [x], [y] = _draw(config, [rng])
    return Dataset(x, y)


def _draw_chunk(config: SimulationConfig, reps):
    """Each replication's RNG stream, and its dataset stacked into designs
    x (B, n, p), responses y (B, n) and log responses z (B, n)."""
    rngs = _rep_rngs(config.seed, reps)
    x, y = _draw(config, rngs)
    return rngs, x, y, np.log(y)


def _live(errors: dict, count: int):
    """The replications of a chunk of ``count`` that have no error in
    ``errors``: all of them, as a slice, while none has."""
    if not errors:
        return slice(None)
    live = np.ones(count, dtype=bool)
    live[list(errors)] = False
    return np.flatnonzero(live)


def _merge(errors: dict, live, failed: dict):
    """Add to ``errors`` the errors ``failed`` of the replications ``live``
    (as ``_live`` gives them), which are keyed by their place among them."""
    for b, error in failed.items():
        errors[b if isinstance(live, slice) else int(live[b])] = error


def _estimation_chunk(config: SimulationConfig, reps):
    """Replications ``reps`` as one batch: the RelerrError of each
    replication that failed, by its place in the chunk, and the stack
    (B, estimators, 2, p) of each replication's beta-hat and reported SEs
    by estimator (NaN where none).

    Each replication draws its data and then, in estimator order, its
    random weights from its own stream, as a replication run alone would.
    """
    rngs, x, y, z = _draw_chunk(config, reps)
    count = len(reps)
    errors = solver._rank_errors(x)
    out = np.full((count, len(config.estimators), 2, config.p), np.nan)
    for e, name in enumerate(config.estimators):
        if len(errors) == count:
            break
        est = inference.ESTIMATORS[name]
        live = _live(errors, count)
        fits = solver._fit_batch(est.criterion, x[live], z[live],
                                 np.ones((count - len(errors), config.n)))
        out[live, e, 0] = fits.beta
        _merge(errors, live, fits.errors())
        if not config.compute_see or len(errors) == count:
            continue
        live = _live(errors, count)
        se, failed = est._standard_errors(
            np.ascontiguousarray(out[live, e, 0]), x[live], y[live], z[live],
            config.resample_size, rngs if not errors else [rngs[i] for i in live])
        out[live, e, 1] = se
        _merge(errors, live, failed)
    return errors, out


def _run_reps(task, config, n_jobs):
    """Run task(config, reps) over chunks of replications and return the
    values of those that did not fail, in replication order.

    ``task`` returns the RelerrError of each replication of its chunk that
    failed, by its place in the chunk, and a stack of values with one row
    per replication; the stacks of the chunks are concatenated and the
    failed rows dropped.  The chunks are sized by the solver's batch
    budget; with ``n_jobs`` > 1 a process pool maps them.  Failed
    replications are logged as one warning on the ``relerr`` logger; more
    than 1% of them raise RelerrError.
    """
    size = solver._batch_size(config.n, config.p)
    chunks = [range(start, min(start + size, config.replications))
              for start in range(0, config.replications, size)]
    if n_jobs and n_jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_jobs) as pool:
            outcomes = list(pool.map(task, itertools.repeat(config), chunks))
    else:
        outcomes = [task(config, chunk) for chunk in chunks]
    failures = collections.Counter(type(error).__name__ for errors, _ in outcomes
                                   for error in errors.values())
    failed = sum(failures.values())
    if failed:
        _log.warning("%d/%d replications failed (%s)", failed, config.replications,
                     ", ".join(f"{kind}: {count}" for kind, count in sorted(failures.items())))
    if failed > 0.01 * config.replications:
        raise RelerrError(
            f"{failed}/{config.replications} replications failed"
        )
    return np.concatenate([np.delete(values, list(errors), axis=0) for errors, values in outcomes])


def run_estimation_study(
    config: SimulationConfig, n_jobs: Optional[int] = None
) -> list[MetricsRow]:
    """Bias / SE / SEE / 95% coverage per estimator and coefficient."""
    reps = _run_reps(_estimation_chunk, config, n_jobs)
    beta_true = np.asarray(config.beta_true)
    rows = []
    for e, est in enumerate(config.estimators):
        betas = reps[:, e, 0].copy()
        sees = reps[:, e, 1].copy() if config.compute_see else None
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


def _power_chunk(hypothesis: LinearHypothesis, config, reps):
    """The criterion-difference test of ``hypothesis`` on each replication
    of a chunk: the RelerrError of each replication that failed, by its
    place in the chunk, and the p-values (NaN where none)."""
    _, x, _, z = _draw_chunk(config, reps)
    count = len(reps)
    errors = solver._rank_errors(x)
    live = _live(errors, count)
    (_, _, tested), failed = inference._lpre_anova_tests(x[live], z[live], hypothesis)
    p_value = np.full(count, np.nan)
    p_value[live] = tested
    _merge(errors, live, failed)
    return errors, p_value


def _check_levels(alphas):
    """``alphas``, or ValueError unless every significance level lies in (0, 1)."""
    for alpha in alphas:
        if not 0 < alpha < 1:
            raise ValueError(f"significance level {alpha} is outside (0, 1)")
    return alphas


def _check_grid(beta_grid, p):
    """ValueError unless ``beta_grid`` has a point and each has p coefficients."""
    if len(beta_grid) == 0:
        raise ValueError("beta_grid has no points")
    for beta in beta_grid:
        if len(beta) != p:
            raise ValueError(f"beta_grid point {tuple(beta)} has {len(beta)} coefficients, "
                             f"beta has {p}")


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
    The grid needs at least one point, each with p coefficients, and every
    level must lie in (0, 1); all are checked before any replication runs.
    """
    inference._require_residual_dof(config)
    _check_grid(beta_grid, config.p)
    _check_levels(alpha_levels)
    rows = []
    task = functools.partial(_power_chunk, LinearHypothesis.zero_coefs(hypothesis_coefs, config.p))
    for g, beta in enumerate(beta_grid):
        # distinct seed stream per grid point, still fully deterministic
        cfg = replace(config, beta_true=tuple(beta), seed=config.seed + 1_000_003 * g)
        pvals = _run_reps(task, cfg, n_jobs)
        for alpha in alpha_levels:
            rows.append(PowerRow(tuple(float(b) for b in beta), float(alpha),
                                 float(np.mean(pvals < alpha))))
    return rows


def write_metrics_csv(rows: Sequence[MetricsRow], path) -> None:
    write_csv(path, METRICS_HEADER.split(","),
              ([r.estimator, r.coef, f"{r.bias:.6g}", f"{r.se:.6g}", f"{r.see:.6g}",
                f"{r.cp:.6g}"] for r in rows))


def write_power_csv(rows: Sequence[PowerRow], path) -> None:
    """One line per row: beta0..beta{k-1} with k = max(3, longest beta)
    (shorter betas padded with empty cells), alpha and the rejection
    rate; the header is ``POWER_HEADER`` for k = 3."""
    k = max([3, *(len(r.beta) for r in rows)])
    write_csv(path, [f"beta{j}" for j in range(k)] + ["alpha", "reject_rate"],
              ([*r.beta, *[""] * (k - len(r.beta)), f"{r.alpha:g}", f"{r.reject_rate:.6g}"]
               for r in rows))


#: the error laws of a spec ``name(a, b)``, by name
_PARAMETRIC_LAWS = {"log_uniform": ErrorLaw.log_uniform, "log_normal": ErrorLaw.log_normal,
                    "uniform": ErrorLaw.uniform}
#: the spellings of a boolean config value
_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


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
    make = _PARAMETRIC_LAWS.get(name)
    if make is None:
        raise ValueError(f"unknown parametric error law: {name!r}")
    try:
        return make(*args)
    except TypeError:
        raise ValueError(f"wrong number of parameters in error law spec: {text!r}") from None


def _checked(parse, accept, reason):
    """A value parser: parse(text), or ValueError(reason) if ``accept`` rejects it."""
    def parse_checked(text):
        if not accept(value := parse(text)):
            raise ValueError(reason)
        return value
    return parse_checked


def _comma_list(kind):
    """A parser of a comma-separated list of ``kind`` values."""
    return lambda text: tuple(kind(v) for v in text.split(","))


def _estimator_names(text):
    """A comma-separated list of distinct estimator names, each checked by the registry."""
    names = _comma_list(str.strip)(text)
    for i, name in enumerate(names):
        inference.estimator(name)
        if name in names[:i]:
            raise ValueError(f"estimator {name!r} is listed twice")
    return names


#: each config key: its value parser, its default (None: the key is
#: required) and the mode that reads it (None: both)
_KEYS = {
    "mode": (_checked(str, lambda mode: mode in ("estimation", "power"),
                      "must be estimation or power"), "estimation", None),
    "beta": (_comma_list(float), None, None),
    "error_law": (parse_error_law, None, None),
    "n": (int, 200, None),
    "replications": (int, 1000, None),
    "resample_size": (int, 500, None),
    "estimators": (_estimator_names, inference.PAPER_ESTIMATORS, None),
    "seed": (_checked(int, lambda seed: seed >= 0, "must be non-negative"), 0, None),
    "compute_see": (_checked(lambda text: _BOOLEANS.get(text.lower()), lambda b: b is not None,
                             "must be true/false/yes/no/1/0"), True, "estimation"),
    "zero_coefs": (_comma_list(int), None, "power"),
    "beta_grid": (lambda text: [_comma_list(float)(point) for point in text.split(";")
                                if point.strip()], None, "power"),
    "alphas": (lambda text: _check_levels(_comma_list(float)(text)), (0.05, 0.01), "power"),
}


def load_config(path) -> dict:
    """Read a key=value simulation config file with the keys of ``_KEYS`` into "mode",
    "config" (a SimulationConfig) and, in power mode, "zero_coefs", "beta_grid" and
    "alphas".  A bad line raises ValueError("<path>:<line>: <key> = '<value>': <reason>"),
    and a value the SimulationConfig rejects its error with "<path>: " in front.  In power
    mode the grid and n pass the power study's own checks here, before any fit."""
    def fail(key, reason):
        raise ValueError(f"{path}:{lines[key][0]}: {key} = {lines[key][1]!r}: {reason}") from None

    values, lines = {}, {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, text = (part.strip() for part in stripped.partition("="))
            lines[key] = (lineno, text)
            if key not in _KEYS:
                fail(key, "unknown key")
            try:
                values[key] = _KEYS[key][0](text)
            except (ValueError, TypeError) as exc:
                fail(key, exc)
    mode = values.setdefault("mode", "estimation")
    for key, (_, default, reader) in _KEYS.items():
        if reader not in (None, mode):
            if key in values:
                fail(key, f"read only in {reader} mode")
        elif key not in values:
            if default is None:
                raise ValueError(f"{path}: missing required key {key!r}")
            values[key] = default
    fields = {key: values.pop(key) for key in list(values)
              if key != "mode" and _KEYS[key][2] != "power"}
    try:
        config = SimulationConfig(beta_true=fields.pop("beta"), **fields)
    except (RelerrError, ValueError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    if mode == "power":
        try:
            _check_grid(values["beta_grid"], config.p)
        except ValueError as exc:
            fail("beta_grid", exc)
    return {**values, "config": config}
