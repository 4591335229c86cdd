"""Error laws for the multiplicative model.

Covers four inverse-transformation-invariant efficiency densities, each
of the form c * exp(-g(|1-x|, |1-1/x|) - log x) on x > 0, which makes
sum g the exact negative log-likelihood.  Three belong to shipped
criteria (lpre_efficient: product, lare_efficient: sum, max_efficient:
max); ls_like_efficient uses g = a^2 + b^2, which no shipped criterion
minimizes, and the asymmetric criterion has none.  Also log-uniform,
log-normal, uniform, and a degenerate point mass at 1.  Provides normalizing constants and moments
by adaptive quadrature and rejection samplers with a log-normal
envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.optimize import bisect
from scipy.stats import lognorm

from .errors import RelerrError

#: kinds with a density of the efficiency form
EFFICIENT_KINDS = (
    "lpre_efficient",
    "lare_efficient",
    "max_efficient",
    "ls_like_efficient",
)

_ENVELOPE_SD_INFLATION = 1.5
_ENVELOPE_GRID = np.logspace(-4, 4, 10_000)


@dataclass(frozen=True)
class ErrorLaw:
    """A positive error distribution, identified by kind plus parameters."""

    kind: str
    lo: float = 0.0
    hi: float = 0.0
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        known = EFFICIENT_KINDS + ("log_uniform", "log_normal", "uniform", "degenerate")
        if self.kind not in known:
            raise ValueError(f"unknown error law kind: {self.kind!r}")
        if self.kind == "uniform" and not (0.0 < self.lo < self.hi):
            raise ValueError("uniform law requires 0 < lo < hi")
        if self.kind == "log_uniform" and not (self.lo < self.hi):
            raise ValueError("log_uniform law requires lo < hi")
        if self.kind == "log_normal" and self.sigma <= 0:
            raise ValueError("log_normal law requires sigma > 0")

    @classmethod
    def log_uniform(cls, lo: float, hi: float) -> "ErrorLaw":
        return cls("log_uniform", lo=lo, hi=hi)

    @classmethod
    def log_normal(cls, mu: float = 0.0, sigma: float = 1.0) -> "ErrorLaw":
        return cls("log_normal", mu=mu, sigma=sigma)

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "ErrorLaw":
        return cls("uniform", lo=lo, hi=hi)

    @classmethod
    def uniform_balanced(cls) -> "ErrorLaw":
        """Uniform on (0.5, a*) with a* chosen so E(eps) = E(1/eps)."""
        return cls("uniform", lo=0.5, hi=solve_uniform_upper())


def _log_unnormalized(kind: str, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if kind == "lpre_efficient":
        return -x - 1.0 / x - np.log(x) + 2.0
    if kind == "lare_efficient":
        return -np.abs(1.0 - x) - np.abs(1.0 - 1.0 / x) - np.log(x)
    if kind == "max_efficient":
        return -np.maximum(np.abs(1.0 - x), np.abs(1.0 - 1.0 / x)) - np.log(x)
    if kind == "ls_like_efficient":
        return -((1.0 - x) ** 2) - (1.0 - 1.0 / x) ** 2 - np.log(x)
    raise ValueError(f"no efficiency density for kind {kind!r}")


def unnormalized_density(kind: str, x) -> np.ndarray:
    """Density of an efficiency family up to its normalizing constant."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(_log_unnormalized(kind, x[pos]))
    return out


def _integrate(fn, epsrel=1e-10) -> float:
    # split at 1 and exploit the x <-> 1/x substitution on (0, 1]: both
    # halves become integrals over [1, inf) with well-behaved tails
    upper, err_u = quad(fn, 1.0, np.inf, epsrel=epsrel, limit=200)
    lower, err_l = quad(lambda u: fn(1.0 / u) / u**2, 1.0, np.inf,
                        epsrel=epsrel, limit=200)
    total = upper + lower
    # relative where the value is O(1), absolute for near-cancelling integrals
    if (err_u + err_l) > 1e-7 * max(abs(total), 1.0):
        raise RelerrError("quadrature failed to reach requested accuracy")
    return total


@lru_cache(maxsize=None)
def normalizing_constant(kind: str) -> float:
    """Constant c making the efficiency density integrate to 1 on (0, inf)."""
    if kind not in EFFICIENT_KINDS:
        raise ValueError(f"no normalizing constant for kind {kind!r}")
    mass = _integrate(lambda x: float(np.exp(_log_unnormalized(kind, x))))
    return 1.0 / mass


def density(law: ErrorLaw, x) -> np.ndarray:
    """Probability density of the law evaluated at x (vectorized)."""
    x = np.asarray(x, dtype=float)
    if law.kind in EFFICIENT_KINDS:
        return normalizing_constant(law.kind) * unnormalized_density(law.kind, x)
    out = np.zeros_like(x)
    pos = x > 0
    if law.kind == "log_uniform":
        inside = pos & (np.log(np.where(pos, x, 1.0)) >= law.lo) \
            & (np.log(np.where(pos, x, 1.0)) <= law.hi)
        out[inside] = 1.0 / ((law.hi - law.lo) * x[inside])
    elif law.kind == "log_normal":
        out[pos] = lognorm.pdf(x[pos], s=law.sigma, scale=math.exp(law.mu))
    elif law.kind == "uniform":
        inside = (x >= law.lo) & (x <= law.hi)
        out[inside] = 1.0 / (law.hi - law.lo)
    else:
        raise ValueError("degenerate law has no density")
    return out


def solve_uniform_upper() -> float:
    """Upper endpoint a* of uniform(0.5, a) making E(eps) = E(1/eps).

    Solves (0.5 + a)/2 = log(2a)/(a - 0.5) by bisection on (1, 3); the
    root lies in (1.5, 1.7).
    """
    def moment_gap(a):
        return math.log(2.0 * a) / (a - 0.5) - (0.5 + a) / 2.0

    return float(bisect(moment_gap, 1.0, 3.0, xtol=1e-12))


@lru_cache(maxsize=None)
def _envelope_params(kind: str):
    """Log-normal envelope (mu, sigma, acceptance constant) for a kind.

    The proposal matches the target's log-scale mean with an inflated
    standard deviation; the constant is the maximum density ratio over a
    wide log-spaced grid, with a small safety margin.
    """
    c = normalizing_constant(kind)
    f = lambda x: c * float(np.exp(_log_unnormalized(kind, x)))
    mean_log = _integrate(lambda x: math.log(x) * f(x))
    var_log = _integrate(lambda x: (math.log(x) - mean_log) ** 2 * f(x))
    sigma = _ENVELOPE_SD_INFLATION * math.sqrt(var_log)
    grid = _ENVELOPE_GRID
    fx = c * unnormalized_density(kind, grid)
    gx = lognorm.pdf(grid, s=sigma, scale=math.exp(mean_log))
    const = float(np.max(fx / gx)) * 1.02
    if np.any(fx > const * gx):
        raise RelerrError(f"log-normal envelope fails to dominate the {kind} density")
    return mean_log, sigma, const


class Sampler:
    """Draws from an ErrorLaw; efficiency families use rejection sampling.

    The envelope is a log-normal matched to the target's log-scale mean
    and (inflated) standard deviation, with the acceptance constant taken
    as the maximum density ratio over a wide log-spaced grid.
    """

    def __init__(self, law: ErrorLaw):
        self.law = law
        if law.kind in EFFICIENT_KINDS:
            self._env_mu, self._env_sigma, self._env_const = _envelope_params(law.kind)

    def draw(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        law = self.law
        if law.kind == "log_uniform":
            return np.exp(rng.uniform(law.lo, law.hi, size))
        if law.kind == "log_normal":
            return np.exp(rng.normal(law.mu, law.sigma, size))
        if law.kind == "uniform":
            return rng.uniform(law.lo, law.hi, size)
        if law.kind == "degenerate":
            return np.ones(size)

        out = np.empty(size)
        filled = 0
        while filled < size:
            m = max(2 * (size - filled), 64)
            cand = np.exp(rng.normal(self._env_mu, self._env_sigma, m))
            gx = lognorm.pdf(cand, s=self._env_sigma, scale=math.exp(self._env_mu))
            fx = density(law, cand)
            keep = cand[rng.uniform(size=m) * self._env_const * gx <= fx]
            take = min(keep.shape[0], size - filled)
            out[filled:filled + take] = keep[:take]
            filled += take
        return out


def sample(law: ErrorLaw, rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """One-shot draw helper; builds a Sampler internally."""
    return Sampler(law).draw(rng, size)


def population_constants(law: ErrorLaw) -> dict:
    """Moments E(eps), E(1/eps), E(eps + 1/eps), E{(eps - 1/eps)^2} and K.

    K = E{(eps - 1/eps)^2} / (4 E(eps)) is the chi-squared scale of the
    criterion-difference test statistic (equal to 1/2 at the
    product-efficient density, where the criterion is the exact negative
    log-likelihood).  Uses closed forms where they exist and quadrature
    otherwise.
    """
    kind = law.kind
    if kind == "log_uniform":
        lo, hi = law.lo, law.hi
        width = hi - lo
        e_eps = (math.exp(hi) - math.exp(lo)) / width
        e_inv = (math.exp(-lo) - math.exp(-hi)) / width
        e_sq = (math.exp(2 * hi) - math.exp(2 * lo)) / (2 * width)
        e_inv_sq = (math.exp(-2 * lo) - math.exp(-2 * hi)) / (2 * width)
    elif kind == "uniform":
        lo, hi = law.lo, law.hi
        width = hi - lo
        e_eps = (lo + hi) / 2.0
        e_inv = math.log(hi / lo) / width
        e_sq = (hi**3 - lo**3) / (3 * width)
        e_inv_sq = (1.0 / lo - 1.0 / hi) / width
    elif kind == "log_normal":
        mu, s2 = law.mu, law.sigma**2
        e_eps = math.exp(mu + s2 / 2)
        e_inv = math.exp(-mu + s2 / 2)
        e_sq = math.exp(2 * mu + 2 * s2)
        e_inv_sq = math.exp(-2 * mu + 2 * s2)
    elif kind in EFFICIENT_KINDS:
        c = normalizing_constant(kind)
        f = lambda x: c * float(np.exp(_log_unnormalized(kind, x)))
        e_eps = _integrate(lambda x: x * f(x))
        e_inv = _integrate(lambda x: f(x) / x)
        e_sq = _integrate(lambda x: x * x * f(x))
        e_inv_sq = _integrate(lambda x: f(x) / (x * x))
    else:
        raise ValueError(f"population constants undefined for {kind!r}")

    d_scalar = e_eps + e_inv
    v_scalar = e_sq - 2.0 + e_inv_sq
    out = {
        "e_eps": e_eps,
        "e_inv": e_inv,
        "d_scalar": d_scalar,
        "v_scalar": v_scalar,
        "k": v_scalar / (4.0 * e_eps),
    }
    if kind == "lpre_efficient":
        out["d_v_residual"] = abs(d_scalar - v_scalar) / d_scalar
    return out


def density_grid(kind: str, n_points: int = 400, x_max: float = 5.0) -> np.ndarray:
    """(x, density) pairs for plotting one of the efficiency densities."""
    xs = np.linspace(x_max / n_points, x_max, n_points)
    return np.column_stack([xs, density(ErrorLaw(kind), xs)])
