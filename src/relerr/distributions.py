"""Error laws for the multiplicative model.

Four inverse-transformation-invariant efficiency laws: the log error
r = log eps has density c * exp(-rho(r)) for an even convex loss rho,
so sum rho(r_i) is the exact negative log-likelihood (in x = eps, the
paper's c * exp(-g(|1-x|, |1-1/x|) - log x)).  lpre_efficient,
lare_efficient and max_efficient take rho from the product, sum and max
rows of the criteria table; ls_like_efficient uses
rho(r) = (e^r - 1)^2 + (e^-r - 1)^2, which no shipped criterion
minimizes, and the asymmetric criterion has none.  Also log-uniform,
log-normal, uniform, and a degenerate point mass at 1.

As rho is even, E(eps^-k) = E(eps^k) and every constant is one adaptive
quadrature over r >= 0; efficiency laws are sampled by rejection from
r ~ N(0, sigma^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import criteria
from .errors import RelerrError

#: rho of the log error, by efficiency law
_RHO = {
    "lpre_efficient": criteria.PRODUCT.rho,
    "lare_efficient": criteria.SUM.rho,
    "max_efficient": criteria.MAX.rho,
    "ls_like_efficient": lambda r: (np.exp(r) - 1.0) ** 2 + (np.exp(-r) - 1.0) ** 2,
}

#: kinds with a density of the efficiency form
EFFICIENT_KINDS = tuple(_RHO)

_ENVELOPE_SD_INFLATION = 1.5
_ENVELOPE_GRID = np.linspace(-4.0, 4.0, 10_000) * math.log(10.0)


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


def _weight(kind: str, r):
    """exp(-rho(r)), the unnormalized density of the log error."""
    with np.errstate(over="ignore"):
        return np.exp(-_RHO[kind](r))


def unnormalized_density(kind: str, x) -> np.ndarray:
    """Density of an efficiency family up to its normalizing constant."""
    if kind not in EFFICIENT_KINDS:
        raise ValueError(f"no efficiency density for kind {kind!r}")
    x = np.asarray(x, dtype=float)
    # log x is -inf or NaN off x > 0, where the density is 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0, _weight(kind, np.log(x)) / x, 0.0)


def _half_line(kind: str, fn) -> float:
    """int_0^inf fn(r) exp(-rho(r)) dr.

    fn is evaluated only where exp(-rho) has not underflowed, so it may
    grow as fast as cosh(2r).
    """
    def integrand(r):
        w = float(_weight(kind, r))
        return fn(r) * w if w > 0.0 else 0.0

    # imported on first use: at module level it would more than double the
    # import time of relerr, and only the efficiency-law constants need it
    from scipy.integrate import quad

    # epsabs=0: otherwise quad's default absolute 1.5e-8, not epsrel, sets
    # the accuracy of these O(1) integrals
    value, err = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-10, limit=200)
    if err > 1e-7 * max(abs(value), 1.0):
        raise RelerrError("quadrature failed to reach requested accuracy")
    return value


@lru_cache(maxsize=None)
def normalizing_constant(kind: str) -> float:
    """Constant c making the efficiency density integrate to 1 on (0, inf)."""
    if kind not in EFFICIENT_KINDS:
        raise ValueError(f"no normalizing constant for kind {kind!r}")
    return 0.5 / _half_line(kind, lambda r: 1.0)


def _expect(kind: str, fn) -> float:
    """E fn(log eps) for an even fn under an efficiency law."""
    return 2.0 * normalizing_constant(kind) * _half_line(kind, fn)


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
        xp = x[pos]
        z = (np.log(xp) - law.mu) / law.sigma
        out[pos] = np.exp(-0.5 * z * z) / (xp * law.sigma * math.sqrt(2.0 * math.pi))
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

    # imported on first use: only uniform_balanced needs it
    from scipy.optimize import bisect

    return float(bisect(moment_gap, 1.0, 3.0, xtol=1e-12))


@lru_cache(maxsize=None)
def _envelope(kind: str):
    """Proposal sd sigma and bound M for rejection sampling of a kind.

    sigma is 1.5 times the log error's standard deviation; M is the
    largest ratio exp(-rho(r)) / exp(-r^2 / (2 sigma^2)) over the grid
    |r| <= 4 log 10, with a small safety margin.
    """
    sigma = _ENVELOPE_SD_INFLATION * math.sqrt(_expect(kind, lambda r: r * r))
    r = _ENVELOPE_GRID
    ratio = _weight(kind, r) * np.exp(0.5 * (r / sigma) ** 2)
    return sigma, float(np.max(ratio)) * 1.02


class Sampler:
    """Draws from an ErrorLaw; efficiency families use rejection sampling.

    The log error is proposed from a centred normal with an inflated
    standard deviation and accepted against exp(-rho(r)).
    """

    def __init__(self, law: ErrorLaw):
        self.law = law
        if law.kind in EFFICIENT_KINDS:
            self._env_sigma, self._env_bound = _envelope(law.kind)

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
            r = rng.normal(0.0, self._env_sigma, m)
            envelope = self._env_bound * np.exp(-0.5 * (r / self._env_sigma) ** 2)
            keep = r[rng.uniform(size=m) * envelope <= _weight(law.kind, r)]
            take = min(keep.shape[0], size - filled)
            out[filled:filled + take] = np.exp(keep[:take])
            filled += take
        return out


def _moment_function(law: ErrorLaw):
    """k -> E(eps^k) for k in {1, -1, 2, -2}: closed forms where they exist."""
    kind = law.kind
    lo, hi = law.lo, law.hi
    if kind == "log_uniform":
        return lambda k: (math.exp(k * hi) - math.exp(k * lo)) / (k * (hi - lo))
    if kind == "uniform":
        width = hi - lo
        return {
            1: (lo + hi) / 2.0,
            -1: math.log(hi / lo) / width,
            2: (hi**3 - lo**3) / (3 * width),
            -2: (1.0 / lo - 1.0 / hi) / width,
        }.__getitem__
    if kind == "log_normal":
        mu, s2 = law.mu, law.sigma**2
        return lambda k: math.exp(k * mu + k * k * s2 / 2)
    if kind in EFFICIENT_KINDS:
        return lambda k: _expect(kind, lambda r: math.cosh(k * r))
    raise ValueError(f"population constants undefined for {kind!r}")


def population_constants(law: ErrorLaw) -> dict:
    """Moments E(eps), E(1/eps), E(eps + 1/eps), E{(eps - 1/eps)^2} and K.

    K = E{(eps - 1/eps)^2} / (4 E(eps)) is the chi-squared scale of the
    criterion-difference test statistic (equal to 1/2 at the
    product-efficient density, where the criterion is the exact negative
    log-likelihood).  Uses closed forms where they exist and quadrature
    otherwise.
    """
    moment = _moment_function(law)
    e_eps, e_inv = moment(1), moment(-1)
    d_scalar = e_eps + e_inv
    v_scalar = moment(2) - 2.0 + moment(-2)
    out = {
        "e_eps": e_eps,
        "e_inv": e_inv,
        "d_scalar": d_scalar,
        "v_scalar": v_scalar,
        "k": v_scalar / (4.0 * e_eps),
    }
    if law.kind == "lpre_efficient":
        out["d_v_residual"] = abs(d_scalar - v_scalar) / d_scalar
    return out

