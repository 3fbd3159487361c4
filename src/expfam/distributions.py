"""Concrete distributions used for posteriors and sampling.

The compound-Poisson density series is evaluated here in log space, in its
Bessel closed form.  For a Poisson number N of exponential summands, the
continuous part of the density of Y = X_1 + ... + X_N factors as

    f(x) = exp(-beta*x - kappa/(2*beta)) * S(kappa, x),
    S(kappa, x) = sum_{k>=1} (kappa/2)^k x^(k-1) / (k! (k-1)!),

with a point mass exp(-kappa/(2*beta)) at zero; kappa = 2*lambda*beta ties
the Poisson rate lambda to the family's shape parameter.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _scisp

from .errors import DomainError, NonConvergenceError, SupportError
from .numerics import (
    bracket_by_doubling,
    find_root,
    log_std_normal_cdf,
    std_normal_cdf,
    std_normal_quantile,
)
from .validation import (
    check_nonnegative,
    check_positive,
    check_positive_array,
    check_unit_open,
)

__all__ = [
    "GammaPosterior",
    "RatePosterior",
    "GaussianDist",
    "InverseGaussianDist",
    "PoissonExponentialDist",
    "pe_log_series_factor",
]


@dataclass(frozen=True)
class GammaPosterior:
    """Gamma distribution in shape/rate form."""

    shape: float
    rate: float

    def __post_init__(self):
        check_positive(self.shape, "shape")
        check_positive(self.rate, "rate")

    def log_pdf(self, x):
        if x <= 0:
            raise SupportError(f"gamma support is x > 0, got {x}")
        a, b = self.shape, self.rate
        return a * math.log(b) + (a - 1.0) * math.log(x) - b * x - math.lgamma(a)

    def pdf(self, x):
        return math.exp(self.log_pdf(x))

    def cdf(self, x):
        if x < 0:
            return 0.0
        return float(_scisp.gammainc(self.shape, self.rate * x))

    def ppf(self, p):
        p = check_unit_open(p, "p")
        return float(_scisp.gammaincinv(self.shape, p)) / self.rate

    @property
    def mean(self):
        return self.shape / self.rate

    @property
    def variance(self):
        return self.shape / self.rate**2


@dataclass(frozen=True)
class RatePosterior:
    """A posterior of the rate beta = -theta, read in the natural coordinate."""

    rate: object

    def log_pdf(self, theta):
        return self.rate.log_pdf(-float(theta))

    def ppf(self, p):
        # theta <= t exactly when beta >= -t
        return -self.rate.ppf(1.0 - check_unit_open(p, "p"))


@dataclass(frozen=True)
class GaussianDist:
    """Gaussian on R^d with mean vector ``mean`` and precision matrix ``precision``."""

    mean: np.ndarray
    precision: np.ndarray

    def log_pdf(self, x):
        delta = np.atleast_1d(np.asarray(x, dtype=float)) - self.mean
        if delta.shape != self.mean.shape or not np.all(np.isfinite(delta)):
            raise DomainError(f"a point of R^{self.mean.shape[0]} is needed, got {x!r}")
        logdet_cov = -float(np.linalg.slogdet(self.precision)[1])
        return -0.5 * (
            self.mean.shape[0] * math.log(2.0 * math.pi) + logdet_cov
        ) - 0.5 * float(delta @ self.precision @ delta)

    def ppf(self, p):
        if self.mean.shape != (1,):
            raise DomainError("quantiles need a one-dimensional Gaussian")
        return float(self.mean[0]) + std_normal_quantile(p) / math.sqrt(
            self.precision[0, 0]
        )


@dataclass(frozen=True)
class InverseGaussianDist:
    """Inverse Gaussian with mean ``mean`` and shape ``shape``."""

    mean: float
    shape: float

    def __post_init__(self):
        check_positive_array(self.mean, "mean")
        check_positive_array(self.shape, "shape")

    def log_pdf(self, x):
        if x <= 0:
            raise SupportError(f"inverse Gaussian support is x > 0, got {x}")
        m, lam = self.mean, self.shape
        tau = 2.0 * math.pi
        return 0.5 * (math.log(lam) - math.log(tau) - 3.0 * math.log(x)) - lam * (
            x - m
        ) ** 2 / (2.0 * m * m * x)

    def pdf(self, x):
        return math.exp(self.log_pdf(x))

    def cdf(self, x):
        """Two-term standard-normal composition, stable for large shapes."""
        x = float(x)
        if x <= 0:
            return 0.0
        m, lam = self.mean, self.shape
        s = math.sqrt(lam / x)
        first = std_normal_cdf(s * (x / m - 1.0))
        second = math.exp(2.0 * lam / m + log_std_normal_cdf(-s * (x / m + 1.0)))
        return min(first + second, 1.0)

    def ppf(self, p):
        """Quantile at ``p``; an array of them when mean or shape is an array.

        A single quantile is found by Brent's method on a doubled bracket;
        a stack of them by ``_ppf_stacked``, whose per-call set-up would
        cost more than Brent's method at size one.
        """
        p = check_unit_open(p, "p")
        if isinstance(self.mean, np.ndarray) or isinstance(self.shape, np.ndarray):
            return self._ppf_stacked(p)
        bracket = bracket_by_doubling(self.cdf, self.mean, p)
        return find_root(lambda x: self.cdf(x) - p, bracket, tol=1e-15 * bracket.lo)

    def _ppf_stacked(self, p):
        """Elementwise quantiles by Newton steps safeguarded with bisection.

        The brackets come from the doubling of the scalar path.  A Newton
        step that leaves its bracket is replaced by a geometric bisection.
        An element stops once its Newton step falls below 1e-12 relative
        (Newton converges quadratically, so that step has already brought
        it to rounding level) or its bracket has shrunk to rounding level.
        """
        m, lam = np.broadcast_arrays(
            np.asarray(self.mean, dtype=float), np.asarray(self.shape, dtype=float)
        )
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lo = _ig_bracket(m, lam, p, 0.5)
            hi = _ig_bracket(m, lam, p, 2.0)
            x = m.copy()
            active = np.ones(m.shape, dtype=bool)
            for _ in range(100):
                g = _ig_cdf(x, m, lam) - p
                lo = np.where(g < 0, x, lo)
                hi = np.where(g > 0, x, hi)
                newton = x - g / np.exp(_ig_log_pdf(x, m, lam))
                small = np.abs(newton - x) <= 1e-12 * x
                keep = small | ((newton > lo) & (newton < hi))
                new = np.where(keep, newton, np.sqrt(lo) * np.sqrt(hi))
                done = small | (hi - lo <= 1e-15 * hi)
                x = np.where(active, new, x)
                active &= ~done
                if not active.any():
                    return x
        raise NonConvergenceError("inverse Gaussian quantiles did not converge")

    def sample(self, rng, size):
        return rng.wald(self.mean, self.shape, size=size)


def _ig_cdf(x, m, lam):
    """Array form of ``InverseGaussianDist.cdf`` for x > 0."""
    s = np.sqrt(lam / x)
    first = _scisp.ndtr(s * (x / m - 1.0))
    second = np.exp(2.0 * lam / m + _scisp.log_ndtr(-s * (x / m + 1.0)))
    return np.minimum(first + second, 1.0)


def _ig_log_pdf(x, m, lam):
    """Array form of ``InverseGaussianDist.log_pdf`` for x > 0."""
    return 0.5 * (np.log(lam) - math.log(2.0 * math.pi) - 3.0 * np.log(x)) - lam * (
        x - m
    ) ** 2 / (2.0 * m * m * x)


def _ig_bracket(m, lam, p, factor):
    """Scale each mean by ``factor`` until the cdf crosses p: the scalar doubling."""
    x = m.copy()
    pending = np.ones(m.shape, dtype=bool)
    for _ in range(200):
        x = np.where(pending, x * factor, x)
        cdf = _ig_cdf(x, m, lam)
        pending &= cdf >= p if factor < 1.0 else cdf <= p
        if not pending.any():
            return x
    raise NonConvergenceError("could not bracket inverse Gaussian quantile")


def pe_log_series_factor(kappa, x):
    """log S(kappa, x) for the compound-Poisson series factor, x > 0."""
    kappa = check_positive(kappa, "kappa")
    return _log_series_factor(kappa, _check_positive_x(x))


def _log_series_factor(kappa, x):
    """``pe_log_series_factor`` on validated arguments, in Bessel form.

    With z = kappa/2 and y = 2 sqrt(z x) the series sums to
    S = sqrt(z/x) I_1(y) = z I_1(y) / (y/2) (Dunn & Smyth 2005, *Series
    evaluation of Tweedie densities*); ``i1e`` = exp(-y) I_1(y) keeps it
    in range for any y.  Below y = 1e-4 the expansion
    log S = log z + y^2/8 - y^4/384 + ... is exact to 3e-19 with two terms,
    and it stays finite where y underflows and I_1(y)/y would be 0/0.
    """
    z = kappa / 2.0
    y = 2.0 * math.sqrt(z) * math.sqrt(x)
    if y < 1e-4:
        return math.log(z) + 0.125 * y * y
    return math.log(z) + math.log(2.0 * _scisp.i1e(y) / y) + y


def _check_positive_x(x):
    x = float(x)
    if not 0.0 < x < math.inf:
        raise SupportError(f"the continuous part lives on finite x > 0, got {x}")
    return x


@dataclass(frozen=True)
class PoissonExponentialDist:
    """Compound Poisson of exponentials: shape ``kappa``, rate ``rate``."""

    kappa: float
    rate: float

    def __post_init__(self):
        check_positive(self.kappa, "kappa")
        check_positive(self.rate, "rate")

    @property
    def poisson_rate(self):
        return self.kappa / (2.0 * self.rate)

    @property
    def atom_weight(self):
        return math.exp(-self.poisson_rate)

    def log_density(self, x):
        """Log of the continuous density at x > 0."""
        x = _check_positive_x(x)
        return -self.rate * x - self.poisson_rate + _log_series_factor(self.kappa, x)

    def density(self, x):
        return math.exp(self.log_density(x))

    def cdf(self, x):
        """Atom plus Poisson-weighted gamma distribution functions."""
        x = check_nonnegative(x, "x")
        lam = self.poisson_rate
        out = math.exp(-lam)
        if x == 0.0:
            return out
        if lam <= 30.0:
            k_lo, k_hi = 1, int(lam + 45)
        else:
            half = 12.0 * math.sqrt(lam) + 30.0
            k_lo = max(1, int(lam - half))
            k_hi = int(lam + half)
        k = np.arange(k_lo, k_hi + 1, dtype=float)
        log_w = -lam + k * math.log(lam) - _scisp.gammaln(k + 1.0)
        out += float(np.sum(np.exp(log_w) * _scisp.gammainc(k, self.rate * x)))
        return min(out, 1.0)

    def sample(self, rng, size):
        counts = rng.poisson(self.poisson_rate, size=size)
        return rng.gamma(shape=counts, scale=1.0 / self.rate)

    @property
    def mean(self):
        return self.kappa / (2.0 * self.rate**2)
