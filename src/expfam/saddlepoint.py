"""Renormalized saddle-point profiles over the natural domain.

For a sample of size n with hindsight estimate theta_hat, the profile

    exp(-n * D_A(theta, theta_hat)) * det Cov(theta)^(1/2) / tau^(d/2)

is integrated numerically over the natural domain; dividing by that
normalizer yields a probability density.  For the families whose
conjugated family admits exact posteriors (Gamma, Gaussian location,
Poisson-exponential) the renormalized profile should reproduce the
closed-form Jeffreys posterior, and ``exactness_report`` measures the
worst relative deviation over a grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import TAU, Family, ObservationBatch, _log_ratio_integral
from .errors import DomainError, NonIntegrableError
from .numerics import DEFAULT_TOL, integrate

__all__ = [
    "SaddlepointProfile",
    "log_saddlepoint_unnormalized",
    "saddlepoint_unnormalized",
    "renormalize",
    "exactness_report",
]


def _check_n(n):
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return n


def log_saddlepoint_unnormalized(family, n, theta_hat, theta):
    """Log of the unnormalized saddle-point value at theta around theta_hat."""
    return _log_profile(
        family,
        _check_n(n),
        family._check_natural(theta_hat),
        family._check_natural(theta),
    )


def _log_profile(family, n, theta_hat, theta):
    """``log_saddlepoint_unnormalized`` on checked arguments; d > 1 takes stacks."""
    div = family._bregman(theta, theta_hat)
    return -n * div + family._log_jeffreys(theta) - 0.5 * family.d * math.log(TAU)


def saddlepoint_unnormalized(family, n, theta_hat, theta):
    """Unnormalized saddle-point value at theta around theta_hat."""
    return math.exp(log_saddlepoint_unnormalized(family, n, theta_hat, theta))


@dataclass(frozen=True)
class SaddlepointProfile:
    """A renormalized saddle-point approximation."""

    family: Family
    n: int
    theta_hat: object
    normalizer: float
    normalizer_error: float

    def log_density(self, theta):
        return log_saddlepoint_unnormalized(
            self.family, self.n, self.theta_hat, theta
        ) - math.log(self.normalizer)

    def density(self, theta):
        return math.exp(self.log_density(theta))


def renormalize(family, n, theta_hat, tol=DEFAULT_TOL):
    """Integrate the profile over the natural domain and package the result."""
    n = _check_n(n)
    theta_hat = family._check_natural(theta_hat)
    if family.d == 1:
        log_r, rel_err = _log_ratio_integral(family, n, theta_hat, tol)
        normalizer = math.exp(log_r - 0.5 * math.log(TAU))
        error = rel_err * normalizer
    else:
        # 12 Laplace widths each way: the peak's covariance is Cov(theta_hat)^-1/n
        half = 12.0 * np.sqrt(np.diag(np.linalg.inv(family._covariance(theta_hat))) / n)
        lo, hi = theta_hat - half, theta_hat + half
        result = integrate(
            lambda t: np.exp(_log_profile(family, n, theta_hat, t)), lo, hi, tol=tol
        )
        if not result.value > 0:  # integrate has already rejected a non-finite value
            raise NonIntegrableError(
                f"saddle-point normalizer is not positive: {result.value}"
            )
        normalizer, error = result.value, result.error_estimate
    return SaddlepointProfile(
        family=family,
        n=int(n),
        theta_hat=theta_hat,
        normalizer=normalizer,
        normalizer_error=error,
    )


def exactness_report(family, n, theta_hat, grid, tol=DEFAULT_TOL):
    """Max relative deviation of the renormalized profile from the exact posterior.

    The exact posterior is the family's closed-form ``jeffreys_posterior``.
    """
    batch = ObservationBatch(n=n, xbar=family.mean_from_natural(theta_hat))
    posterior = family.jeffreys_posterior(batch)
    profile = renormalize(family, n, theta_hat, tol=tol)
    worst = 0.0
    for theta in grid:
        approx = profile.log_density(theta)
        exact = posterior.log_pdf(theta)
        rel = abs(math.exp(approx - exact) - 1.0)
        worst = max(worst, rel)
    return worst
