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
from scipy import integrate as _sciint

from .core import TAU, Family, ObservationBatch, integrate_over_natural
from .errors import DomainError, NonIntegrableError
from .numerics import DEFAULT_TOL
from .validation import check_positive

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
    """``log_saddlepoint_unnormalized`` on checked arguments."""
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
    check_positive(tol, "tol")
    n = _check_n(n)
    theta_hat = family._check_natural(theta_hat)
    if family.d == 1:
        result = integrate_over_natural(
            family,
            lambda t: math.exp(_log_profile(family, n, theta_hat, t)),
            tol=tol,
            split_thetas=[theta_hat],
        )
        normalizer, err = result.value, result.error_estimate
    else:
        # product rule over an axis-aligned box of 12 Laplace widths: the
        # profile peaks at theta_hat with covariance Cov(theta_hat)^-1/n
        sigma = np.sqrt(np.diag(np.linalg.inv(family._covariance(theta_hat))) / n)
        ranges = [
            (theta_hat[i] - 12.0 * sigma[i], theta_hat[i] + 12.0 * sigma[i])
            for i in range(family.d)
        ]
        normalizer, err = _sciint.nquad(
            lambda *t: math.exp(_log_profile(family, n, theta_hat, np.asarray(t))),
            ranges,
            opts={"epsabs": tol, "epsrel": tol},
        )
    if not math.isfinite(normalizer) or normalizer <= 0:
        raise NonIntegrableError(
            f"saddle-point normalizer is not finite/positive: {normalizer}"
        )
    return SaddlepointProfile(
        family=family,
        n=int(n),
        theta_hat=theta_hat,
        normalizer=normalizer,
        normalizer_error=err,
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
