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

from .core import NEGATIVE_HALF_LINE, TAU, Family, ObservationBatch, _log_ratio_integral
from .numerics import DEFAULT_TOL, exp_density
from .validation import check_count

__all__ = [
    "SaddlepointProfile",
    "log_saddlepoint_unnormalized",
    "saddlepoint_unnormalized",
    "renormalize",
    "exactness_report",
]


def log_saddlepoint_unnormalized(family, n, theta_hat, theta):
    """Log of the unnormalized saddle-point value at theta around theta_hat."""
    return _log_profile(
        family,
        check_count(n),
        family._check_natural(theta_hat),
        family._check_natural(theta),
    )


def _log_profile(family, n, theta_hat, theta):
    """``log_saddlepoint_unnormalized`` on checked arguments; d > 1 takes stacks.

    -n D(theta, theta_hat) + ln J(theta) is the ratio integrand's exponent
    g(v) of ``core._log_ratio_integral`` plus ln J(theta_hat), less ln
    |dtheta/dv| / |dtheta/dv|(0) = v on the half line, where theta =
    theta_hat e^v.  The kernel has no terms of order n that cancel, where
    n times a difference of cumulants loses digits as n grows.
    """
    if family.natural_domain == NEGATIVE_HALF_LINE:
        v = np.log1p((theta - theta_hat) / theta_hat)
        log_ratio = family._ratio_exponent(n, theta_hat, v) - v
    else:
        log_ratio = family._ratio_exponent(n, theta_hat, theta - theta_hat)
    return log_ratio + family._log_jeffreys(theta_hat) - 0.5 * family.d * math.log(TAU)


def saddlepoint_unnormalized(family, n, theta_hat, theta):
    """Unnormalized saddle-point value at theta around theta_hat."""
    return exp_density(log_saddlepoint_unnormalized(family, n, theta_hat, theta))


@dataclass(frozen=True)
class SaddlepointProfile:
    """A renormalized saddle-point approximation."""

    family: Family
    n: int
    theta_hat: object
    normalizer: float
    normalizer_error: float

    def log_density(self, theta):
        theta = self.family._check_natural(theta)
        return _log_profile(self.family, self.n, self.theta_hat, theta) - math.log(
            self.normalizer
        )

    def density(self, theta):
        return exp_density(self.log_density(theta))


def renormalize(family, n, theta_hat, tol=DEFAULT_TOL):
    """Integrate the profile over the natural domain and package the result.

    The normalizer is R / tau^(d/2), R the ratio integral of
    ``core._log_ratio_integral``, at every d.
    """
    n = check_count(n)
    theta_hat = family._check_natural(theta_hat)
    log_r, rel_err = _log_ratio_integral(family, n, theta_hat, tol)
    normalizer = math.exp(log_r - 0.5 * family.d * math.log(TAU))
    return SaddlepointProfile(
        family=family,
        n=n,
        theta_hat=theta_hat,
        normalizer=normalizer,
        normalizer_error=rel_err * normalizer,
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
