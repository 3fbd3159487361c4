"""Closed forms the benchmark checks expfam's outputs against.

They are written here from the formulas, with scipy.special and
scipy.stats, and share no code with expfam: a wrong quadrature, series or
root in the program cannot also be wrong here.
"""

import math

import numpy as np
from scipy import special, stats

LOG_TAU = math.log(2.0 * math.pi)


def pe_log_carrier(kappa, y):
    """log h(y) of the Poisson-exponential carrier: the Bessel form.

    h(y) = sqrt(z/y) I_1(2 sqrt(z y)), z = kappa/2, for y > 0; the atom at
    zero has weight one.
    """
    if y == 0.0:
        return 0.0
    z = kappa / 2.0
    u = 2.0 * math.sqrt(z * y)
    return 0.5 * math.log(z / y) + math.log(special.ive(1, u)) + u


def pe_log_evidence(kappa, n, xbar):
    """log of the Jeffreys evidence of n observations with mean xbar.

    The integral of beta^-3/2 exp(-a beta - b/beta) over beta > 0 is
    sqrt(pi/b) exp(-2 sqrt(a b)); with a = n xbar, b = n kappa / 2 and the
    Jeffreys factor sqrt(kappa) this is sqrt(2 pi/n) exp(-n sqrt(2 kappa xbar)).
    """
    return 0.5 * (LOG_TAU - math.log(n)) - n * math.sqrt(2.0 * kappa * xbar)


def jeffreys_log_predictive(family, params, n, xbar, y):
    """Closed-form Jeffreys posterior predictive of one point y."""
    if family == "gamma":
        alpha = params["alpha"]
        a, s = n * alpha, n * xbar
        return (
            (alpha - 1.0) * math.log(y)
            - math.lgamma(alpha)
            + a * math.log(s)
            - math.lgamma(a)
            + math.lgamma(a + alpha)
            - (a + alpha) * math.log(s + y)
        )
    if family == "gaussian":
        var = params["cov"] * (1.0 + 1.0 / n)
        return -0.5 * (LOG_TAU + math.log(var) + (y - xbar) ** 2 / var)
    if family == "poisson-exp":
        kappa = params["kappa"]
        new = (n * xbar + y) / (n + 1)
        return (
            pe_log_evidence(kappa, n + 1, new)
            - pe_log_evidence(kappa, n, xbar)
            + pe_log_carrier(kappa, y)
        )
    return None


def plugin_log_density(family, params, xbar, y):
    """Log density of y under the maximum-likelihood fit to mean xbar."""
    if family == "gamma":
        alpha = params["alpha"]
        beta = alpha / xbar
        return (
            alpha * math.log(beta)
            + (alpha - 1.0) * math.log(y)
            - beta * y
            - math.lgamma(alpha)
        )
    if family == "gaussian":
        c = params["cov"]
        return -0.5 * (LOG_TAU + math.log(c) + (y - xbar) ** 2 / c)
    if family == "poisson-exp":
        kappa = params["kappa"]
        beta = math.sqrt(kappa / (2.0 * xbar))
        atom = -kappa / (2.0 * beta)
        return atom if y == 0.0 else atom - beta * y + pe_log_carrier(kappa, y)
    return None


def gamma_lemma1_log_constant(alpha, n):
    """log of sqrt(alpha) Gamma(n alpha) e^(n alpha) / (n alpha)^(n alpha)."""
    na = n * alpha
    return 0.5 * math.log(alpha) + math.lgamma(na) + na - na * math.log(na)


def posterior(family, params, n, xbar):
    """Closed-form Jeffreys posterior as a scipy.stats object.

    Gamma and Poisson-exponential: a distribution of the rate beta =
    -theta.  Gaussian: a distribution of theta itself.
    """
    if family == "gamma":
        return stats.gamma(n * params["alpha"], scale=1.0 / (n * xbar))
    if family == "poisson-exp":
        mean = math.sqrt(params["kappa"] / (2.0 * xbar))
        shape = n * params["kappa"]
        return stats.invgauss(mean / shape, scale=shape)
    cov = np.atleast_2d(params["cov"])
    prec = np.linalg.inv(cov)
    return stats.multivariate_normal(prec @ np.atleast_1d(xbar), prec / n)


def posterior_log_density(family, post, theta):
    if family in ("gamma", "poisson-exp"):
        return float(post.logpdf(-theta))
    return float(post.logpdf(np.atleast_1d(theta)))


def pe_sum_cdf(kappa, beta, s):
    """P(S <= s) for S compound Poisson(kappa/(2 beta)) of Exp(beta) jumps.

    Sums the Poisson weights over every count whose weight exceeds 1e-30
    of the peak, each times the Gamma(k, beta) distribution function.
    """
    lam = kappa / (2.0 * beta)
    lo, hi = (int(v) for v in stats.poisson.ppf([1e-30, 1.0 - 1e-16], lam))
    k = np.arange(max(lo, 1), max(hi, 1) + 1, dtype=float)
    weights = stats.poisson.pmf(k, lam)
    return math.exp(-lam) + float(np.sum(weights * special.gammainc(k, beta * s)))


def rel_err(value, expected):
    if value == expected:
        return 0.0
    return abs(value - expected) / max(abs(expected), 1e-300)
