"""The four concrete families and the conjugation map between them.

Closed forms implemented here, with theta the natural parameter:

===================  ==========================  =====================
family               cumulant A(theta)           natural domain
===================  ==========================  =====================
Gamma(alpha)         -alpha*ln(-theta)           theta < 0
Gaussian location    theta.B.theta / 2           R^d
inverse Gaussian     -sqrt(-2*kappa*theta)       theta < 0
Poisson-exponential  kappa / (2*(-theta))        theta < 0
===================  ==========================  =====================

The inverse Gaussian cumulant carries the sign that makes it convex on the
negative half line; its gradient sqrt(kappa/(-2*theta)) is then the
distribution's mean and its conjugate is kappa/(2*x), which pins the
orientation down uniquely.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import Family, REAL_LINE, TAU
from .distributions import (
    GammaPosterior,
    GaussianDist,
    InverseGaussianDist,
    PoissonExponentialDist,
    RatePosterior,
    _log_series_factor,
)
from .errors import DomainError
from .numerics import _scisp
from .validation import all_hold, check_positive

__all__ = [
    "GammaFamily",
    "GaussianLocationFamily",
    "InverseGaussianFamily",
    "PoissonExponentialFamily",
    "ConjugatePair",
    "conjugate_family",
    "poisson_exponential_posterior",
]


class GammaFamily(Family):
    """Gamma with fixed shape ``alpha``; the rate beta = -theta varies."""

    def __init__(self, alpha):
        self.alpha = alpha
        check_positive(alpha, "alpha")
        try:
            self._log_gamma_alpha = math.lgamma(alpha)  # the carrier's normalizer
        except OverflowError:
            raise DomainError(f"alpha must be below 2.56e305, got {alpha}") from None

    def _cumulant(self, theta):
        return -self.alpha * math.log(-theta)

    def _mean_from_natural(self, theta):
        return -self.alpha / theta

    def _covariance(self, theta):
        return self.alpha / theta**2

    def _mle(self, mu):
        return -self.alpha / mu

    def _log_carrier(self, x):
        return (self.alpha - 1.0) * math.log(x) - self._log_gamma_alpha

    def _log_jeffreys(self, theta):
        return 0.5 * math.log(self.alpha) - math.log(-theta)

    def _conjugate_carrier_kernel(self, n, conv):
        neg_alpha, a1, lg, log = -self.alpha, conv.alpha - 1.0, conv._log_gamma_alpha, math.log

        def kernel(x, s):
            theta = neg_alpha / x
            return n * (theta * x - neg_alpha * log(-theta)) + (a1 * log(s) - lg)

        return kernel

    def _ratio_exponent(self, n, theta_hat, v):
        # n D = n alpha (e^v - 1 - v) and J(theta) |dtheta/dv| = sqrt(alpha)
        return -n * self.alpha * (np.expm1(v) - v)

    def _log_jeffreys_evidence(self, n, xbar):
        # the posterior of the rate is Gamma(n alpha, n xbar)
        a = self.alpha
        return 0.5 * math.log(a) + math.lgamma(n * a) - n * a * math.log(n * xbar)

    def jeffreys_posterior(self, batch):
        return RatePosterior(GammaPosterior(batch.n * self.alpha, batch.n * float(batch.xbar)))

    def conjugate(self):
        return GammaFamily(self.alpha)

    def _convolution_family(self, k):
        return GammaFamily(k * self.alpha)

    def sample(self, rng, theta, size):
        theta = self._check_natural(theta)
        return rng.gamma(shape=self.alpha, scale=-1.0 / theta, size=size)


class GaussianLocationFamily(Family):
    """Gaussian with known covariance ``cov``; the mean varies.

    In natural form theta = B^-1 mu with cumulant theta.B.theta / 2, so the
    mean map is theta -> B theta and the covariance is constant.  Its public
    methods take one point, like every family's.  The kernels also take a
    stack of points (leading axes stack them); stacks stay internal, as in
    the divergence ball over the trials of a coverage study.
    """

    natural_domain = REAL_LINE
    mean_domain = REAL_LINE
    support_domain = REAL_LINE

    def __init__(self, cov=1.0):
        self.cov = cov
        try:
            B = np.atleast_2d(np.asarray(cov, dtype=float))
        except (TypeError, ValueError):
            raise DomainError(f"cov must be a matrix of numbers, got {cov!r}") from None
        if not np.all(np.isfinite(B)):
            raise DomainError(f"cov must be finite, got {cov!r}")
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise DomainError(f"cov must be square, got shape {B.shape}")
        if not np.all(np.abs(B - B.T) <= 1e-12 * (1.0 + np.abs(B.T))):
            raise DomainError("cov must be symmetric")
        try:
            np.linalg.cholesky(B)
        except np.linalg.LinAlgError:
            raise DomainError(f"cov must be positive definite, got {cov!r}") from None
        self.d = B.shape[0]
        self._B = B
        self._B_inv = np.linalg.inv(B)
        self._logdet = float(np.linalg.slogdet(B)[1])
        if not (np.all(np.isfinite(self._B_inv)) and math.isfinite(self._logdet)):
            raise DomainError(f"cov is too near singular to invert in floats: {cov!r}")
        self._rows = B.tolist()
        self._inv_rows = self._B_inv.tolist()
        # B and B^-1 as floats for the d = 1 closed forms, and the carrier's constants
        self._b, self._b_inv = self._rows[0][0], self._inv_rows[0][0]
        self._half_log_tau_d = 0.5 * self.d * math.log(TAU)
        self._half_logdet = 0.5 * self._logdet

    def _mul(self, rows, t):
        """The matrix ``rows`` (nested lists) times points, in ``_dot``'s order."""
        if self.d == 1:
            return rows[0][0] * t
        return np.stack(
            [sum(r[j] * t[..., j] for j in range(self.d)) for r in rows], axis=-1
        )

    def _cumulant(self, theta):
        return 0.5 * self._dot(self._mul(self._rows, theta), theta)

    def _mean_from_natural(self, theta):
        return self._mul(self._rows, theta)

    def _covariance(self, theta):
        return self._b if self.d == 1 else self._B.copy()

    def _mle(self, mu):
        return self._mul(self._inv_rows, mu)

    def _log_carrier(self, x):
        quad = self._dot(self._mul(self._inv_rows, x), x)
        return -0.5 * quad - self._half_log_tau_d - self._half_logdet

    def _log_jeffreys(self, theta):
        # J(theta) = det(B)^(1/2) does not depend on theta
        return 0.5 * self._logdet

    def _conjugate_carrier_kernel(self, n, conv):
        # on floats at d == 1, the only d at which CNML runs
        b, b_inv, c_inv, c1, c2 = (
            self._b, self._b_inv, conv._b_inv, conv._half_log_tau_d, conv._half_logdet)

        def kernel(x, s):
            t = b_inv * x
            return n * (t * x - 0.5 * (b * t * t)) + (-0.5 * (c_inv * s * s) - c1 - c2)

        return kernel

    def _ratio_exponent(self, n, theta_hat, v):
        # n D = n v.B.v / 2 with v = theta - theta_hat, and J is constant
        return -0.5 * n * self._dot(self._mul(self._rows, v), v)

    def _log_jeffreys_evidence(self, n, xbar):
        # J is constant, so the Laplace integral is exact at every d:
        # (tau/n)^(d/2) exp(n A*(xbar))
        log_laplace = 0.5 * self.d * (math.log(TAU) - math.log(n))
        return log_laplace + n * self._convex_conjugate(xbar)

    def _log_jeffreys_predictive(self, n, xbar, future):
        # N(xbar, B/n) posterior of the mean: with k futures of mean ybar the
        # predictive is the evidence ratio written without its O(n) terms; the
        # predictors run at d == 1 only
        B = self._b
        k = future.shape[0]
        ybar = float(future.mean())
        spread = float(np.sum((future - ybar) ** 2))
        shrunk = n * k / (n + k) * (ybar - xbar) ** 2
        return (
            -0.5 * math.log1p(k / n)
            - 0.5 * k * math.log(TAU * B)
            - (spread + shrunk) / (2.0 * B)
        )

    def jeffreys_posterior(self, batch):
        """N(B^-1 xbar, B^-1/n): for B = I the textbook N(xbar, B/n) of the mean."""
        return GaussianDist(
            mean=np.atleast_1d(self.mle(batch.xbar)), precision=batch.n * self._B
        )

    def conjugate(self):
        return GaussianLocationFamily(self._B_inv)

    def _convolution_family(self, k):
        return GaussianLocationFamily(k * self._B)

    def sample(self, rng, theta, size):
        mu = np.atleast_1d(self._mean_from_natural(self._check_natural(theta)))
        draws = rng.multivariate_normal(mu, self._B, size=size, method="cholesky")
        return draws[..., 0] if self.d == 1 else draws


class InverseGaussianFamily(Family):
    """Inverse Gaussian with fixed shape ``kappa``; the mean varies."""

    def __init__(self, kappa):
        self.kappa = kappa
        kappa = check_positive(kappa, "kappa")
        # ln kappa - ln tau, the carrier's first term in its left-to-right order
        self._log_kappa_over_tau = math.log(kappa) - math.log(TAU)

    def _cumulant(self, theta):
        return -math.sqrt(-2.0 * self.kappa * theta)

    def _mean_from_natural(self, theta):
        return math.sqrt(self.kappa / (-2.0 * theta))

    def _covariance(self, theta):
        return 0.5 * math.sqrt(self.kappa / 2.0) * (-theta) ** -1.5

    def _mle(self, mu):
        return -self.kappa / (2.0 * mu**2)

    def _log_carrier(self, x):
        log_norm = 0.5 * (self._log_kappa_over_tau - 3.0 * math.log(x))
        return log_norm - self.kappa / (2.0 * x)

    def _log_jeffreys(self, theta):
        return 0.5 * math.log(0.5 * math.sqrt(self.kappa / 2.0)) - 0.75 * math.log(
            -theta
        )

    def _conjugate_carrier_kernel(self, n, conv):
        # theta x - A(theta) as theta x + sqrt(-2 kappa theta): a - (-b) is a + b in IEEE
        neg_kappa, m2k, sqrt, log = -self.kappa, -2.0 * self.kappa, math.sqrt, math.log
        c_log, c_kappa = conv._log_kappa_over_tau, conv.kappa

        def kernel(x, s):
            theta = neg_kappa / (2.0 * x**2)
            log_h = n * (theta * x + sqrt(m2k * theta))
            return log_h + (0.5 * (c_log - 3.0 * log(s)) - c_kappa / (2.0 * s))

        return kernel

    def _ratio_exponent(self, n, theta_hat, v):
        # n D = n sqrt(2 kappa beta_hat) (e^(v/2) - 1)^2 / 2, J(theta) |dtheta/dv| ~ e^(v/4)
        c = 0.5 * n * np.sqrt(-2.0 * self.kappa * theta_hat)
        return -c * np.expm1(0.5 * v) ** 2 + 0.25 * v

    def conjugate(self):
        return PoissonExponentialFamily(self.kappa)

    def _convolution_family(self, k):
        return InverseGaussianFamily(k**2 * self.kappa)

    def sample(self, rng, theta, size):
        mean = self.mean_from_natural(theta)
        return rng.wald(mean, self.kappa, size=size)


class PoissonExponentialFamily(Family):
    """Compound Poisson of exponentials (Tweedie order 3/2), shape ``kappa``.

    The carrier places an atom of weight one at zero, so x = 0 carries
    probability mass exp(-A(theta)) while x > 0 carries a density.
    """

    has_atom = True
    atom_point = 0.0

    def __init__(self, kappa):
        self.kappa = kappa
        check_positive(kappa, "kappa")

    def _cumulant(self, theta):
        return self.kappa / (2.0 * (-theta))

    def _mean_from_natural(self, theta):
        return self.kappa / (2.0 * theta**2)

    def _covariance(self, theta):
        return self.kappa / (-theta) ** 3

    def _mle(self, mu):
        root = np.sqrt if isinstance(mu, np.ndarray) else math.sqrt  # a stack of means
        return -root(self.kappa / (2.0 * mu))

    def _log_carrier(self, x):
        if x == 0.0:
            return 0.0
        return _log_series_factor(self.kappa, x)

    def _log_jeffreys(self, theta):
        return 0.5 * math.log(self.kappa) - 1.5 * math.log(-theta)

    def _conjugate_carrier_kernel(self, n, conv):
        # the carrier is _log_series_factor(conv.kappa, s) inline, and 0 at the atom
        kappa, z, sqrt, log, i1e = self.kappa, conv.kappa / 2.0, math.sqrt, math.log, _scisp.i1e
        log_z, two_root_z = log(z), 2.0 * sqrt(z)

        def kernel(x, s):
            theta = -sqrt(kappa / (2.0 * x))
            log_h = n * (theta * x - kappa / (2.0 * -theta))
            if s == 0.0:
                return log_h + 0.0
            y = two_root_z * sqrt(s)
            if y > 1e200:  # where 2 i1e(y)/y nears underflow
                return log_h + (log_z + (log(2.0 * i1e(y)) - log(y)) + y)
            return log_h + (log_z + 0.125 * y * y if y < 1e-4
                            else log_z + log(2.0 * i1e(y) / y) + y)

        return kernel

    def _ratio_exponent(self, n, theta_hat, v):
        # n D = n kappa / (2 beta_hat) (e^v - 1)^2 e^-v = 2 n kappa / beta_hat sinh(v/2)^2,
        # J(theta) |dtheta/dv| ~ e^(-v/2)
        return -2.0 * n * self.kappa / (-theta_hat) * np.sinh(0.5 * v) ** 2 - 0.5 * v

    def _log_jeffreys_evidence(self, n, xbar):
        # sqrt(kappa) * integral of beta^-3/2 exp(-n xbar beta - n kappa/(2 beta))
        # is a Bessel K_{1/2}: sqrt(2 pi/n) exp(-n sqrt(2 kappa xbar))
        return 0.5 * (math.log(TAU) - math.log(n)) - n * math.sqrt(2.0 * self.kappa * xbar)

    def jeffreys_posterior(self, batch):
        return RatePosterior(poisson_exponential_posterior(self.kappa, batch))

    def conjugate(self):
        return InverseGaussianFamily(self.kappa)

    def _convolution_family(self, k):
        return PoissonExponentialFamily(k * self.kappa)

    def sample(self, rng, theta, size):
        theta = self._check_natural(theta)
        return PoissonExponentialDist(self.kappa, -theta).sample(rng, size)


@dataclass(frozen=True)
class ConjugatePair:
    """A family together with its conjugated exponential family."""

    primal: Family
    dual: Family
    self_conjugate: bool


def conjugate_family(family):
    """Map a family to its conjugated exponential family.

    Gamma and Gaussian location are self-conjugated (the Gaussian dual
    carries the inverse covariance); inverse Gaussian and
    Poisson-exponential swap with each other, up to the sign change of the
    natural parameter.  Each family's ``conjugate`` holds its rule.
    """
    dual = family.conjugate()
    return ConjugatePair(family, dual, type(dual) is type(family))


def poisson_exponential_posterior(kappa, batch):
    """Jeffreys posterior of the rate: inverse Gaussian.

    Normalizing beta^(-3/2) exp(-m*beta*xbar - m*kappa/(2*beta)) gives an
    inverse Gaussian with mean sqrt(kappa/(2*xbar)) and shape m*kappa.  A
    batch whose xbar stacks trials gives a stack of posteriors.
    """
    check_positive(kappa, "kappa")
    xbar = batch.xbar
    if not all_hold(xbar > 0):
        raise DomainError(f"posterior needs xbar > 0, got {xbar}")
    mean = np.sqrt(kappa / (2.0 * xbar))
    return InverseGaussianDist(
        mean=mean if isinstance(xbar, np.ndarray) else float(mean),
        shape=batch.n * kappa,
    )
