"""Concrete distributions used for posteriors and sampling.

The compound-Poisson density series is evaluated here in log space, in its
Bessel closed form.  For a Poisson number N of exponential summands, the
continuous part of the density of Y = X_1 + ... + X_N factors as

    f(x) = exp(-beta*x - kappa/(2*beta)) * S(kappa, x),
    S(kappa, x) = sum_{k>=1} (kappa/2)^k x^(k-1) / (k! (k-1)!),

with a point mass exp(-kappa/(2*beta)) at zero; kappa = 2*lambda*beta ties
the Poisson rate lambda to the family's shape parameter.

Its distribution function has two forms.  One is the Poisson-weighted sum of
gamma distribution functions, for lambda <= 30 (the CLI goldens pin those
bits) and in the far lower tail above it.  The other is a contour integral
through the saddle point of the Poisson counts' generating function (Siegel
1979, *Biometrika* 66), in closed form up to a 16-point Gauss-Hermite
remainder.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SupportError
from .numerics import _scisp, find_root, std_normal_quantile
from .validation import (
    all_hold,
    check_nonnegative,
    check_positive,
    check_positive_array,
    check_unit_open,
    float_array,
)

__all__ = [
    "GammaPosterior",
    "RatePosterior",
    "GaussianDist",
    "InverseGaussianDist",
    "PoissonExponentialDist",
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
        """ln(b^a x^(a-1) e^(-bx) / Gamma(a)) with no terms of order a ln a.

        It is a ln a - a - lgamma(a) - bd0 - ln x, where
        bd0 = a ln(a/(bx)) + bx - a is summed from the exact product bx
        near bx = a (Loader 2000, *Fast and accurate computation of
        binomial probabilities*) and, for a >= 15, a ln a - a - lgamma(a)
        is (ln a - ln tau)/2 less Stirling's remainder series.
        """
        x = _check_positive_x(x)
        a, b = self.shape, self.rate
        if a >= 15.0:
            r = 1.0 / a
            q = r * r
            remainder = r * (
                1 / 12 - q * (1 / 360 - q * (1 / 1260 - q * (1 / 1680 - q / 1188)))
            )
            head = 0.5 * (math.log(a) - _LOG_TAU) - remainder
        else:
            head = a * math.log(a) - a - math.lgamma(a)
        return head - _bd0(a, b, x) - math.log(x)

    def cdf(self, x):
        if x < 0:
            return 0.0
        return float(_scisp.gammainc(self.shape, self.rate * x))

    def ppf(self, p):
        p = check_unit_open(p, "p")
        return float(_scisp.gammaincinv(self.shape, p)) / self.rate

    def isf(self, p):
        """Upper-tail quantile: the x with P(X > x) = p."""
        return float(_scisp.gammainccinv(self.shape, check_unit_open(p, "p"))) / self.rate

    @property
    def mean(self):
        return self.shape / self.rate

    @property
    def variance(self):
        return self.shape / self.rate**2


_LOG_TAU = math.log(2.0 * math.pi)
_LOG_2 = math.log(2.0)
_SPLITTER = 134217729.0  # 2^27 + 1


def _two_product(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker 1971)."""
    p = a * b
    c = _SPLITTER * a
    a_hi = c - (c - a)
    c = _SPLITTER * b
    b_hi = c - (c - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _bd0(a, b, x):
    """a ln(a/(bx)) + bx - a, as a series in v = (a - bx)/(a + bx) near bx = a.

    bx may overflow to inf or underflow to 0, so ln(a/(bx)) and the exact
    product bx are formed from the binary mantissas and exponents of a, b
    and x, where nothing overflows.
    """
    (ma, ea), (mb, eb), (mx, ex) = math.frexp(a), math.frexp(b), math.frexp(x)
    m = b * x
    if abs(a - m) >= 0.1 * (a + m):
        return a * (math.log(ma / (mb * mx)) + (ea - eb - ex) * _LOG_2) + (m - a)
    m, low = _two_product(mb, mx)
    m, low = math.ldexp(m, eb + ex), math.ldexp(low, eb + ex)
    excess = (m - a) + low  # bx - a to rounding: m - a is exact here
    v = -excess / (a + m)
    # bd0 = (a - bx) v + 2a (v^3/3 + v^5/5 + ...): the first term is
    # positive and the series is below |v|/3 of it, so nothing cancels
    total, term, q, j = -excess * v, 2.0 * a * v, v * v, 3
    while True:
        term *= q
        nxt = total + term / j
        if nxt == total:
            return total
        total, j = nxt, j + 2


@dataclass(frozen=True)
class RatePosterior:
    """A posterior of the rate beta = -theta, read in the natural coordinate."""

    rate: object

    def log_pdf(self, theta):
        return self.rate.log_pdf(-float(theta))

    def ppf(self, p):
        # theta <= t iff beta >= -t: the upper tail keeps the digits 1 - p loses
        return -self.rate.isf(p)


@dataclass(frozen=True)
class GaussianDist:
    """Gaussian on R^d with mean vector ``mean`` and precision matrix ``precision``."""

    mean: np.ndarray
    precision: np.ndarray

    def log_pdf(self, x):
        delta = np.atleast_1d(float_array(x, "a point")) - self.mean
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
        """Log density at x > 0; x, mean and shape broadcast as arrays."""
        if not all_hold(np.asarray(x) > 0):
            raise SupportError(f"inverse Gaussian support is x > 0, got {x}")
        m, lam = self.mean, self.shape
        log_norm = 0.5 * (np.log(lam) - math.log(2.0 * math.pi) - 3.0 * np.log(x))
        return log_norm - lam * (x - m) ** 2 / (2.0 * m * m * x)

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    def cdf(self, x):
        """P(X <= x); x, mean and shape broadcast as arrays."""
        inside = np.asarray(x) > 0
        value = np.minimum(self._tail_inside(np.where(inside, x, 1.0), 1.0), 1.0)
        return np.where(inside, value, 0.0)[()]

    def _tail_inside(self, x, sign):
        """Phi(sign a) + sign exp(2 lam/m) Phi(-b), s = sqrt(lam/x), a, b = s (x/m -+ 1).

        The unclipped cdf (sign 1, two positive terms) or sf (sign -1) at x > 0.
        Above the mean (a > 0) the sf is exp(-a^2/2) (erfcx(a/sqrt2) - erfcx(b/sqrt2)) / 2,
        since 2 lam/m - b^2/2 = -a^2/2: the two terms share their exponential
        instead of each rounding their own.  Below, erfcx(a/sqrt2) would overflow.
        """
        m, lam = self.mean, self.shape
        s = (lam / x) ** 0.5  # np.sqrt costs more than all the rest on a float
        a, b = s * (x / m - 1.0), s * (x / m + 1.0)
        if sign < 0 and not isinstance(a, np.ndarray) and a > 0.0:
            return _sf_above_mean(a, b)
        value = _scisp.ndtr(sign * a) + sign * np.exp(
            2.0 * lam / m + _scisp.log_ndtr(-b)
        )
        if sign < 0 and isinstance(a, np.ndarray):
            above = a > 0.0
            value = np.where(above, _sf_above_mean(np.where(above, a, 0.0), b), value)
        return value

    def ppf(self, p):
        """Quantile at ``p``; an array of them when mean or shape is an array."""
        return self._solve(check_unit_open(p, "p"), 1.0)

    def isf(self, p):
        """Upper-tail quantile: the x with P(X > x) = p."""
        return self._solve(check_unit_open(p, "p"), -1.0)

    def _solve(self, p, sign):
        """The x where the cdf (sign 1) or sf (sign -1) is p.

        Times ``sign`` both rise through ``sign p``, so one ``find_root`` from the
        mean serves both.  Its tol, the least normal float, leaves the root
        finders' floor of 4 eps |x| in charge: a quantile of any size keeps
        its relative precision.
        """
        rising = lambda x: sign * self._tail_inside(x, sign)
        return find_root(rising, self.mean, sign * p, _TINY, fprime=self.pdf)

    def sample(self, rng, size):
        return rng.wald(self.mean, self.shape, size=size)


_SQRT_HALF = math.sqrt(0.5)
_TINY = float(np.finfo(float).tiny)


def _sf_above_mean(a, b):
    """The inverse Gaussian sf in its a > 0 form (see ``InverseGaussianDist._tail_inside``)."""
    return 0.5 * np.exp(-0.5 * a * a) * (
        _scisp.erfcx(a * _SQRT_HALF) - _scisp.erfcx(b * _SQRT_HALF)
    )


def _log_series_factor(kappa, x):
    """log S(kappa, x) of the compound-Poisson series factor, in Bessel form.

    Its arguments are checked by the callers: kappa > 0 and finite x > 0.

    With z = kappa/2 and y = 2 sqrt(z x) the series sums to
    S = sqrt(z/x) I_1(y) = z I_1(y) / (y/2) (Dunn & Smyth 2005, *Series
    evaluation of Tweedie densities*); ``i1e`` = exp(-y) I_1(y) keeps it
    in range for any finite y.  Below y = 1e-4 the expansion
    log S = log z + y^2/8 - y^4/384 + ... is exact to 3e-19 with two terms,
    and it stays finite where y underflows and I_1(y)/y would be 0/0.  Above
    y = 1e200 it takes log(2 i1e(y)) - log y, as 2 i1e(y)/y nears underflow.
    """
    z = kappa / 2.0
    y = 2.0 * math.sqrt(z) * math.sqrt(x)
    if y < 1e-4:
        return math.log(z) + 0.125 * y * y
    if y > 1e200:
        if y == math.inf:  # log S is about y
            raise DomainError("the carrier exceeds the float range")
        return math.log(z) + (math.log(2.0 * _scisp.i1e(y)) - math.log(y)) + y
    return math.log(z) + math.log(2.0 * _scisp.i1e(y) / y) + y


def _check_positive_x(x):
    try:
        x = float(x)
    except (TypeError, ValueError):  # None, a string, an array of two
        raise DomainError(f"x must be a number, got {x!r}") from None
    if not 0.0 < x < math.inf:
        raise SupportError(f"the density lives on finite x > 0, got {x}")
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
        """P(Y <= x): the atom plus the Poisson-weighted gamma distribution functions.

        For lam <= 30 the sum runs over k = 1..lam+45, term by term, or
        further until a geometric bound puts the rest below half an ulp.

        Above, with t = beta x and independent Poisson counts N_t, N_lam,
        P(Y <= x) = P(N_t >= N_lam) (Siegel 1979).  D = N_t - N_lam has the
        generating function G(z) = exp(t(z - 1) + lam(1/z - 1)), so for t < lam
        F = P(D >= 0) is the contour integral

            F = (1/(2 pi i)) * integral of G(z) / (z - 1) dz

        on any circle |z| = r > 1, and for t >= lam F is 1 less the integral
        of G(z) / (1 - z) on a circle r <= 1.  Take r = sqrt(lam/t), the
        circle through G's saddle point.  There G = exp(-d^2 - 2 xi s^2),
        with d = sqrt(lam) - sqrt(t), xi = 2 sqrt(lam t) and s = sin(theta/2),
        so it is real and peaks at theta = 0.  The real part of z/(z - 1) is

            1/2 + (r^2 - 1) / (2 ((r - 1)^2 + 4 r s^2)),

        and in s (d theta = 2 ds / sqrt(1 - s^2)) the three parts are

        - the constant 1/2: half the atom, P(D = 0)/2 = exp(-d^2) i0e(xi)/2;
        - the pole part, 1/sqrt(1 - s^2) replaced by 1/c, its value at the
          poles s = +-i|r - 1|/(2 sqrt r), c = (r + 1)/(2 sqrt r), and
          integrated over the whole line: exactly erfc(|d|)/2, with the
          sign of r - 1 (2 xi times the squared pole distance is d^2);
        - the remainder, proportional to exp(-2 xi s^2) / (q c (q + c)) with
          q = sqrt(1 - s^2): of one sign, with nothing left to cancel.

        So F = P(D = 0)/2 + erfc(d)/2 + T for t < lam and
        F = 1 + P(D = 0)/2 - erfc(-d)/2 + T otherwise, where

            T = exp(-d^2) d / (2 pi xi) * (integral over x > 0 of
                exp(-x^2) / (q (q + c))),  s = x / sqrt(2 xi).

        The 8 positive nodes of the 16-point Gauss-Hermite rule integrate T
        and the atom's own integral, i0e(xi) = (2/pi) * (integral over
        0 < s < 1 of exp(-2 xi s^2) / q), together; the neglected s > 1
        weighs exp(-2 xi).  Where xi >= 20 the largest node sits at
        s^2 = 0.55, clear of the branch point at s = 1.  Against a 40-digit
        reference the cdf is then within 3e-14 relative in the lower tail
        down to F = 1e-30 (further down the rounding of d^2 costs a few d^2
        ulps: 2e-13 at F = 1e-280) and within 2.3e-16 absolute in the upper
        tail, at any lam.  Below xi = 20 (t < 100/lam, the far lower tail) the
        sum takes over again: its terms peak near k = xi/2 < 10, so its first
        75 terms hold it all.
        """
        x = check_nonnegative(x, "x")
        lam = self.poisson_rate
        if x == 0.0:
            return math.exp(-lam)
        return _pe_cdf(lam, self.rate * x)

    def sample(self, rng, size):
        counts = rng.poisson(self.poisson_rate, size=size)
        return rng.gamma(shape=counts, scale=1.0 / self.rate)

    @property
    def mean(self):
        return self.kappa / (2.0 * self.rate**2)


@functools.cache
def _log_factorials():
    """gammaln(k + 1) for k = 1..150: the sum of ``_pe_cdf`` stops within two
    blocks of int(min(lam, 30) + 45) terms (at lam <= 30 the weight at the
    second's end is below e^-90 of the atom; above, one block holds the sum)."""
    return _scisp.gammaln(np.arange(2.0, 152.0))


# (x^2, w) at the 8 positive nodes of the 16-point Gauss-Hermite rule, which
# equal numpy.polynomial.hermite.hermgauss(16): literals, so that the cdf
# imports no numpy.polynomial
_HERMITE_16 = (
    (0.07479188259681827, 0.5079294790166137),
    (0.6772490876492891, 0.2806474585285337),
    (1.9051136350314286, 0.08381004139898583),
    (3.8094763614849065, 0.012880311535509989),
    (6.483145428627171, 0.0009322840086241807),
    (10.093323675221344, 2.7118600925378892e-05),
    (14.972627088426394, 2.3209808448652032e-07),
    (21.984272840962653, 2.6548074740111673e-10),
)


def _pe_cdf(lam, t):
    """``PoissonExponentialDist.cdf`` at t = beta x > 0 for the Poisson rate
    lam, on arguments its callers checked."""
    if lam > 30.0:
        # the limits where lam or beta x overflowed, on which d would be NaN
        if math.isinf(lam) or math.isinf(t):
            return 0.0 if math.isinf(lam) else 1.0
        root_lam, root_t = math.sqrt(lam), math.sqrt(t)
        xi = 2.0 * root_lam * root_t
        if xi >= 20.0:
            return min(_pe_cdf_contour(lam, t, root_lam, root_t, xi), 1.0)
    k = np.arange(1, int(min(lam, 30.0) + 45) + 1, dtype=float)
    out = math.exp(-lam)
    while True:
        log_k_factorial = _log_factorials()[int(k[0]) - 1 : int(k[-1])]
        log_w = -lam + k * math.log(lam) - log_k_factorial
        terms = np.exp(log_w) * _scisp.gammainc(k, t)
        out += float(np.sum(terms))
        # later terms shrink by r each: their sum is below terms[-1] r / (1 - r),
        # which must fall under half an ulp of out.  Where lam/(k+1) >= 1,
        # r also takes the gamma cdfs' ratio: P(k+1, t) <= t/(k+1) P(k, t)
        r = lam / (k[-1] + 1.0)
        if r >= 1.0:
            r *= t / (k[-1] + 1.0)
        if terms[-1] * r / (1.0 - r) <= 2.0**-53 * out:
            break
        k = k + len(k)
    return min(out, 1.0)


def _pe_cdf_contour(lam, t, root_lam, root_t, xi):
    """The saddle-point contour form of ``PoissonExponentialDist.cdf`` at xi >= 20.

    With v = sqrt(2 xi), d = sqrt(lam) - sqrt(t) and c = (sqrt(lam) +
    sqrt(t))/v, the half atom and T sum to exp(-d^2)/(pi v) times
    sum_i w_i (q_i + 2 sqrt(lam)/v) / (q_i (q_i + c)), q_i = sqrt(1 - x_i^2/v^2).
    """
    v = math.sqrt(2.0 * xi)
    d = (lam - t) / (root_lam + root_t)
    a, c, h = 2.0 * root_lam / v, (root_lam + root_t) / v, 0.5 / xi
    total = 0.0
    for x2, w in _HERMITE_16:
        q = math.sqrt(1.0 - x2 * h)
        total += w * (q + a) / (q * (q + c))
    body = math.exp(-d * d) * total / (math.pi * v)
    if d > 0.0:
        return body + 0.5 * math.erfc(d)
    return 1.0 + body - 0.5 * math.erfc(-d)
