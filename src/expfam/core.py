"""Generic natural-exponential-family machinery.

A family here is a parametrized set of distributions with density

    p_theta(x) = exp(theta . x - A(theta)) * h(x)

against Lebesgue measure (plus an explicit atom for the compound-Poisson
case), where A is the cumulant function of the family's carrier h.  The
gradient of A is the mean map, its Hessian the covariance.  Concrete
families supply closed forms for A, its derivatives, the MLE and the
carrier; everything else (Bregman divergence, convex conjugate, Jeffreys
factor, densities, the robustness ratio) is derived here once.

Conventions used throughout:

* natural parameters and mean parameters are floats for one-dimensional
  families and 1-d ``numpy`` arrays for the Gaussian location family;
* ``TAU`` is the circle constant 2*pi, which is how the saddle-point
  normalization is written everywhere in this package.
"""

import math
from dataclasses import dataclass

import numpy as np

from .base import ParamsMixin
from .errors import DegenerateDataError, DomainError, SupportError
# integrate is not used here; it stays importable as expfam.core.integrate
from .numerics import exp_density, integrate, integrate_trapezoid  # noqa: F401
from .validation import all_hold, check_count, check_finite_scalar, check_observations, float_array

TAU = 2.0 * math.pi

#: Domains are open intervals (lo, hi).  NaN and the infinities fail the
#: strict comparisons lo < v < hi, so that one test is the whole check.
NEGATIVE_HALF_LINE = (-math.inf, 0.0)
POSITIVE_HALF_LINE = (0.0, math.inf)
REAL_LINE = (-math.inf, math.inf)


def _inside(v, domain):
    """Whether ``v``, a float or every entry of an array, lies in ``domain``."""
    lo, hi = domain
    if isinstance(v, np.ndarray):
        return bool(np.all((lo < v) & (v < hi)))
    return lo < v < hi


@dataclass(frozen=True)
class ObservationBatch:
    """Sufficient summary of an iid sample: size and mean statistic.

    ``xbar`` is a float, a point (d,), or a stack of either along leading
    axes (one mean per trial); it is checked finite here, once.
    """

    n: int
    xbar: object

    def __post_init__(self):
        object.__setattr__(self, "n", check_count(self.n, "batch size"))
        xbar = self.xbar
        if isinstance(xbar, np.ndarray):
            xbar = float_array(xbar, "batch mean").copy()
            if not _inside(xbar, REAL_LINE):
                raise DomainError(f"batch mean must be finite, got {self.xbar!r}")
        else:
            xbar = check_finite_scalar(xbar, "batch mean")
        object.__setattr__(self, "xbar", xbar)

    @classmethod
    def from_observations(cls, X):
        X = np.asarray(X, dtype=float)
        return cls(n=X.shape[0], xbar=X.mean(axis=0))


class Family(ParamsMixin):
    """Abstract natural exponential family.

    Subclasses supply each closed form once, as a kernel on validated
    values: ``_cumulant``, ``_mean_from_natural``, ``_covariance``,
    ``_mle``, ``_log_carrier`` and ``_convolution_family``,
    ``_log_jeffreys`` where the default would overflow,
    ``_ratio_exponent`` for the ratio integral, a one-frame
    ``_conjugate_carrier_kernel`` for the CNML normalizer, and
    ``_log_jeffreys_predictive`` for the Jeffreys predictor.  A
    point is a float when d == 1 and a vector (d,) otherwise.  Each
    public method checks its arguments and calls the kernel of the same
    name; quadrature integrands, whose arguments are checked once before
    the integral, call the kernels directly.

    The natural domain is either the negative half line (Gamma, inverse
    Gaussian, Poisson-exponential) or all of R^d (Gaussian location).
    """

    natural_domain = NEGATIVE_HALF_LINE
    mean_domain = POSITIVE_HALF_LINE
    support_domain = POSITIVE_HALF_LINE
    #: True when the carrier places an atom at ``atom_point``, the support's lower end.
    has_atom = False
    atom_point = 0.0
    d = 1

    def set_params(self, **params):
        """Set constructor arguments, then rebuild what ``__init__`` derives from them."""
        super().set_params(**params)
        self.__init__(**self.get_params())
        return self

    # -- kernels supplied by subclasses ---------------------------------------

    def _cumulant(self, theta):
        raise NotImplementedError

    def _mean_from_natural(self, theta):
        raise NotImplementedError

    def _covariance(self, theta):
        raise NotImplementedError

    def _mle(self, mu):
        raise NotImplementedError

    def _log_carrier(self, x):
        raise NotImplementedError

    def sample(self, rng, theta, size):
        """Draw iid observations under the natural parameter ``theta``."""
        raise NotImplementedError

    def jeffreys_posterior(self, batch):
        """The closed-form Jeffreys posterior given ``batch``.

        It has ``log_pdf(theta)`` and ``ppf(p)`` in natural coordinates.
        Only families whose conjugated family gives an explicit posterior
        define it.
        """
        raise DomainError(f"no closed-form Jeffreys posterior for {type(self).__name__}")

    def _ratio_exponent(self, n, theta_hat, v):
        """g(v), the log of Lemma 1's integrand relative to its value at v = 0.

        The integrand is exp(-n D(theta, theta_hat)) J(theta) |dtheta/dv| at
        theta = theta_hat e^v on the negative half line and theta_hat + v on
        R (see ``_log_ratio_integral``).  Array in, array out, written with
        no terms of order n that cancel; families that integrate the ratio
        supply it.  At d > 1 theta = theta_hat + v, with v a stack (..., d).
        """
        raise NotImplementedError

    def _log_jeffreys_predictive(self, n, xbar, future):
        """ln of the Jeffreys predictive density of ``future`` after n points of mean xbar.

        The family's closed form on checked arguments (``future`` a 1-d
        array); only families that have one define it.
        """
        raise DomainError(f"no closed-form Jeffreys predictive for {type(self).__name__}")

    def conjugate(self):
        """The conjugated exponential family; see ``families.conjugate_family``."""
        raise DomainError(f"no conjugation rule for {type(self).__name__}")

    def _convolution_family(self, k):
        if k == 1:
            return self
        raise NotImplementedError(
            f"{type(self).__name__} does not define k-fold convolutions"
        )

    # -- derived kernels ------------------------------------------------------

    def _dot(self, u, v):
        """u . v for points, term by term in a fixed order.

        Leading axes stack points, and the fixed order makes a stacked call
        agree bit for bit with the calls for its single points.
        """
        if self.d == 1:
            return u * v
        out = sum(u[..., i] * v[..., i] for i in range(self.d))
        return out if np.ndim(out) else float(out)

    def _bregman(self, theta2, theta1):
        grad = self._mean_from_natural(theta1)
        div = (
            self._cumulant(theta2)
            - self._cumulant(theta1)
            - self._dot(theta2 - theta1, grad)
        )
        # convexity guarantees nonnegativity; clip roundoff at zero
        if isinstance(div, np.ndarray):
            return np.maximum(div, 0.0)
        return max(div, 0.0)

    def _convex_conjugate(self, x):
        theta_hat = self._mle(x)
        return self._dot(theta_hat, x) - self._cumulant(theta_hat)

    def _conjugate_carrier_kernel(self, n, conv):
        """(x, s) -> n A*(x) + ln h(s), h the carrier of the k-fold family ``conv``.

        The log of the CNML normalizer's integrand.  The concrete families
        inline both calls in one frame, in the same order, so their values
        and exceptions are this default's bit for bit.
        """
        conjugate, log_carrier = self._convex_conjugate, conv._log_carrier

        def kernel(x, s):
            return n * conjugate(x) + log_carrier(s)

        return kernel

    def _jeffreys_unnormalized(self, theta):
        cov = self._covariance(theta)
        return math.sqrt(cov if self.d == 1 else float(np.linalg.det(cov)))

    def _log_jeffreys(self, theta):
        return math.log(self._jeffreys_unnormalized(theta))

    def _log_density(self, theta, x):
        return self._dot(theta, x) - self._cumulant(theta) + self._log_carrier(x)

    # -- validation ----------------------------------------------------------

    def in_natural_domain(self, theta):
        return _inside(theta, self.natural_domain)

    def in_mean_domain(self, mu):
        return _inside(mu, self.mean_domain)

    def in_support(self, x):
        return _inside(x, self.support_domain) or (
            self.has_atom and x == self.atom_point
        )

    def _checked(self, v, inside, error, what):
        """``v`` as one point: a float when d == 1, else a vector (d,).

        A Python float at d == 1 is checked by a compare alone; anything
        else goes through numpy, and at d == 1 may be a scalar or a
        length-1 vector.
        """
        if type(v) is not float or self.d != 1:
            v = float_array(v, "a point")
            shapes = ((), (1,)) if self.d == 1 else ((self.d,),)
            if v.shape not in shapes:
                raise error(
                    f"a point of {self!r} has shape ({self.d},), got {v.shape}"
                )
            if self.d == 1:
                v = v.item()
        if not inside(v):
            raise error(f"{v!r} is outside the {what} of {self!r}")
        return v

    def _check_natural(self, theta):
        return self._checked(
            theta, self.in_natural_domain, DomainError, "natural domain"
        )

    def _check_mean(self, mu):
        return self._checked(mu, self.in_mean_domain, DomainError, "mean domain")

    def _check_support(self, x):
        return self._checked(x, self.in_support, SupportError, "support")

    def _check_sample(self, X):
        """A sample (m,) or (m, d), checked by its least and greatest entries.

        argmin and argmax pick any NaN, and an atom sits at the support's lower end,
        so the two decide; on failure only, the first point outside is found and named.
        """
        low, high = X.item(X.argmin()), X.item(X.argmax())
        if not (self.in_support(low) and self.in_support(high)):
            self._check_support(next(x for x in X if not self.in_support(x)))
        return X

    # -- public closed forms: check, then kernel -------------------------------

    def cumulant(self, theta):
        return self._cumulant(self._check_natural(theta))

    def mean_from_natural(self, theta):
        return self._mean_from_natural(self._check_natural(theta))

    def covariance(self, theta):
        return self._covariance(self._check_natural(theta))

    def mle(self, xbar):
        return self._mle(_check_mle_in_floats(self, self._check_mean(xbar)))

    def log_carrier(self, x):
        return self._log_carrier(self._check_support(x))

    def convolution_family(self, k):
        """The family of sums of k iid observations from this one.

        Its carrier is the k-fold convolution of this family's carrier,
        which is what multi-step normalizers integrate against.
        """
        return self._convolution_family(check_count(k, "k"))

    def bregman(self, theta2, theta1):
        """Divergence generated by the cumulant: A(t2) - A(t1) - (t2-t1).grad A(t1)."""
        return self._bregman(self._check_natural(theta2), self._check_natural(theta1))

    def kl_divergence(self, theta1, theta2):
        """Information divergence D(P_theta1 || P_theta2) = bregman(theta2, theta1)."""
        return self.bregman(theta2, theta1)

    def convex_conjugate(self, x):
        """A*(x) = theta_hat(x) . x - A(theta_hat(x)) on the mean domain."""
        return self._convex_conjugate(self._check_mean(x))

    def jeffreys_unnormalized(self, theta):
        """Square root of the Fisher determinant, det Cov(theta)^(1/2)."""
        return self._jeffreys_unnormalized(self._check_natural(theta))

    def log_jeffreys(self, theta):
        """ln of ``jeffreys_unnormalized``; overridden where the linear form overflows."""
        return self._log_jeffreys(self._check_natural(theta))

    def log_density(self, theta, x):
        """Log density against Lebesgue measure (atom mass at an atom point)."""
        return self._log_density(self._check_natural(theta), self._check_support(x))

    def density(self, theta, x):
        return exp_density(self.log_density(theta, x))

    def robustness_ratio(self, theta, x):
        """Density ratio p_theta(x) / p_that(x)(x) = exp(-bregman(theta, that(x)))."""
        theta = self._check_natural(theta)
        theta_hat = self._mle(self._check_mean(x))
        return math.exp(-self._bregman(theta, theta_hat))


def _mle_in_floats(family, xbar):
    """Whether the MLE at ``xbar`` is a finite point of the natural domain:
    a bool, or an array of them over the means of a stacked ``xbar``."""
    try:
        if not isinstance(xbar, np.ndarray):
            theta_hat = family._mle(xbar)
        else:  # where Python floats raise, numpy warns
            with np.errstate(divide="ignore", over="ignore"):
                theta_hat = family._mle(xbar)
    except (ZeroDivisionError, OverflowError):
        return False
    lo, hi = family.natural_domain
    return (lo < theta_hat) & (theta_hat < hi)


def _check_mle_in_floats(family, xbar):
    """``xbar``, a mean of the mean domain or a stack of them, once the MLE
    at each is a finite point of the natural domain (a mean of 1e-320 on a
    half line has none); else :class:`DomainError`."""
    if not all_hold(_mle_in_floats(family, xbar)):
        raise DomainError(
            f"batch mean {xbar!r} has no MLE in floats for {family!r}: "
            "it lies too near the edge of the mean domain"
        )
    return xbar


def as_batch(family, X):
    """Raw observations, or a ready ``ObservationBatch``, as a checked batch.

    The one batch check of every predictor, interval construction and Lemma 1
    call.  Observations must be finite and in the support; a mean, or each of
    a stack, (..., d) at d > 1, interior to the mean domain, with a sum n xbar
    and an MLE in floats (a mean of 1e-320 has no MLE).  A zero mean (say, an
    all-atom compound-Poisson sample) is a :class:`DegenerateDataError`.
    """
    if isinstance(X, ObservationBatch):
        batch = X
    else:
        X = check_observations(X, family.d)
        try:
            family._check_sample(X)
        except SupportError:
            if not np.isfinite(X).all():
                raise DomainError("observations must be finite") from None
            raise
        batch = ObservationBatch.from_observations(X)
    xbar, d = batch.xbar, family.d
    if d > 1 and np.shape(xbar)[-1:] != (d,):
        raise DomainError(f"xbar must have shape (..., {d}), got {np.shape(xbar)}")
    if not family.in_mean_domain(xbar):
        if not all_hold(xbar != 0.0):
            raise DegenerateDataError(
                "a batch mean is 0 (all its observations are 0): the MLE and posterior degenerate"
            )
        raise DomainError(f"batch mean {xbar!r} is outside the mean domain of {family!r}")
    largest = float(np.abs(xbar).max(initial=0.0)) if isinstance(xbar, np.ndarray) else abs(xbar)
    if not math.isfinite(batch.n * largest):
        raise DomainError(f"batch sum n xbar leaves the float range: n={batch.n}, xbar={xbar!r}")
    _check_mle_in_floats(family, xbar)
    return batch


# -- quadrature helpers --------------------------------------------------------


def _log_ratio_integral(family, n, theta_hat, tol):
    """(ln R, relative error) for R = integral of exp(-n D(theta, theta_hat)) J(theta).

    R is Lemma 1's ratio integral; the Jeffreys evidence is
    exp(n A*(xbar)) R and the saddle-point normalizer R / tau^(d/2).  The
    family's ``_ratio_exponent`` gives the log g(v) of the integrand in a
    coordinate v with g(0) = 0, and the trapezoid rule runs in t, one
    sinh map per axis, which turns exponential tails into
    double-exponential ones:

    * d == 1: on the negative half line theta = theta_hat e^v and
      R = J(theta_hat) (-theta_hat) * integral of exp(g(v)) dv; on R,
      theta = theta_hat + v and R = J(theta_hat) * integral of exp(g(v)) dv.
      The log prefactor ln J(theta_hat) + ln |dtheta/dv|(0) is computed
      once, and since J = sqrt(A''), the width of the peak in v is
      sigma = 1 / (|dtheta/dv| sqrt(n A''(theta_hat)))
      = exp(-ln(n) / 2 - log prefactor), which holds no overflow where
      the linear form does.  Here v = s sinh(t), so near the peak t is
      the standardized coordinate v / sigma: s = sigma on R, and
      s = min(sigma, 1) on the half line, where the cap keeps the
      unit-scale turns of e^v in g resolved when n A'' is small.
    * d > 1 (on R^d): theta = theta_hat + v with v = L sinh(t), L the
      Cholesky factor of (n Cov(theta_hat))^-1, so t is whitened and
      R = J(theta_hat) |det L| * integral of exp(g(v)) prod cosh(t_i) dt.

    ``theta_hat`` may stack estimates along a leading axis (a 1-d array at
    d == 1, (S, d) at d > 1); they share the nodes and give arrays back.
    Arguments are checked by the callers.  A relative error above ``tol``
    raises :class:`NonConvergenceError`.
    """
    d = family.d
    thetas = np.asarray(theta_hat, dtype=float).reshape(-1, d)
    points = thetas[:, 0].tolist() if d == 1 else list(thetas)
    log_prefactor = np.array([family._log_jeffreys(t) for t in points])
    half_line = family.natural_domain == NEGATIVE_HALF_LINE
    if half_line:
        log_prefactor += np.log(-thetas[:, 0])
    if d == 1:
        width = np.exp(-0.5 * math.log(n) - log_prefactor)
        det = scale = (np.minimum(width, 1.0) if half_line else width)[:, None]
        center = thetas

        def coordinates(t):
            return scale * np.sinh(t), np.cosh(t)
    else:
        cov = np.broadcast_to(family._covariance(thetas), (len(thetas), d, d))
        factor = np.linalg.cholesky(np.linalg.inv(n * cov))  # L, one per estimate
        det = np.prod(np.diagonal(factor, axis1=-2, axis2=-1), axis=-1)[:, None]
        center = thetas[:, None, :]

        def coordinates(t):
            return np.sinh(t) @ np.swapaxes(factor, -1, -2), np.cosh(t).prod(axis=-1)

    def integrand(t):
        v, stretch = coordinates(t)
        return det * stretch * np.exp(family._ratio_exponent(n, center, v))

    with np.errstate(over="ignore"):
        result = integrate_trapezoid(integrand, tol=tol, d=d)
    log_r = log_prefactor + np.log(result.value)
    rel_err = result.error_estimate / result.value
    if np.ndim(theta_hat) < (1 if d == 1 else 2):
        return float(log_r[0]), float(rel_err[0])
    return log_r, rel_err

