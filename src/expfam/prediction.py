"""Predictive densities and their agreement diagnostics.

Three prediction strategies share one estimator surface: ``fit`` on the
observed prefix, then query log predictive densities of future suffixes.

* ``JeffreysPredictor`` takes the posterior predictive under the
  unnormalized Jeffreys prior from the family's closed form, which all
  four families have.  The prior cannot be normalized for the half-line
  families, but the posterior is proper for any prefix of length >= 1
  whose mean statistic is interior.
* ``CnmlPredictor`` normalizes the hindsight maximum-likelihood density of
  the completed sequence over all possible futures.  Writing the hindsight
  likelihood through the conjugate pins the computation down to

      exp(n A*(xbar_n)) * carrier(future) / integral of the same over futures,

  so the prefix enters only through (m, xbar) and prefix carrier terms
  cancel exactly.
* ``PlugInPredictor`` scores the future under the prefix MLE.

All densities are with respect to Lebesgue measure on the observation
space (plus the atom at zero for the compound-Poisson family), and all
internal arithmetic is done in log space.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .base import ParamsMixin, check_is_fitted
from .core import (
    POSITIVE_HALF_LINE,
    Family,
    ObservationBatch,
    _log_ratio_integral,
    as_batch,
)
from .errors import (
    DomainError,
    NonConvergenceError,
    NonNormalizableError,
    SupportError,
)
from .numerics import DEFAULT_TOL, integrate
from .validation import check_count, check_observations, check_positive, float_array

__all__ = [
    "PredictiveValue",
    "JeffreysPredictor",
    "CnmlPredictor",
    "PlugInPredictor",
    "make_predictor",
    "regret",
    "lemma1_constancy",
    "Lemma1Report",
    "equivalence_check",
]

#: ln of the largest double: exp overflows above it.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class PredictiveValue:
    """A log predictive density with its normalization error report."""

    log_density: float
    method: str
    normalizer_error: float


def _check_suffix(family, future):
    future = np.atleast_1d(float_array(future, "future suffix"))
    if future.ndim != 1 or future.shape[0] < 1:
        raise DomainError("future suffix must be a nonempty 1-d sequence")
    return family._check_sample(future)


def _check_grid(family, grid, horizon, name="future grid"):
    """A grid's rows and their sums, checked once: an entry is a suffix of horizon points."""
    grid = float_array(grid, name)
    if grid.ndim < 2 and horizon == 1:
        grid = grid.reshape(-1, 1)
    if grid.ndim != 2 or grid.shape[1] != horizon or grid.shape[0] < 1:
        raise DomainError(f"{name} entries must be {horizon} points each, got shape {grid.shape}")
    family._check_sample(grid.ravel())
    return list(grid), [sum(row) for row in grid.tolist()]


class _PredictorBase(ParamsMixin):
    method = None

    def __init__(self, family):
        self.family = family

    def _validate(self):
        if not isinstance(self.family, Family):
            raise DomainError("family must be a Family instance")
        if self.family.d != 1:
            raise DomainError("predictive quadrature is univariate only")

    def fit(self, X):
        self._validate()
        self.batch_ = as_batch(self.family, X)
        xbar = np.asarray(self.batch_.xbar)
        if xbar.shape not in ((), (1,)):  # a length-1 vector is a 1-D point
            raise DomainError(f"a predictor fits one batch mean, got shape {xbar.shape}")
        self._m, self._xbar = self.batch_.n, xbar.item()
        self._prepare()
        return self

    def _prepare(self):
        """State a fit derives from (m, xbar); none unless a predictor needs it."""

    def predictive_value(self, future):
        check_is_fitted(self, "batch_")
        future = _check_suffix(self.family, future)
        log_density, err = self._score(future, sum(future.tolist()))
        return PredictiveValue(log_density, self.method, err)

    def _score(self, future, future_sum):
        """(log density, error) of a checked suffix whose Python-float sum is given.

        The one path to ``_log_predictive`` and the one check that its log
        density is a float: a closed form that overflows, divides by zero or
        gives an infinity or a NaN raises :class:`DomainError`.
        """
        total = self._m * self._xbar + future_sum  # Python floats: no numpy warning
        if not math.isfinite(total):
            raise DomainError(f"the sum m xbar + sum(future) = {total} leaves the float range")
        try:
            log_p, err = self._log_predictive(future)
        except (OverflowError, ZeroDivisionError):  # a closed form past the floats
            log_p = math.nan
        if not math.isfinite(log_p):
            raise DomainError(f"the {self.method} log density is {log_p}, outside the float range")
        return log_p, err

    def log_predictive(self, future):
        return self.predictive_value(future).log_density

    def score_samples(self, Y):
        """One-step log predictive density at each point of Y, checked once."""
        check_is_fitted(self, "batch_")
        rows, sums = _check_grid(self.family, Y, 1, "score points")
        return np.array([self._score(row, s)[0] for row, s in zip(rows, sums)])


class JeffreysPredictor(_PredictorBase):
    """Posterior predictive under the (improper) Jeffreys prior, in closed form."""

    method = "Jeffreys"

    def _log_predictive(self, future):
        return self.family._log_jeffreys_predictive(self._m, self._xbar, future), 0.0


class CnmlPredictor(_PredictorBase):
    """Conditional normalized maximum likelihood over a fixed horizon.

    The normalizer integrates the hindsight density over all suffixes of
    the given length.  That integrand depends on the suffix only through
    its sum, and the k-fold convolution of each family's carrier is again
    a carrier of the same kind, so any horizon reduces to one quadrature
    over the sum.
    """

    method = "CNML"

    def __init__(self, family, horizon=1, tol=DEFAULT_TOL):
        super().__init__(family)
        self.horizon = horizon
        self.tol = tol

    def _validate(self):
        super()._validate()
        check_positive(self.tol, "tol")
        self._horizon = check_count(self.horizon, "horizon")

    def _log_hindsight(self, total_stat, n):
        """n * A*(total/n): the carrier-free hindsight code length."""
        fam = self.family
        xbar = total_stat / n
        if not fam.in_mean_domain(xbar):
            return -math.inf
        return n * fam._convex_conjugate(xbar)

    def _sum_normalizer(self, n, conv, shift):
        """Quadrature of exp(n A*((base+s)/n)) against ``conv``'s k-fold carrier.

        Returns (shift, value, error), the normalizer being exp(shift) *
        value; the atom and the continuous part share the shift.  The
        given shift leaves out the carrier, so far from the bulk the larger
        of the atom term and the integrand at the split point, the peak,
        can lie more than the float range above or below it, and the
        integral would overflow or underflow.  The shift then moves to the
        peak.  Otherwise it stays, and so does the arithmetic.

        The integrand is a closure built once per fit; a QUADPACK node
        costs it and the family's ``_conjugate_carrier_kernel``, two frames.
        On a half line it runs in v with s = v^2, which removes power-type
        singularities at 0 and turns the compound Poisson's stretched
        exponential tail into a plain one.  Its values and exceptions are
        those of exp(_log_hindsight(base + s, n) + log carrier(s) - shift).
        ``_prepare`` builds n = m + k and ``conv`` once, for ``_diverges`` too.
        """
        m, xbar, fam = self._m, self._xbar, self.family
        base = m * xbar
        split = self._horizon * xbar
        log_peak = self._log_hindsight(base + split, n) + conv.log_carrier(split)
        if conv.has_atom:
            log_atom = self._log_hindsight(base + conv.atom_point, n)
            log_peak = max(log_peak, log_atom)
        if abs(log_peak - shift) > _LOG_FLOAT_MAX:
            shift = log_peak
        value = 0.0
        if conv.has_atom:
            value += math.exp(log_atom - shift)

        kernel = fam._conjugate_carrier_kernel(n, conv)
        log_carrier, exp, lo, hi = conv._log_carrier, math.exp, *fam.mean_domain
        half_line = conv.support_domain == POSITIVE_HALF_LINE

        def integrand(v):
            s = v * v if half_line else v
            xbar = (base + s) / n
            log_f = kernel(xbar, s) if lo < xbar < hi else -math.inf + log_carrier(s)
            return 2.0 * v * exp(log_f - shift) if half_line else exp(log_f - shift)

        try:
            result = integrate(
                integrand, 0.0 if half_line else -math.inf, math.inf, tol=self.tol,
                points=[math.sqrt(split) if half_line else split],
            )
        except OverflowError:
            raise NonConvergenceError(
                f"CNML normalizer integrand overflows for m={m}, "
                f"xbar={xbar}, horizon={self._horizon}"
            ) from None
        return shift, value + result.value, result.error_estimate

    def _diverges(self, n, conv, shift):
        """Doubling probe along the tail of the sum-normalizer integrand.

        Declares divergence when s * f(s) has not decayed across three
        decades of doubling, which catches constant and 1/s tails while
        leaving every integrable power or exponential tail alone.  The probe
        runs at s = |k xbar| 2^j, from the split point on, so that it stays
        past the bulk at any scale of xbar (1 where k xbar is 0).  It stops
        where base + s leaves the float range and judges on the points below;
        with fewer than two it declares nothing.
        """
        base = self._m * self._xbar
        scale = abs(self._horizon * self._xbar) or 1.0
        logs = []
        for j in range(10, 44, 4):
            s = scale * 2.0**j
            if not math.isfinite(base + s):
                break
            try:
                val = self._log_hindsight(base + s, n) + conv.log_carrier(s) - shift
            except (DomainError, SupportError):
                val = -math.inf
            logs.append(math.log(s) + val)
        return len(logs) > 1 and logs[-1] > logs[0] - 2.0 and logs[-1] > -600.0

    def _prepare(self):
        k = self._horizon
        n = self._m + k
        shift = self._log_hindsight(n * self._xbar, n)
        if not math.isfinite(shift):
            raise DomainError(f"the CNML shift n A*(xbar) = {shift} leaves the float range")
        conv = self.family if k == 1 else self.family._convolution_family(k)
        try:
            shift, value, err = self._sum_normalizer(n, conv, shift)
        except NonConvergenceError:
            if self._diverges(n, conv, shift):
                raise NonNormalizableError(
                    f"CNML normalizer diverges for m={self._m}, horizon={k}"
                ) from None
            raise
        if not math.isfinite(value) or value <= 0:
            raise NonNormalizableError(
                f"CNML normalizer is not finite/positive: {value}"
            )
        self.log_normalizer_ = shift + math.log(value)
        self._normalizer_rel_err = err / value

    def _log_predictive(self, future):
        k = future.shape[0]
        if k != self._horizon:
            raise DomainError(
                f"this predictor was fitted for horizon {self._horizon}, got {k} points"
            )
        n = self._m + k
        total = self._m * self._xbar + float(future.sum())
        log_num = self._log_hindsight(total, n)
        carriers = sum(self.family._log_carrier(y) for y in future.tolist())
        return log_num + carriers - self.log_normalizer_, self._normalizer_rel_err


class PlugInPredictor(_PredictorBase):
    """Scores the future under the MLE of the prefix."""

    method = "PlugIn"

    def _prepare(self):
        self.theta_hat_ = self.family._mle(self._xbar)

    def _log_predictive(self, future):
        fam = self.family
        return sum(fam._log_density(self.theta_hat_, y) for y in future.tolist()), 0.0


_METHODS = {
    "jeffreys": JeffreysPredictor,
    "cnml": CnmlPredictor,
    "plugin": PlugInPredictor,
}


def make_predictor(method, family, horizon=1, tol=DEFAULT_TOL):
    """Predictor factory over the method tags {jeffreys, cnml, plugin}."""
    key = str(method).lower()
    if key not in _METHODS:
        raise DomainError(f"unknown method {method!r}; expected one of {sorted(_METHODS)}")
    if key == "cnml":
        return CnmlPredictor(family, horizon=horizon, tol=tol)
    return _METHODS[key](family)


def regret(family, method, sequence, m, tol=DEFAULT_TOL):
    """Code-length regret of predicting the suffix against the hindsight expert.

    The predictor codes x_{m+1..n} given the prefix; the expert codes the
    whole sequence with the hindsight MLE.  Natural logarithms.
    """
    sequence = check_observations(sequence, family.d)
    batch = as_batch(family, sequence)
    n, m = batch.n, check_count(m, "m")
    if not 1 <= m < n:
        raise DomainError(f"need 1 <= m < n, got m={m}, n={n}")
    prefix, future = sequence[:m], sequence[m:]
    predictor = make_predictor(method, family, horizon=n - m, tol=tol)
    predictor.fit(ObservationBatch.from_observations(prefix))
    log_pred, _ = predictor._score(future, sum(future.tolist()))
    log_hindsight = n * family._convex_conjugate(batch.xbar)
    return log_hindsight + sum(family._log_carrier(x) for x in sequence.tolist()) - log_pred


@dataclass(frozen=True)
class Lemma1Report:
    values: tuple
    relative_spread: float


def lemma1_constancy(family, n, sequences, tol=DEFAULT_TOL):
    """The integral of the likelihood ratio against the unnormalized prior.

    For each data sequence computes

        integral exp(-n D_A(theta, theta_hat)) * jeffreys(theta) dtheta

    which depends on the data only through the hindsight estimate; its
    relative spread (max-min over the median) across sequences is the
    constancy statistic.  A sequence is a sample or an ``ObservationBatch``,
    whose stack of means counts as one sequence per mean.  All sequences
    share one ratio integral, at any d.
    """
    n, tol = check_count(n), check_positive(tol, "tol")
    theta_hats = []
    for seq in sequences:
        batch = as_batch(family, seq)
        if batch.n != n:
            raise DomainError(f"sequence has n={batch.n}, expected {n}")
        theta_hats.append(np.asarray(family._mle(batch.xbar)).reshape(-1, family.d))
    if not theta_hats:
        raise DomainError("lemma1_constancy needs at least one sequence")
    log_r, _ = _log_ratio_integral(family, n, np.concatenate(theta_hats), tol)
    values = tuple(np.exp(log_r).tolist())
    spread = (max(values) - min(values)) / float(np.median(values))
    return Lemma1Report(values=values, relative_spread=spread)


def equivalence_check(family, m, n, prefix_means, future_grid, tol=DEFAULT_TOL):
    """Max |log CNML - log Jeffreys-predictive| over a (prefix, future) grid.

    ``prefix_means`` are observed averages for prefixes of length m;
    ``future_grid`` holds single future points (one-step, n = m + 1) or
    suffix tuples of length n - m.  The grid is checked once, before any
    prefix, and each fitted pair scores its rows directly.
    """
    m, n = check_count(m, "m"), check_count(n, "n")
    if not 1 <= m < n:
        raise DomainError(f"need 1 <= m < n, got m={m}, n={n}")
    horizon = n - m
    rows, sums = _check_grid(family, future_grid, horizon)
    means = float_array(prefix_means, "prefix means")
    if means.ndim != 1 or means.size == 0:
        raise DomainError(f"prefix means must be a nonempty 1-d sequence, got shape {means.shape}")
    worst = 0.0
    for xbar in means.tolist():
        batch = ObservationBatch(n=m, xbar=xbar)
        try:
            jeffreys = JeffreysPredictor(family).fit(batch)
            cnml = CnmlPredictor(family, horizon=horizon, tol=tol).fit(batch)
        except NonConvergenceError as exc:
            raise NonConvergenceError(
                f"predictor setup failed at prefix xbar={xbar}: {exc}"
            ) from exc
        for row, s in zip(rows, sums):
            try:
                delta = abs(cnml._score(row, s)[0] - jeffreys._score(row, s)[0])
            except NonConvergenceError as exc:
                raise NonConvergenceError(
                    f"prediction failed at xbar={xbar}, future={row.tolist()}: {exc}"
                ) from exc
            worst = max(worst, delta)
    return worst
