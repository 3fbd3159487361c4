"""Predictive densities and their agreement diagnostics.

Three prediction strategies share one estimator surface: ``fit`` on the
observed prefix, then query log predictive densities of future suffixes.

* ``JeffreysPredictor`` integrates the likelihood of the suffix against
  the (numerically normalized) posterior built from the unnormalized
  Jeffreys prior, or takes the family's closed-form predictive where it
  has one.  The prior cannot be normalized for the half-line families,
  but the posterior is proper for any prefix of length >= 1 whose mean
  statistic is interior.
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
    _check_mle_in_floats,
    _log_ratio_integral,
)
from .errors import (
    DegenerateDataError,
    DomainError,
    NonConvergenceError,
    NonNormalizableError,
    SupportError,
)
from .numerics import DEFAULT_TOL, integrate
from .validation import (
    check_count,
    check_finite_scalar,
    check_observations,
    check_positive,
    float_array,
)

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


def as_batch(family, X):
    """Coerce raw observations (or a ready batch) into an ObservationBatch.

    Every observation must be finite and lie in the support, and the mean
    statistic must be interior to the mean domain, with an MLE that is a
    finite point of the natural domain (a mean of 1e-320 has none); an
    all-atom compound-Poisson sample is reported as degenerate.
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
    if not family.in_mean_domain(batch.xbar):
        if family.has_atom and np.all(np.atleast_1d(batch.xbar) == family.atom_point):
            raise DegenerateDataError(
                "all observations sit on the atom; the MLE and posterior degenerate"
            )
        raise DomainError(
            f"batch mean {batch.xbar!r} is outside the mean domain of {family!r}"
        )
    _check_mle_in_floats(family, batch.xbar)
    return batch


def _check_suffix(family, future):
    future = np.atleast_1d(float_array(future, "future suffix"))
    if future.ndim != 1 or future.shape[0] < 1:
        raise DomainError("future suffix must be a nonempty 1-d sequence")
    return family._check_sample(future)


class _PredictorBase(ParamsMixin):
    method = None

    def __init__(self, family, tol=DEFAULT_TOL):
        self.family = family
        self.tol = tol

    def _validate(self):
        if not isinstance(self.family, Family):
            raise DomainError("family must be a Family instance")
        if self.family.d != 1:
            raise DomainError("predictive quadrature is univariate only")
        check_positive(self.tol, "tol")

    def fit(self, X):
        self._validate()
        self.batch_ = as_batch(self.family, X)
        xbar = np.asarray(self.batch_.xbar)
        if xbar.shape not in ((), (1,)):  # a length-1 vector is a 1-D point
            raise DomainError(f"a predictor fits one batch mean, got shape {xbar.shape}")
        self._m, self._xbar = self.batch_.n, xbar.item()
        self._prepare()
        return self

    def predictive_value(self, future):
        check_is_fitted(self, "batch_")
        future = _check_suffix(self.family, future)
        log_density, err = self._log_predictive(future)
        return PredictiveValue(log_density, self.method, err)

    def log_predictive(self, future):
        return self.predictive_value(future).log_density

    def score_samples(self, Y):
        """One-step log predictive density at each point of Y."""
        Y = np.atleast_1d(float_array(Y, "score points"))
        return np.array([self.predictive_value([y]).log_density for y in Y])


class JeffreysPredictor(_PredictorBase):
    """Posterior predictive under the (improper) Jeffreys prior."""

    method = "Jeffreys"

    def _log_evidence(self, n, xbar):
        """log of integral exp(n(theta xbar - A)) * jeffreys(theta) dtheta.

        The family's closed form where it has one, else n A*(xbar) plus the
        log ratio integral.  ``xbar`` is checked here once.
        """
        fam = self.family
        xbar = fam._check_mean(xbar)
        closed = fam._log_jeffreys_evidence(n, xbar)
        if closed is not None:
            return closed, 0.0
        log_r, rel_err = _log_ratio_integral(fam, n, fam._mle(xbar), self.tol)
        return n * fam._convex_conjugate(xbar) + log_r, rel_err

    def _prepare(self):
        self.log_evidence_, self._evidence_rel_err = self._log_evidence(self._m, self._xbar)

    def _log_predictive(self, future):
        closed = self.family._log_jeffreys_predictive(self._m, self._xbar, future)
        if closed is not None:
            return closed, 0.0
        n_new = self._m + future.shape[0]
        xbar_new = (self._m * self._xbar + float(future.sum())) / n_new
        log_num, num_err = self._log_evidence(n_new, xbar_new)
        carriers = sum(self.family._log_carrier(y) for y in future.tolist())
        err = num_err + self._evidence_rel_err
        return log_num - self.log_evidence_ + carriers, err


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
        super().__init__(family, tol=tol)
        self.horizon = horizon

    def _validate(self):
        super()._validate()
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
        leaving every integrable power or exponential tail alone.
        """
        base = self._m * self._xbar
        logs = []
        for j in range(10, 44, 4):
            s = 2.0**j
            try:
                val = self._log_hindsight(base + s, n) + conv.log_carrier(s) - shift
            except (DomainError, SupportError):
                val = -math.inf
            logs.append(math.log(s) + val)
        return logs[-1] > logs[0] - 2.0 and logs[-1] > -600.0

    def _prepare(self):
        k = self._horizon
        n = self._m + k
        shift = self._log_hindsight(n * self._xbar, n)
        conv = self.family._convolution_family(k)
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
    return _METHODS[key](family, tol=tol)


def regret(family, method, sequence, m, tol=DEFAULT_TOL):
    """Code-length regret of predicting the suffix against the hindsight expert.

    The predictor codes x_{m+1..n} given the prefix; the expert codes the
    whole sequence with the hindsight MLE.  Natural logarithms.
    """
    batch = as_batch(family, sequence)
    sequence = np.ravel(np.asarray(sequence, dtype=float))
    n, m = batch.n, check_count(m, "m")
    if not 1 <= m < n:
        raise DomainError(f"need 1 <= m < n, got m={m}, n={n}")
    prefix, future = sequence[:m], sequence[m:]
    predictor = make_predictor(method, family, horizon=n - m, tol=tol)
    predictor.fit(ObservationBatch.from_observations(prefix))
    log_pred, _ = predictor._log_predictive(future)
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
    constancy statistic.  All sequences share one ratio integral, at any d.
    """
    check_positive(tol, "tol")
    theta_hats = []
    for seq in sequences:
        batch = seq if isinstance(seq, ObservationBatch) else as_batch(family, seq)
        if batch.n != n:
            raise DomainError(f"sequence has n={batch.n}, expected {n}")
        theta_hats.append(family.mle(batch.xbar))
    if not theta_hats:
        raise DomainError("lemma1_constancy needs at least one sequence")
    log_r, _ = _log_ratio_integral(family, n, np.array(theta_hats), tol)
    values = tuple(np.exp(log_r).tolist())
    spread = (max(values) - min(values)) / float(np.median(values))
    return Lemma1Report(values=values, relative_spread=spread)


def equivalence_check(family, m, n, prefix_means, future_grid, tol=DEFAULT_TOL):
    """Max |log CNML - log Jeffreys-predictive| over a (prefix, future) grid.

    ``prefix_means`` are observed averages for prefixes of length m;
    ``future_grid`` holds single future points (one-step, n = m + 1) or
    suffix tuples of length n - m.
    """
    m, n = check_count(m, "m"), check_count(n, "n")
    if not 1 <= m < n:
        raise DomainError(f"need 1 <= m < n, got m={m}, n={n}")
    horizon = n - m
    worst = 0.0
    for xbar in prefix_means:
        batch = ObservationBatch(n=m, xbar=check_finite_scalar(xbar, "prefix mean"))
        try:
            jeffreys = JeffreysPredictor(family, tol=tol).fit(batch)
            cnml = CnmlPredictor(family, horizon=horizon, tol=tol).fit(batch)
        except NonConvergenceError as exc:
            raise NonConvergenceError(
                f"predictor setup failed at prefix xbar={xbar}: {exc}"
            ) from exc
        for entry in future_grid:
            suffix = np.atleast_1d(float_array(entry, "future entry"))
            if suffix.shape[0] != horizon:
                raise DomainError(
                    f"future entry {entry!r} has length {suffix.shape[0]}, "
                    f"expected horizon {horizon}"
                )
            try:
                delta = abs(
                    cnml.log_predictive(suffix) - jeffreys.log_predictive(suffix)
                )
            except NonConvergenceError as exc:
                raise NonConvergenceError(
                    f"prediction failed at xbar={xbar}, future={entry!r}: {exc}"
                ) from exc
            worst = max(worst, delta)
    return worst
