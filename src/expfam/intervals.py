"""One-sided credible/confidence intervals and coverage simulation.

The Gamma constructions coincide exactly (self-conjugation): both reduce
to the Gamma(m*alpha, m) quantile scaled by 1/xbar.  The Gaussian
credible region is a Bregman-divergence ball whose radius comes from a
chi-squared quantile, and it doubles as an exact confidence region.  The
Poisson-exponential credible interval comes from the inverse Gaussian
posterior while the confidence interval inverts the exact sampling
distribution of the sample sum; the two deliberately disagree.

Every construction takes one ``ObservationBatch`` or a stacked one, whose
``xbar`` carries a leading trial axis.  A stacked batch gives one result
whose endpoints (or ball centers) are arrays over the trials and whose
``covers_natural`` returns one bool per trial; a single batch gives Python
floats and a bool.  ``interval_construction`` looks a (family, method) pair
up in the one table of constructions, which the CLI and the estimator
classes share.
"""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .base import ParamsMixin, check_is_fitted
from .core import POSITIVE_HALF_LINE, ObservationBatch, _mle_in_floats
from .distributions import _pe_cdf
from .errors import DegenerateDataError, DomainError
from .families import (
    GammaFamily,
    GaussianLocationFamily,
    PoissonExponentialFamily,
    poisson_exponential_posterior,
)
from .numerics import find_root, inv_reg_gamma_lower, rng_stream
from .prediction import as_batch
from .validation import all_hold, check_count, check_positive, check_unit_open, check_whole

__all__ = [
    "METHOD_CREDIBLE",
    "METHOD_CONFIDENCE_PIVOT",
    "METHOD_CONFIDENCE_CDF",
    "METHOD_DIVERGENCE_BALL",
    "IntervalResult",
    "DivergenceBallRegion",
    "CoverageReport",
    "gamma_credible",
    "gamma_confidence",
    "gaussian_divergence_ball",
    "poisson_exp_credible",
    "poisson_exp_confidence",
    "coverage_simulation",
    "interval_construction",
    "GammaRateInterval",
    "PoissonExponentialRateInterval",
    "GaussianDivergenceBall",
]

METHOD_CREDIBLE = "CredibleOneSided"
METHOD_CONFIDENCE_PIVOT = "ConfidencePivot"
METHOD_CONFIDENCE_CDF = "ConfidenceCdfInversion"
METHOD_DIVERGENCE_BALL = "DivergenceBall"


@dataclass(frozen=True)
class IntervalResult:
    """A one-sided interval [lower, upper] for a rate parameter.

    ``upper`` is an array over the trials of a stacked batch; ``lower``
    then broadcasts against it.
    """

    lower: float
    upper: float
    level: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not all_hold(self.lower <= self.upper):
            raise DomainError(f"interval needs lower <= upper, got {self}")

    def covers(self, value):
        return (self.lower <= value) & (value <= self.upper)

    def covers_natural(self, theta):
        """Containment of the rate beta = -theta."""
        return self.covers(-theta)


@dataclass(frozen=True)
class DivergenceBallRegion:
    """The region {theta : D_A(theta, center) <= radius}."""

    family: GaussianLocationFamily
    center: object
    radius: float
    level: float
    diagnostics: dict = field(default_factory=dict)

    def covers(self, theta):
        theta = self.family._check_natural(theta)
        return self.family._bregman(theta, self.center) <= self.radius

    def covers_natural(self, theta):
        return self.covers(theta)


def _rate_batch(family, batch, name):
    """The batch mean, a float or a stack over trials, checked nonzero and by ``as_batch``."""
    if not all_hold(batch.xbar != 0.0):
        raise DegenerateDataError(
            f"{name}: all observations are zero; the rate interval degenerates"
        )
    return as_batch(family, batch).xbar


def gamma_credible(alpha, batch, level):
    """[0, q] with q the level-quantile of the Gamma(m alpha, m xbar) posterior."""
    level = check_unit_open(level, "level")
    xbar = _rate_batch(GammaFamily(alpha), batch, "gamma_credible")
    pivot_quantile = inv_reg_gamma_lower(batch.n * alpha, level) / batch.n
    upper = pivot_quantile / xbar
    return IntervalResult(
        lower=0.0,
        upper=upper,
        level=level,
        method=METHOD_CREDIBLE,
        diagnostics={"posterior_shape": batch.n * alpha, "posterior_rate": batch.n * xbar},
    )


def gamma_confidence(alpha, batch, level):
    """Pivot inversion of beta*Xbar ~ Gamma(m alpha, m); same endpoints as credible."""
    return dataclasses.replace(
        gamma_credible(alpha, batch, level), method=METHOD_CONFIDENCE_PIVOT
    )


def gaussian_divergence_ball(cov, batch, level):
    """Divergence ball of posterior mass ``level`` around the MLE.

    Under the N(xbar, B/n) posterior, 2n D_A(theta, theta_hat) is
    chi-squared with d degrees of freedom, so the radius is that quantile
    over 2n; self-conjugation makes the same ball an exact confidence
    region.  A stacked batch gives one ball per trial, sharing the radius.
    """
    level = check_unit_open(level, "level")
    family = cov if isinstance(cov, GaussianLocationFamily) else GaussianLocationFamily(cov)
    d = family.d
    if d > 1 and np.shape(batch.xbar)[-1:] != (d,):
        raise DomainError(f"xbar must have shape (..., {d}), got {np.shape(batch.xbar)}")
    chi2_quantile = 2.0 * inv_reg_gamma_lower(d / 2.0, level)
    radius = chi2_quantile / (2.0 * batch.n)
    center = family._mle(batch.xbar)
    return DivergenceBallRegion(
        family=family,
        center=center,
        radius=radius,
        level=level,
        diagnostics={"chi2_quantile": chi2_quantile, "n": batch.n},
    )


def poisson_exp_credible(kappa, batch, level):
    """[0, q] with q the level-quantile of the inverse Gaussian posterior."""
    level = check_unit_open(level, "level")
    _rate_batch(PoissonExponentialFamily(kappa), batch, "poisson_exp_credible")
    post = poisson_exponential_posterior(kappa, batch)
    upper = post.ppf(level)
    return IntervalResult(
        lower=0.0,
        upper=upper,
        level=level,
        method=METHOD_CREDIBLE,
        diagnostics={"posterior_mean": post.mean, "posterior_shape": post.shape},
    )


def poisson_exp_confidence(kappa, batch, level):
    """Exact cdf inversion of the sampling distribution of the sum.

    The sum of m iid Poisson-exponential(kappa, beta) draws is
    Poisson-exponential(m kappa, beta) and its distribution function is
    increasing in beta, so the upper endpoint solves

        P_beta(S <= s_obs) = level,

    the analogue of the Gamma pivot construction (applied to the Gamma
    family this recipe reproduces the pivot endpoints exactly).
    """
    level = check_unit_open(level, "level")
    xbar = _rate_batch(PoissonExponentialFamily(kappa), batch, "poisson_exp_confidence")
    m = batch.n
    s_obs = m * xbar
    # stacked trials go one by one, each a Brent solve on the cdf
    uppers = [_cdf_inversion(kappa, m, float(x), level) for x in np.ravel(xbar)]
    upper = np.reshape(uppers, xbar.shape) if isinstance(xbar, np.ndarray) else uppers[0]
    return IntervalResult(
        lower=0.0,
        upper=upper,
        level=level,
        method=METHOD_CONFIDENCE_CDF,
        diagnostics={"sum": s_obs, "sum_shape": m * kappa},
    )


def _cdf_inversion(kappa, m, xbar, level):
    """The beta solving P_beta(S <= m xbar) = level for a sum of m draws.

    S is Poisson-exponential(m kappa, beta); lam and t are formed as its cdf forms them.
    """
    s_obs = check_positive(m * xbar, "the sum m xbar")
    shape = m * kappa

    def cdf(beta):
        return _pe_cdf(shape / (2.0 * beta), beta * s_obs)

    return find_root(cdf, math.sqrt(kappa / (2.0 * xbar)), level, tol=1e-12)


@dataclass(frozen=True)
class CoverageReport:
    """Result of a Monte Carlo coverage simulation."""

    trials: int
    hits: int
    empirical_coverage: float
    three_sigma_band: tuple
    level: float
    degenerate: int = 0

    @property
    def within_band(self):
        lo, hi = self.three_sigma_band
        return lo <= self.empirical_coverage <= hi


#: Trials per ``interval_fn`` call in ``coverage_simulation``.  One call per
#: stream costs a 5,000-trial study 16 calls of about 300 means, mostly
#: per-call overhead; one call for all trials spills the arrays out of cache
#: (slower at 100,000 trials) and holds every mean (more memory at 1e6).
#: With 4,096, a study of 16 streams of 4,096 trials or more makes the
#: per-stream calls as before.
_STACK = 1 << 12

#: Independent seeded streams of ``coverage_simulation`` (fewer when there
#: are fewer trials); with the seed they fix every trial's draws.
_STREAMS = 16


def coverage_simulation(family, interval_fn, theta_true, m, level, trials, seed):
    """Simulate datasets, build intervals, count containment of the truth.

    Trials are partitioned across ``_STREAMS`` independent seeded streams
    and merged in stream order, so the result is deterministic for a fixed
    seed.  Each stream draws one (trials, m) sample and forms the trial
    means.  The means of consecutive streams are held until they reach
    ``_STACK`` trials (or the streams run out); then ``interval_fn`` is
    called once with a stacked ``ObservationBatch`` whose ``xbar`` carries a leading
    trial axis.  The object it returns must have a ``covers_natural(theta)``
    that gives one bool per trial.  Every construction is elementwise over
    the trial axis, so the grouping moves no endpoint.

    Trials whose mean has no MLE in floats (0 on a half-line support, as for
    an all-atom Poisson-exponential sample, or a mean so small that the MLE
    overflows) have no rate interval: they are left out of the batch and
    of the coverage denominator, and counted in ``degenerate``.
    """
    theta_true = family._check_natural(theta_true)
    level = check_unit_open(level, "level")
    trials = check_count(trials, "trials")
    m = check_count(m, "m")
    seed = check_whole(seed, "seed")
    n_streams = min(_STREAMS, trials)
    per = [trials // n_streams] * n_streams
    for i in range(trials % n_streams):
        per[i] += 1
    hits = 0
    degenerate = 0
    held, n_held = [], 0
    for stream_id, chunk in enumerate(per):
        rng = rng_stream(seed, stream_id)
        data = np.asarray(family.sample(rng, theta_true, size=(chunk, m)))
        means = data.mean(axis=1)
        if family.support_domain == POSITIVE_HALF_LINE:
            on_boundary = ~_mle_in_floats(family, means)
            degenerate += int(np.count_nonzero(on_boundary))
            means = means[~on_boundary]
        if means.shape[0]:
            held.append(means)
            n_held += means.shape[0]
        if n_held >= _STACK or (n_held and stream_id == n_streams - 1):
            # no name outlives the call: a stale reference to a 1e6-trial
            # stream's means costs the study a third more page faults
            xbar = held[0] if len(held) == 1 else np.concatenate(held)
            result = interval_fn(ObservationBatch(n=m, xbar=xbar))
            del xbar
            hits += int(np.count_nonzero(result.covers_natural(theta_true)))
            held, n_held = [], 0
    valid = trials - degenerate
    if valid == 0:
        raise DegenerateDataError("every simulated dataset was degenerate")
    coverage = hits / valid
    sigma = math.sqrt(level * (1.0 - level) / valid)
    return CoverageReport(
        trials=valid,
        hits=hits,
        empirical_coverage=coverage,
        three_sigma_band=(level - 3.0 * sigma, level + 3.0 * sigma),
        level=level,
        degenerate=degenerate,
    )


# -- the interval table -------------------------------------------------------

#: (family class, method) -> construction(family, batch, level).  Each entry
#: looks its function up by name when it is called, so whatever the module
#: name is bound to then (a tracing wrapper, say) sees the call.  A new
#: construction is one more entry here.
_CONSTRUCTIONS = {
    (GammaFamily, "credible"): (
        lambda family, batch, level: gamma_credible(family.alpha, batch, level)
    ),
    (GammaFamily, "confidence"): (
        lambda family, batch, level: gamma_confidence(family.alpha, batch, level)
    ),
    (PoissonExponentialFamily, "credible"): (
        lambda family, batch, level: poisson_exp_credible(family.kappa, batch, level)
    ),
    (PoissonExponentialFamily, "confidence"): (
        lambda family, batch, level: poisson_exp_confidence(family.kappa, batch, level)
    ),
    (GaussianLocationFamily, "divergence-ball"): (
        lambda family, batch, level: gaussian_divergence_ball(family, batch, level)
    ),
}


def interval_construction(family, method, level):
    """The construction ``batch -> result`` of ``method`` for ``family`` at ``level``.

    Raises :class:`DomainError` for a (family, method) pair the table does
    not hold.
    """
    build = _CONSTRUCTIONS.get((type(family), method))
    if build is None:
        methods = sorted(m for cls, m in _CONSTRUCTIONS if cls is type(family))
        raise DomainError(
            f"no {method!r} interval for {type(family).__name__}; "
            f"supported: {', '.join(methods) or 'none'}"
        )
    return lambda batch: build(family, batch, level)


# -- estimator wrappers ------------------------------------------------------


class _IntervalEstimator(ParamsMixin):
    """fit(X) -> the construction's result in ``result_``.

    Each name in ``_fitted`` is also copied from the result to an attribute
    with a trailing underscore.
    """

    _fitted = ("lower", "upper")

    def _family(self):
        raise NotImplementedError

    def fit(self, X):
        family = self._family()
        check_unit_open(self.level, "level")
        build = interval_construction(family, self.method, self.level)
        self.result_ = build(as_batch(family, X))
        for name in self._fitted:
            setattr(self, name + "_", getattr(self.result_, name))
        return self

    def covers(self, value):
        check_is_fitted(self, "result_")
        return self.result_.covers(value)


class GammaRateInterval(_IntervalEstimator):
    """One-sided interval for the Gamma rate; credible and confidence coincide."""

    def __init__(self, alpha, level=0.9, method="credible"):
        self.alpha = alpha
        self.level = level
        self.method = method

    def _family(self):
        return GammaFamily(self.alpha)


class PoissonExponentialRateInterval(_IntervalEstimator):
    """One-sided interval for the compound-Poisson rate; the two methods differ."""

    def __init__(self, kappa, level=0.9, method="credible"):
        self.kappa = kappa
        self.level = level
        self.method = method

    def _family(self):
        return PoissonExponentialFamily(self.kappa)


class GaussianDivergenceBall(_IntervalEstimator):
    """Divergence-ball credible (= confidence) region for the Gaussian mean."""

    method = "divergence-ball"
    _fitted = ("center", "radius")

    def __init__(self, cov=1.0, level=0.9):
        self.cov = cov
        self.level = level

    def _family(self):
        return GaussianLocationFamily(self.cov)
