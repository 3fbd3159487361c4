"""Deterministic numerical substrate.

Special functions, adaptive quadrature, bracketed root finding and seeded
random streams.  Everything here is a pure function of its arguments; the
random streams are explicit generator objects, never global state.

The quadrature and root-finding kernels are QUADPACK (via
``scipy.integrate.quad``, which applies the standard half-line transform
internally and extrapolates across integrable endpoint singularities) and
Brent's safeguarded bisection/secant hybrid (``scipy.optimize.brentq``).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _sciint
from scipy import optimize as _sciopt
from scipy import special as _scisp

from .errors import DomainError, NoSignChangeError, NonConvergenceError
from .validation import check_positive, check_unit_open

__all__ = [
    "DEFAULT_TOL",
    "QuadratureResult",
    "Bracket",
    "log_gamma",
    "reg_gamma_lower",
    "inv_reg_gamma_lower",
    "std_normal_cdf",
    "std_normal_quantile",
    "log_std_normal_cdf",
    "integrate",
    "find_root",
    "bracket_by_doubling",
    "rng_stream",
]

DEFAULT_TOL = 1e-10

# QUADPACK subdivision limit per segment; with <= 21 evaluations per
# subinterval this keeps each call far below a 1e6 evaluation budget.
_QUAD_LIMIT = 200


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a definite integral with the rule's error report."""

    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class Bracket:
    """An interval [lo, hi] expected to enclose a sign change."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


def log_gamma(x):
    """ln Gamma(x) for x > 0."""
    x = check_positive(x, "x")
    return math.lgamma(x)


def reg_gamma_lower(a, x):
    """Regularized lower incomplete gamma function P(a, x)."""
    a = check_positive(a, "a")
    x = float(x)
    if not math.isfinite(x) or x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    return float(_scisp.gammainc(a, x))


def inv_reg_gamma_lower(a, p):
    """Inverse of ``reg_gamma_lower`` in its second argument."""
    a = check_positive(a, "a")
    p = check_unit_open(p, "p")
    x = float(_scisp.gammaincinv(a, p))
    if not math.isfinite(x):
        raise NonConvergenceError(f"gamma quantile failed for a={a}, p={p}")
    return x


def std_normal_cdf(z):
    """Standard normal distribution function Phi(z)."""
    return 0.5 * math.erfc(-float(z) / math.sqrt(2.0))


def log_std_normal_cdf(z):
    """ln Phi(z), stable far into the lower tail."""
    return float(_scisp.log_ndtr(float(z)))


def std_normal_quantile(p):
    """Inverse of Phi on (0, 1)."""
    p = check_unit_open(p, "p")
    return float(_scisp.ndtri(p))


def _segment_edges(lo, hi, points):
    edges = [lo]
    if points:
        interior = sorted(float(p) for p in points if lo < p < hi)
        prev = lo
        for p in interior:
            if p > prev:
                edges.append(p)
                prev = p
    edges.append(hi)
    return edges


def integrate(f, lo, hi, tol=DEFAULT_TOL, points=None):
    """Adaptive quadrature of f over (lo, hi); either endpoint may be infinite.

    ``points`` lists interior locations (modes, kinks) where the domain is
    split before integrating; this is how callers steer the rule toward
    narrow peaks on unbounded domains.

    Raises :class:`NonConvergenceError` when the reported error exceeds
    ``max(tol, tol * |value|)``.
    """
    tol = check_positive(tol, "tol")
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise DomainError(f"empty integration domain [{lo}, {hi}]")
    edges = _segment_edges(lo, hi, points)
    seg_tol = tol / len(edges)
    value = 0.0
    err = 0.0
    neval = 0
    for a, b in zip(edges[:-1], edges[1:]):
        out = _sciint.quad(
            f, a, b, epsabs=seg_tol, epsrel=tol, limit=_QUAD_LIMIT, full_output=1
        )
        if len(out) > 3 and "divergent" in out[3]:
            raise NonConvergenceError(
                f"quadrature reports a divergent or slowly convergent "
                f"integral on [{a}, {b}]"
            )
        value += out[0]
        err += out[1]
        neval += out[2]["neval"]
    if not math.isfinite(value) or err < 0 or err > max(tol, tol * abs(value)):
        raise NonConvergenceError(
            f"quadrature did not converge: value={value}, "
            f"error_estimate={err}, tol={tol}, evaluations={neval}"
        )
    return QuadratureResult(value=value, error_estimate=err, evaluations=neval)


def find_root(f, bracket, tol=1e-12):
    """Root of f on a sign-changing bracket (Brent's method)."""
    tol = check_positive(tol, "tol")
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise NoSignChangeError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}"
        )
    root, report = _sciopt.brentq(
        f, lo, hi, xtol=tol, rtol=8.881784197001252e-16, maxiter=200, full_output=True
    )
    if not report.converged:
        raise NonConvergenceError(f"root finding stalled on [{lo}, {hi}]")
    return float(root)


def bracket_by_doubling(f, start, target):
    """A bracket on which an increasing ``f`` crosses ``target``.

    From ``start`` > 0, halves until f(lo) < target and doubles until
    f(hi) > target, at most 200 times each; a function that never crosses
    raises :class:`NonConvergenceError`.
    """
    lo = hi = start
    for _ in range(200):
        lo *= 0.5
        if f(lo) < target:
            break
    else:
        raise NonConvergenceError(f"no value below {target} down to {lo}")
    for _ in range(200):
        hi *= 2.0
        if f(hi) > target:
            break
    else:
        raise NonConvergenceError(f"no value above {target} up to {hi}")
    return Bracket(lo, hi)


def rng_stream(seed, stream_id=0):
    """Seeded PCG64 generator; distinct stream_ids give independent streams."""
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(int(stream_id),))
    return np.random.Generator(np.random.PCG64(seq))
