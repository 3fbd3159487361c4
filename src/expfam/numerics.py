"""Deterministic numerical substrate.

Special functions, adaptive quadrature, bracketed root finding and seeded
random streams.  Everything here is a pure function of its arguments; the
random streams are explicit generator objects, never global state.

Only this module calls scipy's quadrature and root finders, importing
them on first use.  ``integrate`` runs QUADPACK (``scipy.integrate.quad``,
which applies the standard half-line transform internally and
extrapolates across integrable endpoint singularities) on an interval and
``scipy.integrate.cubature`` on a box; ``integrate_trapezoid`` runs the
trapezoid rule on the real line in numpy alone; ``find_root`` runs Brent's
method (``scipy.optimize.brentq``) on a bracket and safeguarded Newton on
a stack.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _scisp

from .errors import DomainError, NoSignChangeError, NonConvergenceError
from .validation import all_hold, check_positive, check_positive_array, check_unit_open

__all__ = [
    "DEFAULT_TOL",
    "QuadratureResult",
    "Bracket",
    "log_gamma",
    "reg_gamma_lower",
    "inv_reg_gamma_lower",
    "std_normal_cdf",
    "std_normal_quantile",
    "integrate",
    "integrate_trapezoid",
    "find_root",
    "bracket_by_doubling",
    "rng_stream",
]

DEFAULT_TOL = 1e-10

# QUADPACK subdivision limit per segment; with <= 21 evaluations per
# subinterval this keeps each call far below a 1e6 evaluation budget.
_QUAD_LIMIT = 200

# Trapezoid rule on the real line: first step, first window [-w, w], the
# edge value (relative to the peak, in units of tol) below which the window
# stops doubling, and the node budget.
_TRAPEZOID_STEP = 1.0 / 16.0
_TRAPEZOID_WINDOW = 3.0
_TRAPEZOID_EDGE = 1e-3
_TRAPEZOID_NODES = 8192

_BRENT_RTOL = 4.0 * np.finfo(float).eps  # the least relative tolerance brentq takes


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a definite integral with the rule's error report."""

    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class Bracket:
    """An interval [lo, hi] expected to enclose a sign change; arrays stack them."""

    lo: float
    hi: float

    def __post_init__(self):
        if not all_hold(self.lo < self.hi):
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


def std_normal_quantile(p):
    """Inverse of Phi on (0, 1)."""
    p = check_unit_open(p, "p")
    return float(_scisp.ndtri(p))


def integrate(f, lo, hi, tol=DEFAULT_TOL, points=None):
    """Adaptive quadrature of f over (lo, hi); either endpoint may be infinite.

    ``points`` lists interior locations (modes, kinks) where the domain is
    split before integrating; this is how callers steer the rule toward
    narrow peaks on unbounded domains.  When ``lo`` and ``hi`` are
    length-d arrays the domain is the box between them, ``f`` maps an
    (N, d) array of points to N values, and ``evaluations`` counts points.

    Raises :class:`NonConvergenceError` when the rule gives up or the
    reported error exceeds ``max(tol, tol * |value|)``.
    """
    from scipy import integrate as _sciint

    tol = check_positive(tol, "tol")
    if np.ndim(lo):
        value, err, neval = _cubature(_sciint, f, lo, hi, tol)
    else:
        value, err, neval = _quadpack(_sciint, f, float(lo), float(hi), tol, points)
    if not math.isfinite(value) or err < 0 or err > max(tol, tol * abs(value)):
        raise NonConvergenceError(
            f"quadrature did not converge: value={value}, "
            f"error_estimate={err}, tol={tol}, evaluations={neval}"
        )
    return QuadratureResult(value=value, error_estimate=err, evaluations=neval)


def _quadpack(_sciint, f, lo, hi, tol, points):
    if not lo < hi:
        raise DomainError(f"empty integration domain [{lo}, {hi}]")
    edges = [lo, *sorted({float(p) for p in points or () if lo < p < hi}), hi]
    seg_tol = tol / len(edges)
    value = err = 0.0
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
    return value, err, neval


def _cubature(_sciint, f, lo, hi, tol):
    # an unconverged cubature leaves error > tol * (1 + |value|), which integrate rejects
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape or not np.all(lo < hi):
        raise DomainError(f"integration box needs lo < hi, got {lo}, {hi}")
    rows = []
    out = _sciint.cubature(
        lambda x: rows.append(len(x)) or f(x), lo, hi, rtol=tol, atol=tol
    )
    return float(out.estimate), float(out.error), sum(rows)


def integrate_trapezoid(f, tol=DEFAULT_TOL):
    """The integral of f over the real line by the trapezoid rule.

    ``f`` maps a 1-d array of N nodes to N values, or to a stack (..., N)
    of integrands sharing the nodes; ``evaluations`` counts the nodes
    passed in.  For an f analytic in a strip around the real axis that
    decays at least exponentially, the rule converges geometrically in the
    step (Trefethen & Weideman 2014, *The exponentially convergent
    trapezoidal rule*, SIAM Review 56).  It starts at step 1/16 on
    [-3, 3]; the window doubles while an edge value exceeds 1e-3 tol of
    the peak, then the step halves, on new nodes only, until the error
    estimate |T_h - T_2h| is at most ``tol |T_h|``.  Each integrand of a
    stack keeps the value of the first step that meets this, so it agrees
    with its own integral to rounding.

    Raises :class:`NonConvergenceError` on a non-finite value or once
    the nodes would exceed 8192.
    """
    tol = check_positive(tol, "tol")
    h = _TRAPEZOID_STEP
    k = round(_TRAPEZOID_WINDOW / h)  # the nodes are j h for |j| <= k
    y = f(np.arange(-k, k + 1) * h)
    while True:
        size = np.abs(y)
        edge = _TRAPEZOID_EDGE * tol * size.max(axis=-1)
        if not ((size[..., 0] > edge) | (size[..., -1] > edge)).any():
            break
        if 4 * k + 1 > _TRAPEZOID_NODES:
            raise NonConvergenceError(
                f"trapezoid window [-{k * h}, {k * h}] cuts off the integrand "
                f"and cannot double within {_TRAPEZOID_NODES} nodes"
            )
        flanks = f(np.concatenate([np.arange(-2 * k, -k), np.arange(k + 1, 2 * k + 1)]) * h)
        y = np.concatenate([flanks[..., :k], y, flanks[..., k:]], axis=-1)
        k *= 2
    value, error = _trapezoid_sums(y, h)
    done = error <= tol * np.abs(value)
    while not done.all():
        if not np.isfinite(value).all():
            raise NonConvergenceError(f"trapezoid sum is not finite: {value}")
        if 4 * k + 1 > _TRAPEZOID_NODES:
            raise NonConvergenceError(
                f"trapezoid rule did not converge within {_TRAPEZOID_NODES} nodes: "
                f"value={value}, error_estimate={error}, tol={tol}"
            )
        h, k = 0.5 * h, 2 * k
        finer = np.empty(y.shape[:-1] + (2 * k + 1,))
        finer[..., ::2] = y
        finer[..., 1::2] = f(np.arange(1 - k, k, 2) * h)
        y = finer
        fine, fine_error = _trapezoid_sums(y, h)
        value = np.where(done, value, fine)
        error = np.where(done, error, fine_error)
        done = error <= tol * np.abs(value)
    if value.ndim == 0:
        value, error = float(value), float(error)
    return QuadratureResult(value=value, error_estimate=error, evaluations=y.shape[-1])


def _trapezoid_sums(y, h):
    """T_h over the nodes y (last axis) and |T_h - T_2h|; the first node's index is even."""
    fine = h * y.sum(axis=-1)
    return fine, np.abs(fine - 2.0 * h * y[..., ::2].sum(axis=-1))


def find_root(f, bracket, tol=1e-12, fprime=None):
    """Root of f on a sign-changing bracket: Brent's method to ``xtol = tol``.

    A stack of brackets goes to ``_newton_bisection``; ``f`` and ``fprime``
    then map arrays of the bracket's shape to arrays.
    """
    if isinstance(bracket.lo, np.ndarray):
        if fprime is None:
            raise DomainError("a stack of brackets needs the derivative fprime")
        tol = check_positive_array(tol, "tol")
        return _newton_bisection(f, fprime, bracket.lo, bracket.hi, tol)
    from scipy import optimize as _sciopt

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
        f, lo, hi, xtol=tol, rtol=_BRENT_RTOL, maxiter=200, full_output=True
    )
    if not report.converged:
        raise NonConvergenceError(f"root finding stalled on [{lo}, {hi}]")
    return float(root)


def _newton_bisection(f, fprime, lo, hi, tol):
    """Roots of an ``f`` rising through zero on each bracket; ``tol`` may be an array.

    A Newton step that leaves the bracket or exceeds half the step of two
    rounds before (``rtsafe`` in Numerical Recipes) becomes a bisection.
    Each element starts at its bracket's midpoint and stops after a Newton step
    below 1e-12 relative (quadratic convergence then puts it at rounding
    level) or once its bracket is narrower than ``tol`` plus Brent's floor.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if np.any((f(lo) > 0) | (f(hi) < 0)):
            raise NoSignChangeError("f does not rise through zero on some brackets")
        x = 0.5 * (lo + hi)
        last = old = hi - lo
        active = np.ones(np.shape(x), dtype=bool)
        for _ in range(100):
            g = f(x)
            lo, hi = np.where(g < 0, x, lo), np.where(g > 0, x, hi)
            step = g / fprime(x)
            small = np.abs(step) <= 1e-12 * np.abs(x)
            newton = x - step
            keep = small | ((newton > lo) & (newton < hi) & (2.0 * np.abs(step) <= old))
            new = np.where(keep, newton, 0.5 * (lo + hi))
            old, last = last, np.abs(new - x)
            x = np.where(active, new, x)
            active &= ~(small | (hi - lo <= tol + _BRENT_RTOL * np.abs(hi)))
            if not active.any():
                return x
    raise NonConvergenceError("stacked root finding did not converge in 100 steps")


def bracket_by_doubling(f, start, target):
    """A bracket on which an increasing ``f`` crosses ``target``.

    From ``start`` > 0, halves until f(lo) < target and doubles until
    f(hi) > target, at most 200 times each; a function that never crosses
    raises :class:`NonConvergenceError`.  An array ``start`` (with an ``f``
    taking arrays of its shape) gives a stack of brackets, each element
    halving and doubling on its own.
    """
    if isinstance(start, np.ndarray):
        return Bracket(_scale(f, start, target, 0.5), _scale(f, start, target, 2.0))
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


def _scale(f, x, target, factor):
    """Halve (double) the elements of x where f is not yet below (above) target."""
    crossed = np.less if factor < 1.0 else np.greater
    pending = np.ones(x.shape, dtype=bool)
    for _ in range(200):
        x = np.where(pending, x * factor, x)
        pending &= ~crossed(f(x), target)
        if not pending.any():
            return x
    raise NonConvergenceError(f"f never crosses {target} from {x} by factors {factor}")


def rng_stream(seed, stream_id=0):
    """Seeded PCG64 generator; distinct stream_ids give independent streams."""
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(int(stream_id),))
    return np.random.Generator(np.random.PCG64(seq))
