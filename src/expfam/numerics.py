"""Deterministic numerical substrate.

Special functions, adaptive quadrature, root finding and seeded
random streams.  Everything here is a pure function of its arguments; the
random streams are explicit generator objects, never global state.

Only this module imports scipy, and it loads each subpackage on first use:
``scipy.special`` through the handle ``_scisp`` (which ``distributions``
shares) and ``scipy.integrate`` inside the function that calls it.  So
``import expfam`` loads no scipy module, and a closed-form density
(Gamma, Gaussian, inverse Gaussian, the Poisson-exponential atom) never
does.

``integrate`` runs QUADPACK (``scipy.integrate.quad``, which applies the
standard half-line transform internally and extrapolates across
integrable endpoint singularities) on an interval; there is no cubature:
integrals over R^d go to ``integrate_trapezoid``, the trapezoid rule on a
product grid in numpy alone.  ``find_root`` brackets the crossing of an
increasing function by halving and doubling from a start, then runs
Brent's method (Brent 1973, *Algorithms for Minimization without
Derivatives*, ch. 4; a port of scipy's ``brentq``) on a float start and
safeguarded Newton on an array start.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError
from .validation import (
    check_positive, check_positive_array, check_unit_open, check_whole
)

__all__ = [
    "DEFAULT_TOL",
    "QuadratureResult",
    "inv_reg_gamma_lower",
    "std_normal_quantile",
    "exp_density",
    "integrate",
    "integrate_trapezoid",
    "find_root",
    "rng_stream",
]

DEFAULT_TOL = 1e-10

# QUADPACK subdivision limit per segment; with <= 21 evaluations per
# subinterval this keeps each call far below a 1e6 evaluation budget.
_QUAD_LIMIT = 200

# Trapezoid rule on R^d: first step, first window [-w, w] on each axis,
# the face value (relative to the peak, in units of tol) below which the
# window stops doubling, the node budget per axis and in all, and the most
# nodes passed to one call of the integrand at d > 1.
_TRAPEZOID_STEP = 1.0 / 16.0
_TRAPEZOID_WINDOW = 3.0
_TRAPEZOID_EDGE = 1e-3
_TRAPEZOID_NODES = 8192
_TRAPEZOID_GRID = 1 << 23
_TRAPEZOID_SLAB = 1 << 16
_BUDGET = f"{_TRAPEZOID_NODES} nodes per axis and {_TRAPEZOID_GRID} in all"

_BRENT_RTOL = 4.0 * np.finfo(float).eps  # the least relative tolerance brentq takes


class _LazySpecial:
    """``scipy.special``, imported at the first attribute read.

    Each function read is stored on the instance: it is the very same
    ufunc, and a later read is a plain attribute lookup, with no import
    statement and no call of ``__getattr__``.
    """

    def __getattr__(self, name):  # called only for names not yet stored
        from scipy import special

        value = getattr(special, name)
        setattr(self, name, value)
        return value


_scisp = _LazySpecial()


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a definite integral with the rule's error report."""

    value: float
    error_estimate: float
    evaluations: int


def inv_reg_gamma_lower(a, p):
    """The x with P(a, x) = p, P the regularized lower incomplete gamma function."""
    a = check_positive(a, "a")
    p = check_unit_open(p, "p")
    x = float(_scisp.gammaincinv(a, p))
    if not math.isfinite(x):
        raise NonConvergenceError(f"gamma quantile failed for a={a}, p={p}")
    return x


def std_normal_quantile(p):
    """Inverse of the standard normal distribution function on (0, 1)."""
    p = check_unit_open(p, "p")
    return float(_scisp.ndtri(p))


def exp_density(log_value):
    """exp(log_value); a density above the float range raises DomainError."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(f"density above the float range: log_value {log_value!r}") from None


def integrate(f, lo, hi, tol=DEFAULT_TOL, points=None):
    """Adaptive quadrature of f over (lo, hi); either endpoint may be infinite.

    ``points`` lists interior locations (modes, kinks) where the domain is
    split before integrating; this is how callers steer the rule toward
    narrow peaks on unbounded domains.

    Raises :class:`NonConvergenceError` when the rule gives up or the
    reported error exceeds ``max(tol, tol * |value|)``.
    """
    from scipy import integrate as _sciint

    tol = check_positive(tol, "tol")
    if np.ndim(lo) or np.ndim(hi):
        raise DomainError("integrate takes an interval; R^d goes to integrate_trapezoid")
    lo, hi = float(lo), float(hi)
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
    if not math.isfinite(value) or err < 0 or err > max(tol, tol * abs(value)):
        raise NonConvergenceError(
            f"quadrature did not converge: value={value}, "
            f"error_estimate={err}, tol={tol}, evaluations={neval}"
        )
    return QuadratureResult(value=value, error_estimate=err, evaluations=neval)


def integrate_trapezoid(f, tol=DEFAULT_TOL, d=1):
    """The integral of f over R^d by the trapezoid rule on a product grid.

    At d == 1 ``f`` maps a 1-d array of N nodes to N values, or to a stack
    (..., N) of integrands sharing the nodes; at d > 1 it maps an (N, d)
    array of points the same way.  ``f`` takes each grid whole, and
    ``evaluations`` is the sum of the grid sizes, the nodes passed to
    ``f``.  For an f analytic in a strip around each real axis that
    decays at least exponentially, the rule converges geometrically in the
    step (Trefethen & Weideman 2014, *The exponentially convergent
    trapezoidal rule*, SIAM Review 56).  It starts at step 1/16 on [-3, 3]
    on each axis; the window doubles while a value on a face of the grid
    exceeds 1e-3 tol of the peak, then the step halves until the error
    estimate |T_h - T_2h| is at most ``tol |T_h|``.  Each integrand of a
    stack keeps the value of the first step that meets this, so it agrees
    with its own integral to rounding.  At d > 1 each grid reaches ``f`` in
    slabs along the first axis of at most 2^16 points, so the memory beyond
    the grid's values stays bounded.

    Raises :class:`NonConvergenceError` on a non-finite value or once the
    nodes would exceed 8192 on an axis or 2^23 in all, before ``f`` sees
    them.
    """
    tol = check_positive(tol, "tol")
    h = _TRAPEZOID_STEP
    k = round(_TRAPEZOID_WINDOW / h)  # the nodes are j h for |j| <= k on each axis
    grid_axes = tuple(range(-d, 0))
    value = error = math.nan  # no sum yet
    evaluations = 0
    while True:
        if _over_budget(2 * k + 1, d):
            raise NonConvergenceError(
                f"trapezoid grid at step {h} on [-{k * h}, {k * h}]^{d} exceeds "
                f"{_BUDGET}: value={value}, error_estimate={error}, tol={tol}"
            )
        y = _grid_values(f, _nodes(k, h), d)
        evaluations += (2 * k + 1) ** d
        if h == _TRAPEZOID_STEP:  # at the first step the window may still grow
            size = np.abs(y)
            edge = _TRAPEZOID_EDGE * tol * size.max(axis=grid_axes, keepdims=True)
            if not _below_on_faces(size, edge, grid_axes):
                k *= 2
                continue
            value, error = _trapezoid_sums(y, h, grid_axes)
        else:  # each integrand keeps the value of its first converged step
            fine, fine_error = _trapezoid_sums(y, h, grid_axes)
            value = np.where(done, value, fine)
            error = np.where(done, error, fine_error)
        done = error <= tol * np.abs(value)
        if done.all():
            break
        if not np.isfinite(value).all():
            raise NonConvergenceError(f"trapezoid sum is not finite: {value}")
        h, k = 0.5 * h, 2 * k
    if value.ndim == 0:
        value, error = float(value), float(error)
    return QuadratureResult(value=value, error_estimate=error, evaluations=evaluations)


def _nodes(k, h):
    """The nodes j h, |j| <= k, of one axis.

    h is a power of two, so the float range's start + i h is j h exactly.
    """
    return np.arange(-k * h, (k + 0.5) * h, h)


def _over_budget(m, d):
    """Whether a grid of m nodes on each of d axes exceeds the node budget."""
    return m > _TRAPEZOID_NODES or m**d > _TRAPEZOID_GRID


def _grid_values(f, x, d):
    """f on the product grid x^d, held in the last d axes.

    At d == 1 f takes the nodes x themselves; at d > 1 it takes (N, d)
    points, in slabs of whole rows along the first axis.
    """
    if d == 1:
        return f(x)
    m = x.size
    row = m ** (d - 1)  # the nodes of one index along the first axis
    rows = max(1, _TRAPEZOID_SLAB // row)
    y = None
    for first in range(0, m, rows):
        slab = np.meshgrid(
            x[first : first + rows], *(x,) * (d - 1), indexing="ij", copy=False
        )
        values = f(np.stack(slab, axis=-1).reshape(-1, d))
        if y is None:
            y = np.empty(values.shape[:-1] + (m**d,))
        y[..., first * row : first * row + values.shape[-1]] = values
    return y.reshape(y.shape[:-1] + (m,) * d)


def _below_on_faces(size, edge, axes):
    """Whether no value on a face of the grid (``axes`` of ``size``) exceeds ``edge``."""
    for axis in axes:
        if (size.take((0, -1), axis=axis) > edge).any():
            return False
    return True


def _trapezoid_sums(y, h, axes):
    """T_h over the nodes y (grid ``axes``) and |T_h - T_2h|; the first index is even."""
    d = len(axes)
    fine = h**d * y.sum(axis=axes)
    coarse = y[(Ellipsis,) + (slice(None, None, 2),) * d]
    return fine, np.abs(fine - (2.0 * h) ** d * coarse.sum(axis=axes))


def find_root(f, start, target, tol, fprime=None):
    """The x where an increasing ``f`` crosses ``target``, to ``xtol = tol``.

    From ``start`` (finite and > 0) the bracket halves until f < target and
    then doubles until f > target, at most 200 times each; a function that
    never crosses raises :class:`NonConvergenceError`.  Brent's method then
    runs on f - target from the values the doubling found at the ends, so
    f is evaluated once at each point, and a value that is not finite
    raises NonConvergenceError.  An array ``start`` (with an ``f`` and the
    derivative ``fprime`` taking arrays of its shape) halves and doubles
    each element on its own and goes to ``_newton_bisection``.
    """
    if isinstance(start, np.ndarray):
        if fprime is None:
            raise DomainError("an array start needs the derivative fprime")
        check_positive_array(start, "start")
        tol = check_positive_array(tol, "tol")
        lo, hi = _scale(f, start, target, 0.5), _scale(f, start, target, 2.0)
        return _newton_bisection(lambda x: f(x) - target, fprime, lo, hi, tol)
    lo = hi = check_positive(start, "start")
    tol = check_positive(tol, "tol")
    shifted = lambda x: float(f(x) - target)
    for _ in range(200):  # a nan ends either loop, and the check below raises
        lo *= 0.5
        f_lo = shifted(lo)
        if not f_lo >= 0.0:
            break
    else:
        raise NonConvergenceError(f"no value below {target} down to {lo}")
    for _ in range(200):
        hi *= 2.0
        f_hi = shifted(hi)
        if not f_hi <= 0.0:
            break
    else:
        raise NonConvergenceError(f"no value above {target} up to {hi}")
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        raise NonConvergenceError(f"f is not finite at {lo} or {hi}: {f_lo}, {f_hi}")
    return _brent(shifted, lo, hi, f_lo, f_hi, tol)


def _brent(f, xpre, xcur, fpre, fcur, xtol):
    """Brent's method on a float-valued f from ends xpre, xcur where fpre, fcur differ in sign.

    A line-for-line port of scipy's ``brentq`` (``Zeros/brentq.c``), so every
    iterate matches it bit for bit; xcur is the best point, xblk the contrapoint.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(200):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect, unless a short step is found
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; where C divides by zero, its inf or nan bisects
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # a good short step
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if not math.isfinite(fcur):
            raise NonConvergenceError(f"f is not finite at {xcur}: {fcur}")
    raise NonConvergenceError(f"root finding stalled after 200 steps at {xcur}")


def _newton_bisection(f, fprime, lo, hi, tol):
    """Roots of an ``f`` rising through zero on each [lo, hi]; ``tol`` may be an array.

    A Newton step that leaves the bracket or exceeds half the step of two
    rounds before (``rtsafe`` in Numerical Recipes) becomes a bisection.
    Each element starts at its bracket's midpoint and stops after a Newton step
    below 1e-12 relative (quadratic convergence then puts it at rounding
    level) or once its bracket is narrower than ``tol`` plus Brent's floor.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


def _scale(f, x, target, factor):
    """Halve (double) x where f is not yet below (above) target."""
    crossed = np.less if factor < 1.0 else np.greater
    pending = np.ones(x.shape, dtype=bool)
    for _ in range(200):
        x = np.where(pending, x * factor, x)
        pending &= ~crossed(f(x), target)
        if not pending.any():
            return x
    raise NonConvergenceError(f"f never crosses {target} from {x} by factors {factor}")


def rng_stream(seed, stream_id=0):
    """Seeded PCG64 generator; distinct stream_ids (whole numbers >= 0) give
    independent streams.  The seed is taken modulo 2^64."""
    seed = check_whole(seed, "seed") & 0xFFFFFFFFFFFFFFFF
    stream_id = check_whole(stream_id, "stream_id")
    if stream_id < 0:
        raise DomainError(f"stream_id must be >= 0, got {stream_id}")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.PCG64(seq))
