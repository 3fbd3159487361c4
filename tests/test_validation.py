"""A sample is checked against the support in one array pass.

``as_batch`` and ``_check_suffix`` must accept and reject exactly what the
point-by-point check accepted and rejected, with the same error class and
message; the reference below is that check, kept here as the oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expfam import (
    GammaFamily,
    GammaRateInterval,
    GaussianDivergenceBall,
    GaussianLocationFamily,
    InverseGaussianFamily,
    ObservationBatch,
    PoissonExponentialFamily,
)
from expfam.core import Family
from expfam.errors import DegenerateDataError, DomainError, SupportError
from expfam.prediction import _check_suffix, as_batch

UNIVARIATE = [
    GammaFamily(1.5),
    InverseGaussianFamily(2.0),
    PoissonExponentialFamily(2.0),
    GaussianLocationFamily(1.0),
]
FAMILIES = UNIVARIATE + [
    GaussianLocationFamily(np.eye(2)),
    GaussianLocationFamily([[2.0, 0.3], [0.3, 0.5]]),
]


# -- the point-by-point reference -----------------------------------------------


def _reference_observations(X, d):
    X = np.asarray(X, dtype=float)
    if X.ndim == 0:
        X = X.reshape(1)
    if d == 1:
        if X.ndim == 2 and X.shape[1] == 1:
            X = X[:, 0]
        if X.ndim != 1:
            raise DomainError(f"expected 1-d observations, got shape {X.shape}")
    else:
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2 or X.shape[1] != d:
            raise DomainError(
                f"expected observations of dimension {d}, got shape {X.shape}"
            )
    if X.shape[0] == 0:
        raise DomainError("at least one observation is required")
    if not np.all(np.isfinite(X)):
        raise DomainError("observations must be finite")
    return X


def _reference_as_batch(family, X):
    X = _reference_observations(X, family.d)
    for x in X:
        family._check_support(x if family.d > 1 else float(x))
    if X.ndim == 1:
        batch = ObservationBatch(n=X.shape[0], xbar=float(X.mean()))
    else:
        batch = ObservationBatch(n=X.shape[0], xbar=X.mean(axis=0))
    if not family.in_mean_domain(batch.xbar):
        if family.has_atom and np.all(np.atleast_1d(batch.xbar) == family.atom_point):
            raise DegenerateDataError(
                "all observations sit on the atom; the MLE and posterior degenerate"
            )
        raise DomainError(
            f"batch mean {batch.xbar!r} is outside the mean domain of {family!r}"
        )
    return batch


def _reference_suffix(family, future):
    future = np.atleast_1d(np.asarray(future, dtype=float))
    if future.ndim != 1 or future.shape[0] < 1:
        raise DomainError("future suffix must be a nonempty 1-d sequence")
    for y in future:
        family._check_support(float(y))
    return future


def _outcome(fn, family, X):
    """What ``fn`` returns, down to the bits of the mean, or what it raises."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = fn(family, X)
    except Exception as exc:  # raw errors are compared too
        return type(exc), str(exc)
    if isinstance(out, ObservationBatch):
        return out.n, type(out.n), type(out.xbar), np.asarray(out.xbar).tobytes()
    return out.shape, out.tobytes()


# -- samples mixing interior points with every kind of invalid value -----------

SPECIALS = [0.0, -0.0, -1.5, -5e-324, 5e-324, 1e-310, 2.2e-308, math.inf, -math.inf, math.nan]
VALUES = st.one_of(
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.sampled_from(SPECIALS),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def samples(draw, widths):
    """A 0-d value, or m points of the drawn width, as an array or a list."""
    width = draw(st.sampled_from(widths))
    if width == 0:
        return np.float64(draw(VALUES))
    m = draw(st.integers(0, 6))
    size = m * abs(width)
    X = np.array(draw(st.lists(VALUES, min_size=size, max_size=size)), dtype=float)
    X = X if width == -1 else X.reshape(m, width)
    return X.tolist() if draw(st.booleans()) else X


class TestSampleCheck:
    @settings(max_examples=400, deadline=None)
    @given(family=st.sampled_from(FAMILIES), X=samples(widths=(0, -1, 1, 2)))
    def test_as_batch_matches_point_by_point(self, family, X):
        # width -1 is a flat (m,) sample; 1 and 2 are (m, 1) and (m, 2)
        assert _outcome(as_batch, family, X) == _outcome(_reference_as_batch, family, X)

    @settings(max_examples=400, deadline=None)
    @given(family=st.sampled_from(UNIVARIATE), future=samples(widths=(0, -1, 1)))
    def test_suffix_matches_point_by_point(self, family, future):
        # suffixes reach the check through the predictors, which are univariate
        new, old = _outcome(_check_suffix, family, future), _outcome(
            _reference_suffix, family, future
        )
        assert new == old

    @pytest.mark.parametrize(
        "family,X,first",
        [
            (GammaFamily(1.0), [1.0, 2.0, -3.0, 0.0], "-3.0"),
            (GammaFamily(1.0), [1.0, -0.0, 2.0], "-0.0"),
            (PoissonExponentialFamily(2.0), [0.0, 1.0, -2.0, 0.0], "-2.0"),
            (InverseGaussianFamily(1.0), [2.0, 5e-324, 0.0], "0.0"),
            (GaussianLocationFamily(np.eye(2)), [[1.0, 2.0], [0.5, -1.0]], None),
        ],
    )
    def test_first_point_outside_is_named(self, family, X, first):
        if first is None:  # every finite point lies in R^d
            assert as_batch(family, X).n == 2
            return
        with pytest.raises(SupportError, match=f"^{first} is outside the support"):
            as_batch(family, X)

    def test_non_finite_reported_before_a_point_outside(self):
        with pytest.raises(DomainError, match="observations must be finite"):
            as_batch(GammaFamily(1.0), [-1.0, 2.0, math.nan])
        # a suffix names the point, as it always has
        with pytest.raises(SupportError, match="nan is outside the support"):
            _check_suffix(GammaFamily(1.0), [2.0, math.nan])


class TestSampleCheckCost:
    """A large sample costs no per-point ``_check_support`` call."""

    @staticmethod
    def _support_checks(monkeypatch, run):
        calls = []
        original = Family._check_support

        def counted(self, x):
            calls.append(x)
            return original(self, x)

        monkeypatch.setattr(Family, "_check_support", counted)
        run()
        monkeypatch.undo()
        return len(calls)

    def test_gaussian_ball_d2(self, monkeypatch):
        X = np.random.default_rng(5).normal(size=(10_000, 2))
        fit = lambda: GaussianDivergenceBall(np.eye(2)).fit(X)  # noqa: E731
        assert self._support_checks(monkeypatch, fit) == 0

    def test_gamma_interval(self, monkeypatch):
        X = np.random.default_rng(6).gamma(2.0, size=10_000)
        fit = lambda: GammaRateInterval(2.0).fit(X)  # noqa: E731
        assert self._support_checks(monkeypatch, fit) == 0
