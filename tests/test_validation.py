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
    CnmlPredictor,
    GammaFamily,
    GammaRateInterval,
    GaussianDivergenceBall,
    GaussianLocationFamily,
    InverseGaussianDist,
    InverseGaussianFamily,
    JeffreysPredictor,
    ObservationBatch,
    PoissonExponentialFamily,
    coverage_simulation,
    equivalence_check,
    gamma_credible,
    interval_construction,
    regret,
    run_suite,
)
from expfam.core import Family
from expfam.distributions import GaussianDist
from expfam.errors import DegenerateDataError, DomainError, SupportError
from expfam.prediction import _check_suffix, as_batch
from expfam.validation import check_count

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
    try:
        theta_hat = family._mle(batch.xbar)
    except (ZeroDivisionError, OverflowError):
        theta_hat = math.nan
    if not family.in_natural_domain(theta_hat):
        raise DomainError(
            f"batch mean {batch.xbar!r} has no MLE in floats for {family!r}: "
            "it lies too near the edge of the mean domain"
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


# -- every boundary turns a bad value into DomainError ---------------------------

GAMMA = GammaFamily(1.0)
ONE = ObservationBatch(n=1, xbar=1.0)


def _coverage(**kwargs):
    """A 16-trial Gamma credible coverage study; ``kwargs`` override its arguments."""
    args = {"theta_true": -1.0, "m": 2, "level": 0.9, "trials": 16, "seed": 0, **kwargs}
    build = interval_construction(GAMMA, "credible", args["level"])
    return coverage_simulation(GAMMA, build, **args)


@pytest.mark.parametrize(
    "call",
    [
        lambda: GammaFamily("abc"),
        lambda: GammaFamily(None),
        lambda: gamma_credible(1.0, ONE, None),
        lambda: JeffreysPredictor(GAMMA, tol="a").fit([1.0]),
        lambda: ObservationBatch(n=1, xbar="a"),
        lambda: ObservationBatch(n=1, xbar=[1.0, 2.0]),
        lambda: GAMMA.cumulant("a"),
        lambda: JeffreysPredictor(GAMMA).fit(["a"]),
        lambda: JeffreysPredictor(GAMMA).fit([1.0]).log_predictive(["a"]),
        lambda: InverseGaussianDist(1.0, 2.0).ppf(np.array([0.5])),
        lambda: JeffreysPredictor(GAMMA).fit([1.0]).score_samples(["a"]),
        lambda: equivalence_check(GAMMA, 1, 2, ["a"], [1.0]),
        lambda: equivalence_check(GAMMA, 1, 2, [1.0], ["a"]),
        lambda: GaussianDist(np.zeros(1), np.eye(1)).log_pdf("a"),
    ],
    ids=[
        "family-string", "family-none", "level-none", "tol-string", "batch-mean-string",
        "batch-mean-list", "cumulant-string", "fit-string", "suffix-string", "ppf-array",
        "score-samples-string", "equivalence-prefix-string", "equivalence-future-string",
        "gaussian-log-pdf-string",
    ],
)
def test_non_numbers_raise_domain_error(call):
    # each raised a raw TypeError or ValueError, which is no ExpfamError
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: CnmlPredictor(GAMMA, horizon=1.5).fit([1.0]),
        lambda: CnmlPredictor(GAMMA, horizon=math.nan).fit([1.0]),
        lambda: CnmlPredictor(GAMMA, horizon="a").fit([1.0]),
        lambda: regret(GAMMA, "plugin", [1.0, 2.0, 0.5], 2.5),
        lambda: equivalence_check(GAMMA, 1.5, 2.5, [1.0], [1.0]),
        lambda: GAMMA.convolution_family(2.5),
        lambda: _coverage(seed=1.5),
        lambda: _coverage(seed=math.nan),
        lambda: run_suite("coverage", seed=math.nan, trials=16),
        lambda: run_suite("lemma1", seed="a"),
    ],
    ids=[
        "horizon-fraction", "horizon-nan", "horizon-string", "regret-m", "equivalence-m-n",
        "convolution-k", "coverage-seed", "coverage-seed-nan", "suite-seed-nan",
        "suite-seed-string",
    ],
)
def test_counts_and_seeds_must_be_whole(call):
    # a bare int() ran horizon 1.5 at 1, m = 2.5 at 2 and seed 1.5 at 1
    with pytest.raises(DomainError, match="must be a whole number"):
        call()


def test_whole_numbers_in_any_notation():
    assert check_count("2e3") == 2000
    assert GAMMA.convolution_family(3.0).alpha == 3.0
    # seeds may be 0 or negative; a whole float seeds as its int
    assert _coverage(seed=-3) == _coverage(seed=-3.0)
    assert _coverage(seed=0).trials == 16
    tail = [1.0, 2.0]
    cnml = CnmlPredictor(GAMMA, horizon=2.0).fit([1.0]).log_predictive(tail)
    assert cnml == CnmlPredictor(GAMMA, horizon=2).fit([1.0]).log_predictive(tail)


@pytest.mark.parametrize(
    "family, mean",
    [
        (InverseGaussianFamily(2.0), 1e-200),  # mu**2 underflows: ZeroDivisionError
        (InverseGaussianFamily(2.0), 1e200),  # mu**2 overflows: OverflowError
        (GammaFamily(2.0), 1e-320),  # the MLE is -inf
        (PoissonExponentialFamily(2.0), 1e-320),  # the MLE is -inf
        (InverseGaussianFamily(2.0), 1e-300),
        (InverseGaussianFamily(2.0), 1e300),
        (GammaFamily(1.0), 1e-320),
    ],
)
def test_mean_without_a_finite_mle_is_a_domain_error(family, mean):
    # the public mle applies the rule of as_batch, with the same message
    with pytest.raises(DomainError, match="has no MLE in floats") as batch_error:
        as_batch(family, [mean])
    with pytest.raises(DomainError) as mle_error:
        family.mle(mean)
    assert str(mle_error.value) == str(batch_error.value)
