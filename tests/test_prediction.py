"""Tests for the prediction strategies and their agreement properties."""

import functools
import json
import math
import sys
import time
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from expfam import (
    GammaFamily,
    GaussianLocationFamily,
    InverseGaussianFamily,
    PoissonExponentialFamily,
    ObservationBatch,
)
from expfam import core, prediction
from expfam.core import TAU, Family, _log_ratio_integral
from expfam.families import _HANKEL_W, _log_bessel_factor
from expfam.errors import (
    DegenerateDataError,
    DomainError,
    ExpfamError,
    NonConvergenceError,
    NonNormalizableError,
    SupportError,
)
from expfam.numerics import integrate
from expfam.prediction import (
    CnmlPredictor,
    JeffreysPredictor,
    PlugInPredictor,
    equivalence_check,
    lemma1_constancy,
    make_predictor,
    regret,
)
from expfam.saddlepoint import renormalize
from support_quadrature import integrate_over_support

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracles  # noqa: E402


def gaussian_pdf(y, mu, var):
    return math.exp(-((y - mu) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def _mp_inverse_gaussian_log_evidence(kappa, n, xbar):
    """ln of integral exp(n (theta xbar + sqrt(-2 kappa theta))) J(theta), theta < 0.

    With theta = -u^2 the integral is 2c * int u^(-1/2) exp(-a u^2 + b u) du,
    c^2 = sqrt(kappa/2)/2, a = n xbar, b = n sqrt(2 kappa): a parabolic
    cylinder function (Gradshteyn & Ryzhik 3.462.1).
    """
    kappa, xbar = mp.mpf(kappa), mp.mpf(xbar)
    c = mp.sqrt(mp.sqrt(kappa / 2) / 2)
    a, b = n * xbar, n * mp.sqrt(2 * kappa)
    half = mp.mpf(1) / 2
    return (
        mp.log(2 * c * mp.gamma(half))
        - mp.log(2 * a) / 4
        + b**2 / (8 * a)
        + mp.log(mp.pcfd(-half, -b / mp.sqrt(2 * a)))
    )


def _mp_log_ratio(family, n, xbar):
    """ln R at 50 digits, R = integral of exp(-n D(theta, theta_hat)) J(theta).

    Gamma: sqrt(alpha) Gamma(c) e^c / c^c with c = n alpha.  Poisson-exponential
    and Gaussian: sqrt(tau / n).  Inverse Gaussian: the parabolic-cylinder
    evidence minus n A*(xbar) = n kappa / (2 xbar), subtracted at 50 digits.
    """
    with mp.workdps(50):
        if isinstance(family, GammaFamily):
            c = n * mp.mpf(family.alpha)
            return float(mp.log(family.alpha) / 2 + mp.loggamma(c) + c - c * mp.log(c))
        if isinstance(family, InverseGaussianFamily):
            kappa, x = mp.mpf(family.kappa), mp.mpf(xbar)
            log_evidence = _mp_inverse_gaussian_log_evidence(kappa, n, x)
            return float(log_evidence - n * kappa / (2 * x))
        return float((mp.log(2 * mp.pi) - mp.log(n)) / 2)


def _bessel_log_ratio(kappa, n, xbar):
    """The inverse Gaussian ln R in float: ln(tau / n) / 2 + ln g(n kappa / (4 xbar))."""
    return 0.5 * (math.log(TAU) - math.log(n)) + _log_bessel_factor(n * kappa / (4.0 * xbar))


class TestRatioIntegralLargeN:
    """ln R against 50-digit references, with no n A*(xbar) subtracted in float."""

    @pytest.mark.parametrize(
        "family",
        [GammaFamily(1e-3), GammaFamily(1.0), GammaFamily(1e4),
         PoissonExponentialFamily(1e-3), PoissonExponentialFamily(2.0),
         PoissonExponentialFamily(1e4), GaussianLocationFamily(1e-3),
         GaussianLocationFamily(1.0), GaussianLocationFamily(1e4),
         InverseGaussianFamily(1e-3), InverseGaussianFamily(2.0), InverseGaussianFamily(1e4)],
    )
    def test_closed_forms_n_up_to_1e9(self, family):
        # the inverse Gaussian's closed form is the Bessel one, itself
        # checked against 50 digits in TestInverseGaussianClosedForm
        for n in (1, 3, 10**3, 10**6, 10**9):
            for xbar in (1e-3, 0.25, 4.0, 1e3):
                log_r, rel_err = _log_ratio_integral(family, n, family.mle(xbar), 1e-10)
                if isinstance(family, InverseGaussianFamily):
                    ref = _bessel_log_ratio(family.kappa, n, xbar)
                else:
                    ref = _mp_log_ratio(family, n, xbar)
                assert abs(log_r - ref) <= 1e-10 * max(1.0, abs(ref)), (n, xbar)
                assert rel_err <= 1e-10

    @pytest.mark.parametrize("alpha", [1e-3, 0.1, 1.0, 100.0, 1e4])
    def test_gamma_at_estimates_across_the_float_range(self, alpha):
        # R does not depend on theta_hat; the width in linear form overflowed
        # at both ends, and -1e-300 gave -inf while -1e300 raised
        family = GammaFamily(alpha)
        for n in (1, 10, 10**3, 10**6, 10**9):
            ref = _mp_log_ratio(family, n, 1.0)
            for theta_hat in (-1e-300, -1e-8, -1.0, -1e8, -1e300):
                log_r, rel_err = _log_ratio_integral(family, n, theta_hat, 1e-10)
                assert abs(log_r - ref) <= 1e-10, (n, theta_hat)
                assert rel_err <= 1e-10

    @pytest.mark.parametrize("cov", [1e-300, 1e-8, 1.0, 1e8])
    def test_gaussian_at_every_covariance(self, cov):
        # R = sqrt(tau / n) whatever B; a width capped at 1, which only the
        # half line needs, stretched the grid of a tiny B past the node budget
        family = GaussianLocationFamily(cov)
        for n in (1, 10, 10**3, 10**6, 10**9):
            ref = _mp_log_ratio(family, n, 0.3)
            log_r, rel_err = _log_ratio_integral(family, n, family.mle(0.3), 1e-10)
            assert abs(log_r - ref) <= 1e-13, n
            assert rel_err <= 1e-10
        report = lemma1_constancy(family, 2, [[0.0, 1e-3], [-1.0, 2.0]])
        assert report.values == pytest.approx((math.sqrt(TAU / 2),) * 2, rel=1e-13)

    def test_gamma_at_mean_1e300(self):
        # the width in linear form overflowed: the normalizer was 0.0 with
        # error NaN, and lemma1_constancy divided by a zero median
        family = GammaFamily(1.0)
        ref = math.exp(_mp_log_ratio(family, 5, 1.0))
        profile = renormalize(family, 5, family.mle(1e300))
        assert profile.normalizer == pytest.approx(ref / math.sqrt(TAU), rel=1e-10)
        assert profile.normalizer_error <= 1e-10 * profile.normalizer
        report = lemma1_constancy(family, 1, [[1e300], [1.0]])
        assert report.values == pytest.approx((math.exp(_mp_log_ratio(family, 1, 1.0)),) * 2)
        assert report.relative_spread <= 1e-12

    def test_lemma1_gamma_at_a_million(self):
        # the QUADPACK split at theta_hat returned half of this value
        n = 10**6
        report = lemma1_constancy(GammaFamily(1.0), n, [ObservationBatch(n=n, xbar=4.0)])
        ref = math.exp(_mp_log_ratio(GammaFamily(1.0), n, 4.0))
        assert report.values[0] == pytest.approx(ref, rel=1e-10)
        assert report.values[0] == pytest.approx(0.0025066, rel=1e-4)

    def test_inverse_gaussian_renormalize_at_1e9(self):
        # the QUADPACK normalizer was 5.5e-68 with error 1.1e-67
        family, n, xbar = InverseGaussianFamily(1.0), 10**9, 1.0
        profile = renormalize(family, n, family.mle(xbar))
        ref = math.exp(_mp_log_ratio(family, n, xbar)) / math.sqrt(TAU)
        assert profile.normalizer == pytest.approx(ref, rel=1e-10)
        assert profile.normalizer == pytest.approx(3.162e-5, rel=1e-3)
        assert profile.normalizer_error <= 1e-10 * profile.normalizer

    def test_inverse_gaussian_jeffreys_error_within_tol_at_1e9(self):
        # the QUADPACK evidence reported a normalizer_error of 3.98
        fitted = JeffreysPredictor(InverseGaussianFamily(1.0)).fit(
            ObservationBatch(n=10**9, xbar=1.3)
        )
        assert fitted.predictive_value([1.0]).normalizer_error <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        log_n=st.floats(0.0, 9.0),
        log_xbar=st.floats(-8.0, 8.0),
        log_shape=st.floats(-3.0, 4.0),
        make=st.sampled_from(
            [GammaFamily, PoissonExponentialFamily, InverseGaussianFamily,
             GaussianLocationFamily]
        ),
    )
    def test_within_tol_or_raises(self, log_n, log_xbar, log_shape, make):
        family, n, xbar = make(10.0**log_shape), round(10.0**log_n), 10.0**log_xbar
        try:
            log_r, _ = _log_ratio_integral(family, n, family.mle(xbar), 1e-10)
        except ExpfamError:
            return
        ref = _mp_log_ratio(family, n, xbar)
        assert abs(log_r - ref) <= 1e-10 * max(1.0, abs(ref))


class TestJeffreysPredictor:
    def test_gamma_one_step_closed_form(self):
        # posterior Gamma(1, x1); predictive x1/(x1+y)^2
        predictor = JeffreysPredictor(GammaFamily(1.0)).fit([1.0])
        assert predictor.log_predictive([1.0]) == pytest.approx(
            math.log(0.25), abs=1e-10
        )
        for x1, y in ((0.5, 2.0), (3.0, 0.7)):
            predictor = JeffreysPredictor(GammaFamily(1.0)).fit([x1])
            assert predictor.log_predictive([y]) == pytest.approx(
                math.log(x1 / (x1 + y) ** 2), abs=1e-9
            )

    def test_gamma_against_quadrature_oracle(self):
        # direct numerator/denominator quadrature, independent of the
        # evidence code path
        x1, y = 1.3, 0.6
        num = integrate(
            lambda b: b * math.exp(-b * y) * x1 * math.exp(-b * x1),
            0.0,
            math.inf,
            tol=1e-12,
        ).value
        predictor = JeffreysPredictor(GammaFamily(1.0)).fit([x1])
        assert predictor.log_predictive([y]) == pytest.approx(
            math.log(num), abs=1e-9
        )

    @pytest.mark.parametrize("kappa", [0.5, 1.3])
    def test_inverse_gaussian_evidence_against_mpmath(self, kappa):
        # the inverse Gaussian evidence is the Bessel closed form, against
        # its parabolic-cylinder form at 30 digits
        family = InverseGaussianFamily(kappa)
        with mp.workdps(30):
            for n in (1, 2, 3, 5, 8, 20, 100, 1000):
                for xbar in (0.05, 0.4, 1.0, 3.0, 20.0):
                    ref = float(_mp_inverse_gaussian_log_evidence(kappa, n, xbar))
                    got = family._log_jeffreys_evidence(n, xbar)
                    assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (n, xbar)

    @pytest.mark.parametrize(
        "family",
        [GammaFamily(0.5), GammaFamily(2.0), PoissonExponentialFamily(0.5),
         PoissonExponentialFamily(2.0), GaussianLocationFamily(0.5),
         GaussianLocationFamily(1.3)],
    )
    def test_ratio_integral_matches_closed_evidence(self, family):
        # evidence = n A*(xbar) + ln R wherever the family has a closed form
        for n in (1, 3, 20, 1000):
            for xbar in (0.05, 1.0, 20.0):
                log_r, _ = _log_ratio_integral(family, n, family.mle(xbar), 1e-12)
                ref = family._log_jeffreys_evidence(n, xbar)
                got = n * family.convex_conjugate(xbar) + log_r
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (n, xbar)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(1e-3, 1e4),
        n=st.integers(1, 10**9),
        xbar=st.floats(1e-8, 1e8),
        future=st.lists(st.floats(1e-8, 1e8), min_size=1, max_size=3),
    )
    def test_gamma_predictive_is_the_evidence_difference(self, alpha, n, xbar, future):
        # bit for bit the difference of the two closed-form evidences, in its
        # order of operations, until a ratio form replaces it
        family, k = GammaFamily(alpha), len(future)
        new = (n * xbar + float(np.sum(future))) / (n + k)
        expected = (
            family._log_jeffreys_evidence(n + k, new)
            - family._log_jeffreys_evidence(n, xbar)
            + sum(family._log_carrier(y) for y in future)
        )
        value = JeffreysPredictor(family).fit(ObservationBatch(n=n, xbar=xbar)).predictive_value(
            future
        )
        assert value.log_density == expected
        assert value.normalizer_error == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(1e-3, 1e4),
        n=st.integers(1, 10**9),
        xbar=st.floats(1e-8, 1e8),
    )
    def test_gamma_evidence_keeps_its_bits(self, alpha, n, xbar):
        # the overflow guard leaves every finite evidence as the one-line form
        expected = (0.5 * math.log(alpha) + math.lgamma(n * alpha)
                    - n * alpha * math.log(n * xbar))
        assert GammaFamily(alpha)._log_jeffreys_evidence(n, xbar) == expected

    @pytest.mark.parametrize("alpha, n", [(2e305, 2), (3e300, 10**5), (2.5e305, 1)])
    def test_gamma_evidence_past_lgamma_raises_domain_error(self, alpha, n):
        # ln Gamma(n alpha) overflows above n alpha = 2.56e305: a raw OverflowError
        # at the predictive (and a traceback on the CLI) before
        fitted = JeffreysPredictor(GammaFamily(alpha)).fit(ObservationBatch(n=n, xbar=1.0))
        with pytest.raises(DomainError, match="overflows at n alpha"):
            fitted.log_predictive([1.0])

    def test_a_family_with_no_closed_form_raises(self):
        # the Family default raises, where it returned None to an evidence difference
        class NoClosedForm(InverseGaussianFamily):
            _log_jeffreys_predictive = Family._log_jeffreys_predictive

        predictor = JeffreysPredictor(NoClosedForm(2.0)).fit([0.5, 1.5])
        with pytest.raises(DomainError, match="no closed-form Jeffreys predictive for NoClosedForm"):
            predictor.log_predictive([0.7])

    def test_gaussian_convolution(self):
        # posterior N(xbar, 1), predictive N(xbar, 2)
        xbar = 0.4
        predictor = JeffreysPredictor(GaussianLocationFamily(1.0)).fit(
            [xbar]
        )
        for y in (-1.0, 0.4, 2.2):
            assert predictor.log_predictive([y]) == pytest.approx(
                math.log(gaussian_pdf(y, xbar, 2.0)), abs=1e-9
            )

    @pytest.mark.parametrize("cov", [0.5, 1.3])
    @pytest.mark.parametrize("future", [(1.7,), (1.7, -0.4, 2.9)])
    def test_gaussian_predictive_against_mpmath(self, cov, future):
        # the reference is the evidence difference at 50 digits, where its
        # O(n) terms cancel without loss; a float evidence difference is off
        # by up to 2e-8 on this grid
        xbar = 0.37
        with mp.workdps(50):
            B, k = mp.mpf(cov), len(future)

            def log_evidence(n, xbar):
                return (mp.log(2 * mp.pi) - mp.log(n)) / 2 + n * xbar**2 / (2 * B)

            ys = [mp.mpf(y) for y in future]
            carriers = sum(-(y**2) / (2 * B) - mp.log(2 * mp.pi * B) / 2 for y in ys)
            for n in (1, 10, 10**4, 10**6, 10**8, 10**9):
                x = mp.mpf(xbar)
                ref = (
                    log_evidence(n + k, (n * x + sum(ys)) / (n + k))
                    - log_evidence(n, x)
                    + carriers
                )
                predictor = JeffreysPredictor(GaussianLocationFamily(cov))
                value = predictor.fit(ObservationBatch(n=n, xbar=xbar)).predictive_value(
                    list(future)
                )
                assert value.log_density == pytest.approx(float(ref), rel=0.0, abs=1e-13), n
                assert value.normalizer_error == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "cov, xbar, future",
        [(1.0, 1e160, [1.0]), (1.0, 1.0, [1e200, -1e200]), (1e-300, 1.0, [1e5])],
        ids=["gap-squared-overflows", "spread-overflows", "quotient-overflows"],
    )
    def test_gaussian_predictive_below_the_float_range_raises(self, cov, xbar, future):
        # (ybar - xbar)^2 raised a raw OverflowError in Python floats; the
        # numpy spread overflowed with a warning and the value was -inf
        predictor = JeffreysPredictor(GaussianLocationFamily(cov))
        predictor.fit(ObservationBatch(n=3, xbar=xbar))
        with pytest.raises(DomainError, match="Jeffreys log density is .*, outside the float range"):
            predictor.log_predictive(future)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "method, message",
        [("cnml", "shift .* leaves the float range"),
         ("jeffreys", "Jeffreys log density is nan, outside the float range"),
         ("plugin", "log density is -inf, outside the float range")],
    )
    def test_far_gaussian_prefix_gets_one_verdict(self, method, message):
        # three observations of 1e160: the plug-in predictive was -inf with no
        # error, and CNML raised NonConvergenceError on a NaN integrand
        predictor = make_predictor(method, GaussianLocationFamily(1.0))
        with pytest.raises(DomainError, match=message):
            predictor.fit([1e160] * 3).predictive_value([1.0])

    def test_gaussian_joint_equals_chained(self):
        # p(y1, y2, y3 | x) = p(y1 | x) p(y2 | x, y1) p(y3 | x, y1, y2)
        family, n, xbar = GaussianLocationFamily(1.3), 7, -0.6
        future = [0.9, -2.1, 0.35]
        joint = JeffreysPredictor(family).fit(ObservationBatch(n=n, xbar=xbar))
        chained = 0.0
        for j, y in enumerate(future):
            seen = ObservationBatch(n=n + j, xbar=(n * xbar + sum(future[:j])) / (n + j))
            chained += JeffreysPredictor(family).fit(seen).log_predictive([y])
        assert joint.log_predictive(future) == pytest.approx(chained, rel=0.0, abs=1e-14)

    def test_gaussian_evidence_d2_matches_ratio_integral(self):
        # evidence = n A*(xbar) + ln R, R = tau^(d/2) times the saddle-point
        # normalizer, here from the whitened trapezoid ratio integral
        family = GaussianLocationFamily([[1.0, 0.3], [0.3, 0.8]])
        for n, xbar in ((1, [0.4, -1.2]), (50, [2.0, 0.5])):
            xbar = np.array(xbar)
            profile = renormalize(family, n, family.mle(xbar), tol=1e-10)
            log_r = math.log(TAU) + math.log(profile.normalizer)
            expected = n * family.convex_conjugate(xbar) + log_r
            got = family._log_jeffreys_evidence(n, xbar)
            assert got == pytest.approx(expected, rel=1e-9, abs=0.0), n

    @staticmethod
    def _one_step_mass(predictor):
        family = predictor.family
        mass = 0.0
        if family.has_atom:
            mass += math.exp(predictor.log_predictive([family.atom_point]))
        mass += integrate_over_support(
            family,
            lambda y: math.exp(predictor.log_predictive([y])),
            tol=1e-9,
            split=float(predictor.batch_.xbar),
        ).value
        return mass

    def test_one_step_normalization_gamma_ten_prefixes(self):
        # the Gamma evidence is closed form, so ten random prefixes are cheap
        rng = np.random.default_rng(41)
        for _ in range(10):
            data = rng.uniform(0.3, 3.0, size=int(rng.integers(1, 5)))
            predictor = JeffreysPredictor(GammaFamily(1.5)).fit(data)
            assert self._one_step_mass(predictor) == pytest.approx(1.0, abs=1e-7)

    def test_one_step_normalization_quadrature_families(self):
        rng = np.random.default_rng(42)
        cases = [
            (GaussianLocationFamily(1.0), lambda: rng.normal(0.0, 1.0, size=2)),
            (GaussianLocationFamily(1.0), lambda: rng.normal(1.0, 2.0, size=3)),
            (PoissonExponentialFamily(2.0), lambda: rng.uniform(0.5, 3.0, size=2)),
            (PoissonExponentialFamily(2.0), lambda: rng.uniform(0.2, 1.0, size=1)),
            (InverseGaussianFamily(2.0), lambda: rng.uniform(0.5, 3.0, size=2)),
            (InverseGaussianFamily(0.3), lambda: rng.uniform(0.2, 1.0, size=1)),
        ]
        for family, draw in cases:
            predictor = JeffreysPredictor(family).fit(draw())
            assert self._one_step_mass(predictor) == pytest.approx(
                1.0, abs=1e-7
            ), family


class TestInverseGaussianClosedForm:
    """The Bessel I_(+-1/4) evidence and predictive against 50-digit mpmath."""

    def test_log_ratio_across_the_north_star_range(self):
        ws = []
        for kappa in (1e-3, 0.1, 2.0, 1e4):
            for n in (1, 3, 10**3, 10**6, 10**9):
                for xbar in (1e-8, 1e-4, 0.3, 1.0, 1e4, 1e8):
                    got = _bessel_log_ratio(kappa, n, xbar)
                    ref = _mp_log_ratio(InverseGaussianFamily(kappa), n, xbar)
                    assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (kappa, n, xbar)
                    ws.append(n * kappa / (4.0 * xbar))
        # both sides of the switch, and past w = 1.07e9, where scipy's ive is NaN
        assert min(ws) < _HANKEL_W < max(ws)
        assert math.isnan(special.ive(0.25, max(ws))) and max(ws) > 1e20

    @pytest.mark.parametrize("w", [1.0, 999.0, _HANKEL_W, 1001.0, 1.07e9, 1e12, 1e20])
    def test_bessel_factor_at_the_switch_and_beyond_scipy(self, w):
        with mp.workdps(50):
            x = mp.mpf(w)
            ref = mp.log(mp.sqrt(mp.pi * x / 2) * mp.exp(-x)
                         * (mp.besseli(-0.25, x) + mp.besseli(0.25, x)))
        assert abs(_log_bessel_factor(w) - float(ref)) <= 5e-16

    @pytest.mark.parametrize("kappa", [1e-3, 2.0, 1e4])
    @pytest.mark.parametrize("future", [(1.0,), (0.05,), (7.0,), (0.3, 2.5)])
    def test_predictive_against_mpmath_to_1e9(self, kappa, future):
        # the evidence difference was 2.6e-8 off at m = 1e8 (kappa 2)
        family, k = InverseGaussianFamily(kappa), len(future)
        for m in (1, 2, 10, 10**3, 10**5, 10**7, 10**8, 10**9):
            for xbar in (1e-3, 1.3, 30.0):
                fitted = JeffreysPredictor(family).fit(ObservationBatch(n=m, xbar=xbar))
                value = fitted.predictive_value(list(future))
                with mp.workdps(50):
                    ys = [mp.mpf(y) for y in future]
                    new = (m * mp.mpf(xbar) + mp.fsum(ys)) / (m + k)
                    ref = float(
                        _mp_inverse_gaussian_log_evidence(kappa, m + k, new)
                        - _mp_inverse_gaussian_log_evidence(kappa, m, xbar)
                        + mp.fsum(
                            (mp.log(kappa) - mp.log(2 * mp.pi) - 3 * mp.log(y)) / 2
                            - mp.mpf(kappa) / (2 * y)
                            for y in ys
                        )
                    )
                assert abs(value.log_density - ref) <= 1e-10 * max(1.0, abs(ref)), (m, xbar)
                assert value.normalizer_error == 0.0

    def test_fit_and_predict_run_no_quadrature(self, monkeypatch):
        def run():
            for n in (1, 10**9):
                fitted = JeffreysPredictor(InverseGaussianFamily(2.0)).fit(
                    ObservationBatch(n=n, xbar=1.3)
                )
                fitted.log_predictive([0.7])
                fitted.log_predictive([0.7, 2.0])

        assert TestValidationCost._count(monkeypatch, run)["integrals"] == 0

    @pytest.mark.filterwarnings("error")
    def test_outside_the_float_range_raises(self):
        # n A*(xbar) = 5e308; n kappa / (4 xbar) underflows to 0; a future
        # sum that overflows.  A fit computes no evidence, so the first two
        # raise at the predictive
        cases = [
            lambda: JeffreysPredictor(InverseGaussianFamily(1e300)).fit(
                ObservationBatch(n=10**9, xbar=1.0)).log_predictive([0.7]),
            lambda: JeffreysPredictor(InverseGaussianFamily(5e-324)).fit(
                ObservationBatch(n=1, xbar=0.5)).log_predictive([0.7]),
            lambda: JeffreysPredictor(InverseGaussianFamily(2.0)).fit(
                ObservationBatch(n=3, xbar=1.0)).log_predictive([1e308, 1e308]),
        ]
        for case in cases:
            with pytest.raises(ExpfamError):
                case()


def _mp_poisson_exp_log_predictive(kappa, n, xbar, future):
    """ln of the Jeffreys predictive at 50 digits, as the difference of two evidences.

    The evidence is sqrt(tau / n) exp(-n sqrt(2 kappa xbar)) (a Bessel K_(1/2)), and
    the carrier of y > 0 is kappa I_1(u) / u with u = sqrt(2 kappa y), 1 at the atom.
    """
    with mp.workdps(50):
        kappa, xbar, ys = mp.mpf(kappa), mp.mpf(xbar), [mp.mpf(y) for y in future]
        k, t = len(ys), n * xbar + mp.fsum(ys)

        def log_evidence(n, x):
            return mp.log(2 * mp.pi / n) / 2 - n * mp.sqrt(2 * kappa * x)

        carriers = mp.fsum(
            mp.log(kappa * mp.besseli(1, mp.sqrt(2 * kappa * y)) / mp.sqrt(2 * kappa * y))
            for y in ys if y != 0
        )
        return float(log_evidence(n + k, t / (n + k)) - log_evidence(n, xbar) + carriers)


class TestPoissonExponentialClosedForm:
    """The Jeffreys predictive as one ratio, against 50-digit mpmath."""

    @pytest.mark.parametrize("kappa", [1e-3, 2.0, 1e4])
    @pytest.mark.parametrize("future", [(1.0,), (0.0,), (0.05,), (7.0,), (0.3, 2.5), (0.0, 1.0)])
    def test_predictive_against_mpmath_to_1e9(self, kappa, future):
        # the evidence difference was 2.8e-8 off at m = 1e9 and reported an error of 0
        family = PoissonExponentialFamily(kappa)
        for m in (1, 2, 10, 10**3, 10**5, 10**7, 10**8, 10**9):
            for xbar in (1e-3, 1.3, 30.0):
                fitted = JeffreysPredictor(family).fit(ObservationBatch(n=m, xbar=xbar))
                value = fitted.predictive_value(list(future))
                ref = _mp_poisson_exp_log_predictive(kappa, m, xbar, future)
                assert abs(value.log_density - ref) <= 1e-13 * max(1.0, abs(ref)), (m, xbar)
                assert value.normalizer_error == 0.0

    def test_no_overflow_where_the_sum_nears_the_float_range(self):
        # (n + k)(n xbar + s) = 1e317 would overflow as one product under the root
        fitted = JeffreysPredictor(PoissonExponentialFamily(2.0)).fit(
            ObservationBatch(n=10**9, xbar=1e299))
        ref = _mp_poisson_exp_log_predictive(2.0, 10**9, 1e299, (1.0, 3.0))
        assert fitted.log_predictive([1.0, 3.0]) == pytest.approx(ref, rel=1e-13)

    def test_fit_and_predict_run_no_quadrature(self, monkeypatch):
        def run():
            for n in (1, 10**9):
                fitted = JeffreysPredictor(PoissonExponentialFamily(2.0)).fit(
                    ObservationBatch(n=n, xbar=1.3)
                )
                fitted.log_predictive([0.7])
                fitted.log_predictive([0.0, 2.0])

        assert TestValidationCost._count(monkeypatch, run)["integrals"] == 0


_CNML_PREFIXES = (
    (GammaFamily(2.5), [0.4, 1.3]),
    (GaussianLocationFamily(0.7), [-0.4, 1.3]),
    (InverseGaussianFamily(2.0), [0.4, 1.3]),
    (PoissonExponentialFamily(2.0), [0.0, 1.3]),
)
#: (family, horizon, prefix) for the CNML integrand's bit-identity test.
#: Horizon 3 and Gamma alpha 100 come after the first eight cases, so each
#: test id keeps its case.
CNML_CASES = (
    [(family, k, prefix) for family, prefix in _CNML_PREFIXES for k in (1, 2)]
    + [(family, 3, prefix) for family, prefix in _CNML_PREFIXES]
    # the carrier lies far below the hindsight shift, which moves to the peak
    + [(GammaFamily(100.0), k, [0.001]) for k in (1, 2, 3)]
)


@functools.lru_cache(maxsize=None)
def _cnml_integrand(case):
    """(fitted predictor, k-fold family, shift, the function QUADPACK is given)."""
    family, k, prefix = CNML_CASES[case]
    predictor = CnmlPredictor(family, horizon=k).fit(prefix)
    n = predictor.batch_.n + k
    captured = []

    def spy(f, *args, **kwargs):
        captured.append(f)
        return integrate(f, *args, **kwargs)

    with mock.patch.object(prediction, "integrate", spy):
        start = predictor._log_hindsight(n * float(predictor.batch_.xbar), n)
        conv = family._convolution_family(k)
        shift, _, _ = predictor._sum_normalizer(n, conv, start)
    (f,) = captured
    return predictor, conv, shift, f


def _outcome(f, x):
    """f(x) as its exact bits, or the type of what it raises."""
    try:
        return float(f(x)).hex()
    except Exception as exc:  # both forms must raise alike
        return type(exc)


class TestCnmlPredictor:
    def test_gamma_one_step_closed_form(self):
        predictor = CnmlPredictor(GammaFamily(1.0), tol=1e-11).fit([1.0])
        assert predictor.log_predictive([1.0]) == pytest.approx(
            math.log(0.25), abs=1e-10
        )

    def test_gamma_denominator_closed_form(self):
        # the equation-level denominator is 4 exp(-2)/x1 for alpha=1, m=1
        for x1 in (0.5, 1.0, 2.7):
            predictor = CnmlPredictor(GammaFamily(1.0), tol=1e-12).fit([x1])
            assert math.exp(predictor.log_normalizer_) == pytest.approx(
                4.0 * math.exp(-2.0) / x1, rel=1e-10
            )

    def test_gaussian_one_step(self):
        xbar = 0.4
        predictor = CnmlPredictor(GaussianLocationFamily(1.0), tol=1e-11).fit([xbar])
        for y in (-0.6, 1.4):
            assert predictor.log_predictive([y]) == pytest.approx(
                math.log(gaussian_pdf(y, xbar, 2.0)), abs=1e-9
            )

    def test_one_step_normalization_ten_prefixes(self):
        # CNML predictive values are closed form given the normalizer, so
        # re-integrating the one-step density is cheap for every family
        rng = np.random.default_rng(43)
        cases = [
            (GammaFamily(1.0), lambda: rng.uniform(0.3, 3.0, size=2)),
            (GaussianLocationFamily(1.0), lambda: rng.normal(0.0, 1.5, size=2)),
            (PoissonExponentialFamily(2.0), lambda: rng.uniform(0.3, 3.0, size=2)),
        ]
        for family, draw in cases:
            for _ in range(10):
                predictor = CnmlPredictor(family, tol=1e-10).fit(draw())
                mass = 0.0
                if family.has_atom:
                    mass += math.exp(predictor.log_predictive([family.atom_point]))
                mass += integrate_over_support(
                    family,
                    lambda y: math.exp(predictor.log_predictive([y])),
                    tol=1e-9,
                    split=float(predictor.batch_.xbar),
                ).value
                assert mass == pytest.approx(1.0, abs=1e-7), family

    @pytest.mark.parametrize("x", [3e5, 1e8])
    def test_poisson_exp_far_prefix_finite(self, x):
        # the atom term lies thousands of e-folds above the old shift; the
        # result must be finite and equal the Jeffreys predictive, whose
        # evidence has the closed form sqrt(2 pi/n) exp(-n sqrt(2 kappa xbar))
        kappa, y = 2.0, 1.0
        value = CnmlPredictor(PoissonExponentialFamily(kappa)).fit([x]).log_predictive([y])

        def log_evidence(n, xbar):
            return 0.5 * math.log(2.0 * math.pi / n) - n * math.sqrt(2.0 * kappa * xbar)

        u = 2.0 * math.sqrt(kappa / 2.0 * y)
        log_carrier = 0.5 * math.log(kappa / 2.0 / y) + math.log(special.i1e(u)) + u
        expected = log_evidence(2, (x + y) / 2.0) - log_evidence(1, x) + log_carrier
        assert math.isfinite(value)
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha,x,y", [(100.0, 1e-3, 1.3e-3), (1000.0, 0.1, 0.13)])
    def test_gamma_peak_far_below_the_shift(self, alpha, x, y):
        # the carrier lies more than the float range below the shift, and the
        # normalizer underflowed to 0; for Gamma, CNML equals Jeffreys
        family = GammaFamily(alpha)
        cnml = CnmlPredictor(family).fit([x]).log_predictive([y])
        jeffreys = JeffreysPredictor(family).fit([x]).log_predictive([y])
        assert cnml == pytest.approx(jeffreys, abs=1e-9)

    def test_poisson_exp_prefix_1e12_fast(self):
        # the normalizer's nodes reach s ~ 1e12, where the carrier must stay cheap
        started = time.perf_counter()
        value = CnmlPredictor(PoissonExponentialFamily(2.0)).fit([1e12]).log_predictive([1.0])
        assert time.perf_counter() - started < 1.0
        expected = oracles.jeffreys_log_predictive("poisson-exp", {"kappa": 2.0}, 1, 1e12, 1.0)
        assert value == pytest.approx(expected, rel=1e-10)

    def test_horizon_mismatch_rejected(self):
        predictor = CnmlPredictor(GammaFamily(1.0), horizon=2).fit([1.0])
        with pytest.raises(DomainError):
            predictor.log_predictive([1.0])

    def test_diverging_normalizer_flagged(self):
        class FlatConjugate(Family):
            """Toy half-line family whose hindsight density has no decay."""

            def in_natural_domain(self, theta):
                return theta < 0

            def in_mean_domain(self, mu):
                return 0 < mu < math.inf

            def in_support(self, x):
                return x > 0

            def _cumulant(self, theta):
                return -math.log(-theta)

            def _mean_from_natural(self, theta):
                return -1.0 / theta

            def _covariance(self, theta):
                return 1.0 / theta**2

            def _mle(self, xbar):
                return -1.0 / xbar

            def _log_carrier(self, x):
                return 0.0

            def _convex_conjugate(self, x):
                return 0.0

        with pytest.raises(NonNormalizableError):
            CnmlPredictor(FlatConjugate(), tol=1e-10).fit([1.0])
        # the probe scales with k xbar, and still sees the flat tail far out
        with pytest.raises(NonNormalizableError):
            CnmlPredictor(FlatConjugate(), tol=1e-10).fit([1e10])
        # near the float range it judges on the points below it, not on NaN
        with pytest.raises(NonNormalizableError):
            CnmlPredictor(FlatConjugate(), tol=1e-10).fit([1e300])

    @staticmethod
    def _probe(predictor):
        """``_diverges`` on the fitted (or failed) predictor's own n, k-fold family and shift."""
        k = predictor._horizon
        n = predictor._m + k
        shift = predictor._log_hindsight(n * predictor._xbar, n)
        return predictor._diverges(n, predictor.family._convolution_family(k), shift)

    @pytest.mark.parametrize("horizon", [1, 2])
    @pytest.mark.parametrize("xbar", [1e10, 1e50, 1e300])
    def test_normalizable_far_prefix_not_declared_divergent(self, xbar, horizon):
        # the Gamma CNML is scale invariant and normalizable at every xbar; the
        # probe at fixed s = 2^10..2^42 lay below the bulk at k xbar and
        # called it divergent.  Where QUADPACK fails, that is NonConvergenceError
        predictor = CnmlPredictor(GammaFamily(1.0), horizon=horizon)
        try:
            predictor.fit(ObservationBatch(n=3, xbar=xbar))
        except NonConvergenceError:
            pass
        assert not self._probe(predictor)
        if horizon == 1:
            with pytest.raises(NonConvergenceError):
                predictor.fit(ObservationBatch(n=3, xbar=xbar))

    @pytest.mark.parametrize("xbar", [0.0, -3.0])
    def test_probe_on_the_real_line_at_a_nonpositive_mean(self, xbar):
        # k xbar = 0 probes at unit scale, a negative one at its size on the
        # positive side; an unattainable tol makes the fit run the probe
        with pytest.raises(NonConvergenceError):
            CnmlPredictor(GaussianLocationFamily(1.0), tol=1e-30).fit([xbar])

    @pytest.mark.parametrize("xbar", [1e-3, 1.0, 1e7])
    def test_probe_unchanged_near_unit_scale(self, xbar):
        predictor = CnmlPredictor(GammaFamily(1.0)).fit(ObservationBatch(n=3, xbar=xbar))
        assert not self._probe(predictor)

    @pytest.mark.parametrize("case", range(len(CNML_CASES)))
    @settings(max_examples=100, deadline=None)
    @given(
        v=st.one_of(
            st.sampled_from([0.0, 1e-170, 1e150, -1e150, 1e160, math.inf, -math.inf]),
            st.floats(-1e200, 1e200),
        ),
    )
    def test_integrand_bits_equal_the_hindsight_form(self, case, v):
        # the closure _sum_normalizer builds once per fit gives, node by node,
        # the bits of exp(_log_hindsight + carrier - shift), raising where it
        # raises; v = 1e150 puts s at 1e300, and v = 1e160 or s = inf takes
        # (base + s)/n out of the mean domain
        predictor, conv, shift, f = _cnml_integrand(case)
        n = predictor.batch_.n + predictor._horizon
        base = predictor.batch_.n * float(predictor.batch_.xbar)

        def expected(v):
            def g(s):
                log_h = predictor._log_hindsight(base + s, n)
                return math.exp(log_h + conv._log_carrier(s) - shift)

            if conv.support_domain == core.POSITIVE_HALF_LINE:
                return 2.0 * v * g(v * v)  # the half line's v^2 substitution
            return g(v)

        if conv.support_domain == core.POSITIVE_HALF_LINE:
            v = abs(v)  # QUADPACK runs v over [0, inf)
        assert _outcome(f, v) == _outcome(expected, v)


#: CNML (log_density, normalizer_error) reprs through the whole QUADPACK
#: path: fit then predictive_value of [y, 0.8, 1.5][:k].  Captured before the
#: families' one-frame kernels went in; moving the normalizer to another
#: rule moves these figures, and they are then captured anew on purpose.
CNML_PIPELINE = [
    ("gamma", 1, 1, 0.4, 1.3, "-1.9416335988928974", "8.98721550350512e-12"),
    ("gamma", 1, 7, 1.7, 0.2, "-1.9647574978698668", "3.060535581456981e-11"),
    ("gamma", 1, 1000000, 0.9, 2.2, "-2.65897771386517", "2.77972398431823e-12"),
    ("gamma", 2, 1, 0.4, 1.3, "-2.4237606236716536", "2.226652071103372e-13"),
    ("gamma", 2, 7, 1.7, 0.2, "-2.6775665404225055", "4.946854222201771e-12"),
    ("gamma", 2, 1000000, 0.9, 2.2, "-2.9464709008607315", "1.0068851466506112e-12"),
    ("gamma", 3, 1, 0.4, 1.3, "-3.8235457108023336", "1.6038691186740871e-09"),
    ("gamma", 3, 7, 1.7, 0.2, "-3.6323918052069146", "3.749402645009014e-11"),
    ("gamma", 3, 1000000, 0.9, 2.2, "-4.235492378975323", "1.2655564240810657e-11"),
    ("gaussian", 1, 1, -0.6, 1.3, "-2.3764603658009937", "3.686602755905596e-12"),
    ("gaussian", 1, 7, 0.7, -0.2, "-1.313616757547568", "3.7617119955572973e-13"),
    ("gaussian", 1, 1000000, -0.1, 2.2, "-4.519169211238477", "1.2645898844196547e-13"),
    ("gaussian", 2, 1, -0.6, 1.3, "-3.416222552518954", "8.367255903903126e-12"),
    ("gaussian", 2, 7, 0.7, -0.2, "-2.1417799715316996", "1.4661052139063835e-11"),
    ("gaussian", 2, 1000000, -0.1, 2.2, "-5.838338665341325", "3.6867865746856806e-12"),
    ("gaussian", 3, 1, -0.6, 1.3, "-4.836378935694436", "2.1527141167253435e-11"),
    ("gaussian", 3, 7, 0.7, -0.2, "-3.4429977985324287", "6.052018980540232e-11"),
    ("gaussian", 3, 1000000, -0.1, 2.2, "-8.407502512324754", "6.450497548754871e-12"),
    ("inverse-gaussian", 1, 1, 0.4, 1.3, "-2.283381681608062", "2.6611610752914554e-10"),
    ("inverse-gaussian", 1, 7, 1.7, 0.2, "-2.06208586287022", "5.316645511234228e-13"),
    ("inverse-gaussian", 1, 1000000, 0.9, 2.2, "-2.703421780373901", "1.3377716125249787e-11"),
    ("inverse-gaussian", 2, 1, 0.4, 1.3, "-2.744037740601107", "6.91277328670965e-10"),
    ("inverse-gaussian", 2, 7, 1.7, 0.2, "-2.6254722523192866", "7.437578196823158e-13"),
    ("inverse-gaussian", 2, 1000000, 0.9, 2.2, "-2.9565043377224356", "1.037030879856777e-10"),
    ("inverse-gaussian", 3, 1, 0.4, 1.3, "-4.343590629613238", "1.752595264482285e-08"),
    ("inverse-gaussian", 3, 7, 1.7, 0.2, "-3.865256550088503", "1.5945969794048452e-12"),
    ("inverse-gaussian", 3, 1000000, 0.9, 2.2, "-4.433361270232126", "4.874250730739439e-10"),
    ("poisson-exp", 1, 1, 0.4, 0.0, "-0.8705169082124526", "9.492823311647625e-13"),
    ("poisson-exp", 1, 7, 1.7, 0.2, "-1.3920104049506108", "5.855211214617729e-13"),
    ("poisson-exp", 1, 1000000, 0.9, 2.2, "-2.3175589165184647", "5.599352126371256e-12"),
    ("poisson-exp", 2, 1, 0.4, 0.0, "-2.7027247393755918", "1.0478376730340958e-12"),
    ("poisson-exp", 2, 7, 1.7, 0.2, "-2.947042182969053", "4.853196744932648e-12"),
    ("poisson-exp", 2, 1000000, 0.9, 2.2, "-3.7331132972612977", "6.76510430968527e-12"),
    ("poisson-exp", 3, 1, 0.4, 0.0, "-4.950138162896009", "1.3439656813843494e-11"),
    ("poisson-exp", 3, 7, 1.7, 0.2, "-4.7754153349509885", "3.4394643427746755e-11"),
    ("poisson-exp", 3, 1000000, 0.9, 2.2, "-5.588570287916809", "9.200240712872725e-12"),
]
_PIPELINE_FAMILIES = {
    "gamma": GammaFamily(2.5),
    "gaussian": GaussianLocationFamily(0.7),
    "inverse-gaussian": InverseGaussianFamily(2.0),
    "poisson-exp": PoissonExponentialFamily(2.0),
}


@pytest.mark.parametrize(
    "family,k,m,xbar,y,log_density,normalizer_error", CNML_PIPELINE,
    ids=[f"{row[0]}-k{row[1]}-m{row[2]}" for row in CNML_PIPELINE],
)
def test_cnml_pipeline_keeps_its_bits(family, k, m, xbar, y, log_density, normalizer_error):
    predictor = CnmlPredictor(_PIPELINE_FAMILIES[family], horizon=k)
    value = predictor.fit(ObservationBatch(n=m, xbar=xbar)).predictive_value(
        [y, 0.8, 1.5][:k]
    )
    assert (repr(value.log_density), repr(value.normalizer_error)) == (
        log_density, normalizer_error
    )


class TestPlugInPredictor:
    def test_gamma_value(self):
        predictor = PlugInPredictor(GammaFamily(1.0)).fit([1.0])
        assert predictor.log_predictive([1.0]) == pytest.approx(-1.0)

    def test_density_nonnegative(self):
        predictor = PlugInPredictor(GammaFamily(2.0)).fit([1.0, 2.0])
        for y in (0.2, 1.0, 5.0):
            assert math.exp(predictor.log_predictive([y])) >= 0.0

    def test_minimax_comparison(self):
        # worst-case regret of the plug-in dominates worst-case CNML regret
        # over 100 random Gamma sequences
        family = GammaFamily(1.0)
        rng = np.random.default_rng(42)
        worst_plugin = -math.inf
        worst_cnml = -math.inf
        for _ in range(100):
            seq = rng.gamma(1.0, 1.0, size=2) + 0.05
            worst_plugin = max(worst_plugin, regret(family, "plugin", seq, 1))
            worst_cnml = max(worst_cnml, regret(family, "cnml", seq, 1, tol=1e-9))
        assert worst_plugin >= worst_cnml

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cov", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize(
        "xbar, y",
        [(0.37, 1.7), (-2.0, 3.5), (1e8, 1e8 + 3.0), (1e160, 1e160), (-1e160, -1e160 - 2e144),
         (1e300, 1e300)],
    )
    def test_gaussian_against_mpmath(self, cov, xbar, y):
        # the normal log density at the fitted mean B theta_hat, in 50 digits;
        # a power-of-two cov makes that mean exact in floats.  theta y - A(theta)
        # was inf - inf from |xbar| 1.3e154, and the plug-in raised on the NaN
        family = GaussianLocationFamily(cov)
        got = PlugInPredictor(family).fit(ObservationBatch(n=3, xbar=xbar)).log_predictive([y])
        with mp.workdps(50):
            B = mp.mpf(cov)
            mean = B * mp.mpf(family.mle(xbar))
            ref = -((mp.mpf(y) - mean) ** 2) / (2 * B) - mp.log(2 * mp.pi * B) / 2
        assert got == pytest.approx(float(ref), rel=4e-16, abs=4e-16)


class TestRegret:
    def test_cnml_regret_constant_over_future(self):
        # regret of CNML depends on the prefix only
        family = GammaFamily(1.0)
        x1 = 1.0
        values = [
            regret(family, "cnml", [x1, x2], 1, tol=1e-12)
            for x2 in (0.2, 0.7, 1.0, 3.0, 8.0)
        ]
        expected = math.log(4.0 * math.exp(-2.0) / x1)
        spread = (max(values) - min(values)) / abs(np.median(values))
        assert spread <= 1e-9
        assert values[0] == pytest.approx(expected, abs=1e-10)

    def test_jeffreys_equals_cnml_regret(self):
        family = GammaFamily(1.0)
        for x1, x2 in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.3)):
            r_j = regret(family, "jeffreys", [x1, x2], 1, tol=1e-11)
            r_c = regret(family, "cnml", [x1, x2], 1, tol=1e-11)
            assert r_j == pytest.approx(r_c, abs=1e-8)

    def test_plugin_excess_regret_minimized_at_repeat(self):
        # the plug-in's regret excess over CNML is smallest when the future
        # repeats the prefix mean
        family = GammaFamily(1.0)
        x1 = 1.0
        excess = {
            x2: regret(family, "plugin", [x1, x2], 1)
            - regret(family, "cnml", [x1, x2], 1, tol=1e-11)
            for x2 in (0.4, 0.8, 1.0, 1.3, 2.5)
        }
        assert min(excess, key=excess.get) == x1

    def test_bad_split_rejected(self):
        with pytest.raises(DomainError):
            regret(GammaFamily(1.0), "cnml", [1.0, 2.0], 0)
        with pytest.raises(DomainError):
            regret(GammaFamily(1.0), "cnml", [1.0, 2.0], 2)


#: non-diagonal covariances for the d > 1 Gaussian location family
COV_2D = np.array([[1.0, 0.3], [0.3, 0.8]])
COV_3D = np.array([[2.0, 0.5, 0.3], [0.5, 1.5, -0.4], [0.3, -0.4, 1.0]])


class TestLemma1Constancy:
    def test_gamma_closed_form_constant(self):
        # integral = Gamma(n) e^n / n^n, independent of the data
        family = GammaFamily(1.0)
        batches = [ObservationBatch(n=2, xbar=s / 2.0) for s in (0.5, 1.0, 2.0, 10.0)]
        report = lemma1_constancy(family, 2, batches, tol=1e-12)
        expected = math.gamma(2) * math.e**2 / 4.0
        assert report.relative_spread <= 1e-8
        for value in report.values:
            assert value == pytest.approx(expected, abs=1e-8)
        # the constant rounds to the quoted 1.8472641 at the 1e-7 scale
        assert expected == pytest.approx(1.8472641, abs=1e-7)

    def test_gaussian_constant(self):
        family = GaussianLocationFamily(1.0)
        batches = [ObservationBatch(n=3, xbar=x) for x in (-2.0, 0.1, 1.7)]
        report = lemma1_constancy(family, 3, batches, tol=1e-12)
        assert report.relative_spread <= 1e-9
        assert report.values[0] == pytest.approx(
            math.sqrt(2.0 * math.pi / 3.0), abs=1e-9
        )

    @pytest.mark.parametrize("cov", [COV_2D, COV_3D], ids=["d2", "d3"])
    @pytest.mark.parametrize("n", [1, 3, 10**3, 10**9])
    def test_gaussian_constant_above_d1(self, cov, n):
        # R = (tau/n)^(d/2) whatever the data; the stack shares one ratio integral
        family = GaussianLocationFamily(cov)
        d = family.d
        xbars = (np.linspace(-1.0, 2.0, d), np.full(d, 1e3), -np.arange(1.0, d + 1.0))
        batches = [ObservationBatch(n=n, xbar=x) for x in xbars]
        report = lemma1_constancy(family, n, batches)
        for value in report.values:
            assert value == pytest.approx((TAU / n) ** (d / 2), rel=1e-12, abs=0)
        assert report.relative_spread <= 1e-12

    def test_raw_sequences_at_d2(self):
        family = GaussianLocationFamily(COV_2D)
        sequences = ([[0.1, 0.2], [0.3, -0.5]], [[2.0, 1.0], [-1.0, 4.0]])
        report = lemma1_constancy(family, 2, sequences)
        assert report.values == pytest.approx([TAU / 2.0] * 2, rel=1e-12)

    def test_poisson_exponential_constant(self):
        family = PoissonExponentialFamily(2.0)
        batches = [ObservationBatch(n=2, xbar=x) for x in (0.4, 1.0, 2.5, 6.0)]
        report = lemma1_constancy(family, 2, batches, tol=1e-11)
        assert report.relative_spread <= 1e-8

    @pytest.mark.parametrize(
        "family",
        [GammaFamily(2.0), GaussianLocationFamily(1.0), InverseGaussianFamily(1.3),
         PoissonExponentialFamily(2.0)],
    )
    def test_values_are_saddlepoint_normalizers(self, family):
        # Lemma 1's ratio integral is sqrt(tau) times the d = 1 normalizer
        xbars = (0.4, 1.0, 3.0)
        report = lemma1_constancy(family, 3, [ObservationBatch(n=3, xbar=x) for x in xbars])
        for xbar, value in zip(xbars, report.values):
            profile = renormalize(family, 3, family.mle(xbar))
            expected = math.sqrt(TAU) * profile.normalizer
            assert value == pytest.approx(expected, rel=1e-14)

    def test_no_sequences_rejected(self):
        with pytest.raises(DomainError):
            lemma1_constancy(GammaFamily(1.0), 2, [])

    def test_wrong_length_rejected(self):
        with pytest.raises(DomainError):
            lemma1_constancy(
                GammaFamily(1.0), 3, [ObservationBatch(n=2, xbar=1.0)], tol=1e-10
            )


class TestEquivalence:
    @pytest.mark.parametrize(
        "family,prefixes,futures",
        [
            (GammaFamily(1.0), (0.3, 1.0, 4.0), (0.2, 1.0, 5.0)),
            (GaussianLocationFamily(1.0), (-1.0, 0.5), (-2.0, 0.0, 1.5)),
            (PoissonExponentialFamily(2.0), (0.5, 2.0), (0.0, 0.7, 3.0)),
        ],
    )
    def test_one_step_equivalence(self, family, prefixes, futures):
        for m in (1, 2):
            worst = equivalence_check(family, m, m + 1, prefixes, futures, tol=1e-10)
            assert worst <= 1e-6

    def test_two_step_equivalence_gamma(self):
        family = GammaFamily(1.0)
        suffixes = [(0.5, 1.5), (1.0, 1.0), (2.0, 0.3)]
        worst = equivalence_check(family, 1, 3, (0.7, 2.0), suffixes, tol=1e-9)
        assert worst <= 1e-6

    def test_permutation_invariance(self):
        # predictive depends on the prefix only through (m, xbar)
        family = GammaFamily(2.0)
        a = JeffreysPredictor(family).fit([0.5, 2.0, 1.1])
        b = JeffreysPredictor(family).fit([1.1, 0.5, 2.0])
        assert a.log_predictive([1.4]) == b.log_predictive([1.4])
        c = CnmlPredictor(family, tol=1e-10).fit([0.5, 2.0, 1.1])
        d = CnmlPredictor(family, tol=1e-10).fit([2.0, 1.1, 0.5])
        assert c.log_predictive([1.4]) == d.log_predictive([1.4])

    def test_suffix_length_validated(self):
        with pytest.raises(DomainError):
            equivalence_check(GammaFamily(1.0), 1, 3, (1.0,), (1.0,), tol=1e-9)


_GRID_FAMILIES = (
    (GammaFamily(2.5), (0.4, 1.3), (0.2, 1.0, 5.0)),
    (GaussianLocationFamily(0.7), (-0.4, 1.3), (-2.0, 0.0, 1.5)),
    (InverseGaussianFamily(2.0), (0.4, 1.3), (0.2, 1.0, 5.0)),
    (PoissonExponentialFamily(2.0), (0.5, 1.3), (0.0, 0.7, 3.0)),
)


def _grid(points, horizon):
    """The points as scalars at horizon 1, else every ordered pair of them (horizon 2)."""
    return points if horizon == 1 else [(a, b) for a in points for b in points]


class TestScoringThroughTheFit:
    """The grid scorers check their grid once and score through the fitted predictors."""

    @pytest.mark.parametrize("family, prefixes, points", _GRID_FAMILIES)
    @pytest.mark.parametrize("horizon", [1, 2])
    def test_equivalence_statistic_is_the_public_maximum(self, family, prefixes, points,
                                                          horizon):
        grid, m = _grid(points, horizon), 2
        expected = 0.0
        for xbar in prefixes:
            batch = ObservationBatch(n=m, xbar=xbar)
            jeffreys = JeffreysPredictor(family).fit(batch)
            cnml = CnmlPredictor(family, horizon=horizon, tol=1e-10).fit(batch)
            for entry in grid:
                delta = abs(cnml.log_predictive(entry) - jeffreys.log_predictive(entry))
                expected = max(expected, delta)
        got = equivalence_check(family, m, m + horizon, prefixes, grid, tol=1e-10)
        assert repr(got) == repr(expected)

    @pytest.mark.parametrize("family, prefixes, points", _GRID_FAMILIES)
    @pytest.mark.parametrize("method", ["jeffreys", "cnml", "plugin"])
    def test_score_samples_is_the_public_predictive(self, family, prefixes, points, method):
        fitted = make_predictor(method, family).fit(ObservationBatch(n=3, xbar=prefixes[1]))
        expected = [fitted.predictive_value([y]).log_density for y in points]
        assert repr(fitted.score_samples(points).tolist()) == repr(expected)

    @pytest.mark.parametrize("size", [3, 30])
    def test_a_grid_is_checked_once(self, monkeypatch, size):
        # each (prefix, entry) pair checked its future twice, CNML's and Jeffreys'
        family = GammaFamily(1.0)
        points = np.geomspace(0.2, 5.0, size)
        fitted = JeffreysPredictor(family).fit([0.5, 1.5])

        def samples(run):
            return TestValidationCost._count(monkeypatch, run)["samples"]

        assert samples(lambda: equivalence_check(family, 1, 2, (0.5, 2.0), points)) == 1
        pairs = _grid(points[:size // 3], 2)
        assert samples(lambda: equivalence_check(family, 1, 3, (0.5, 2.0), pairs)) == 1
        assert samples(lambda: fitted.score_samples(points)) == 1

    @pytest.mark.parametrize(
        "m, n, grid, error, message",
        [
            (1, 2, ["a"], DomainError, "must be numbers"),
            (1, 2, [1.0, math.nan], SupportError, "nan is outside the support"),
            (1, 2, [1.0, -1.0], SupportError, r"-1\.0 is outside the support"),
            (1, 3, [(0.5, 1.0), (-1.0, 2.0)], SupportError, r"-1\.0 is outside the support"),
            (1, 3, [1.0, 2.0], DomainError, "entries must be 2 points each"),
            (1, 2, [(1.0, 2.0)], DomainError, "entries must be 1 points each"),
            (1, 3, [(0.5, 1.0), (1.0,)], DomainError, "must be numbers"),
            (1, 3, [(1e308, 1e308)], DomainError, "leaves the float range"),
        ],
        ids=["string", "nan", "outside", "outside-in-suffix", "short", "long", "ragged",
             "sum-overflows"],
    )
    def test_a_bad_entry_still_raises(self, m, n, grid, error, message):
        # a NaN or an outside point is a SupportError, as each point's check gave
        with pytest.raises(error, match=message):
            equivalence_check(GammaFamily(1.0), m, n, (1.0,), grid)

    def test_each_prefix_still_checks_its_total(self):
        # m xbar + sum(future) is checked per (prefix, entry): 1e308 + 1e308 overflows
        with pytest.raises(DomainError, match="leaves the float range"):
            equivalence_check(GammaFamily(1.0), 1, 2, (1.0, 1e308), (1e308,))

    @pytest.mark.parametrize(
        "Y, error, message",
        [(["a"], DomainError, "must be numbers"), ([1.0, math.nan], SupportError, "nan"),
         ([1.0, -1.0], SupportError, "outside the support"),
         ([[1.0, 2.0]], DomainError, "entries must be 1 points each"),
         ([1.0, 1e308], DomainError, "leaves the float range")],
        ids=["string", "nan", "outside", "two-points", "total-overflows"],
    )
    def test_score_samples_still_rejects_a_bad_point(self, Y, error, message):
        fitted = JeffreysPredictor(GammaFamily(1.0)).fit(ObservationBatch(n=1, xbar=1e308))
        with pytest.raises(error, match=message):
            fitted.score_samples(Y)

    def test_the_grid_is_checked_before_any_prefix(self):
        # each entry was checked inside the prefix loop: a bad prefix raised
        # first, and with no prefixes a bad or empty grid returned 0.0
        family = GammaFamily(1.0)
        with pytest.raises(SupportError, match="outside the support"):
            equivalence_check(family, 1, 2, (-1.0,), (-1.0,))
        with pytest.raises(DomainError, match="outside the mean domain"):
            equivalence_check(family, 1, 2, (-1.0,), (1.0,))
        with pytest.raises(DomainError, match="must be numbers"):
            equivalence_check(family, 1, 2, (), ("a",))

    def test_an_empty_grid_raises(self):
        # an empty grid returned 0.0, and an empty score_samples an empty array
        with pytest.raises(DomainError, match="got shape"):
            equivalence_check(GammaFamily(1.0), 1, 2, (1.0,), ())
        with pytest.raises(DomainError, match="got shape"):
            JeffreysPredictor(GammaFamily(1.0)).fit([1.0]).score_samples([])


#: the families, methods and sequence of the pinned score grid
_PINNED_FAMILIES = {
    "gamma-1": GammaFamily(1.0), "gamma-2.5": GammaFamily(2.5),
    "gaussian": GaussianLocationFamily(1.0), "inverse-gaussian": InverseGaussianFamily(2.0),
    "poisson-exp": PoissonExponentialFamily(2.0),
}
_METHODS = ("jeffreys", "cnml", "plugin")
_SEQUENCE = (0.4, 1.7, 0.9, 1.3, 0.6)


def _score_grid():
    """(key, value) of every scoring entry point over five families, m in {1, 3, 100},
    xbar in {0.4, 1.7}, horizons 1-3 and the three methods."""
    for name, family in _PINNED_FAMILIES.items():
        for m in (1, 3, 100):
            for xbar in (0.4, 1.7):
                batch = ObservationBatch(n=m, xbar=xbar)
                for h in (1, 2, 3):
                    for method in _METHODS:
                        fitted = make_predictor(method, family, horizon=h).fit(batch)
                        key = f"{name}/{method}/m={m}/xbar={xbar}/h={h}"
                        yield f"predictive_value/{key}", fitted.predictive_value(_SEQUENCE[2:2 + h])
                        if h == 1:
                            yield f"score_samples/{key}", fitted.score_samples([0.5, 2.0]).tolist()
            for h, grid in ((1, [0.5, 2.0]), (2, [[0.5, 2.0], [1.1, 0.3]])):
                yield (f"equivalence_check/{name}/m={m}/h={h}",
                       equivalence_check(family, m, m + h, [0.4, 1.7], grid))
        for method in _METHODS:
            for m in (1, 2, 3, 4):
                yield f"regret/{name}/{method}/m={m}", regret(family, method, _SEQUENCE, m)


class _StubClosedForm(GammaFamily):
    """A Gamma family whose Jeffreys closed form gives ``result`` or raises it."""

    def __init__(self, alpha=1.0, result=0.0):
        super().__init__(alpha)
        self.result = result

    def _log_jeffreys_predictive(self, n, xbar, future):
        if isinstance(self.result, type):
            raise self.result("stub")
        return self.result


class TestOneScoringPath:
    """Every predictive value goes through ``_score``, the one check that it is a float."""

    def test_scores_keep_their_bits(self):
        # tests/score_grid.json holds the repr of each value as
        # json.dump({key: repr(value) for key, value in _score_grid()}) wrote it;
        # a change to any closed form's arithmetic, or to what is scored, shows here
        pinned = json.loads((Path(__file__).parent / "score_grid.json").read_text())
        assert {key: repr(value) for key, value in _score_grid()} == pinned

    def test_score_is_the_only_caller_of_log_predictive(self, monkeypatch):
        counts = {"score": 0, "log_predictive": 0, "outside": 0}
        depth = []
        real_score = prediction._PredictorBase._score

        def score(self, future, future_sum):
            counts["score"] += 1
            depth.append(self)
            try:
                return real_score(self, future, future_sum)
            finally:
                depth.pop()

        monkeypatch.setattr(prediction._PredictorBase, "_score", score)
        for P in (JeffreysPredictor, CnmlPredictor, PlugInPredictor):
            def log_predictive(self, future, real=P._log_predictive):
                counts["log_predictive"] += 1
                counts["outside"] += not depth
                return real(self, future)

            monkeypatch.setattr(P, "_log_predictive", log_predictive)
        family = GammaFamily(1.5)
        for method in _METHODS:
            fitted = make_predictor(method, family).fit([1.0, 2.0])
            fitted.predictive_value([0.5])
            fitted.log_predictive([0.5])
            fitted.score_samples([0.5, 1.0, 2.0])
            regret(family, method, [1.0, 2.0, 0.5], 2)
        equivalence_check(family, 1, 2, [0.5, 1.5], [0.5, 2.0])
        # 6 scores per method, and 2 prefixes x 2 entries x 2 predictors
        assert counts == {"score": 3 * 6 + 8, "log_predictive": 3 * 6 + 8, "outside": 0}

    @pytest.mark.parametrize(
        "result, shown",
        [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
         (OverflowError, "nan"), (ZeroDivisionError, "nan")],
        ids=["inf", "minus-inf", "nan", "overflow", "zero-division"],
    )
    def test_a_score_that_is_no_float_raises_naming_the_method(self, result, shown):
        fitted = JeffreysPredictor(_StubClosedForm(result=result)).fit([1.0])
        message = f"the Jeffreys log density is {shown}, outside the float range"
        for score in (lambda: fitted.log_predictive([1.0]),
                      lambda: fitted.score_samples([1.0]),
                      lambda: regret(fitted.family, "jeffreys", [1.0, 1.0], 1)):
            with pytest.raises(DomainError, match=message):
                score()

    def test_inverse_gaussian_cnml_far_future_raises(self):
        # the hindsight MLE at (1 + 1e300) / 2 squares past the floats: a raw OverflowError
        fitted = CnmlPredictor(InverseGaussianFamily(2.0)).fit([1.0])
        with pytest.raises(DomainError, match="the CNML log density is nan"):
            fitted.predictive_value([1e300])
        with pytest.raises(DomainError, match="the CNML log density is nan"):
            equivalence_check(InverseGaussianFamily(2.0), 1, 2, [1.0], [1e300])

    def test_regret_reads_a_sequence_not_a_batch(self):
        # a batch has no suffix to score: it raised a raw TypeError
        with pytest.raises(DomainError, match="observations must be numbers"):
            regret(GammaFamily(1.0), "jeffreys", ObservationBatch(n=3, xbar=1.0), 1)

    def test_no_prefix_means_raises(self):
        # it returned 0.0, a pass under any threshold with nothing compared
        with pytest.raises(DomainError, match="prefix means must be a nonempty 1-d sequence"):
            equivalence_check(GammaFamily(1.0), 1, 2, [], [1.0])


class TestHorizonOneReusesItsFamily:
    @pytest.mark.parametrize("family, prefix", _CNML_PREFIXES)
    def test_convolution_calls(self, family, prefix):
        with mock.patch.object(
            type(family), "_convolution_family", autospec=True,
            side_effect=type(family)._convolution_family,
        ) as conv:
            CnmlPredictor(family, horizon=1).fit(prefix)
            assert conv.call_count == 0
            CnmlPredictor(family, horizon=2).fit(prefix)
            assert [c.args[1:] for c in conv.call_args_list] == [(2,)]

    @pytest.mark.parametrize("family, prefix", _CNML_PREFIXES)
    def test_same_bits_as_the_one_fold_copy(self, family, prefix):
        fitted = CnmlPredictor(family, horizon=1).fit(prefix)
        copy = family._convolution_family(1)
        assert copy is not family
        # the fit's normalizer, forced through the copy
        forced = CnmlPredictor(family, horizon=1).fit(prefix)
        n = forced._m + 1
        start = forced._log_hindsight(n * forced._xbar, n)
        shift, value, err = forced._sum_normalizer(n, copy, start)
        forced.log_normalizer_, forced._normalizer_rel_err = shift + math.log(value), err / value
        assert repr(forced.log_normalizer_) == repr(fitted.log_normalizer_)
        for y in (0.0 if family.has_atom else 0.3, 1.0, 2.7):
            assert repr(forced.predictive_value([y])) == repr(fitted.predictive_value([y]))


class TestMultiStepHorizon:
    def test_joint_equals_chained_one_steps(self):
        # for the exact families CNML is Bayesian, so the joint suffix
        # density must factor through one-step conditionals
        family = GammaFamily(1.0)
        suffix = [1.0, 0.8, 1.2]
        joint = CnmlPredictor(family, horizon=3, tol=1e-11).fit([1.0])
        lp_joint = joint.log_predictive(suffix)
        prefix = [1.0]
        chained = 0.0
        for y in suffix:
            step = CnmlPredictor(family, horizon=1, tol=1e-11).fit(prefix)
            chained += step.log_predictive([y])
            prefix = prefix + [y]
        assert lp_joint == pytest.approx(chained, abs=1e-8)

    def test_normalizer_against_importance_sampling_oracle(self):
        # D = E_plugin[exp(n A*(xbar_n) - sum(theta_hat u_j - A(theta_hat)))]
        # with u drawn from the plug-in predictive; carriers cancel exactly
        family = GammaFamily(1.0)
        k, m = 2, 1
        predictor = CnmlPredictor(family, horizon=k, tol=1e-11).fit([1.0])
        theta_hat = family.mle(1.0)
        rng = np.random.default_rng(3)
        draws = rng.gamma(1.0, scale=-1.0 / theta_hat, size=(400_000, k))
        sums = draws.sum(axis=1)
        n = m + k
        log_w = np.array(
            [
                n * family.convex_conjugate((1.0 + s) / n)
                - (theta_hat * s - k * family.cumulant(theta_hat))
                for s in sums
            ]
        )
        shift = log_w.max()
        w = np.exp(log_w - shift)
        estimate = shift + math.log(w.mean())
        se = float(np.std(w, ddof=1) / (w.mean() * math.sqrt(w.size)))
        assert predictor.log_normalizer_ == pytest.approx(
            estimate, abs=4.0 * se
        )


class TestEstimatorSurface:
    def test_fit_returns_self_and_params(self):
        predictor = CnmlPredictor(GammaFamily(1.0), horizon=2, tol=1e-9)
        assert predictor.fit([1.0]) is predictor
        params = predictor.get_params()
        assert params["horizon"] == 2 and params["tol"] == 1e-9

    @pytest.mark.parametrize("predictor", [JeffreysPredictor, PlugInPredictor])
    def test_closed_form_predictors_take_no_tol(self, predictor):
        family = GammaFamily(1.0)
        assert predictor(family).get_params() == {"family": family}

    def test_unfitted_query_rejected(self):
        with pytest.raises(DomainError):
            JeffreysPredictor(GammaFamily(1.0)).predictive_value([1.0])

    def test_score_samples_shape(self):
        predictor = PlugInPredictor(GammaFamily(1.0)).fit([1.0, 2.0])
        scores = predictor.score_samples([0.5, 1.0, 2.0])
        assert scores.shape == (3,)

    def test_make_predictor_dispatch(self):
        assert isinstance(
            make_predictor("jeffreys", GammaFamily(1.0)), JeffreysPredictor
        )
        with pytest.raises(DomainError):
            make_predictor("bayes", GammaFamily(1.0))

    def test_degenerate_prefix_rejected(self):
        with pytest.raises(DegenerateDataError):
            JeffreysPredictor(PoissonExponentialFamily(2.0)).fit([0.0, 0.0])

    def test_support_validated(self):
        with pytest.raises(Exception):
            JeffreysPredictor(GammaFamily(1.0)).fit([1.0, -2.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["cnml", "jeffreys", "plugin"])
    @pytest.mark.parametrize(
        "family",
        [GammaFamily(1.0), GaussianLocationFamily(1.0), InverseGaussianFamily(2.0),
         PoissonExponentialFamily(2.0)],
        ids=lambda f: type(f).__name__,
    )
    def test_future_whose_sum_overflows_rejected(self, method, family):
        # CNML and plug-in returned -inf (CNML reporting normalizer_error
        # 1e-12), and numpy warned of an overflow in the sum before any error
        predictor = make_predictor(method, family, horizon=2)
        predictor.fit(ObservationBatch(n=3, xbar=1.0))
        with pytest.raises(DomainError, match="leaves the float range"):
            predictor.predictive_value([1e308, 1e308])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["jeffreys", "plugin"])
    def test_future_whose_sum_with_the_prefix_overflows_rejected(self, method):
        # the future's sum 1.5e308 is a float, m xbar plus that sum is not
        predictor = make_predictor(method, GammaFamily(1.0))
        predictor.fit(ObservationBatch(n=3, xbar=1e307))
        with pytest.raises(DomainError, match="leaves the float range"):
            predictor.predictive_value([1e308, 5e307])

    @pytest.mark.parametrize("make", [CnmlPredictor, JeffreysPredictor, PlugInPredictor])
    def test_length_one_batch_mean_is_a_point(self, make):
        # a length-1 mean used to escape float() as a raw TypeError
        family = GammaFamily(2.0)
        vector = make(family).fit(ObservationBatch(n=2, xbar=np.array([1.3])))
        scalar = make(family).fit(ObservationBatch(n=2, xbar=1.3))
        assert vector.log_predictive([0.7]) == scalar.log_predictive([0.7])

    @pytest.mark.parametrize("make", [CnmlPredictor, JeffreysPredictor, PlugInPredictor])
    def test_stacked_batch_means_rejected(self, make):
        batch = ObservationBatch(n=2, xbar=np.array([1.0, 2.0]))
        with pytest.raises(DomainError, match="one batch mean"):
            make(GammaFamily(2.0)).fit(batch)

    @pytest.mark.parametrize("make", [CnmlPredictor, JeffreysPredictor, PlugInPredictor])
    def test_multivariate_family_rejected(self, make):
        family = GaussianLocationFamily(np.eye(2))
        with pytest.raises(DomainError, match="univariate only"):
            make(family).fit([[0.0, 1.0], [1.0, 0.5]])

    @pytest.mark.parametrize("method", ["cnml", "jeffreys", "plugin"])
    def test_multivariate_regret_rejected(self, method):
        family = GaussianLocationFamily(np.eye(2))
        with pytest.raises(DomainError, match="univariate only"):
            regret(family, method, [[0.0, 1.0], [1.0, 0.5], [0.3, 0.2]], 2)


class TestValidationCost:
    """Inputs are checked once per integral, never at quadrature nodes."""

    @staticmethod
    def _count(monkeypatch, run):
        counts = {"checks": 0, "in_mean_domain": 0, "samples": 0, "integrals": 0,
                  "evaluations": 0}

        def counted_check(name, key):
            original = getattr(Family, name)

            def check(self, *args):
                counts[key] += 1
                return original(self, *args)

            monkeypatch.setattr(Family, name, check)

        for name in ("_check_natural", "_check_mean", "_check_support"):
            counted_check(name, "checks")
        counted_check("in_mean_domain", "in_mean_domain")
        counted_check("_check_sample", "samples")

        def counted_rule(module, name):
            original = getattr(module, name)

            def rule(*args, **kwargs):
                result = original(*args, **kwargs)
                counts["integrals"] += 1
                counts["evaluations"] += result.evaluations
                return result

            monkeypatch.setattr(module, name, rule)

        # QUADPACK is called from prediction, the trapezoid rule from core
        counted_rule(prediction, "integrate")
        counted_rule(core, "integrate_trapezoid")
        run()
        monkeypatch.undo()
        return counts

    def test_regret_checks_each_point_once(self, monkeypatch):
        # the sequence was checked point by point up to three times (19 checks),
        # then once per point; one array compare now checks it whole
        def checks(sequence):
            run = lambda: regret(GammaFamily(1.0), "plugin", sequence, 2)  # noqa: E731
            return self._count(monkeypatch, run)["checks"]

        short = [0.5, 1.0, 2.0, 1.5]
        assert checks(short) == checks(short * 100) <= 1

    def test_regret_still_rejects_a_bad_point(self):
        # the count above would hold if regret checked nothing; it still rejects
        with pytest.raises(SupportError, match=r"-1\.0 is outside the support"):
            regret(GammaFamily(1.0), "plugin", [1.0, -1.0, 2.0], 2)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="observations must be finite"):
                regret(GammaFamily(1.0), "plugin", [1.0, bad, 2.0], 2)

    def test_checks_bounded_by_grid_not_by_nodes(self, monkeypatch):
        family = GaussianLocationFamily(1.0)
        prefixes, futures = (-0.5, 1.0), (-1.0, 0.5)

        def run(tol):
            def both():
                equivalence_check(family, 1, 2, prefixes, futures, tol=tol)
                batches = [ObservationBatch(n=2, xbar=x) for x in prefixes]
                lemma1_constancy(family, 2, batches, tol=tol)

            return self._count(monkeypatch, both)

        coarse, fine = run(1e-6), run(1e-12)
        grid = len(prefixes) * len(futures) + len(prefixes)
        assert fine["evaluations"] > coarse["evaluations"] > 20 * grid
        assert coarse["checks"] <= 6 * grid
        assert fine["checks"] == coarse["checks"]

    @pytest.mark.parametrize(
        "family, prefix",
        [
            (GammaFamily(2.0), [0.5, 1.5]),
            (GaussianLocationFamily(1.0), [-0.5, 1.0]),
            (InverseGaussianFamily(2.0), [0.5, 1.5]),
            (PoissonExponentialFamily(2.0), [0.0, 1.5]),
        ],
    )
    def test_cnml_fit_checks_the_mean_domain_per_fit_not_per_node(
        self, monkeypatch, family, prefix
    ):
        # the normalizer's integrand tests the domain bounds inline; the fit
        # itself calls in_mean_domain for the batch, the shift, the peak and
        # the atom, however many nodes QUADPACK takes
        def run(tol):
            fit = lambda: CnmlPredictor(family, horizon=2, tol=tol).fit(prefix)  # noqa: E731
            return self._count(monkeypatch, fit)

        coarse, fine = run(1e-6), run(1e-12)
        assert fine["evaluations"] > coarse["evaluations"] > 20
        assert fine["in_mean_domain"] == coarse["in_mean_domain"] <= 4
