"""Tests for the concrete distribution objects.

The inverse Gaussian cdf is audited against quadrature of its own density
and against the Gaussian limit; the compound-Poisson series against a
Bessel-function identity, quadrature, and Monte Carlo simulation.
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy import special
from scipy.optimize import brentq  # the oracle of the Brent port

from expfam.distributions import (
    _HERMITE_16,
    GammaPosterior,
    InverseGaussianDist,
    PoissonExponentialDist,
    RatePosterior,
    _pe_cdf,
)
from expfam.errors import DomainError, SupportError
from expfam.families import PoissonExponentialFamily
from expfam.numerics import integrate, rng_stream
from expfam.prediction import PlugInPredictor

TAU = 2.0 * math.pi


class TestGammaPosterior:
    def test_pdf_value(self):
        assert math.exp(GammaPosterior(1.0, 1.0).log_pdf(1.0)) == pytest.approx(math.exp(-1.0))

    def test_cdf_ppf_round_trip(self):
        post = GammaPosterior(2.5, 1.7)
        for p in (0.05, 0.5, 0.95):
            assert post.cdf(post.ppf(p)) == pytest.approx(p, abs=1e-12)

    def test_moments(self):
        post = GammaPosterior(6.0, 1.5)
        assert post.mean == pytest.approx(4.0)
        assert post.variance == pytest.approx(6.0 / 1.5**2)

    def test_log_pdf_at_large_shape(self):
        # the Gamma (alpha 1) Jeffreys posterior at n = 1e9, xbar = 1: the
        # order a ln a form was up to 2.2e-6 off at its 5-95% quantiles
        a = b = 1e9
        post = GammaPosterior(a, b)
        with mp.workdps(50):
            for p in (0.05, 0.25, 0.5, 0.75, 0.95):
                x = post.ppf(p)
                ref = a * mp.log(b) + (a - 1) * mp.log(x) - b * mp.mpf(x) - mp.loggamma(a)
                assert abs(post.log_pdf(x) - float(ref)) <= 1e-12, p

    @pytest.mark.parametrize("a, b", [(1e-3, 5.0), (3.0, 2.0), (14.9, 1.0), (15.0, 1.0),
                                      (1e4, 2e4), (2.5e9, 7e8)])
    def test_log_pdf_against_mpmath(self, a, b):
        # both sides of the Stirling cut, near the mode and far in both tails
        post = GammaPosterior(a, b)
        with mp.workdps(50):
            for x in (1e-3 * a / b, 0.3 * a / b, a / b * (1 + 1e-4), 3 * a / b, 50 * a / b):
                ref = a * mp.log(b) + (a - 1) * mp.log(x) - b * mp.mpf(x) - mp.loggamma(a)
                assert abs(post.log_pdf(x) - float(ref)) <= 4e-15 * max(1.0, abs(float(ref)))

    @pytest.mark.parametrize("a, b, x", [(2.0, 10.0, 1e-300), (2.0, 10.0, 5e-324),
                                         (0.5, 1e-300, 1e-10), (20.0, 1e-300, 2e301),
                                         (1e3, 1e300, 2e-297), (2.0, 1e300, 1e-300)])
    def test_log_pdf_where_bx_leaves_the_normal_range(self, a, b, x):
        # bx overflows, underflows or splits past the largest float here
        with mp.workdps(50):
            ref = a * mp.log(b) + (a - 1) * mp.log(x) - b * mp.mpf(x) - mp.loggamma(a)
        assert abs(GammaPosterior(a, b).log_pdf(x) - float(ref)) <= 4e-15 * abs(float(ref))

    def test_log_pdf_is_minus_inf_once_bx_overflows(self):
        # b x = 1e309: the density is 0 to every digit a float holds
        assert GammaPosterior(2.0, 10.0).log_pdf(1e308) == -math.inf
        assert math.exp(GammaPosterior(2.0, 10.0).log_pdf(1e308)) == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            GammaPosterior(0.0, 1.0)
        with pytest.raises(SupportError):
            GammaPosterior(1.0, 1.0).log_pdf(0.0)


class TestInverseGaussianDensity:
    def test_value_at_the_mean(self):
        dist = InverseGaussianDist(1.0, 1.0)
        assert dist.pdf(1.0) == pytest.approx(math.sqrt(1.0 / TAU), abs=1e-12)

    def test_integrates_to_one(self):
        for mean, shape in ((1.0, 1.0), (0.7, 2.0), (2.5, 0.5)):
            dist = InverseGaussianDist(mean, shape)
            mass = integrate(dist.pdf, 0.0, math.inf, tol=1e-11, points=[mean])
            assert mass.value == pytest.approx(1.0, abs=1e-9)

    def test_mean_by_quadrature(self):
        dist = InverseGaussianDist(0.8, 1.5)
        mean = integrate(
            lambda x: x * dist.pdf(x), 0.0, math.inf, tol=1e-11, points=[0.8]
        ).value
        assert mean == pytest.approx(0.8, abs=1e-8)


def doubled_bracket(rising, start):
    """The ends ``find_root`` brackets the zero of ``rising`` by: from ``start``
    it halves until rising < 0, then doubles until rising > 0."""
    lo, hi = 0.5 * start, 2.0 * start
    while rising(lo) >= 0.0:
        lo *= 0.5
    while rising(hi) <= 0.0:
        hi *= 2.0
    return lo, hi


class TestInverseGaussianCdf:
    def test_limits(self):
        dist = InverseGaussianDist(1.0, 1.0)
        assert dist.cdf(1e-10) == pytest.approx(0.0, abs=1e-12)
        assert dist.cdf(1e6) == pytest.approx(1.0, abs=1e-9)
        assert dist.cdf(0.0) == 0.0

    def test_monotone(self):
        dist = InverseGaussianDist(1.3, 0.9)
        xs = np.linspace(0.01, 10.0, 200)
        values = [dist.cdf(x) for x in xs]
        assert np.all(np.diff(values) >= 0)

    def test_derivative_matches_density(self):
        dist = InverseGaussianDist(1.0, 2.0)
        for x in (0.4, 1.0, 2.7):
            h = 1e-6
            numeric = (dist.cdf(x + h) - dist.cdf(x - h)) / (2 * h)
            assert numeric == pytest.approx(dist.pdf(x), rel=1e-6)

    def test_median_against_quadrature_inversion(self):
        dist = InverseGaussianDist(1.0, 1.0)

        def quad_cdf(x):
            return integrate(dist.pdf, 0.0, x, tol=1e-12).value

        oracle = brentq(lambda x: quad_cdf(x) - 0.5, 0.05, 5.0, xtol=1e-12)
        assert dist.ppf(0.5) == pytest.approx(oracle, abs=1e-8)

    def test_gaussian_limit_at_large_shape(self):
        # the cdf at the mean approaches 1/2 like 1/(2 sqrt(tau kappa)); at
        # kappa = 1e4 the true gap is ~2e-3, so the tolerance is 2.5e-3
        # rather than the naive 1e-3, and the gap shrinks with kappa
        gap_1e4 = abs(InverseGaussianDist(1.0, 1e4).cdf(1.0) - 0.5)
        gap_1e6 = abs(InverseGaussianDist(1.0, 1e6).cdf(1.0) - 0.5)
        assert gap_1e4 < 2.5e-3
        assert gap_1e6 < gap_1e4 / 9.0
        assert gap_1e4 == pytest.approx(0.5 / math.sqrt(TAU * 1e4), rel=1e-2)

    def test_ppf_round_trip(self):
        dist = InverseGaussianDist(0.7071068, 2.0)
        for p in (0.05, 0.25, 0.5, 0.75, 0.9, 0.99):
            assert dist.cdf(dist.ppf(p)) == pytest.approx(p, abs=1e-8)

    def test_large_shape_stability(self):
        # exp(2*shape/mean) overflows the naive two-term formula
        dist = InverseGaussianDist(0.5, 5000.0)
        value = dist.cdf(0.5)
        assert 0.0 < value < 1.0

    def test_upper_tail_quantile_mirrors_ppf(self):
        dist = InverseGaussianDist(1.3, 0.9)
        for p in (0.05, 0.3, 0.5, 0.9):
            assert dist.isf(p) == pytest.approx(dist.ppf(1.0 - p), rel=1e-13)
        np.testing.assert_array_equal(dist.cdf(np.array([-1.0, 0.0])), [0.0, 0.0])

    @staticmethod
    def brentq_quantile(dist, p, sign):
        """scipy's brentq on the bracket and tolerances of ``ppf`` (sign 1) or ``isf``."""
        rising = lambda x: sign * dist._tail_inside(x, sign) - sign * p
        lo, hi = doubled_bracket(rising, dist.mean)
        return brentq(
            rising, lo, hi, xtol=np.finfo(float).tiny,
            rtol=4.0 * np.finfo(float).eps, maxiter=200,
        )

    def test_scalar_quantiles_match_brentq(self):
        # ppf and isf are scipy's brentq, bit for bit, on the same bracket
        rng = np.random.default_rng(21)
        for _ in range(300):
            mean = 10.0 ** rng.uniform(-3.0, 3.0)
            shape = 10.0 ** rng.uniform(-3.0, 4.0)
            p = 10.0 ** rng.uniform(-12.0, -0.01)
            dist = InverseGaussianDist(mean, shape)
            assert dist.ppf(p) == self.brentq_quantile(dist, p, 1.0)
            assert dist.isf(p) == self.brentq_quantile(dist, p, -1.0)

    @pytest.mark.parametrize("mean, shape", [(0.5, 3.0), (1000.0, 1.0), (1e-3, 1e-3)])
    def test_deep_upper_quantile_matches_brentq(self, mean, shape):
        # at p = 1e-300 the extrapolation's denominator underflows to 0, where
        # brentq's C step is inf or nan and bisects
        dist = InverseGaussianDist(mean, shape)
        assert dist.isf(1e-300) == self.brentq_quantile(dist, 1e-300, -1.0)

    def test_array_closed_forms_equal_scalar_calls(self):
        means = np.array([0.3, 1.0, 2.5])
        stacked = InverseGaussianDist(means, 2.0)
        xs = np.array([0.2, 1.1, 7.0])
        for name in ("log_pdf", "pdf", "cdf"):
            values = getattr(stacked, name)(xs)
            for mean, x, value in zip(means, xs, values):
                assert getattr(InverseGaussianDist(float(mean), 2.0), name)(float(x)) == value

    def test_sampling_moments(self):
        dist = InverseGaussianDist(1.5, 2.0)
        draws = dist.sample(rng_stream(5, 0), 200_000)
        sd = math.sqrt(1.5**3 / 2.0)
        assert abs(draws.mean() - 1.5) < 3.0 * sd / math.sqrt(draws.size)


def _mp_gamma_isf(shape, rate, p, guess):
    """x with Q(shape, rate x) = p, at 50 digits."""
    return mp.findroot(
        lambda x: mp.gammainc(shape, rate * x, mp.inf, regularized=True) - p, guess
    )


def _mp_inverse_gaussian_sf(mean, shape, x):
    """P(X > x) at the working precision, where the two-term difference keeps its digits."""
    m, lam, x = mp.mpf(mean), mp.mpf(shape), mp.mpf(x)
    s = mp.sqrt(lam / x)
    return mp.ncdf(-s * (x / m - 1)) - mp.exp(2 * lam / m) * mp.ncdf(-s * (x / m + 1))


def _mp_inverse_gaussian_isf(mean, shape, p, guess):
    """x with P(X > x) = p at the working precision."""
    return mp.findroot(lambda x: _mp_inverse_gaussian_sf(mean, shape, x) - p, guess)


class TestRatePosteriorQuantiles:
    """theta <= ppf(p) exactly when the rate is above its upper-tail p quantile."""

    PROBS = (1e-17, 0.05, 0.5, 0.95)

    @pytest.mark.parametrize("shape, rate", [(2.0, 1.0), (6.0, 2.4), (0.5, 3.0)])
    def test_gamma_against_mpmath(self, shape, rate):
        posterior = RatePosterior(GammaPosterior(shape, rate))
        with mp.workdps(50):
            for p in self.PROBS:
                got = -posterior.ppf(p)
                assert got == pytest.approx(
                    float(_mp_gamma_isf(shape, rate, p, got)), rel=1e-12
                )

    @pytest.mark.parametrize(
        "mean, shape", [(math.sqrt(1.25), 6.0), (1.0, 0.1), (0.3, 50.0), (2.0, 1.0)]
    )
    def test_inverse_gaussian_against_mpmath(self, mean, shape):
        posterior = RatePosterior(InverseGaussianDist(mean, shape))
        with mp.workdps(50):
            for p in self.PROBS:
                got = -posterior.ppf(p)
                assert got == pytest.approx(
                    float(_mp_inverse_gaussian_isf(mean, shape, p, got)), rel=1e-12
                )

    @pytest.mark.parametrize(
        "mean, shape", [(0.5, 3.0), (2.0, 3.0), (1000.0, 1.0), (1.0, 1e4), (1e-3, 1e-3)]
    )
    def test_inverse_gaussian_deep_upper_tail(self, mean, shape):
        # above the mean the two sf terms share one exp(-a^2/2); rounding the
        # exponent 2 lam/m + log Phi(-b) on its own cost up to 7.5e-8 at p = 1e-300
        rel = 1e-10 if shape / mean < 1e-2 else 1e-12
        dist = InverseGaussianDist(mean, shape)
        with mp.workdps(80):
            for p in (1e-5, 1e-17, 1e-100, 1e-300):
                x = dist.isf(p)
                assert dist._tail_inside(x, -1.0) == pytest.approx(
                    float(_mp_inverse_gaussian_sf(mean, shape, x)), rel=rel, abs=0.0
                )
                assert x == pytest.approx(
                    float(_mp_inverse_gaussian_isf(mean, shape, p, x)), rel=rel
                )

    def test_small_p_keeps_its_digits(self):
        # 1 - 1e-17 rounds to 1, so the quantile must come from the upper tail
        assert RatePosterior(GammaPosterior(2.0, 1.0)).ppf(1e-17) < -40.0
        means = np.array([0.5, 2.0])
        for p in (1e-17, 1e-100):
            # the stacked Newton path, against Brent's method one by one
            stacked = InverseGaussianDist(means, 3.0).isf(p)
            for mean, q in zip(means, stacked):
                assert q == pytest.approx(
                    InverseGaussianDist(float(mean), 3.0).isf(p), rel=1e-12
                )


def log_series_factor(kappa, x):
    """log S(kappa, x): the Poisson-exponential log carrier at x > 0."""
    return PoissonExponentialFamily(kappa).log_carrier(x)


class TestPoissonExponentialSeries:
    def test_matches_bessel_identity(self):
        # sum_{k>=1} z^k x^(k-1)/(k!(k-1)!) = sqrt(z/x) I_1(2 sqrt(z x))
        for kappa in (0.5, 2.0, 8.0):
            z = kappa / 2.0
            for x in (0.01, 0.7, 3.0, 40.0):
                oracle = (
                    0.5 * math.log(z / x)
                    + math.log(special.i1e(2.0 * math.sqrt(z * x)))
                    + 2.0 * math.sqrt(z * x)
                )
                assert log_series_factor(kappa, x) == pytest.approx(
                    oracle, abs=1e-12
                )

    def test_matches_bessel_identity_far(self):
        # u = 2 sqrt(z x) = 2e9 lies above 2^30, where special.ive(1, u) is NaN
        kappa, x = 2.0, 1e18
        z = kappa / 2.0
        u = 2.0 * math.sqrt(z * x)
        oracle = 0.5 * math.log(z / x) + math.log(special.i1e(u)) + u
        assert log_series_factor(kappa, x) == pytest.approx(oracle, rel=1e-15, abs=0.0)

    def test_support_error(self):
        # x = 0 is the atom, which the continuous density leaves out
        with pytest.raises(SupportError):
            PoissonExponentialDist(1.0, 1.0).log_density(0.0)

    def test_matches_truncated_series(self):
        # an error e in log S is a relative error e in S; log S crosses zero
        for kappa in np.geomspace(1e-3, 1e3, 13):
            for x in np.geomspace(1e-8, 1e6, 29):
                expected = truncated_log_series(kappa, x)
                value = log_series_factor(kappa, x)
                assert abs(value - expected) <= 1e-13 * max(1.0, abs(expected))

    def test_finite_from_subnormal_to_huge(self):
        xs = [5e-324, 1e-320, sys.float_info.min, 1e-300, 1e-100, 1.0, 1e100, 1e300]
        for kappa in (1e-3, 2.0, 1e3):
            values = [log_series_factor(kappa, x) for x in xs]
            assert all(math.isfinite(v) for v in values)
            # S increases in x and tends to z = kappa/2 as x -> 0
            assert values == sorted(values)
            assert values[0] == pytest.approx(math.log(kappa / 2.0), abs=1e-15)

    def test_finite_where_the_bessel_quotient_underflows(self):
        # y = 2 sqrt(kappa x / 2) = 1.4e300: 2 i1e(y)/y underflows to 0, so the
        # log of the quotient is taken as a difference above y = 1e200
        with mp.workdps(50):
            z, x = mp.mpf(1e300) / 2, mp.mpf(1e300)
            y = 2 * mp.sqrt(z * x)
            reference = float(mp.log(z) + mp.log(2 * mp.besseli(1, y) / y))
        assert log_series_factor(1e300, 1e300) == pytest.approx(reference, rel=1e-16, abs=0.0)
        PlugInPredictor(PoissonExponentialFamily(1e300)).fit([1e300])

    def test_rejects_non_finite(self):
        for x in (math.nan, math.inf, -1.0):
            with pytest.raises(SupportError):
                PoissonExponentialDist(1.0, 1.0).log_density(x)
            with pytest.raises(SupportError):
                log_series_factor(1.0, x)


def truncated_log_series(kappa, x):
    """log S summed term by term: the reference for the Bessel form.

    Terms run around the peak index k ~ sqrt(kappa*x/2) with enough slack
    that the neglected tail is below 1e-16 relative.
    """
    z = kappa / 2.0
    w = z * x
    n_terms = int(max(12.0, math.sqrt(w) + 12.0 * w**0.25 + 25.0))
    k = np.arange(1, n_terms + 1, dtype=float)
    log_terms = (
        k * math.log(z)
        + (k - 1.0) * math.log(x)
        - special.gammaln(k + 1.0)
        - special.gammaln(k)
    )
    out = float(special.logsumexp(log_terms))
    assert log_terms[-1] < out - 40.0, "reference series truncated too short"
    return out


class TestPoissonExponentialDist:
    def test_atom_weight(self):
        dist = PoissonExponentialDist(2.0, 1.0)
        assert dist.atom_weight == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_total_mass_on_grid(self):
        for kappa in (0.5, 1.0, 2.0, 4.0):
            for beta in (0.5, 1.0, 2.0, 4.0):
                dist = PoissonExponentialDist(kappa, beta)
                quad = integrate(
                    dist.density, 0.0, math.inf, tol=1e-11, points=[dist.mean]
                )
                assert dist.atom_weight + quad.value == pytest.approx(1.0, abs=1e-9)

    def test_cdf_at_zero_is_atom(self):
        dist = PoissonExponentialDist(2.0, 1.0)
        assert dist.cdf(0.0) == dist.atom_weight

    def test_cdf_upper_limit(self):
        dist = PoissonExponentialDist(2.0, 1.0)
        assert dist.cdf(200.0) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_matches_quadrature(self):
        dist = PoissonExponentialDist(1.5, 0.8)
        for x in np.linspace(0.2, 8.0, 20):
            oracle = dist.atom_weight + integrate(
                dist.density, 0.0, float(x), tol=1e-12
            ).value
            assert dist.cdf(float(x)) == pytest.approx(oracle, abs=1e-9)

    def test_cdf_monotone(self):
        dist = PoissonExponentialDist(2.0, 1.0)
        xs = np.linspace(0.0, 20.0, 300)
        values = [dist.cdf(x) for x in xs]
        assert np.all(np.diff(values) >= -1e-15)

    def test_cdf_limits_where_the_rate_or_beta_x_overflows(self):
        # lam = kappa / (2 rate) or t = rate x past the float range: the limits
        assert PoissonExponentialDist(1e308, 1e305).cdf(1e10) == 1.0
        assert PoissonExponentialDist(1e308, 1e-300).cdf(1e-8) == 0.0

    def test_large_poisson_rate_cdf(self):
        # the contour form must put the median near the mean at lambda >> 30
        dist = PoissonExponentialDist(2000.0, 0.01)  # lambda = 1e5
        mid = dist.cdf(dist.mean)
        assert 0.3 < mid < 0.7

    # P(Y <= t) for Poisson(lam) many Exp(1) jumps at t = max(lam + z sd, 1),
    # sd = sqrt(2 lam), z in (-6, 0, 4) and z = -9 at lam = 1e8, by 40-digit
    # quadrature of the Bessel density (scipy's chndtr is 2e-8 off at lam = 1e8,
    # z = -9, NaN at lam = 3e10 from z = 0 and NaN at 1e12):
    #
    #     mp.mp.dps = 40
    #     def ref(lam, t):
    #         lam, t = mp.mpf(lam), mp.mpf(t)
    #         r = mp.sqrt(lam)
    #         g = lambda u: mp.exp(-u - lam) * r / mp.sqrt(u) * mp.besseli(1, 2 * r * mp.sqrt(u))
    #         sd = mp.sqrt(2 * lam)
    #         cuts = [lam + k * sd for k in (-60, -30, -15, -8, -4, -2, -1, 0,
    #                                        1, 2, 4, 8, 15, 30, 60)]
    #         return mp.exp(-lam) + mp.quad(g, [0] + [c for c in cuts if 0 < c < t] + [t])
    CLOSED_FORM_REFERENCE = [
        (31.0, 1.0, 1.2630174910119876e-10),
        (31.0, 31.0, 0.52538440581303551),
        (31.0, 62.496031496047245, 0.99960901738648871),
        (1e4, 9151.471862576143, 4.4114073186846125e-10),
        (1e4, 1e4, 0.50141048277457958),
        (1e4, 10565.685424949239, 0.99996067291000663),
        (1e8, 99915147.18625762, 9.7909375447359312e-10),
        (1e8, 1e8, 0.50001410473959751),
        (1e8, 100056568.54249492, 0.99996825772942269),
        (1e8, 99872720.77938642, 1.099861639655717e-19),
        (3e10, 29998530306.15433, 9.86153645271318e-10),
        (3e10, 3e10, 0.50000081433751984),
        (3e10, 30000979795.897114, 0.99996832466028831),
        (1e12, 999991514718.6257, 9.8651246216621955e-10),
        (1e12, 1e12, 0.50000014104739589),
        (1e12, 1000005656854.2495, 0.99996832804842131),
    ]

    @pytest.mark.parametrize("lam, t, reference", CLOSED_FORM_REFERENCE)
    def test_closed_form_against_mpmath(self, lam, t, reference):
        # rate 1 makes the Poisson rate kappa / 2 = lam and t = rate * x = x exact
        assert PoissonExponentialDist(2.0 * lam, 1.0).cdf(t) == pytest.approx(
            reference, rel=2e-12, abs=0.0
        )

    @pytest.mark.parametrize(
        "lam, t, reference",
        [row for row in CLOSED_FORM_REFERENCE if 2.0 * math.sqrt(row[0] * row[1]) >= 20.0],
    )
    def test_contour_form_against_mpmath(self, lam, t, reference):
        # xi = 2 sqrt(lam t) >= 20: the saddle-point contour form keeps the lower
        # tail's digits, and the upper tail's to 1e-15 absolute
        cdf = _pe_cdf(lam, t)
        if reference < 0.5:
            assert cdf == pytest.approx(reference, rel=3e-14, abs=0.0)
        else:
            assert cdf == pytest.approx(reference, rel=0.0, abs=1e-15)

    # the far lower tail, lam > 30 and xi = 2 sqrt(lam t) < 20, where the sum
    # takes over from the contour form (scipy's chndtr was 1.2-4.3% off in the
    # last three rows), by the same sum over k at 50 digits:
    #
    #     mp.mp.dps = 50
    #     def ref(lam, t):
    #         lam, t = mp.mpf(lam), mp.mpf(t)
    #         return mp.exp(-lam) * (1 + mp.fsum(
    #             mp.exp(k * mp.log(lam) - mp.loggamma(k + 1))
    #             * mp.gammainc(k, 0, t, regularized=True) for k in range(1, 200)))
    FAR_TAIL_REFERENCE = [
        (40.0, 1.0, 6.4884733738720383e-14),
        (100.0, 0.5, 3.5924686549758402e-39),
        (200.0, 0.4, 5.4109460961957495e-81),
        (300.0, 0.25, 1.3257631923315057e-124),
        (700.0, 0.1, 1.6409576954524391e-298),
    ]

    @pytest.mark.parametrize("lam, t, reference", FAR_TAIL_REFERENCE)
    def test_far_lower_tail_against_mpmath(self, lam, t, reference):
        assert PoissonExponentialDist(2.0 * lam, 1.0).cdf(t) == pytest.approx(
            reference, rel=3e-14, abs=0.0
        )

    @pytest.mark.parametrize("lam", [30.5, 31.0, 40.0, 50.0, 100.0, 130.0])
    def test_forms_meet_at_xi_20(self, lam):
        # the sum just below xi = 2 sqrt(lam t) = 20 against the contour form
        # extrapolated linearly from just above it
        cut, eps = 100.0 / lam, 1e-9
        below, above, further = (_pe_cdf(lam, cut * (1.0 + k * eps)) for k in (-1, 1, 3))
        assert 2.0 * above - further == pytest.approx(below, rel=3e-14, abs=0.0)
        # and the cdf does not decrease in t across the switch
        values = [_pe_cdf(lam, cut * (1.0 + k * 1e-12)) for k in range(-50, 51)]
        assert np.all(np.diff(values) >= 0.0)

    def test_hermite_nodes_are_hermgauss_16(self):
        # the contour form's literal (x^2, w) pairs: numpy.polynomial stays
        # unimported in the CLI
        x, w = np.polynomial.hermite.hermgauss(16)
        assert _HERMITE_16 == tuple(
            (float(xi * xi), float(wi)) for xi, wi in zip(x[8:], w[8:])
        )

    def test_hermite_rule_gives_i0e_at_xi_20_and_above(self):
        # the same 8 nodes integrate the atom's i0e(xi) within a few ulps
        for xi in (20.0, 20.5, 25.0, 50.0, 100.0, 1e3, 1e6, 1e12):
            rule = sum(w / math.sqrt(1.0 - x2 / (2.0 * xi)) for x2, w in _HERMITE_16)
            value = 2.0 * rule / (math.pi * math.sqrt(2.0 * xi))
            assert value == pytest.approx(special.i0e(xi), rel=1e-15, abs=0.0)

    def test_branches_meet_at_lambda_30(self):
        # the sum just below the cut against the closed form extrapolated
        # linearly from just above it (curvature over 2e-9 is below 1e-17)
        eps = 1e-9
        below, above, further = (
            PoissonExponentialDist(2.0 * lam, 1.0)
            for lam in (30.0 - eps, 30.0 + eps, 30.0 + 3.0 * eps)
        )
        for x in (5.0, 20.0, 30.0, 45.0):
            extrapolated = 2.0 * above.cdf(x) - further.cdf(x)
            assert extrapolated == pytest.approx(below.cdf(x), rel=1e-14, abs=0.0)

    @staticmethod
    def sum_branch_reference(lam, t):
        """The lam <= 30 sum with gammaln(k + 1) taken afresh for each block."""
        k = np.arange(1, int(lam + 45) + 1, dtype=float)
        out = math.exp(-lam)
        while True:
            log_w = -lam + k * math.log(lam) - special.gammaln(k + 1.0)
            terms = np.exp(log_w) * special.gammainc(k, t)
            out += float(np.sum(terms))
            r = lam / (k[-1] + 1.0)
            if terms[-1] * r / (1.0 - r) <= 2.0**-53 * out:
                return min(out, 1.0)
            k = k + len(k)

    def test_sum_branch_reads_log_factorials_from_a_table(self):
        # the same ufunc on the same k, so the same bits, up to lam = 30 where
        # the sum needs its second block
        for lam in (1e-8, 0.3, 1.0, 7.5, 29.0, 29.99, 30.0):
            for t in np.geomspace(1e-3, 400.0, 23):
                assert _pe_cdf(lam, t) == self.sum_branch_reference(lam, float(t))

    @pytest.mark.parametrize("x", [80.0, 100.0])
    def test_sum_branch_upper_tail_at_lambda_30(self, x):
        # a sum stopped at k = lam + 45 dropped Poisson mass of order 1e-12 here:
        # the complement, 6e-11 at x = 100, was 2.5% off
        with mp.workdps(50):
            lam = mp.mpf(30)
            reference = mp.exp(-lam) + mp.fsum(
                mp.exp(k * mp.log(lam) - lam - mp.loggamma(k + 1))
                * mp.gammainc(k, 0, x, regularized=True)
                for k in range(1, 250)
            )
        cdf = PoissonExponentialDist(60.0, 1.0).cdf(x)
        assert cdf == pytest.approx(float(reference), rel=1e-13, abs=0.0)
        assert 1.0 - cdf == pytest.approx(float(1 - reference), rel=1e-3, abs=0.0)

    # (kappa, rate) -> cdf at x = 0.1, 1, 5, 40 from the lam <= 30 sum, whose bits
    # the CLI goldens pin; (60, 1) sits on the cut, lam = 30
    SUM_BRANCH_BITS = [
        ((0.01, 3.0), (0.9987660229511517, 0.9999168832745321, 0.999999999484195, 1.0)),
        (
            (2.0, 1.0),
            (0.4037579646786113, 0.6542541612768356, 0.9766500547706444, 0.9999999999999903),
        ),
        (
            (2.0, 0.25),
            (0.020170033335551594, 0.03885343404085409, 0.15746965741829022, 0.9628766673853497),
        ),
        (
            (20.0, 0.5),
            (4.628785485165462e-09, 1.3174797890025258e-07, 3.747106421139179e-05, 0.5316391399376158),
        ),
        (
            (60.0, 1.0),
            (6.366015092935012e-13, 2.897617874432765e-10, 3.639279496664218e-06, 0.8958894078688936),
        ),
    ]

    @pytest.mark.parametrize("params, bits", SUM_BRANCH_BITS)
    def test_sum_branch_keeps_its_bits(self, params, bits):
        dist = PoissonExponentialDist(*params)
        assert tuple(dist.cdf(x) for x in (0.1, 1.0, 5.0, 40.0)) == bits

    def test_monte_carlo_atom_and_mean(self):
        # compound Poisson(lambda=1) of Exp(1): kappa = 2 lambda beta = 2
        dist = PoissonExponentialDist(2.0, 1.0)
        n = 1_000_000
        draws = dist.sample(rng_stream(17, 3), n)
        p0 = float(np.mean(draws == 0.0))
        assert abs(p0 - math.exp(-1.0)) < 0.002
        # mean lambda/beta = 1, variance E[N] E[X^2] = 2
        assert abs(draws.mean() - 1.0) < 3.0 * math.sqrt(2.0 / n)

    def test_density_derivative_of_cdf(self):
        dist = PoissonExponentialDist(2.0, 1.0)
        for x in (0.5, 1.5, 4.0):
            h = 1e-6
            numeric = (dist.cdf(x + h) - dist.cdf(x - h)) / (2 * h)
            assert numeric == pytest.approx(dist.density(x), rel=1e-6)
