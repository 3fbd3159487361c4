"""Tests for the saddle-point profile and its exactness diagnostics."""

import dataclasses
import math
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expfam import (
    GammaFamily,
    GaussianLocationFamily,
    InverseGaussianFamily,
    ObservationBatch,
    PoissonExponentialFamily,
    poisson_exponential_posterior,
)
from expfam.core import NEGATIVE_HALF_LINE, TAU
from expfam.distributions import GammaPosterior
from expfam.errors import DomainError, ExpfamError
from expfam.numerics import integrate
from expfam.saddlepoint import (
    _log_profile,
    exactness_report,
    renormalize,
    saddlepoint_unnormalized,
)

#: non-diagonal covariances for the d > 1 Gaussian location family
COV_2D = np.array([[2.0, 0.4], [0.4, 1.0]])
COV_3D = np.array([[2.0, 0.5, 0.3], [0.5, 1.5, -0.4], [0.3, -0.4, 1.0]])


def _integrate_natural(family, g, tol, theta_hat):
    """Integrate g(theta) over the natural domain by QUADPACK, split at theta_hat.

    Half-line domains are integrated in the rate coordinate beta = -theta.
    """
    if family.natural_domain == NEGATIVE_HALF_LINE:
        return integrate(lambda b: g(-b), 0.0, math.inf, tol=tol, points=[-theta_hat])
    return integrate(g, -math.inf, math.inf, tol=tol, points=[theta_hat])


class TestUnnormalizedProfile:
    def test_at_the_estimate(self):
        for family, theta_hat in (
            (GammaFamily(1.0), -1.0),
            (GaussianLocationFamily(1.0), 0.3),
            (PoissonExponentialFamily(2.0), -1.5),
        ):
            value = saddlepoint_unnormalized(family, 3, theta_hat, theta_hat)
            expected = family.jeffreys_unnormalized(theta_hat) / math.sqrt(TAU)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_gaussian_unit_shift(self):
        family = GaussianLocationFamily(1.0)
        value = saddlepoint_unnormalized(family, 1, 0.0, 1.0)
        assert value == pytest.approx(math.exp(-0.5) / math.sqrt(TAU), rel=1e-12)

    def test_gamma_audited_composition(self):
        # exp(-2 (2 - 1 - ln 2)) * (1/2) / sqrt(tau) at beta = 2, beta_hat = 1
        family = GammaFamily(1.0)
        value = saddlepoint_unnormalized(family, 2, -1.0, -2.0)
        expected = math.exp(-2.0 * (1.0 - math.log(2.0))) * 0.5 / math.sqrt(TAU)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            saddlepoint_unnormalized(GammaFamily(1.0), 0, -1.0, -1.0)

    @pytest.mark.parametrize("n", [math.nan, math.inf, 2.5])
    def test_n_must_be_whole(self, n):
        # NaN and inf passed the old n >= 1 test, and a fractional n normalized
        # the profile at n while the profile kept int(n)
        with pytest.raises(DomainError, match="n must be a whole number"):
            saddlepoint_unnormalized(GammaFamily(1.0), n, -1.0, -1.0)
        with pytest.raises(DomainError, match="n must be a whole number"):
            renormalize(GammaFamily(1.0), n, -1.0)

    def test_value_above_the_float_range(self):
        # J(theta_hat) = 1/|theta_hat| is e^744 here; exp raised a raw OverflowError
        with pytest.raises(DomainError, match="density above the float range"):
            saddlepoint_unnormalized(GammaFamily(1.0), 1, -5e-324, -5e-324)


class TestRenormalize:
    def test_density_above_the_float_range(self):
        # a normalizer near the bottom of the float range puts the density above
        # its top; exp raised a raw OverflowError
        profile = renormalize(GammaFamily(1.0), 2, -1.0)
        profile = dataclasses.replace(profile, normalizer=1e-320)
        assert math.isfinite(profile.log_density(-1.0))
        with pytest.raises(DomainError, match="density above the float range"):
            profile.density(-1.0)

    def test_gaussian_normalizer_closed_form(self):
        family = GaussianLocationFamily(1.0)
        for n in (1, 2, 4):
            profile = renormalize(family, n, 0.7, tol=1e-11)
            assert profile.normalizer == pytest.approx(n**-0.5, abs=1e-10)
            assert profile.normalizer_error <= 1e-11

    def test_gamma_profile_is_gamma_density(self):
        # alpha=1, n=2, beta_hat=1: the profile reduces to Gamma(2, 2) in beta
        family = GammaFamily(1.0)
        profile = renormalize(family, 2, -1.0, tol=1e-11)
        oracle = GammaPosterior(2.0, 2.0)
        for beta in np.geomspace(0.1, 6.0, 30):
            assert profile.density(-beta) == pytest.approx(
                math.exp(oracle.log_pdf(beta)), rel=1e-9
            )

    def test_profile_reintegrates_to_one(self):
        for family, theta_hat in (
            (GammaFamily(1.0), -1.0),
            (PoissonExponentialFamily(2.0), -0.7),
            (InverseGaussianFamily(2.0), -1.2),
            (GaussianLocationFamily(1.0), 0.0),
        ):
            tol = 1e-10
            profile = renormalize(family, 3, theta_hat, tol=tol)
            mass = _integrate_natural(family, profile.density, tol, theta_hat)
            assert mass.value == pytest.approx(1.0, abs=2.0 * tol + 1e-10)

    def test_variance_decreases_with_n(self):
        # monotone concentration of the renormalized profile
        for family, theta_hat in (
            (GammaFamily(1.0), -1.0),
            (GaussianLocationFamily(1.0), 0.5),
            (PoissonExponentialFamily(2.0), -1.0),
        ):
            variances = []
            for n in (1, 2, 4, 8):
                profile = renormalize(family, n, theta_hat, tol=1e-11)
                mean = _integrate_natural(
                    family, lambda t: t * profile.density(t), 1e-10, theta_hat
                ).value
                second = _integrate_natural(
                    family, lambda t: t * t * profile.density(t), 1e-10, theta_hat
                ).value
                variances.append(second - mean * mean)
            assert all(a > b for a, b in zip(variances, variances[1:])), family


class TestRenormalizeLargeN:
    """The d = 1 normalizer R / sqrt(tau) against 50-digit closed forms at large n."""

    def test_gamma_at_a_million(self):
        # sqrt(alpha) Gamma(n) e^n / n^n / sqrt(tau); QUADPACK split at theta_hat
        # returned half of it and reported an error of 4e-16
        n = 10**6
        with mp.workdps(50):
            ref = float(mp.exp(mp.loggamma(n) + n - n * mp.log(n)) / mp.sqrt(2 * mp.pi))
        profile = renormalize(GammaFamily(1.0), n, -0.25)
        assert profile.normalizer == pytest.approx(ref, rel=1e-10)
        assert profile.normalizer_error <= 1e-10 * profile.normalizer

    @pytest.mark.parametrize(
        "family,theta_hat",
        [(GammaFamily(2.0), -0.5), (PoissonExponentialFamily(2.0), -1.5),
         (GaussianLocationFamily(1.0), 0.3)],
    )
    def test_n_1e9(self, family, theta_hat):
        # QUADPACK raised here; the Gamma constant is 1/sqrt(n) to 1 + 1/(12 n alpha)
        n = 10**9
        profile = renormalize(family, n, theta_hat)
        assert profile.normalizer == pytest.approx(n**-0.5, rel=1e-10)


class TestRenormalizeHigherDimensions:
    """Gaussian location at d = 2 and 3: the ratio integral in whitened coordinates."""

    @pytest.mark.parametrize("cov", [COV_2D, COV_3D], ids=["d2", "d3"])
    def test_normalizer_and_exactness(self, cov):
        family = GaussianLocationFamily(cov)
        n = 5
        theta_hat = family.mle(np.linspace(0.3, -0.2, family.d))
        started = time.perf_counter()
        profile = renormalize(family, n, theta_hat)
        assert profile.normalizer == pytest.approx(n ** (-family.d / 2), rel=1e-10, abs=0)
        assert profile.normalizer_error <= 1e-10
        # grid: the estimate and points one and two posterior widths away
        scale = np.linalg.cholesky(np.linalg.inv(cov) / n)
        steps = [np.zeros(family.d), np.ones(family.d), -2.0 * np.eye(family.d)[0]]
        grid = [theta_hat + scale @ z for z in steps]
        assert exactness_report(family, n, theta_hat, grid) <= 1e-8
        assert time.perf_counter() - started < 2.0

    @pytest.mark.parametrize("cov", [COV_2D, COV_3D], ids=["d2", "d3"])
    @pytest.mark.parametrize("n", [1, 5, 10**3, 10**9])
    def test_normalizer_is_n_to_minus_half_d(self, cov, n):
        # the box cubature was 6.5e-9 off at d = 2 and 1.8% off at d = 3 for
        # n = 1e9, while reporting errors of 5.5e-13 and 1.7e-14
        family = GaussianLocationFamily(cov)
        profile = renormalize(family, n, family.mle(np.linspace(0.3, -0.2, family.d)))
        assert profile.normalizer == pytest.approx(n ** (-family.d / 2), rel=1e-12, abs=0)
        assert profile.normalizer_error <= 1e-10

    def test_d3_memory_and_time(self):
        family = GaussianLocationFamily(COV_3D)
        theta_hat = family.mle(np.array([0.2, -0.1, 0.4]))
        tracemalloc.start()
        try:
            renormalize(family, 10**9, theta_hat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20
        started = time.perf_counter()
        renormalize(family, 7, theta_hat)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("d", [4, 5])
    def test_beyond_the_grid_budget_raises(self, d):
        # the first product grid would hold 97^d nodes, past the 2^23 budget
        family = GaussianLocationFamily(np.eye(d) + 0.25)
        tracemalloc.start()
        try:
            with pytest.raises(ExpfamError):
                renormalize(family, 3, family.mle(np.zeros(d)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    @settings(max_examples=25, deadline=None)
    @given(
        d=st.sampled_from([2, 3]),
        log_n=st.floats(0.0, 9.0),
        seed=st.integers(0, 2**32 - 1),
        log_eigs=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    )
    def test_random_covariance_within_tol_or_raises(self, d, log_n, seed, log_eigs):
        # a random rotation of eigenvalues 1e-2..1e2, and xbar in [-1e3, 1e3]^d
        rng = np.random.default_rng(seed)
        rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
        cov = rotation @ np.diag(10.0 ** np.array(log_eigs[:d])) @ rotation.T
        n = 10.0**log_n
        try:
            family = GaussianLocationFamily(0.5 * (cov + cov.T))
            profile = renormalize(family, n, family.mle(rng.uniform(-1e3, 1e3, size=d)))
        except ExpfamError:
            return
        assert profile.normalizer == pytest.approx(n ** (-d / 2), rel=1e-10, abs=0)

    def test_stacked_profile_equals_rows(self):
        family = GaussianLocationFamily(COV_3D)
        theta_hat = np.array([0.1, -0.4, 0.7])
        thetas = theta_hat + np.random.default_rng(3).normal(size=(40, 3))
        stacked = _log_profile(family, 4, theta_hat, thetas)
        rows = [_log_profile(family, 4, theta_hat, t) for t in thetas]
        assert stacked.tolist() == rows


def _mp_log_posterior(family, theta_hat, n, theta):
    """50-digit ln of the exact posterior density of theta whose MLE is the float theta_hat.

    The data mean is A'(theta_hat) in 50 digits, so that the profile around
    the rounded estimate and the reference share their centre.
    """
    t, th = mp.mpf(theta), mp.mpf(theta_hat)
    if isinstance(family, GammaFamily):
        # the rate -theta is Gamma(n alpha, n xbar) with xbar = alpha / -theta_hat
        a, b = n * mp.mpf(family.alpha), n * family.alpha / -th
        return a * mp.log(b) - mp.loggamma(a) + (a - 1) * mp.log(-t) + b * t
    if isinstance(family, PoissonExponentialFamily):
        # the rate is inverse Gaussian with mean -theta_hat and shape n kappa
        mean, shape, rate = -th, n * mp.mpf(family.kappa), -t
        return (mp.log(shape / (2 * mp.pi * rate**3)) / 2
                - shape * (rate - mean) ** 2 / (2 * mean**2 * rate))
    # Gaussian location, d == 1: N(theta_hat, 1/(n B))
    precision = n * mp.mpf(family.cov)
    return mp.log(precision / (2 * mp.pi)) / 2 - precision * (t - th) ** 2 / 2


class TestProfileLargeN:
    """The renormalized profile against 50-digit exact posteriors at large n.

    -n D(theta, theta_hat) as n times a difference of cumulants lost up to
    1.4e-6 at n = 1e9; the ratio integral's kernel keeps it within 1e-11.
    """

    @pytest.mark.parametrize(
        "family, xbar",
        [(GammaFamily(1.0), 1.3), (GammaFamily(3.0), 0.2),
         (PoissonExponentialFamily(2.0), 1.3), (GaussianLocationFamily(1.3), 0.7)],
    )
    @pytest.mark.parametrize("n", [10**6, 10**8, 10**9])
    def test_within_1e_11_of_mpmath(self, family, xbar, n):
        theta_hat = family.mle(xbar)
        profile = renormalize(family, n, theta_hat)
        width = 1.0 / math.sqrt(n * family.covariance(theta_hat))
        with mp.workdps(50):
            # the 5, 25, 50, 75 and 95% normal quantiles of the posterior
            for z in (-1.645, -0.674, 0.0, 0.674, 1.645):
                theta = theta_hat + z * width
                ref = float(_mp_log_posterior(family, theta_hat, n, theta))
                assert abs(profile.log_density(theta) - ref) <= 1e-11, (z, theta)


class TestExactness:
    def test_gamma(self):
        family = GammaFamily(1.0)
        grid = [-0.3, -1.0, -2.0, -4.0]
        assert exactness_report(family, 3, family.mle(1.0), grid, tol=1e-11) <= 1e-7

    def test_gaussian(self):
        family = GaussianLocationFamily(1.0)
        grid = [-1.0, 0.0, 0.7, 2.0]
        assert exactness_report(family, 2, 0.7, grid, tol=1e-11) <= 1e-9

    def test_poisson_exponential(self):
        family = PoissonExponentialFamily(2.0)
        grid = [-0.4, -1.0, -1.8, -3.0]
        assert exactness_report(family, 2, family.mle(1.0), grid, tol=1e-11) <= 1e-7

    def test_three_by_three_grids(self):
        cases = (
            (GammaFamily(1.0), (0.5, 1.0, 2.0)),
            (GaussianLocationFamily(1.0), (-1.0, 0.5, 2.0)),
            (PoissonExponentialFamily(2.0), (0.5, 1.0, 2.0)),
        )
        for family, means in cases:
            for n in (1, 2, 4):
                for xbar in means:
                    theta_hat = family.mle(xbar)
                    grid = [theta_hat * s for s in (0.5, 1.0, 2.0)] if not isinstance(
                        family, GaussianLocationFamily
                    ) else [theta_hat - 1.0, theta_hat, theta_hat + 1.0]
                    assert (
                        exactness_report(family, n, theta_hat, grid, tol=1e-11)
                        <= 1e-6
                    ), (family, n, xbar)

    def test_inverse_gaussian_has_no_closed_form_posterior(self):
        family = InverseGaussianFamily(2.0)
        with pytest.raises(DomainError):
            exactness_report(family, 2, -1.0, [-1.0], tol=1e-10)


def _gaussian_log_posterior(family, n, xbar, theta):
    """Reference: the N(B^-1 xbar, B^-1/n) log density, written out with numpy."""
    theta = np.atleast_1d(family._check_natural(theta))
    center = np.atleast_1d(family.mle(xbar))
    prec = n * family._B
    delta = theta - center
    logdet_cov = -float(np.linalg.slogdet(prec)[1])
    return -0.5 * (family.d * math.log(TAU) + logdet_cov) - 0.5 * float(
        delta @ prec @ delta
    )


class TestJeffreysPosterior:
    @pytest.mark.parametrize(
        "cov, xbar, thetas",
        [
            (1.0, 0.7, [-1.0, 0.0, 0.7, 2.5]),
            (2.5, -1.3, [-3.0, -0.52, 0.4]),
            (
                np.array([[1.0, 0.3], [0.3, 2.0]]),
                np.array([0.5, -1.0]),
                [np.array([0.0, 0.0]), np.array([0.8, -0.6]), np.array([-1.0, 2.0])],
            ),
        ],
    )
    def test_gaussian_equals_closed_form(self, cov, xbar, thetas):
        family = GaussianLocationFamily(cov)
        for n in (1, 3):
            posterior = family.jeffreys_posterior(ObservationBatch(n=n, xbar=xbar))
            for theta in thetas:
                assert posterior.log_pdf(theta) == _gaussian_log_posterior(
                    family, n, xbar, theta
                )

    def test_gaussian_quantiles(self):
        family = GaussianLocationFamily(2.0)
        posterior = family.jeffreys_posterior(ObservationBatch(n=4, xbar=1.0))
        # N(0.5, 1/8) in the natural coordinate
        assert posterior.ppf(0.5) == 0.5
        assert posterior.ppf(0.975) == pytest.approx(0.5 + 1.959964 / math.sqrt(8.0))
        two_d = GaussianLocationFamily(np.eye(2))
        with pytest.raises(DomainError):
            two_d.jeffreys_posterior(ObservationBatch(n=1, xbar=np.zeros(2))).ppf(0.5)

    @pytest.mark.parametrize(
        "family, rate_posterior",
        [
            (GammaFamily(2.0), lambda b: GammaPosterior(b.n * 2.0, b.n * b.xbar)),
            (PoissonExponentialFamily(2.0), lambda b: poisson_exponential_posterior(2.0, b)),
        ],
    )
    def test_rate_posteriors_in_natural_coordinates(self, family, rate_posterior):
        batch = ObservationBatch(n=3, xbar=0.8)
        posterior = family.jeffreys_posterior(batch)
        rate = rate_posterior(batch)
        for theta in (-0.3, -1.0, -2.5):
            assert posterior.log_pdf(theta) == rate.log_pdf(-theta)
        for p in (0.05, 0.5, 0.9):
            # theta <= ppf(p) exactly when the rate is >= -ppf(p)
            assert 1.0 - rate.cdf(-posterior.ppf(p)) == pytest.approx(p, abs=1e-12)

    def test_inverse_gaussian_has_none(self):
        with pytest.raises(DomainError):
            InverseGaussianFamily(2.0).jeffreys_posterior(ObservationBatch(n=1, xbar=1.0))
