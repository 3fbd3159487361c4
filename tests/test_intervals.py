"""Tests for the interval constructions and coverage simulation."""

import math
import time

import numpy as np
import pytest
from scipy import special
from scipy.optimize import brentq  # the oracle of the Brent port

from expfam import (
    GammaFamily,
    GaussianLocationFamily,
    PoissonExponentialFamily,
    ObservationBatch,
    poisson_exponential_posterior,
)
from expfam.core import REAL_LINE
from expfam.distributions import InverseGaussianDist, PoissonExponentialDist
from expfam.errors import DegenerateDataError, DomainError
from expfam import intervals
from expfam.intervals import (
    CoverageReport,
    GammaRateInterval,
    GaussianDivergenceBall,
    PoissonExponentialRateInterval,
    coverage_simulation,
    gamma_confidence,
    gamma_credible,
    gaussian_divergence_ball,
    interval_construction,
    poisson_exp_confidence,
    poisson_exp_credible,
)
from expfam.numerics import (
    integrate,
    inv_reg_gamma_lower,
    rng_stream,
)


class TestGammaCredible:
    def test_exponential_quantile(self):
        result = gamma_credible(1.0, ObservationBatch(n=1, xbar=1.0), 0.9)
        assert result.lower == 0.0
        assert result.upper == pytest.approx(-math.log(0.1), abs=1e-9)
        assert result.method == "CredibleOneSided"

    def test_scaling_in_xbar(self):
        result = gamma_credible(1.0, ObservationBatch(n=1, xbar=2.0), 0.9)
        assert result.upper == pytest.approx(-math.log(0.1) / 2.0, abs=1e-9)

    def test_posterior_mass_equals_level(self):
        for alpha, m, xbar, level in (
            (1.0, 1, 1.0, 0.9),
            (2.0, 3, 0.5, 0.95),
            (0.7, 5, 2.0, 0.5),
        ):
            batch = ObservationBatch(n=m, xbar=xbar)
            result = gamma_credible(alpha, batch, level)
            post = GammaFamily(alpha).jeffreys_posterior(batch).rate
            assert post.cdf(result.upper) == pytest.approx(level, abs=1e-9)

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            gamma_credible(1.0, ObservationBatch(n=1, xbar=0.0), 0.9)


class TestGammaConfidence:
    def test_endpoints_match_credible(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            alpha = float(rng.uniform(0.5, 4.0))
            m = int(rng.integers(1, 9))
            xbar = float(rng.uniform(0.2, 5.0))
            level = float(rng.uniform(0.5, 0.99))
            batch = ObservationBatch(n=m, xbar=xbar)
            credible = gamma_credible(alpha, batch, level)
            confidence = gamma_confidence(alpha, batch, level)
            assert confidence.upper == credible.upper
            assert confidence.lower == credible.lower
            assert confidence.method == "ConfidencePivot"

    def test_pivot_probability(self):
        # beta Xbar ~ Gamma(m alpha, m); its level-quantile has cdf = level
        alpha, m, level = 2.0, 4, 0.9
        quantile = inv_reg_gamma_lower(m * alpha, level) / m
        assert special.gammainc(m * alpha, m * quantile) == pytest.approx(
            level, abs=1e-12
        )

    def test_monte_carlo_coverage(self):
        family = GammaFamily(1.0)
        report = coverage_simulation(
            family,
            lambda b: gamma_confidence(1.0, b, 0.9),
            -2.0,
            5,
            0.9,
            20_000,
            seed=9,
        )
        assert report.within_band


class TestGaussianDivergenceBall:
    def test_radius_closed_form(self):
        result = gaussian_divergence_ball(1.0, ObservationBatch(n=4, xbar=0.5), 0.95)
        assert result.radius == pytest.approx(3.841458820694124 / 8.0, abs=1e-7)

    def test_boundary_identity(self):
        # 2 n D_A at the boundary reproduces the chi-squared quantile
        family = GaussianLocationFamily(1.0)
        n, level = 4, 0.9
        result = gaussian_divergence_ball(family, ObservationBatch(n=n, xbar=0.5), level)
        chi2_quantile = 2.0 * inv_reg_gamma_lower(0.5, level)
        boundary_theta = result.center + math.sqrt(2.0 * result.radius)
        assert 2.0 * n * family.bregman(boundary_theta, result.center) == pytest.approx(
            chi2_quantile, abs=1e-9
        )

    def test_stack_of_wrong_dimension_rejected(self):
        family = GaussianLocationFamily(np.diag([2.0, 0.5]))
        for xbar in (np.zeros((5, 3)), np.zeros(3), 0.5):
            with pytest.raises(DomainError):
                gaussian_divergence_ball(family, ObservationBatch(n=2, xbar=xbar), 0.9)

    def test_covers_checks_theta(self):
        family = GaussianLocationFamily(np.diag([2.0, 0.5]))
        ball = gaussian_divergence_ball(family, ObservationBatch(n=2, xbar=np.zeros(2)), 0.9)
        assert ball.covers(np.zeros(2))
        for theta in (np.zeros(3), np.array([0.0, math.nan]), np.zeros((4, 2))):
            with pytest.raises(DomainError):
                ball.covers(theta)

    def test_posterior_mass_one_dim(self):
        # posterior N(xbar, 1/n): mass of the ball by direct quadrature
        n, level, xbar = 4, 0.9, 0.5
        result = gaussian_divergence_ball(1.0, ObservationBatch(n=n, xbar=xbar), level)
        half_width = math.sqrt(2.0 * result.radius)
        sd = 1.0 / math.sqrt(n)

        def posterior_pdf(t):
            return math.exp(-((t - xbar) ** 2) / (2 * sd * sd)) / math.sqrt(
                2 * math.pi * sd * sd
            )

        mass = integrate(
            posterior_pdf, xbar - half_width, xbar + half_width, tol=1e-12
        ).value
        assert mass == pytest.approx(level, abs=1e-8)

    def test_posterior_mass_two_dim(self):
        # whiten: the ball has mass P(chi2_2 <= q); evaluate by reducing the
        # two-dimensional Gaussian integral over the disk to one dimension
        # with the normal cdf, an independent route
        level = 0.9
        B = np.array([[2.0, 0.4], [0.4, 1.0]])
        batch = ObservationBatch(n=3, xbar=np.array([0.3, -0.2]))
        result = gaussian_divergence_ball(B, batch, level)
        radius = math.sqrt(2.0 * batch.n * result.radius)

        def slice_mass(z1):
            width = math.sqrt(max(radius * radius - z1 * z1, 0.0))
            phi = math.exp(-0.5 * z1 * z1) / math.sqrt(2 * math.pi)
            return phi * (special.ndtr(width) - special.ndtr(-width))

        mass = integrate(slice_mass, -radius, radius, tol=1e-12).value
        assert mass == pytest.approx(level, abs=1e-8)

    def test_frequentist_coverage(self):
        family = GaussianLocationFamily(1.0)
        report = coverage_simulation(
            family,
            lambda b: gaussian_divergence_ball(family, b, 0.9),
            0.3,
            4,
            0.9,
            20_000,
            seed=13,
        )
        assert abs(report.empirical_coverage - 0.9) < 0.01


def doubled_bracket(rising, start):
    """The ends ``find_root`` brackets the zero of ``rising`` by: from ``start``
    it halves until rising < 0, then doubles until rising > 0."""
    lo, hi = 0.5 * start, 2.0 * start
    while rising(lo) >= 0.0:
        lo *= 0.5
    while rising(hi) <= 0.0:
        hi *= 2.0
    return lo, hi


class TestPoissonExponentialCredible:
    def test_posterior_mass_equals_level(self):
        kappa, batch, level = 2.0, ObservationBatch(n=1, xbar=2.0), 0.9
        result = poisson_exp_credible(kappa, batch, level)
        post = poisson_exponential_posterior(kappa, batch)
        assert post.cdf(result.upper) == pytest.approx(level, abs=1e-8)

    def test_against_quadrature_cdf_inversion(self):
        kappa, batch, level = 2.0, ObservationBatch(n=1, xbar=2.0), 0.9
        result = poisson_exp_credible(kappa, batch, level)
        post = poisson_exponential_posterior(kappa, batch)

        def quad_cdf(b):
            return integrate(post.pdf, 0.0, b, tol=1e-12).value

        oracle = brentq(lambda b: quad_cdf(b) - level, 0.1, 10.0, xtol=1e-12)
        assert result.upper == pytest.approx(oracle, abs=1e-6)

    def test_monotone_in_level(self):
        kappa, batch = 2.0, ObservationBatch(n=2, xbar=1.0)
        uppers = [
            poisson_exp_credible(kappa, batch, level).upper
            for level in (0.5, 0.7, 0.9, 0.99)
        ]
        assert all(a < b for a, b in zip(uppers, uppers[1:]))

    def test_all_zero_data_degenerate(self):
        with pytest.raises(DegenerateDataError):
            poisson_exp_credible(2.0, ObservationBatch(n=3, xbar=0.0), 0.9)


class TestPoissonExponentialConfidence:
    def test_upper_bound_decreases_in_xbar(self):
        kappa, level = 2.0, 0.9
        uppers = [
            poisson_exp_confidence(kappa, ObservationBatch(n=1, xbar=x), level).upper
            for x in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(uppers, uppers[1:]))

    def test_reproduces_gamma_pivot_when_applied_to_gamma(self):
        # the same cdf-inversion recipe applied to the Gamma sampling
        # distribution reproduces the pivot endpoints exactly
        alpha, m, xbar, level = 2.0, 3, 0.8, 0.9
        s_obs = m * xbar

        def sum_cdf(beta):
            return special.gammainc(m * alpha, beta * s_obs)

        upper = brentq(lambda b: sum_cdf(b) - level, 0.01, 40.0, xtol=1e-13)
        pivot = gamma_confidence(alpha, ObservationBatch(n=m, xbar=xbar), level)
        assert upper == pytest.approx(pivot.upper, rel=1e-9)

    def test_endpoint_solves_cdf_equation(self):
        kappa, m, xbar, level = 2.0, 2, 1.5, 0.9
        result = poisson_exp_confidence(
            kappa, ObservationBatch(n=m, xbar=xbar), level
        )
        dist = PoissonExponentialDist(m * kappa, result.upper)
        assert dist.cdf(m * xbar) == pytest.approx(level, abs=1e-10)

    # the beta solving P_beta(S <= m xbar) = 0.9 at kappa 2, xbar 1.00001: mpmath's
    # secant method on the 40-digit quadrature cdf of test_distributions.py
    # (CLOSED_FORM_REFERENCE) with lam = m / beta and t = beta m xbar
    LARGE_M_ROOTS = [(10**8, 1.0000856203438903775), (10**9, 1.0000236563473388694)]

    @pytest.mark.parametrize("m, root", LARGE_M_ROOTS)
    def test_large_m_endpoint(self, m, root):
        started = time.perf_counter()
        result = poisson_exp_confidence(2.0, ObservationBatch(n=m, xbar=1.00001), 0.9)
        assert time.perf_counter() - started < 1.0
        # against the root, not the residual: dF/dbeta is about 2500 at m = 1e8,
        # so a residual of 1e-10 is a root error of 4e-14
        assert result.upper == pytest.approx(root, rel=1e-12, abs=0.0)

    def test_rate_beyond_the_chi_squared_kernel(self):
        # near beta = sqrt(1e-3) the Poisson rate m kappa / (2 beta) is 3.2e10,
        # where scipy's chndtr returns nan; the contour form holds there.  The
        # root is mpmath's secant method on the 40-digit cdf, and Brent's xtol
        # is 1e-12
        started = time.perf_counter()
        result = poisson_exp_confidence(2.0, ObservationBatch(n=10**9, xbar=1e3), 0.9)
        assert time.perf_counter() - started < 1.0
        assert result.upper == pytest.approx(0.031622937748422424, rel=0.0, abs=2e-12)

    def test_no_endpoint_of_the_large_sample_grid_raises(self):
        # m 1e6..1e9 by x-bar 1e-3..1e3 by kappa 0.1, 2, 10: Poisson rates up to
        # 7e10; the level lies between the cdfs a Brent tolerance either side
        started = time.perf_counter()
        for m in (10**6, 10**7, 10**8, 10**9):
            for xbar in 10.0 ** np.arange(-3, 4):
                for kappa in (0.1, 2.0, 10.0):
                    batch = ObservationBatch(n=m, xbar=float(xbar))
                    upper = poisson_exp_confidence(kappa, batch, 0.9).upper
                    step = 2e-12 + 1e-15 * upper
                    low, high = (
                        PoissonExponentialDist(m * kappa, beta).cdf(m * xbar)
                        for beta in (upper - step, upper + step)
                    )
                    assert low <= 0.9 <= high
        assert time.perf_counter() - started < 5.0

    def test_matches_brentq_on_the_distribution_cdf(self):
        # the endpoint is scipy's brentq, bit for bit, on the cdf of a
        # PoissonExponentialDist built per beta and the same doubled bracket
        rng = np.random.default_rng(18)
        for _ in range(150):
            m = int(10.0 ** rng.uniform(0.0, 6.0))
            kappa, xbar = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
            level = rng.uniform(0.5, 0.99)
            rising = lambda b: PoissonExponentialDist(m * kappa, b).cdf(m * xbar) - level
            lo, hi = doubled_bracket(rising, math.sqrt(kappa / (2.0 * xbar)))
            oracle = brentq(
                rising, lo, hi, xtol=1e-12,
                rtol=4.0 * np.finfo(float).eps, maxiter=200,
            )
            batch = ObservationBatch(n=m, xbar=xbar)
            assert poisson_exp_confidence(kappa, batch, level).upper == oracle

    @pytest.mark.parametrize("m, xbar", [(1, 0.3), (1, 1.0), (5, 2.0), (100, 0.7), (10**5, 1.1)])
    def test_each_beta_evaluated_once(self, monkeypatch, m, xbar):
        calls = []
        kernel = intervals._pe_cdf

        def counting(lam, t):
            calls.append(t)  # t = beta m xbar: one t per beta
            return kernel(lam, t)

        monkeypatch.setattr(intervals, "_pe_cdf", counting)
        poisson_exp_confidence(2.0, ObservationBatch(n=m, xbar=xbar), 0.9)
        assert len(calls) == len(set(calls))

    def test_differs_from_credible(self):
        kappa, level, tol = 2.0, 0.9, 1e-10
        batch = ObservationBatch(n=1, xbar=2.0)
        credible = poisson_exp_credible(kappa, batch, level)
        confidence = poisson_exp_confidence(kappa, batch, level)
        assert abs(credible.upper - confidence.upper) > 100.0 * tol

    def test_method_tag(self):
        result = poisson_exp_confidence(2.0, ObservationBatch(n=1, xbar=1.0), 0.9)
        assert result.method == "ConfidenceCdfInversion"


class TestCoverageSimulation:
    def test_deterministic_under_seed(self):
        family = GammaFamily(1.0)
        op = lambda b: gamma_credible(1.0, b, 0.9)
        a = coverage_simulation(family, op, -2.0, 3, 0.9, 5_000, seed=21)
        b = coverage_simulation(family, op, -2.0, 3, 0.9, 5_000, seed=21)
        assert a == b

    def test_level_half_sanity(self):
        family = GammaFamily(1.0)
        report = coverage_simulation(
            family, lambda b: gamma_credible(1.0, b, 0.5), -1.0, 4, 0.5, 20_000, seed=2
        )
        assert report.within_band

    def test_counts_consistent(self):
        family = GammaFamily(1.0)
        report = coverage_simulation(
            family, lambda b: gamma_credible(1.0, b, 0.9), -1.0, 2, 0.9, 1_000, seed=5
        )
        assert isinstance(report, CoverageReport)
        assert report.hits <= report.trials
        assert report.empirical_coverage == report.hits / report.trials

    def test_poisson_exp_degenerate_excluded(self):
        family = PoissonExponentialFamily(2.0)
        report = coverage_simulation(
            family,
            lambda b: poisson_exp_credible(2.0, b, 0.9),
            -1.0,
            1,
            0.9,
            4_000,
            seed=3,
        )
        # about exp(-1) of trials are all-atom at m=1
        assert report.degenerate > 1_000
        assert report.trials == 4_000 - report.degenerate

    def test_means_without_an_mle_in_floats_are_degenerate(self):
        # Gamma(1e-3) means fall to 0 or to subnormals where alpha/xbar
        # overflows; neither has a rate interval, so neither is a trial
        alpha = 1e-3
        family = GammaFamily(alpha)
        report = coverage_simulation(
            family, lambda b: gamma_credible(alpha, b, 0.9), -1.0, 1, 0.9, 2_000, seed=0
        )
        # the same 16 streams of 125 one-draw trials
        means = np.concatenate(
            [family.sample(rng_stream(0, i), -1.0, (125, 1))[:, 0] for i in range(16)]
        )
        assert report.degenerate > np.count_nonzero(means == 0.0)
        assert report.degenerate == np.count_nonzero(means < alpha / np.finfo(float).max)

    def test_input_validation(self):
        family = GammaFamily(1.0)
        op = lambda b: gamma_credible(1.0, b, 0.9)
        with pytest.raises(DomainError):
            coverage_simulation(family, op, -1.0, 0, 0.9, 100, seed=1)
        with pytest.raises(DomainError):
            coverage_simulation(family, op, -1.0, 2, 0.9, 0, seed=1)
        # a fractional count was truncated: 2.5 trials ran 2
        with pytest.raises(DomainError, match="whole number"):
            coverage_simulation(family, op, -1.0, 2, 0.9, 2.5, seed=1)
        with pytest.raises(DomainError, match="whole number"):
            coverage_simulation(family, op, -1.0, 3.9, 0.9, 100, seed=1)


class TestIntervalEstimators:
    def test_gamma_estimator_fit(self):
        est = GammaRateInterval(alpha=1.0, level=0.9).fit([1.0])
        assert est.upper_ == pytest.approx(-math.log(0.1), abs=1e-9)
        assert est.covers(1.0) and not est.covers(5.0)

    def test_gamma_estimator_methods_coincide(self):
        data = [0.5, 1.5, 1.0]
        credible = GammaRateInterval(alpha=2.0, method="credible").fit(data)
        confidence = GammaRateInterval(alpha=2.0, method="confidence").fit(data)
        assert credible.upper_ == confidence.upper_

    def test_poisson_exp_estimator_methods_differ(self):
        data = [2.0]
        credible = PoissonExponentialRateInterval(kappa=2.0).fit(data)
        confidence = PoissonExponentialRateInterval(kappa=2.0, method="confidence").fit(
            data
        )
        assert credible.upper_ != confidence.upper_

    def test_ball_estimator(self):
        est = GaussianDivergenceBall(cov=1.0, level=0.95).fit([1.0, 2.0])
        assert est.center_ == pytest.approx(1.5)
        assert est.covers(1.5)
        assert not est.covers(1.5 + math.sqrt(2.1 * est.radius_))

    def test_get_params_round_trip(self):
        est = PoissonExponentialRateInterval(kappa=2.0, level=0.8, method="confidence")
        assert est.get_params() == {"kappa": 2.0, "level": 0.8, "method": "confidence"}
        est.set_params(level=0.9)
        assert est.level == 0.9

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            GammaRateInterval(alpha=1.0, method="hpd").fit([1.0])

    @pytest.mark.parametrize(
        "estimator, data",
        [
            (GammaRateInterval(2.0, 0.8, "credible"), [0.5, 1.5]),
            (GammaRateInterval(2.0, 0.8, "confidence"), [0.5, 1.5]),
            (PoissonExponentialRateInterval(2.0, 0.8, "credible"), [0.0, 2.0]),
            (PoissonExponentialRateInterval(2.0, 0.8, "confidence"), [0.0, 2.0]),
            (GaussianDivergenceBall(1.5, 0.8), [0.3, -1.2]),
            (GaussianDivergenceBall(np.eye(2), 0.8), [[0.3, -1.0], [1.2, 0.4]]),
        ],
    )
    def test_fit_checks_its_input_once(self, as_batch_calls, estimator, data):
        # fit passes X straight to the construction, which runs as_batch
        estimator.fit(data)
        assert as_batch_calls == ["rows"]

    def test_fit_still_rejects_a_bad_level_and_bad_data(self):
        # the checks fit dropped are the construction's
        with pytest.raises(DomainError, match=r"level must lie in \(0, 1\)"):
            GammaRateInterval(1.0, level=1.5).fit([1.0])
        with pytest.raises(DegenerateDataError, match="a batch mean is 0"):
            PoissonExponentialRateInterval(2.0).fit([0.0, 0.0])
        with pytest.raises(DomainError, match="observations must be finite"):
            GaussianDivergenceBall(1.0).fit([1.0, math.nan])

    @pytest.mark.parametrize(
        "estimator, family, method, data",
        [
            (GammaRateInterval(2.0, 0.8, "credible"), GammaFamily(2.0), "credible",
             [0.5, 1.5, 1.0]),
            (GammaRateInterval(2.0, 0.8, "confidence"), GammaFamily(2.0), "confidence",
             [0.5, 1.5, 1.0]),
            (PoissonExponentialRateInterval(2.0, 0.8, "credible"),
             PoissonExponentialFamily(2.0), "credible", [0.0, 2.0, 0.7]),
            (PoissonExponentialRateInterval(2.0, 0.8, "confidence"),
             PoissonExponentialFamily(2.0), "confidence", [0.0, 2.0, 0.7]),
            (GaussianDivergenceBall(1.5, 0.8), GaussianLocationFamily(1.5),
             "divergence-ball", [0.3, -1.2, 2.0]),
            (GaussianDivergenceBall(np.array([[1.0, 0.3], [0.3, 2.0]]), 0.8),
             GaussianLocationFamily(np.array([[1.0, 0.3], [0.3, 2.0]])),
             "divergence-ball", [[0.3, -1.0], [1.2, 0.4]]),
        ],
    )
    def test_estimators_equal_the_table(self, estimator, family, method, data):
        batch = ObservationBatch.from_observations(data)
        want = interval_construction(family, method, 0.8)(batch)
        got = estimator.fit(data).result_
        assert type(got) is type(want)
        assert got.level == want.level and got.diagnostics == want.diagnostics
        assert getattr(got, "method", None) == getattr(want, "method", None)
        fitted = ("center", "radius") if method == "divergence-ball" else ("lower", "upper")
        for name in fitted:
            assert np.array_equal(getattr(got, name), getattr(want, name))
            assert np.array_equal(getattr(estimator, name + "_"), getattr(want, name))


def loop_coverage(family, interval_fn, theta_true, m, level, trials, seed, n_streams=16):
    """The per-trial coverage loop that ``coverage_simulation`` batches.

    Same streams and draws; one scalar batch and one interval per trial,
    with degenerate trials found by the construction raising: an all-zero
    sample, or a mean so near 0 that its MLE leaves the floats.
    """
    theta_true = family._check_natural(theta_true)
    n_streams = min(n_streams, trials)
    per = [trials // n_streams] * n_streams
    for i in range(trials % n_streams):
        per[i] += 1
    hits = 0
    degenerate = 0
    for stream_id, chunk in enumerate(per):
        rng = rng_stream(seed, stream_id)
        for row in np.asarray(family.sample(rng, theta_true, size=(chunk, m))):
            xbar = float(row.mean()) if family.d == 1 else row.mean(axis=0)
            try:
                result = interval_fn(ObservationBatch(n=m, xbar=xbar))
            except DegenerateDataError:
                degenerate += 1
                continue
            except DomainError as exc:
                if "no MLE in floats" not in str(exc):
                    raise
                degenerate += 1
                continue
            if result.covers_natural(theta_true):
                hits += 1
    valid = trials - degenerate
    sigma = math.sqrt(level * (1.0 - level) / valid)
    return CoverageReport(
        trials=valid,
        hits=hits,
        empirical_coverage=hits / valid,
        three_sigma_band=(level - 3.0 * sigma, level + 3.0 * sigma),
        level=level,
        degenerate=degenerate,
    )


B2 = np.array([[2.0, 0.4], [0.4, 1.0]])
GAUSS1 = GaussianLocationFamily(2.0)
GAUSS2 = GaussianLocationFamily(B2)

#: name -> (family, interval_fn, true natural parameter, level, trials)
CONSTRUCTIONS = {
    "gamma-credible": (
        GammaFamily(1.5), lambda b: gamma_credible(1.5, b, 0.9), -2.0, 0.9, 1500
    ),
    "gamma-confidence": (
        GammaFamily(0.7), lambda b: gamma_confidence(0.7, b, 0.8), -0.5, 0.8, 1500
    ),
    # at this shape many draws underflow to exactly zero: degenerate trials
    "gamma-credible-tiny-shape": (
        GammaFamily(0.002), lambda b: gamma_credible(0.002, b, 0.9), -1.0, 0.9, 1500
    ),
    "ball-d1": (
        GAUSS1, lambda b: gaussian_divergence_ball(GAUSS1, b, 0.9), 0.3, 0.9, 1500
    ),
    "ball-d2": (
        GAUSS2,
        lambda b: gaussian_divergence_ball(GAUSS2, b, 0.85),
        np.array([0.1, -0.2]),
        0.85,
        1500,
    ),
    "poisson-exp-credible": (
        PoissonExponentialFamily(2.0),
        lambda b: poisson_exp_credible(2.0, b, 0.9),
        -1.0,
        0.9,
        1500,
    ),
    "poisson-exp-confidence": (
        PoissonExponentialFamily(2.0),
        lambda b: poisson_exp_confidence(2.0, b, 0.9),
        -1.0,
        0.9,
        300,
    ),
}


class TestBatchedCoverageMatchesLoop:
    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("seed", [0, 17, 2024])
    def test_same_report(self, name, m, seed):
        family, fn, theta, level, trials = CONSTRUCTIONS[name]
        batched = coverage_simulation(family, fn, theta, m, level, trials, seed)
        reference = loop_coverage(family, fn, theta, m, level, trials, seed)
        assert batched.hits == reference.hits
        assert batched.trials == reference.trials
        assert batched.degenerate == reference.degenerate
        assert batched.empirical_coverage == reference.empirical_coverage
        assert batched == reference
        assert type(batched.hits) is int

    def test_degenerate_trials_occur(self):
        # the cases above exercise the up-front masking, not only clean draws
        for name in ("gamma-credible-tiny-shape", "poisson-exp-credible"):
            family, fn, theta, level, trials = CONSTRUCTIONS[name]
            assert coverage_simulation(family, fn, theta, 1, level, trials, 0).degenerate > 0


def stream_coverage(family, interval_fn, theta_true, m, level, trials, seed, n_streams=16):
    """``coverage_simulation`` with one ``interval_fn`` call per stream."""
    theta_true = family._check_natural(theta_true)
    per = [trials // n_streams + (i < trials % n_streams) for i in range(n_streams)]
    hits = 0
    degenerate = 0
    for stream_id, chunk in enumerate(per):
        rng = rng_stream(seed, stream_id)
        data = np.asarray(family.sample(rng, theta_true, size=(chunk, m)))
        means = data.mean(axis=1)
        if family.support_domain != REAL_LINE:
            degenerate += int(np.count_nonzero(means == 0.0))
            means = means[means != 0.0]
        result = interval_fn(ObservationBatch(n=m, xbar=means))
        hits += int(np.count_nonzero(result.covers_natural(theta_true)))
    valid = trials - degenerate
    sigma = math.sqrt(level * (1.0 - level) / valid)
    return CoverageReport(
        trials=valid,
        hits=hits,
        empirical_coverage=hits / valid,
        three_sigma_band=(level - 3.0 * sigma, level + 3.0 * sigma),
        level=level,
        degenerate=degenerate,
    )


class TestGroupedCoverage:
    """Means of several streams go to one construction call of >= 4,096 trials."""

    # 20,000 trials flush in mid-loop and at the end; at 100,000 every
    # stream alone reaches 4,096 (but for Poisson-exponential dropouts)
    @pytest.mark.parametrize(
        "name", ["gamma-credible", "ball-d1", "ball-d2", "poisson-exp-credible"]
    )
    @pytest.mark.parametrize("trials", [20_000, 100_000])
    def test_same_report_as_one_call_per_stream(self, name, trials):
        family, fn, theta, level, _ = CONSTRUCTIONS[name]
        grouped = coverage_simulation(family, fn, theta, 1, level, trials, 11)
        assert grouped == stream_coverage(family, fn, theta, 1, level, trials, 11)

    @pytest.mark.parametrize("trials", [1_500, 20_000, 100_000])
    def test_calls_hold_at_least_4096_trials(self, trials):
        family, fn, theta, level, _ = CONSTRUCTIONS["poisson-exp-credible"]
        sizes = []

        def counting(batch):
            sizes.append(batch.xbar.shape[0])
            return fn(batch)

        report = coverage_simulation(family, counting, theta, 1, level, trials, 11)
        assert sum(sizes) == report.trials
        assert all(size >= 4096 for size in sizes[:-1])
        if trials == 1_500:
            assert len(sizes) == 1


def _stacked_means(family, theta, m, trials, seed):
    """Trial means drawn as coverage_simulation draws them, without zero means."""
    data = np.asarray(family.sample(rng_stream(seed, 0), theta, size=(trials, m)))
    means = data.mean(axis=1)
    return means if family.support_domain == REAL_LINE else means[means > 0]


class TestStackedConstructions:
    """Element i of a stacked construction equals the scalar one for trial i."""

    @pytest.mark.parametrize("name", ["gamma-credible", "gamma-confidence"])
    def test_gamma_exact(self, name):
        family, fn, theta, _, _ = CONSTRUCTIONS[name]
        means = _stacked_means(family, theta, 3, 200, 5)
        stacked = fn(ObservationBatch(n=3, xbar=means))
        covers = stacked.covers_natural(theta)
        assert stacked.upper.shape == means.shape
        for i, xbar in enumerate(means):
            single = fn(ObservationBatch(n=3, xbar=float(xbar)))
            assert isinstance(single.upper, float)
            assert stacked.upper[i] == single.upper
            assert stacked.diagnostics["posterior_rate"][i] == single.diagnostics["posterior_rate"]
            assert stacked.diagnostics["posterior_shape"] == single.diagnostics["posterior_shape"]
            assert covers[i] == single.covers_natural(theta)

    @pytest.mark.parametrize("name", ["ball-d1", "ball-d2"])
    def test_ball_exact(self, name):
        family, fn, theta, _, _ = CONSTRUCTIONS[name]
        means = _stacked_means(family, theta, 4, 200, 6)
        stacked = fn(ObservationBatch(n=4, xbar=means))
        covers = stacked.covers_natural(theta)
        divergences = family._bregman(theta, stacked.center)
        assert covers.shape == (means.shape[0],)
        for i, xbar in enumerate(means):
            single = fn(ObservationBatch(n=4, xbar=xbar if family.d > 1 else float(xbar)))
            assert np.array_equal(stacked.center[i], single.center)
            assert stacked.radius == single.radius
            assert divergences[i] == family._bregman(theta, single.center)
            assert covers[i] == single.covers_natural(theta)

    @pytest.mark.parametrize("name", ["poisson-exp-credible", "poisson-exp-confidence"])
    @pytest.mark.parametrize("m", [1, 5])
    def test_root_found_endpoints(self, name, m):
        family, fn, theta, _, _ = CONSTRUCTIONS[name]
        means = _stacked_means(family, theta, m, 60, 7)
        stacked = fn(ObservationBatch(n=m, xbar=means))
        covers = stacked.covers_natural(theta)
        for i, xbar in enumerate(means):
            single = fn(ObservationBatch(n=m, xbar=float(xbar)))
            assert isinstance(single.upper, float)
            assert stacked.upper[i] == pytest.approx(single.upper, rel=1e-12, abs=0)
            assert covers[i] == single.covers_natural(theta)

    def test_degenerate_trial_in_stack(self):
        batch = ObservationBatch(n=2, xbar=np.array([0.5, 0.0, 1.0]))
        with pytest.raises(DegenerateDataError):
            poisson_exp_credible(2.0, batch, 0.9)
        with pytest.raises(DegenerateDataError):
            gamma_credible(1.0, batch, 0.9)

    @pytest.mark.parametrize(
        "construction",
        [gamma_credible, gamma_confidence, poisson_exp_credible, poisson_exp_confidence],
    )
    @pytest.mark.parametrize(
        "xbar", [1e-320, np.array([1e-320, 1.0])], ids=["scalar", "stacked"]
    )
    def test_mean_without_an_mle_in_floats(self, construction, xbar):
        # the rate MLE alpha/xbar or sqrt(kappa/(2 xbar)) overflows
        with pytest.raises(DomainError, match="no MLE in floats"):
            construction(2.0, ObservationBatch(n=1, xbar=xbar), 0.9)

    def test_ball_coverage_in_two_dimensions(self):
        # a stacked 2-d ball, never reachable through the old per-row reshape
        report = coverage_simulation(
            GAUSS2,
            lambda b: gaussian_divergence_ball(GAUSS2, b, 0.9),
            np.array([0.1, -0.2]),
            3,
            0.9,
            20_000,
            seed=4,
        )
        assert report.within_band


class TestStackedInverseGaussianQuantile:
    def test_matches_scalar_and_level(self):
        # both paths stop at a relative tolerance, so small quantiles agree
        # to rounding as well as large ones
        means = np.geomspace(1e-3, 1e3, 13)
        for shape in np.geomspace(1e-3, 1e4, 8):
            for p in (0.025, 0.05, 0.5, 0.9, 0.95, 0.975, 0.999):
                stacked = InverseGaussianDist(means, shape).ppf(p)
                for mean, q in zip(means, stacked):
                    dist = InverseGaussianDist(float(mean), float(shape))
                    assert dist.cdf(q) == pytest.approx(p, abs=1e-12)
                    assert q == pytest.approx(dist.ppf(p), rel=1e-12, abs=0)

    def test_scalar_stays_float(self):
        assert isinstance(InverseGaussianDist(1.0, 2.0).ppf(0.9), float)

    def test_rejects_nonpositive_stack(self):
        with pytest.raises(DomainError):
            InverseGaussianDist(np.array([1.0, -1.0]), 2.0)
