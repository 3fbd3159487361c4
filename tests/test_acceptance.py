"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and match the thresholds enforced by
``expfam verify``.
"""

import math
import time

import numpy as np
from scipy import special

from expfam import (
    GammaFamily,
    GaussianLocationFamily,
    InverseGaussianFamily,
    PoissonExponentialFamily,
    ObservationBatch,
)
from expfam.cli import main as cli_main
from expfam.distributions import PoissonExponentialDist
from expfam.intervals import (
    coverage_simulation,
    gamma_confidence,
    gamma_credible,
    gaussian_divergence_ball,
    poisson_exp_confidence,
    poisson_exp_credible,
)
from expfam.numerics import (
    integrate,
    inv_reg_gamma_lower,
    rng_stream,
    std_normal_quantile,
)
from expfam.prediction import equivalence_check, lemma1_constancy
from expfam.saddlepoint import exactness_report
from support_quadrature import integrate_over_support


def _families():
    return [
        GammaFamily(1.0),
        GammaFamily(2.0),
        GaussianLocationFamily(1.0),
        InverseGaussianFamily(2.0),
        PoissonExponentialFamily(2.0),
    ]


def _random_theta(family, rng):
    if isinstance(family, GaussianLocationFamily):
        return float(rng.normal(0.0, 1.5))
    return -float(rng.uniform(0.2, 4.0))


def _report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] criterion {number} ({name}): {status} - {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def _quadrature_kl(family, theta1, theta2):
    total = 0.0
    if family.has_atom:
        p1 = family.density(theta1, family.atom_point)
        p2 = family.density(theta2, family.atom_point)
        total += p1 * math.log(p1 / p2)

    def integrand(x):
        log1 = family.log_density(theta1, x)
        log2 = family.log_density(theta2, x)
        return math.exp(log1) * (log1 - log2)

    total += integrate_over_support(
        family,
        integrand,
        tol=1e-11,
        split=family.mean_from_natural(theta1),
    ).value
    return total


def test_criterion_1_kl_bregman_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for family in (
        GammaFamily(1.0),
        GaussianLocationFamily(1.0),
        InverseGaussianFamily(2.0),
        PoissonExponentialFamily(2.0),
    ):
        for _ in range(10):
            theta1 = _random_theta(family, rng)
            theta2 = _random_theta(family, rng)
            oracle = _quadrature_kl(family, theta1, theta2)
            worst = max(worst, abs(family.kl_divergence(theta1, theta2) - oracle))
    elapsed = time.perf_counter() - started
    _report(
        1,
        "KL equals swapped Bregman",
        worst <= 1e-8 and elapsed < 10.0,
        f"max |quadrature KL - bregman| = {worst:.2e} (<= 1e-8), {elapsed:.1f}s",
    )


def test_criterion_2_robustness_property():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for family in (
        GammaFamily(1.0),
        GaussianLocationFamily(1.0),
        InverseGaussianFamily(2.0),
        PoissonExponentialFamily(2.0),
    ):
        for _ in range(50):
            theta = _random_theta(family, rng)
            if isinstance(family, GaussianLocationFamily):
                x = float(rng.normal(0.0, 2.0))
            else:
                x = float(rng.uniform(0.1, 5.0))
            ratio = math.exp(
                family.log_density(theta, x)
                - family.log_density(family.mle(x), x)
            )
            worst = max(worst, abs(family.robustness_ratio(theta, x) - ratio))
    elapsed = time.perf_counter() - started
    _report(
        2,
        "density ratio equals exp(-divergence)",
        worst <= 1e-10 and elapsed < 5.0,
        f"max deviation = {worst:.2e} (<= 1e-10), {elapsed:.1f}s",
    )


def test_criterion_3_constancy_of_the_ratio_integral():
    started = time.perf_counter()
    worst_spread = 0.0
    cases = [
        (GammaFamily(1.0), np.geomspace(0.3, 4.0, 10)),
        (GammaFamily(2.0), np.geomspace(0.3, 4.0, 10)),
        (GaussianLocationFamily(1.0), np.linspace(-3.0, 3.0, 10)),
        (PoissonExponentialFamily(2.0), np.geomspace(0.3, 4.0, 10)),
    ]
    closed_form_dev = 0.0
    for family, means in cases:
        for n in (2, 3):
            batches = [ObservationBatch(n=n, xbar=float(x)) for x in means]
            report = lemma1_constancy(family, n, batches, tol=1e-11)
            worst_spread = max(worst_spread, report.relative_spread)
            if isinstance(family, GammaFamily) and family.alpha == 1.0:
                expected = math.gamma(n) * math.e**n / n**n
                closed_form_dev = max(
                    closed_form_dev,
                    max(abs(v - expected) for v in report.values),
                )
    elapsed = time.perf_counter() - started
    spot = math.gamma(2) * math.e**2 / 4.0
    passed = (
        worst_spread <= 1e-6
        and closed_form_dev <= 1e-7
        and abs(spot - 1.8472641) <= 1e-7
        and elapsed < 60.0
    )
    _report(
        3,
        "ratio integral constant over sequences",
        passed,
        f"max spread = {worst_spread:.2e} (<= 1e-6), closed-form dev = "
        f"{closed_form_dev:.2e} (<= 1e-7), {elapsed:.1f}s",
    )


def test_criterion_4_cnml_equals_jeffreys_prediction():
    started = time.perf_counter()
    worst = 0.0
    spot_dev = None
    for family in (
        GammaFamily(1.0),
        GaussianLocationFamily(1.0),
        PoissonExponentialFamily(2.0),
    ):
        if isinstance(family, GaussianLocationFamily):
            prefixes = np.linspace(-2.0, 2.0, 10)
            futures = np.linspace(-2.5, 2.5, 10)
        else:
            prefixes = np.geomspace(0.2, 5.0, 10)
            futures = np.geomspace(0.2, 5.0, 10)
        for m in (1, 2):
            worst = max(
                worst,
                equivalence_check(family, m, m + 1, prefixes, futures, tol=1e-10),
            )
    from expfam.prediction import CnmlPredictor

    spot = CnmlPredictor(GammaFamily(1.0), tol=1e-11).fit([1.0])
    spot_dev = abs(math.exp(spot.log_predictive([1.0])) - 0.25)
    elapsed = time.perf_counter() - started
    _report(
        4,
        "CNML equals Jeffreys prediction",
        worst <= 1e-6 and spot_dev <= 1e-9 and elapsed < 120.0,
        f"max |log difference| = {worst:.2e} (<= 1e-6), spot value dev = "
        f"{spot_dev:.1e}, {elapsed:.1f}s",
    )


def test_criterion_5_renormalized_saddlepoint_exact():
    started = time.perf_counter()
    worst = 0.0
    cases = [
        (GammaFamily(1.0), (0.5, 1.0, 2.0)),
        (GaussianLocationFamily(1.0), (-1.0, 0.5, 2.0)),
        (PoissonExponentialFamily(2.0), (0.5, 1.0, 2.0)),
    ]
    for family, means in cases:
        for n in (1, 2, 4):
            for xbar in means:
                theta_hat = family.mle(xbar)
                if isinstance(family, GaussianLocationFamily):
                    grid = [theta_hat - 1.5, theta_hat, theta_hat + 1.5]
                else:
                    grid = [theta_hat * s for s in (0.4, 1.0, 2.5)]
                worst = max(
                    worst,
                    exactness_report(family, n, theta_hat, grid, tol=1e-11),
                )
    elapsed = time.perf_counter() - started
    _report(
        5,
        "renormalized saddle point exact",
        worst <= 1e-6 and elapsed < 60.0,
        f"max relative deviation = {worst:.2e} (<= 1e-6) over 3x3 grids, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_compound_poisson_normalization():
    started = time.perf_counter()
    worst_mass = 0.0
    for kappa in (0.5, 1.0, 2.0, 4.0):
        family = PoissonExponentialFamily(kappa)
        for beta in (0.5, 1.0, 2.0, 4.0):
            dist = PoissonExponentialDist(kappa, beta)
            quad = integrate_over_support(
                family, dist.density, tol=1e-11, split=dist.mean
            )
            worst_mass = max(worst_mass, abs(dist.atom_weight + quad.value - 1.0))

    dist = PoissonExponentialDist(2.0, 1.0)
    n_samples = 1_000_000
    draws = dist.sample(rng_stream(606, 0), n_samples)
    atom_dev = abs(float(np.mean(draws == 0.0)) - dist.atom_weight)

    positive = draws[draws > 0]
    edges = np.linspace(0.0, float(np.quantile(positive, 0.99)), 21)
    observed, _ = np.histogram(positive, bins=edges)
    probs = np.array(
        [dist.cdf(b) - dist.cdf(a) for a, b in zip(edges[:-1], edges[1:])]
    )
    se = np.sqrt(n_samples * probs * (1.0 - probs))
    bin_stat = float(np.max(np.abs(observed - n_samples * probs) / se))
    elapsed = time.perf_counter() - started
    passed = (
        worst_mass <= 1e-9 and atom_dev <= 0.002 and bin_stat <= 3.0 and elapsed < 90.0
    )
    _report(
        6,
        "compound-Poisson normalization",
        passed,
        f"max |mass - 1| = {worst_mass:.2e} (<= 1e-9), atom dev = "
        f"{atom_dev:.2e} (<= 2e-3), bins = {bin_stat:.2f}se (<= 3), "
        f"{elapsed:.1f}s",
    )


def test_criterion_7_gamma_credible_equals_confidence():
    started = time.perf_counter()
    rng = np.random.default_rng(107)
    exact_equal = True
    for _ in range(20):
        alpha = float(rng.uniform(0.5, 4.0))
        m = int(rng.integers(1, 8))
        xbar = float(rng.uniform(0.2, 5.0))
        level = float(rng.uniform(0.5, 0.99))
        batch = ObservationBatch(n=m, xbar=xbar)
        credible = gamma_credible(alpha, batch, level)
        confidence = gamma_confidence(alpha, batch, level)
        exact_equal &= credible.upper == confidence.upper

    report = coverage_simulation(
        GammaFamily(1.0),
        lambda b: gamma_credible(1.0, b, 0.9),
        -2.0,
        5,
        0.9,
        100_000,
        seed=707,
    )
    in_band = 0.897 <= report.empirical_coverage <= 0.903
    elapsed = time.perf_counter() - started
    _report(
        7,
        "gamma credible equals confidence",
        exact_equal and in_band and elapsed < 60.0,
        f"endpoints exactly equal: {exact_equal}, coverage = "
        f"{report.empirical_coverage:.4f} in [0.897, 0.903], {elapsed:.1f}s",
    )


def test_criterion_8_gaussian_divergence_ball():
    started = time.perf_counter()
    level = 0.9

    # posterior mass, d = 1, by direct quadrature
    n, xbar = 4, 0.5
    ball = gaussian_divergence_ball(1.0, ObservationBatch(n=n, xbar=xbar), level)
    half_width = math.sqrt(2.0 * ball.radius)
    sd = 1.0 / math.sqrt(n)
    mass_1d = integrate(
        lambda t: math.exp(-((t - xbar) ** 2) / (2 * sd * sd))
        / math.sqrt(2 * math.pi * sd * sd),
        xbar - half_width,
        xbar + half_width,
        tol=1e-12,
    ).value

    # posterior mass, d = 2, by whitening and a normal-cdf slice integral
    B = np.array([[2.0, 0.4], [0.4, 1.0]])
    batch = ObservationBatch(n=3, xbar=np.array([0.3, -0.2]))
    ball2 = gaussian_divergence_ball(B, batch, level)
    radius2 = math.sqrt(2.0 * batch.n * ball2.radius)
    mass_2d = integrate(
        lambda z: math.exp(-0.5 * z * z)
        / math.sqrt(2 * math.pi)
        * (
            special.ndtr(math.sqrt(max(radius2**2 - z * z, 0.0)))
            - special.ndtr(-math.sqrt(max(radius2**2 - z * z, 0.0)))
        ),
        -radius2,
        radius2,
        tol=1e-12,
    ).value

    family = GaussianLocationFamily(1.0)
    report = coverage_simulation(
        family,
        lambda b: gaussian_divergence_ball(family, b, level),
        0.3,
        4,
        level,
        100_000,
        seed=808,
    )
    coverage_dev = abs(report.empirical_coverage - level)
    elapsed = time.perf_counter() - started
    passed = (
        abs(mass_1d - level) <= 1e-8
        and abs(mass_2d - level) <= 1e-8
        and coverage_dev <= 0.004
        and elapsed < 60.0
    )
    _report(
        8,
        "divergence ball is credible and confidence region",
        passed,
        f"|mass - level| d=1: {abs(mass_1d - level):.1e}, d=2: "
        f"{abs(mass_2d - level):.1e} (<= 1e-8), coverage dev = "
        f"{coverage_dev:.4f} (<= 0.004), {elapsed:.1f}s",
    )


def test_criterion_9_poisson_exponential_non_coincidence():
    started = time.perf_counter()
    kappa, level, tol = 2.0, 0.9, 1e-10
    batch = ObservationBatch(n=1, xbar=2.0)
    credible = poisson_exp_credible(kappa, batch, level)
    confidence = poisson_exp_confidence(kappa, batch, level)
    gap = abs(credible.upper - confidence.upper)

    report = coverage_simulation(
        PoissonExponentialFamily(kappa),
        lambda b: poisson_exp_credible(kappa, b, level),
        -1.0,
        1,
        level,
        100_000,
        seed=909,
    )
    sigma = math.sqrt(level * (1.0 - level) / report.trials)
    deviation = abs(report.empirical_coverage - level)
    elapsed = time.perf_counter() - started
    passed = gap > 100.0 * tol and deviation > 3.0 * sigma and elapsed < 90.0
    _report(
        9,
        "compound-Poisson credible is not a confidence interval",
        passed,
        f"endpoint gap = {gap:.2e} (> {100.0 * tol:.0e}), coverage = "
        f"{report.empirical_coverage:.4f} vs 0.9 "
        f"(|dev| = {deviation:.4f} > 3sigma = {3.0 * sigma:.4f}; "
        f"{report.degenerate} degenerate trials excluded), {elapsed:.1f}s",
    )


def test_criterion_10_numerical_hygiene():
    started = time.perf_counter()
    rng = np.random.default_rng(110)

    grad_worst = 0.0
    hess_worst = 0.0
    fenchel_worst = 0.0
    for family in _families():
        for _ in range(50):
            theta = _random_theta(family, rng)
            h = 1e-6 * max(1.0, abs(theta))
            grad = (family.cumulant(theta + h) - family.cumulant(theta - h)) / (2 * h)
            grad_worst = max(
                grad_worst,
                abs(family.mean_from_natural(theta) - grad) / max(abs(grad), 1e-12),
            )
            hh = 1e-4 * max(1.0, abs(theta))
            hess = (
                family.mean_from_natural(theta + hh)
                - family.mean_from_natural(theta - hh)
            ) / (2 * hh)
            hess_worst = max(
                hess_worst,
                abs(family.covariance(theta) - hess) / max(abs(hess), 1e-12),
            )
            mu = family.mean_from_natural(theta)
            gap = abs(
                family.cumulant(theta) + family.convex_conjugate(mu) - theta * mu
            )
            fenchel_worst = max(fenchel_worst, gap)

    round_trip_worst = 0.0
    for a in (0.5, 1.0, 3.5):
        for x in np.linspace(0.05, inv_reg_gamma_lower(a, 0.999), 100):
            p = float(special.gammainc(a, float(x)))
            round_trip_worst = max(
                round_trip_worst, abs(inv_reg_gamma_lower(a, p) - float(x))
            )
    for p in np.linspace(0.001, 0.999, 100):
        z = std_normal_quantile(float(p))
        round_trip_worst = max(round_trip_worst, abs(special.ndtr(z) - float(p)))

    verify_started = time.perf_counter()
    code = cli_main(["verify", "--suite", "all", "--trials", "100000"])
    verify_elapsed = time.perf_counter() - verify_started

    elapsed = time.perf_counter() - started
    passed = (
        grad_worst <= 1e-6
        and hess_worst <= 1e-5
        and fenchel_worst <= 1e-10
        and round_trip_worst <= 1e-9
        and code == 0
        and verify_elapsed < 300.0
    )
    _report(
        10,
        "numerical hygiene",
        passed,
        f"gradient {grad_worst:.1e} (<= 1e-6), hessian {hess_worst:.1e} "
        f"(<= 1e-5), fenchel {fenchel_worst:.1e} (<= 1e-10), round trips "
        f"{round_trip_worst:.1e} (<= 1e-9), verify-all exit {code} in "
        f"{verify_elapsed:.0f}s (< 300s), total {elapsed:.0f}s",
    )
