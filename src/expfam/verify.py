"""Built-in verification suites over fixed, citable grids.

Every check produces a :class:`VerificationReport` whose pass flag is
``statistic <= threshold``.  Checks that assert a *detectable difference*
(the Poisson-exponential non-coincidence) report the ratio
``required / observed`` so the same convention applies.  Grids are fixed
here in code and echoed into the report details.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import ObservationBatch, integrate_over_support
from .distributions import PoissonExponentialDist
from .families import GammaFamily, GaussianLocationFamily, PoissonExponentialFamily
from .intervals import coverage_simulation, interval_construction
from .numerics import DEFAULT_TOL, rng_stream
from .prediction import equivalence_check, lemma1_constancy
from .saddlepoint import exactness_report
from .errors import DomainError

__all__ = ["VerificationReport", "SUITES", "run_suite", "available_suites"]


@dataclass(frozen=True)
class VerificationReport:
    check: str
    passed: bool
    statistic: float
    threshold: float
    detail: str = ""
    runtime: float = 0.0


def _timed(check, statistic, threshold, detail, started):
    return VerificationReport(
        check=check,
        passed=bool(statistic <= threshold),
        statistic=float(statistic),
        threshold=float(threshold),
        detail=detail,
        runtime=time.perf_counter() - started,
    )


def suite_lemma1(tol=DEFAULT_TOL, seed=0, trials=None):
    """Constancy of the likelihood-ratio integral across data sequences.

    In the coordinate of ``core._log_ratio_integral`` the Gamma and
    Gaussian integrands do not depend on xbar, so their spreads read 0 up
    to rounding of the prefactor; the Gamma closed-form check and the
    Poisson-exponential spread are the ones that test the quadrature.
    """
    reports = []
    half_line, real_line = np.geomspace(0.25, 4.0, 12), np.linspace(-3.0, 3.0, 12)
    cases = [
        ("gamma[alpha=1]", GammaFamily(1.0), True, half_line),
        ("gamma[alpha=2]", GammaFamily(2.0), False, half_line),
        ("gaussian[cov=1]", GaussianLocationFamily(1.0), False, real_line),
        ("poisson-exp[kappa=2]", PoissonExponentialFamily(2.0), False, half_line),
    ]
    for label, family, closed_form, means in cases:
        for n in (2, 3):
            started = time.perf_counter()
            batches = [ObservationBatch(n=n, xbar=x) for x in means]
            report = lemma1_constancy(family, n, batches, tol=tol)
            detail = f"12 sequences, xbar grid {means[0]:g}..{means[-1]:g}"
            reports.append(
                _timed(
                    f"lemma1/{label}/n={n}/spread",
                    report.relative_spread,
                    1e-6,
                    detail,
                    started,
                )
            )
            if closed_form:
                started = time.perf_counter()
                expected = math.gamma(n) * math.e**n / n**n
                dev = max(abs(v - expected) for v in report.values)
                reports.append(
                    _timed(
                        f"lemma1/{label}/n={n}/closed-form",
                        dev,
                        1e-7,
                        f"constant Gamma(n) e^n / n^n = {expected:.9f}",
                        started,
                    )
                )
    return reports


def suite_equivalence(tol=DEFAULT_TOL, seed=0, trials=None):
    """CNML vs Jeffreys-predictive agreement on 10x10 grids."""
    reports = []
    half_line = np.geomspace(0.2, 5.0, 10)
    real_prefixes, real_futures = np.linspace(-2.0, 2.0, 10), np.linspace(-2.5, 2.5, 10)
    cases = [
        ("gamma[alpha=1]", GammaFamily(1.0), half_line, half_line),
        ("gaussian[cov=1]", GaussianLocationFamily(1.0), real_prefixes, real_futures),
        ("poisson-exp[kappa=2]", PoissonExponentialFamily(2.0), half_line, half_line),
    ]
    for label, family, prefixes, futures in cases:
        for m in (1, 2):
            started = time.perf_counter()
            worst = equivalence_check(family, m, m + 1, prefixes, futures, tol=tol)
            detail = (
                f"10x10 grid, prefixes {prefixes[0]:g}..{prefixes[-1]:g}, "
                f"futures {futures[0]:g}..{futures[-1]:g}"
            )
            reports.append(
                _timed(
                    f"equivalence/{label}/m={m}", worst, 1e-6, detail, started
                )
            )
    return reports


def suite_saddlepoint(tol=DEFAULT_TOL, seed=0, trials=None):
    """Exactness of the renormalized profile against closed-form posteriors.

    Inverse Gaussian exactness is checked through its conjugate pair:
    the profile on the Poisson-exponential side against the inverse
    Gaussian posterior.
    """
    reports = []
    probs = (0.05, 0.2, 0.5, 0.8, 0.95)
    cases = [
        ("gamma[alpha=1]", GammaFamily(1.0), (0.5, 1.0, 2.0)),
        ("gaussian[cov=1]", GaussianLocationFamily(1.0), (-1.0, 0.5, 2.0)),
        ("inverse-gaussian[kappa=2]", PoissonExponentialFamily(2.0), (0.5, 1.0, 2.0)),
    ]
    for label, family, means in cases:
        started = time.perf_counter()
        worst = 0.0
        for n in (1, 2, 4):
            for xbar in means:
                theta_hat = family.mle(xbar)
                # natural parameters at exact-posterior quantiles
                posterior = family.jeffreys_posterior(ObservationBatch(n=n, xbar=xbar))
                grid = [posterior.ppf(p) for p in probs]
                worst = max(
                    worst, exactness_report(family, n, theta_hat, grid, tol=tol)
                )
        detail = f"n in (1,2,4), xbar in {means}, posterior-quantile grids"
        reports.append(
            _timed(f"saddlepoint/{label}", worst, 1e-6, detail, started)
        )
    return reports


def suite_normalization(tol=DEFAULT_TOL, seed=0, trials=None):
    """Total mass and Monte Carlo agreement for the compound-Poisson family."""
    reports = []
    started = time.perf_counter()
    grid = (0.5, 1.0, 2.0, 4.0)
    worst = 0.0
    for kappa in grid:
        family = PoissonExponentialFamily(kappa)
        for beta in grid:
            dist = PoissonExponentialDist(kappa, beta)
            quad = integrate_over_support(
                family, dist.density, tol=1e-11, split_points=[dist.mean]
            )
            worst = max(worst, abs(dist.atom_weight + quad.value - 1.0))
    reports.append(
        _timed(
            "normalization/poisson-exp/mass",
            worst,
            1e-9,
            f"atom + integral of the series density, (kappa, beta) in {grid}^2",
            started,
        )
    )

    started = time.perf_counter()
    dist = PoissonExponentialDist(2.0, 1.0)
    n_samples = 1_000_000
    draws = dist.sample(rng_stream(seed, 101), n_samples)
    p0_hat = float(np.mean(draws == 0.0))
    reports.append(
        _timed(
            "normalization/poisson-exp/monte-carlo-atom",
            abs(p0_hat - dist.atom_weight),
            0.002,
            f"kappa=2 beta=1, {n_samples} compound-Poisson samples",
            started,
        )
    )

    started = time.perf_counter()
    edges = np.linspace(0.0, float(np.quantile(draws[draws > 0], 0.99)), 21)
    observed, _ = np.histogram(draws[draws > 0], bins=edges)
    probs = np.array([dist.cdf(b) - dist.cdf(a) for a, b in zip(edges[:-1], edges[1:])])
    expected = n_samples * probs
    se = np.sqrt(n_samples * probs * (1.0 - probs))
    stat = float(np.max(np.abs(observed - expected) / se))
    reports.append(
        _timed(
            "normalization/poisson-exp/monte-carlo-bins",
            stat,
            3.0,
            "20 bins vs series cdf, units of binomial standard error",
            started,
        )
    )
    return reports


def suite_coverage(tol=DEFAULT_TOL, seed=0, trials=100_000):
    """Frequentist coverage of the interval constructions."""
    trials = int(trials or 100_000)
    reports = []

    started = time.perf_counter()
    alpha, beta_true, m, level = 1.0, 2.0, 5, 0.9
    family = GammaFamily(alpha)
    rep = coverage_simulation(
        family,
        interval_construction(family, "credible", level),
        -beta_true,
        m,
        level,
        trials,
        seed,
    )
    sigma = math.sqrt(level * (1 - level) / rep.trials)
    reports.append(
        _timed(
            "coverage/gamma-credible",
            abs(rep.empirical_coverage - level),
            3.0 * sigma,
            f"alpha=1 beta=2 m=5 level=0.9 trials={trials}, "
            f"coverage={rep.empirical_coverage:.5f}",
            started,
        )
    )

    started = time.perf_counter()
    gauss = GaussianLocationFamily(1.0)
    n, level_g = 4, 0.9
    rep = coverage_simulation(
        gauss,
        interval_construction(gauss, "divergence-ball", level_g),
        0.3,
        n,
        level_g,
        trials,
        seed,
    )
    reports.append(
        _timed(
            "coverage/gaussian-ball",
            abs(rep.empirical_coverage - level_g),
            0.004,
            f"cov=1 mean=0.3 n=4 level=0.9 trials={trials}, "
            f"coverage={rep.empirical_coverage:.5f}",
            started,
        )
    )

    started = time.perf_counter()
    kappa, level_pe = 2.0, 0.9
    pe = PoissonExponentialFamily(kappa)
    batch = ObservationBatch(n=1, xbar=2.0)
    cred = interval_construction(pe, "credible", level_pe)(batch)
    conf = interval_construction(pe, "confidence", level_pe)(batch)
    gap = abs(cred.upper - conf.upper)
    required = 100.0 * tol
    reports.append(
        _timed(
            "coverage/poisson-exp-endpoints-differ",
            required / gap if gap > 0 else math.inf,
            1.0,
            f"kappa=2 m=1 xbar=2 level=0.9: credible {cred.upper:.8f} vs "
            f"confidence {conf.upper:.8f}; ratio required/observed",
            started,
        )
    )

    started = time.perf_counter()
    rep = coverage_simulation(
        pe,
        interval_construction(pe, "credible", level_pe),
        -1.0,
        1,
        level_pe,
        trials,
        seed,
    )
    sigma = math.sqrt(level_pe * (1 - level_pe) / rep.trials)
    deviation = abs(rep.empirical_coverage - level_pe)
    reports.append(
        _timed(
            "coverage/poisson-exp-credible-not-exact",
            (3.0 * sigma) / deviation if deviation > 0 else math.inf,
            1.0,
            f"kappa=2 beta=1 m=1 level=0.9 trials={trials}: coverage "
            f"{rep.empirical_coverage:.5f} ({rep.degenerate} degenerate trials "
            "excluded); ratio 3sigma/deviation",
            started,
        )
    )
    return reports


SUITES = {
    "lemma1": suite_lemma1,
    "equivalence": suite_equivalence,
    "saddlepoint": suite_saddlepoint,
    "normalization": suite_normalization,
    "coverage": suite_coverage,
}


def available_suites():
    return sorted(SUITES) + ["all"]


def run_suite(name, tol=DEFAULT_TOL, seed=0, trials=100_000):
    if name == "all":
        reports = []
        for suite in SUITES.values():
            reports.extend(suite(tol=tol, seed=seed, trials=trials))
        return reports
    if name not in SUITES:
        raise DomainError(
            f"unknown suite {name!r}; expected one of {available_suites()}"
        )
    return SUITES[name](tol=tol, seed=seed, trials=trials)
