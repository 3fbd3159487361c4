"""Built-in verification suites over fixed, citable grids.

Verification suites
-------------------
A suite is a generator over ``(tol, seed, trials)`` that yields one
``(check, statistic, threshold, detail)`` tuple per check.  ``run_suite``
is the one place that judges and times them: a check passes when
``statistic <= threshold`` (a NaN statistic fails), and ``runtime`` is the
time since the suite's previous check, so a suite's runtimes add up to its
wall time.  A check that asserts a *detectable difference* yields the
ratio ``required / observed``, so the same rule applies.

Checks against the abstract: ``equivalence/*`` and ``lemma1/*`` for "MDL
and Bayesian inference coincide"; ``saddlepoint/*`` for the exact
renormalized saddle point of the Gaussian location, Gamma and inverse
Gaussian families; ``normalization/*`` for the Poisson-exponential family,
the inverse Gaussian's conjugate; ``coverage/*`` for "only for the two
first families the Bayesian approach is consistent with the frequentist
approach".  ``saddlepoint/*`` is a quadrature check, not a proof of
exactness: since ``xbar = A'(theta_hat)`` the renormalized profile equals
the unnormalized Jeffreys posterior for any family.  Its check names stay
as they are.  Grids are fixed here in code and echoed into the details.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import ObservationBatch
from .distributions import PoissonExponentialDist
from .families import GammaFamily, GaussianLocationFamily, PoissonExponentialFamily
from .intervals import coverage_simulation, interval_construction
from .numerics import DEFAULT_TOL, find_root, integrate, rng_stream
from .prediction import equivalence_check, lemma1_constancy
from .saddlepoint import exactness_report
from .errors import DomainError
from .validation import check_count, check_whole

__all__ = ["VerificationReport", "SUITES", "run_suite", "available_suites"]

# the Monte Carlo draws of ``suite_normalization`` are made and counted in
# chunks of this many, so no array of all 10^6 draws is ever held
_CHUNK = 1 << 16


@dataclass(frozen=True)
class VerificationReport:
    check: str
    passed: bool
    statistic: float
    threshold: float
    detail: str = ""
    runtime: float = 0.0


def suite_lemma1(tol, seed, trials):
    """Constancy of the likelihood-ratio integral across data sequences.

    In the coordinate of ``core._log_ratio_integral`` the Gamma and
    Gaussian integrands do not depend on xbar, so their spreads read 0 up
    to rounding of the prefactor; the Gamma closed-form check and the
    Poisson-exponential spread are the ones that test the quadrature.
    """
    half_line, real_line = np.geomspace(0.25, 4.0, 12), np.linspace(-3.0, 3.0, 12)
    cases = [
        ("gamma[alpha=1]", GammaFamily(1.0), True, half_line),
        ("gamma[alpha=2]", GammaFamily(2.0), False, half_line),
        ("gaussian[cov=1]", GaussianLocationFamily(1.0), False, real_line),
        ("poisson-exp[kappa=2]", PoissonExponentialFamily(2.0), False, half_line),
    ]
    for label, family, closed_form, means in cases:
        for n in (2, 3):
            batches = [ObservationBatch(n=n, xbar=x) for x in means]
            report = lemma1_constancy(family, n, batches, tol=tol)
            yield (
                f"lemma1/{label}/n={n}/spread",
                report.relative_spread,
                1e-6,
                f"12 sequences, xbar grid {means[0]:g}..{means[-1]:g}",
            )
            if closed_form:
                expected = math.gamma(n) * math.e**n / n**n
                yield (
                    f"lemma1/{label}/n={n}/closed-form",
                    max(abs(v - expected) for v in report.values),
                    1e-7,
                    f"constant Gamma(n) e^n / n^n = {expected:.9f}",
                )


def suite_equivalence(tol, seed, trials):
    """CNML vs Jeffreys-predictive agreement on 10x10 grids."""
    half_line = np.geomspace(0.2, 5.0, 10)
    real_prefixes, real_futures = np.linspace(-2.0, 2.0, 10), np.linspace(-2.5, 2.5, 10)
    cases = [
        ("gamma[alpha=1]", GammaFamily(1.0), half_line, half_line),
        ("gaussian[cov=1]", GaussianLocationFamily(1.0), real_prefixes, real_futures),
        ("poisson-exp[kappa=2]", PoissonExponentialFamily(2.0), half_line, half_line),
    ]
    for label, family, prefixes, futures in cases:
        for m in (1, 2):
            yield (
                f"equivalence/{label}/m={m}",
                equivalence_check(family, m, m + 1, prefixes, futures, tol=tol),
                1e-6,
                f"10x10 grid, prefixes {prefixes[0]:g}..{prefixes[-1]:g}, "
                f"futures {futures[0]:g}..{futures[-1]:g}",
            )


def suite_saddlepoint(tol, seed, trials):
    """Exactness of the renormalized profile against closed-form posteriors.

    Inverse Gaussian exactness is checked through its conjugate pair:
    the profile on the Poisson-exponential side against the inverse
    Gaussian posterior.
    """
    probs = (0.05, 0.2, 0.5, 0.8, 0.95)
    cases = [
        ("gamma[alpha=1]", GammaFamily(1.0), (0.5, 1.0, 2.0)),
        ("gaussian[cov=1]", GaussianLocationFamily(1.0), (-1.0, 0.5, 2.0)),
        ("inverse-gaussian[kappa=2]", PoissonExponentialFamily(2.0), (0.5, 1.0, 2.0)),
    ]
    for label, family, means in cases:
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
        yield f"saddlepoint/{label}", worst, 1e-6, detail


def suite_normalization(tol, seed, trials):
    """Total mass and Monte Carlo agreement for the compound-Poisson family."""
    grid = (0.5, 1.0, 2.0, 4.0)
    worst = 0.0
    for kappa in grid:
        for beta in grid:
            dist = PoissonExponentialDist(kappa, beta)
            # in v with x = v^2, split at the mean
            quad = integrate(
                lambda v: 2.0 * v * dist.density(v * v), 0.0, math.inf, tol=1e-11,
                points=[math.sqrt(dist.mean)],
            )
            worst = max(worst, abs(dist.atom_weight + quad.value - 1.0))
    yield (
        "normalization/poisson-exp/mass",
        worst,
        1e-9,
        f"atom + integral of the series density, (kappa, beta) in {grid}^2",
    )

    dist = PoissonExponentialDist(2.0, 1.0)
    n_samples = 1_000_000
    edges = np.linspace(0.0, _continuous_quantile(dist, 0.99), 21)
    rng = rng_stream(seed, 101)
    atoms, observed = 0, np.zeros(20, dtype=np.int64)
    for start in range(0, n_samples, _CHUNK):
        draws = dist.sample(rng, min(_CHUNK, n_samples - start))
        atoms += np.count_nonzero(draws == 0.0)
        observed += np.histogram(draws[draws > 0], bins=edges)[0]
    yield (
        "normalization/poisson-exp/monte-carlo-atom",
        abs(atoms / n_samples - dist.atom_weight),
        0.002,
        f"kappa=2 beta=1, {n_samples} compound-Poisson samples",
    )

    probs = np.array([dist.cdf(b) - dist.cdf(a) for a, b in zip(edges[:-1], edges[1:])])
    expected = n_samples * probs
    se = np.sqrt(n_samples * probs * (1.0 - probs))
    yield (
        "normalization/poisson-exp/monte-carlo-bins",
        float(np.max(np.abs(observed - expected) / se)),
        3.0,
        "20 bins vs series cdf, units of binomial standard error",
    )


def _continuous_quantile(dist, p):
    """q with (cdf(q) - atom) / (1 - atom) = p: the p quantile of the continuous part."""
    atom = dist.atom_weight

    def continuous_cdf(x):
        return (dist.cdf(x) - atom) / (1.0 - atom)

    return find_root(continuous_cdf, dist.mean, p, tol=1e-12)


def suite_coverage(tol, seed, trials):
    """Frequentist coverage of the interval constructions, all at level 0.9."""
    level = 0.9

    def study(family, method, theta_true, m):
        """The coverage report, |coverage - level| and the 3-sigma half-width."""
        build = interval_construction(family, method, level)
        rep = coverage_simulation(family, build, theta_true, m, level, trials, seed)
        band = 3.0 * math.sqrt(level * (1 - level) / rep.trials)
        return rep, abs(rep.empirical_coverage - level), band

    rep, deviation, band = study(GammaFamily(1.0), "credible", -2.0, 5)
    yield (
        "coverage/gamma-credible",
        deviation,
        band,
        f"alpha=1 beta=2 m=5 level=0.9 trials={trials}, "
        f"coverage={rep.empirical_coverage:.5f}",
    )

    rep, deviation, _ = study(GaussianLocationFamily(1.0), "divergence-ball", 0.3, 4)
    yield (
        "coverage/gaussian-ball",
        deviation,
        0.004,
        f"cov=1 mean=0.3 n=4 level=0.9 trials={trials}, "
        f"coverage={rep.empirical_coverage:.5f}",
    )

    pe = PoissonExponentialFamily(2.0)
    batch = ObservationBatch(n=1, xbar=2.0)
    cred = interval_construction(pe, "credible", level)(batch)
    conf = interval_construction(pe, "confidence", level)(batch)
    gap = abs(cred.upper - conf.upper)
    yield (
        "coverage/poisson-exp-endpoints-differ",
        100.0 * tol / gap if gap > 0 else math.inf,
        1.0,
        f"kappa=2 m=1 xbar=2 level=0.9: credible {cred.upper:.8f} vs "
        f"confidence {conf.upper:.8f}; ratio required/observed",
    )

    rep, deviation, band = study(pe, "credible", -1.0, 1)
    yield (
        "coverage/poisson-exp-credible-not-exact",
        band / deviation if deviation > 0 else math.inf,
        1.0,
        f"kappa=2 beta=1 m=1 level=0.9 trials={trials}: coverage "
        f"{rep.empirical_coverage:.5f} ({rep.degenerate} degenerate trials "
        "excluded); ratio 3sigma/deviation",
    )


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
    """Run suite ``name`` (or ``"all"``, in ``SUITES`` order); its reports, in order."""
    if name != "all" and name not in SUITES:
        raise DomainError(
            f"unknown suite {name!r}; expected one of {available_suites()}"
        )
    trials = check_count(trials, "trials")
    seed = check_whole(seed, "seed")
    reports = []
    for suite in SUITES.values() if name == "all" else [SUITES[name]]:
        last = time.perf_counter()
        for check, statistic, threshold, detail in suite(tol, seed, trials):
            now = time.perf_counter()
            statistic = float(statistic)
            reports.append(
                VerificationReport(
                    check=check,
                    passed=statistic <= threshold,
                    statistic=statistic,
                    threshold=float(threshold),
                    detail=detail,
                    runtime=now - last,
                )
            )
            last = now
    return reports
