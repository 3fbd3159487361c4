"""Seeded op lists for the in-process workloads, ``inference`` and ``intervals``.

Each op is a call into expfam's public API with inputs drawn here from the
workload seed, plus a check of its output against a closed form in
``oracles``.  Ops look the API up on the ``expfam`` package at call time,
so a tracer installed after the op list was built still sees every call.

Costs differ by orders of magnitude between families, kinds and sample
sizes, so the lists are stratified: every (family, kind) cell has a fixed
count, and sample sizes are Latin-hypercube draws over their log range.
Two seeds then give different inputs but nearly the same amount of work.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special, stats

import oracles

FAMILIES = ("gamma", "inverse-gaussian", "poisson-exp", "gaussian")

#: Raw-sample ops per family in one inference pass.
RAW_COUNTS = {"compare": 5, "plugin": 6, "constancy": 4, "profile": 5}
#: Large-n ObservationBatch ops, one per (family, kind), in ascending order
#: of their stratum of log10 n over BATCH_LOG10_N.  Each cell keeps its
#: stratum for every seed, so the count and cost of the large-n failures
#: do not depend on the seed; every family meets every kind once.  The
#: Poisson-exponential CNML fit fails for some inputs in [1e7, 2e8] and
#: for all above; failing, it builds a series array of about sqrt(kappa)
#: * 1.5e6 terms, which sets peak memory.  So it takes the top stratum,
#: and the large-n Poisson-exponential ops use kappa = BATCH_PE_KAPPA.
BATCH_CELLS = (
    ("gamma", "compare"), ("inverse-gaussian", "constancy"),
    ("poisson-exp", "profile"), ("gaussian", "profile"),
    ("inverse-gaussian", "compare"), ("poisson-exp", "constancy"),
    ("gamma", "profile"), ("gaussian", "constancy"),
    ("inverse-gaussian", "profile"), ("gaussian", "compare"),
    ("gamma", "constancy"), ("poisson-exp", "compare"),
)
BATCH_LOG10_N = (1.0, 9.0)
BATCH_PE_KAPPA = 2.0
RAW_M = (1, 8)
QUAD_TOL = 1e-6
PLUGIN_TOL = 1e-8
INTERVAL_TOL = 1e-8
EXACT_TOL = 1e-12
POSTERIOR_PROBS = (0.05, 0.2, 0.5, 0.8, 0.95)

#: (family, level, trials, m, true natural parameter) of the coverage studies.
#: Their simulation seed is fixed, like ``expfam verify``'s: a 3-sigma band
#: is missed at random in 0.27% of studies, so a seeded study would fail
#: benchmark runs at random.
STUDIES = (
    ("gamma", 0.9, 5000, 5, -2.0),
    ("gaussian", 0.9, 5000, 4, 0.3),
    ("poisson-exp", 0.9, 5000, 1, -1.0),
)
STUDY_SEED = 0
PE_CONFIDENCE_DECADES = 6
PE_CONFIDENCE_PER_DECADE = 8
#: The CLI's default level.  The root finder's work, and so an endpoint's
#: cost, moves by up to a fifth with the level; a fixed level keeps the
#: costliest endpoints, which set ``tail_ms``, alike across seeds.
PE_CONFIDENCE_LEVEL = 0.9
INTERVAL_FITS = 48


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    ``check(result)`` returns ``(error, ok)``: the deviation from the
    oracle (None when the op has none) and whether the output is correct.
    ``stress`` marks the large-n ops, whose failures are counted but do not
    make the run incorrect (see README.md).  ``once`` marks an op too slow
    to repeat: it runs in the first pass only.
    """

    kind: str
    family: str
    layer: str
    spec: dict
    run: object = field(repr=False)
    check: object = field(repr=False)
    stress: bool = False
    once: bool = False

    def describe(self):
        return (self.kind, self.family, repr(sorted(self.spec.items())))


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _strata(rng, count, lo, hi):
    """Stratified uniform draws on [lo, hi], one per equal stratum, ascending."""
    return lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count


def _latin(rng, count, lo, hi):
    """``_strata`` in random order."""
    return rng.permutation(_strata(rng, count, lo, hi))


def _draw_family(rng, family, kappa=None):
    """Parameters and a sampler of the true distribution.

    ``kappa`` fixes the Poisson-exponential shape instead of drawing it.
    """
    if family == "gamma":
        alpha = float(rng.uniform(0.5, 3.0))
        beta = float(np.exp(rng.uniform(math.log(0.3), math.log(3.0))))
        return {"alpha": alpha}, alpha / beta, lambda r, k: r.gamma(alpha, 1.0 / beta, k)
    if family == "inverse-gaussian":
        kappa = float(rng.uniform(0.5, 4.0))
        mean = float(np.exp(rng.uniform(math.log(0.3), math.log(3.0))))
        return {"kappa": kappa}, mean, lambda r, k: r.wald(mean, kappa, k)
    if family == "poisson-exp":
        kappa = float(rng.uniform(0.5, 4.0)) if kappa is None else kappa
        beta = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))

        def draw(r, k):
            counts = r.poisson(kappa / (2.0 * beta), k)
            return r.gamma(np.maximum(counts, 1), 1.0 / beta) * (counts > 0)

        return {"kappa": kappa}, kappa / (2.0 * beta**2), draw
    cov = float(rng.uniform(0.5, 2.0))
    mean = float(rng.uniform(-2.0, 2.0))
    return {"cov": cov}, mean, lambda r, k: r.normal(mean, math.sqrt(cov), k)


def _sample(rng, family, draw, m):
    """m raw observations; a compound-Poisson sample of all zeros is redrawn."""
    while True:
        x = draw(rng, m)
        if family != "poisson-exp" or np.any(x > 0):
            return [float(v) for v in x]


def _futures(rng, draw):
    return [float(v) for v in draw(rng, 3)]


def _make_family(E, family, params):
    if family == "gamma":
        return E.GammaFamily(params["alpha"])
    if family == "inverse-gaussian":
        return E.InverseGaussianFamily(params["kappa"])
    if family == "poisson-exp":
        return E.PoissonExponentialFamily(params["kappa"])
    return E.GaussianLocationFamily(params["cov"])


def _data(E, spec):
    """Raw observations, or an ObservationBatch for the large-n ops."""
    if "data" in spec:
        return spec["data"]
    return E.ObservationBatch(n=spec["n"], xbar=spec["xbar"])


def _summary(spec):
    if "data" in spec:
        return len(spec["data"]), float(np.mean(spec["data"]))
    return spec["n"], spec["xbar"]


def worst(errors, tol):
    """(largest error, whether it is within ``tol``); errors of None are skipped."""
    errors = [e for e in errors if e is not None]
    if not errors:
        return None, True
    largest = max(errors)
    return largest, bool(largest <= tol)


# -- inference ---------------------------------------------------------------


def _compare_op(E, family, spec):
    params = spec["params"]

    def run():
        fam = _make_family(E, family, params)
        cnml = E.CnmlPredictor(fam).fit(_data(E, spec))
        jeff = E.JeffreysPredictor(fam).fit(_data(E, spec))
        return [(cnml.log_predictive([y]), jeff.log_predictive([y])) for y in spec["futures"]]

    def check(result):
        if family == "inverse-gaussian":
            return None, True
        n, xbar = _summary(spec)
        errors = []
        for y, (c, j) in zip(spec["futures"], result):
            closed = oracles.jeffreys_log_predictive(family, params, n, xbar, y)
            errors += [abs(c - j), abs(j - closed)]
        return worst(errors, QUAD_TOL)

    return Op("compare", family, "prediction", spec, run, check)


def _plugin_op(E, family, spec):
    params = spec["params"]

    def run():
        pred = E.PlugInPredictor(_make_family(E, family, params)).fit(_data(E, spec))
        return [pred.log_predictive([y]) for y in spec["futures"]]

    def check(result):
        if family == "inverse-gaussian":
            return None, True
        _, xbar = _summary(spec)
        errors = [
            abs(v - oracles.plugin_log_density(family, params, xbar, y))
            for y, v in zip(spec["futures"], result)
        ]
        return worst(errors, PLUGIN_TOL)

    return Op("plugin", family, "prediction", spec, run, check)


def _constancy_op(E, family, spec):
    params = spec["params"]

    def run():
        fam = _make_family(E, family, params)
        if "sequences" in spec:
            seqs = spec["sequences"]
        else:
            seqs = [E.ObservationBatch(n=spec["n"], xbar=x) for x in spec["xbars"]]
        return E.lemma1_constancy(fam, spec["n"], seqs)

    def check(report):
        if family == "inverse-gaussian":
            return None, True
        if family == "gamma":
            log_c = oracles.gamma_lemma1_log_constant(params["alpha"], spec["n"])
            errors = [
                abs(math.exp(math.log(v) - log_c) - 1.0) if v > 0 else 1.0
                for v in report.values
            ]
        else:
            errors = [report.relative_spread]
        return worst(errors, QUAD_TOL)

    return Op("constancy", family, "prediction", spec, run, check)


def _profile_op(E, family, spec):
    params = spec["params"]
    exact = family != "inverse-gaussian"

    def run():
        fam = _make_family(E, family, params)
        theta_hat = fam.mle(spec["xbar"])
        profile = E.renormalize(fam, spec["n"], theta_hat)
        if not exact:
            return profile, None, None
        grid = spec["grid"]
        deviation = E.exactness_report(fam, spec["n"], theta_hat, grid)
        return profile, deviation, [profile.log_density(t) for t in grid]

    def check(result):
        if not exact:
            return None, True
        _, deviation, log_densities = result
        post = oracles.posterior(family, params, spec["n"], spec["xbar"])
        errors = [deviation]
        for theta, ld in zip(spec["grid"], log_densities):
            ref = oracles.posterior_log_density(family, post, theta)
            errors.append(abs(math.exp(ld - ref) - 1.0))
        return worst(errors, QUAD_TOL)

    return Op("profile", family, "saddlepoint", spec, run, check)


def _posterior_grid(family, params, n, xbar):
    post = oracles.posterior(family, params, n, xbar)
    if family in ("gamma", "poisson-exp"):
        return [-float(post.ppf(p)) for p in POSTERIOR_PROBS]
    center = np.asarray(post.mean, dtype=float)
    sd = np.sqrt(np.diag(np.atleast_2d(post.cov)))
    if center.size == 1:
        return [float(center[0] + k * sd[0]) for k in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    steps = ((0, 0), (-1.5, 0), (1.5, 0), (0, -1.5), (1, 1))
    return [center + np.asarray(s) * sd for s in steps]


def _profile_spec(family, params, n, xbar):
    spec = {"params": params, "n": n, "xbar": xbar}
    if family != "inverse-gaussian":
        spec["grid"] = _posterior_grid(family, params, n, xbar)
    return spec


def inference_ops(E, seed):
    """One pass of the inference workload for ``seed``."""
    rng = _rng(seed, 1)
    ops = []
    builders = {"compare": _compare_op, "plugin": _plugin_op,
                "constancy": _constancy_op, "profile": _profile_op}
    for family in FAMILIES:
        for kind, count in RAW_COUNTS.items():
            for _ in range(count):
                params, _, draw = _draw_family(rng, family)
                m = int(rng.integers(RAW_M[0], RAW_M[1] + 1))
                if kind == "constancy":
                    spec = {"params": params, "n": m,
                            "sequences": [_sample(rng, family, draw, m) for _ in range(3)]}
                elif kind == "profile":
                    data = _sample(rng, family, draw, m)
                    spec = _profile_spec(family, params, m, float(np.mean(data)))
                else:
                    spec = {"params": params, "data": _sample(rng, family, draw, m),
                            "futures": _futures(rng, draw)}
                ops.append(builders[kind](E, family, spec))
    for (family, kind), log_n in zip(BATCH_CELLS, _strata(rng, len(BATCH_CELLS), *BATCH_LOG10_N)):
        params, mean, draw = _draw_family(rng, family, BATCH_PE_KAPPA)
        n = int(round(10.0**log_n))
        xbars = [_batch_mean(rng, family, mean) for _ in range(3)]
        if kind == "constancy":
            spec = {"params": params, "n": n, "xbars": xbars}
        elif kind == "profile":
            spec = _profile_spec(family, params, n, xbars[0])
        else:
            spec = {"params": params, "n": n, "xbar": xbars[0], "futures": _futures(rng, draw)}
        op = builders[kind](E, family, spec)
        op.stress = True
        ops.append(op)
    ops.append(_profile_2d_op(E, rng))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _batch_mean(rng, family, mean):
    if family == "gaussian":
        return float(mean + rng.uniform(-0.5, 0.5))
    return float(mean * np.exp(rng.uniform(-0.2, 0.2)))


def _profile_2d_op(E, rng):
    """A 2-D Gaussian renormalization: the only user of the nquad path.

    The covariance is fixed at the identity: the nquad node count then does
    not depend on the seed.  It costs as much as all other ops of a pass
    together, so it runs once per run and leaves the window to them.
    """
    cov = np.eye(2)
    xbar = rng.uniform(-1.0, 1.0, size=2)
    n = int(rng.integers(1, 9))
    params = {"cov": cov}
    spec = {"params": params, "n": n, "xbar": xbar,
            "grid": _posterior_grid("gaussian", params, n, xbar)}
    op = _profile_op(E, "gaussian", spec)
    op.family = "gaussian-2d"
    op.once = True
    return op


# -- intervals ---------------------------------------------------------------


def _study_op(E, family, level, trials, m, theta):
    spec = {"level": level, "trials": trials, "m": m, "theta": theta, "seed": STUDY_SEED}
    banded = family != "poisson-exp"

    def run():
        if family == "gamma":
            fam = E.GammaFamily(1.0)

            def build(b):
                return E.gamma_credible(1.0, b, level)
        elif family == "gaussian":
            fam = E.GaussianLocationFamily(1.0)

            def build(b):
                return E.gaussian_divergence_ball(fam, b, level)
        else:
            fam = E.PoissonExponentialFamily(2.0)

            def build(b):
                return E.poisson_exp_credible(2.0, b, level)
        return E.coverage_simulation(fam, build, theta, m, level, trials, STUDY_SEED)

    def check(report):
        consistent = report.empirical_coverage == report.hits / report.trials
        return None, consistent and (report.within_band or not banded)

    return Op("coverage", family, "intervals", spec, run, check)


def _pe_confidence_op(E, spec):
    def run():
        est = E.PoissonExponentialRateInterval(spec["kappa"], spec["level"], "confidence")
        return est.fit(E.ObservationBatch(n=spec["m"], xbar=spec["xbar"])).upper_

    def check(upper):
        m = spec["m"]
        cdf = oracles.pe_sum_cdf(m * spec["kappa"], upper, m * spec["xbar"])
        return worst([abs(cdf - spec["level"])], INTERVAL_TOL)

    return Op("confidence", "poisson-exp", "intervals", spec, run, check)


def _pe_credible_op(E, spec):
    def run():
        est = E.PoissonExponentialRateInterval(spec["kappa"], spec["level"], "credible")
        return est.fit(spec["data"]).upper_

    def check(upper):
        params = {"kappa": spec["kappa"]}
        m, xbar = _summary(spec)
        post = oracles.posterior("poisson-exp", params, m, xbar)
        return worst([abs(float(post.cdf(upper)) - spec["level"])], INTERVAL_TOL)

    return Op("credible", "poisson-exp", "intervals", spec, run, check)


def _gamma_pair_op(E, spec):
    def run():
        cred = E.GammaRateInterval(spec["alpha"], spec["level"], "credible").fit(spec["data"])
        conf = E.GammaRateInterval(spec["alpha"], spec["level"], "confidence").fit(spec["data"])
        return cred.upper_, conf.upper_

    def check(result):
        cred, conf = result
        m, xbar = _summary(spec)
        expected = float(special.gammaincinv(m * spec["alpha"], spec["level"])) / (m * xbar)
        err = max(oracles.rel_err(cred, expected), oracles.rel_err(conf, cred))
        return err, bool(cred == conf and err <= EXACT_TOL)

    return Op("credible-confidence", "gamma", "intervals", spec, run, check)


def _ball_op(E, spec):
    def run():
        est = E.GaussianDivergenceBall(spec["cov"], spec["level"]).fit(spec["data"])
        return est.center_, est.radius_

    def check(result):
        center, radius = result
        data = np.asarray(spec["data"])
        m, d = data.shape
        expected_radius = float(stats.chi2.ppf(spec["level"], d)) / (2.0 * m)
        expected_center = np.linalg.solve(np.atleast_2d(spec["cov"]), data.mean(axis=0))
        errors = [oracles.rel_err(radius, expected_radius)]
        errors += [oracles.rel_err(c, e) for c, e in zip(np.atleast_1d(center), expected_center)]
        return worst(errors, EXACT_TOL)

    return Op("divergence-ball", "gaussian", "intervals", spec, run, check)


def _pe_sum_mean(rng, m, kappa, beta):
    """Mean of m compound-Poisson draws, drawn through their sum."""
    while True:
        count = rng.poisson(m * kappa / (2.0 * beta))
        if count > 0:
            return float(rng.gamma(count, 1.0 / beta)) / m


def intervals_ops(E, seed):
    """One pass of the intervals workload for ``seed``."""
    rng = _rng(seed, 2)
    ops = [_study_op(E, *study) for study in STUDIES]
    per = PE_CONFIDENCE_PER_DECADE
    for decade in range(PE_CONFIDENCE_DECADES):
        for log_m in _latin(rng, per, decade, decade + 1):
            m = max(1, int(10.0**log_m))
            # one jump per observation on average, so the cost follows m: the
            # cdf sums O(sqrt(m kappa / (2 beta))) terms per evaluation, and
            # the rate beta moves the cost of an endpoint by up to half again
            kappa = float(rng.uniform(0.5, 4.0))
            beta = kappa / 2.0
            spec = {"kappa": kappa, "level": PE_CONFIDENCE_LEVEL, "m": m,
                    "xbar": _pe_sum_mean(rng, m, kappa, beta)}
            ops.append(_pe_confidence_op(E, spec))
    log_ms = _latin(rng, INTERVAL_FITS, 0.0, 3.0)
    for log_m in log_ms:
        m = int(10.0**log_m)
        params, _, draw = _draw_family(rng, "poisson-exp")
        spec = {"kappa": params["kappa"], "level": float(rng.uniform(0.8, 0.95)),
                "data": _sample(rng, "poisson-exp", draw, m)}
        ops.append(_pe_credible_op(E, spec))
    for log_m in rng.permutation(log_ms):
        m = int(10.0**log_m)
        params, _, draw = _draw_family(rng, "gamma")
        spec = {"alpha": params["alpha"], "level": float(rng.uniform(0.8, 0.95)),
                "data": _sample(rng, "gamma", draw, m)}
        ops.append(_gamma_pair_op(E, spec))
    for i, log_m in enumerate(rng.permutation(log_ms)):
        m, d = int(10.0**log_m), 1 + i % 2
        cov = np.diag(rng.uniform(0.5, 2.0, size=d))
        mean = rng.uniform(-2.0, 2.0, size=d)
        data = rng.multivariate_normal(mean, cov, size=m)
        spec = {"cov": cov if d > 1 else float(cov[0, 0]),
                "level": float(rng.uniform(0.8, 0.95)), "data": data.tolist()}
        ops.append(_ball_op(E, spec))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# -- set-up ------------------------------------------------------------------


def warm_up(E, workload):
    """One small op per family (inference) or construction (intervals)."""
    if workload == "inference":
        for family in FAMILIES:
            params = {"gamma": {"alpha": 1.0}, "gaussian": {"cov": 1.0}}.get(
                family, {"kappa": 2.0})
            spec = {"params": params, "data": [0.5, 1.5], "futures": [1.0]}
            _compare_op(E, family, spec).run()
        return
    batch = E.ObservationBatch(n=3, xbar=1.0)
    E.gamma_credible(1.0, batch, 0.9)
    E.poisson_exp_credible(2.0, batch, 0.9)
    E.poisson_exp_confidence(2.0, batch, 0.9)
    E.gaussian_divergence_ball(1.0, batch, 0.9)
    E.coverage_simulation(E.GammaFamily(1.0), lambda b: E.gamma_credible(1.0, b, 0.9),
                          -1.0, 2, 0.9, 100, 0)


OP_LISTS = {"inference": inference_ops, "intervals": intervals_ops}
