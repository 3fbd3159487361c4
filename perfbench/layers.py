"""Per-layer metrics, ``<module>.<function>.<stat>``, from a traced pass.

Every workload reports the same names, so a layer a workload does not
reach reads 0.  Counts (``calls``, ``evals``, ``trials``, ``failures``)
repeat exactly for a seed; times do not.
"""

FAMILIES = {
    "gamma": "GammaFamily",
    "gaussian": "GaussianLocationFamily",
    "inverse_gaussian": "InverseGaussianFamily",
    "poisson_exp": "PoissonExponentialFamily",
}
PREDICTORS = {"cnml": "CnmlPredictor", "jeffreys": "JeffreysPredictor", "plugin": "PlugInPredictor"}
FAMILY_FUNCTIONS = ("cumulant", "mean_from_natural", "mle", "log_carrier", "sample")
CORE_FUNCTIONS = {
    "bregman": "core.Family.bregman",
    "convex_conjugate": "core.Family.convex_conjugate",
    "log_density": "core.Family.log_density",
    "integrate_over_natural": "core.integrate_over_natural",
    "integrate_over_support": "core.integrate_over_support",
}
DISTRIBUTION_FUNCTIONS = (
    "pe_log_series_factor", "PoissonExponentialDist.cdf", "InverseGaussianDist.ppf",
)
FAILURE_CLASSES = {
    "prediction": ("NonConvergenceError", "ImproperPosteriorError", "NonNormalizableError",
                   "ZeroDivisionError", "OverflowError", "OracleMiss", "other"),
    "saddlepoint": ("NonIntegrableError", "OracleMiss", "other"),
}
SUITES = ("lemma1", "equivalence", "saddlepoint", "normalization", "coverage")
CLI_COMMANDS = ("density", "predict", "interval", "coverage")
CONFIDENCE_DECADES = 6


def _unit(name):
    stat = name.rsplit(".", 1)[1]
    if stat.startswith("us_"):
        return "us"
    if stat.endswith("ms") or stat.startswith("ms_"):
        return "ms"
    if stat in ("s", "import_s", "overhead_s"):
        return "s"
    return "count"


def metric_names():
    """Every per-layer metric, in report order."""
    names = [
        "numerics.integrate.calls", "numerics.integrate.evals",
        "numerics.integrate.us_per_eval", "numerics.integrate.self_ms",
        "numerics.find_root.calls", "numerics.find_root.self_ms",
    ]
    for fn in CORE_FUNCTIONS:
        names += [f"core.{fn}.calls", f"core.{fn}.us_per_call"]
    for fam in FAMILIES:
        for fn in FAMILY_FUNCTIONS:
            names += [f"families.{fam}.{fn}.calls", f"families.{fam}.{fn}.us_per_call"]
    for fn in DISTRIBUTION_FUNCTIONS:
        names += [f"distributions.{fn}.calls", f"distributions.{fn}.us_per_call"]
    for method in PREDICTORS:
        names += [f"prediction.fit.{method}.{fam}.ms_per_call" for fam in FAMILIES]
    names += ["prediction.log_predictive.ms_per_call", "prediction.lemma1_constancy.ms_per_call"]
    names += [f"{layer}.failures.{cls}"
              for layer, classes in FAILURE_CLASSES.items() for cls in classes]
    names += ["saddlepoint.renormalize.d1.ms_per_call", "saddlepoint.renormalize.d2.ms_per_call",
              "saddlepoint.exactness_report.ms_per_call"]
    names += ["intervals.coverage_simulation.ms_per_call",
              "intervals.coverage_simulation.us_per_trial"]
    names += [f"intervals.poisson_exp_confidence.m1e{k}.ms_per_call"
              for k in range(CONFIDENCE_DECADES)]
    names += ["intervals.gamma_credible.us_per_call", "intervals.poisson_exp_credible.us_per_call"]
    names += [f"verify.{suite}.s" for suite in SUITES]
    names += ["cli.import_s", "cli.verify.s"]
    names += [f"cli.{cmd}.ms_per_call" for cmd in CLI_COMMANDS]
    names += ["trace.overhead_s", "trace.spans"]
    return names


UNITS = {name: _unit(name) for name in metric_names()}


def per_layer(stats, counts, records, suite_s, import_s, verify_wall):
    """Per-layer metrics from span stats, tracer counters and op records.

    ``stats`` maps span name to (calls, inclusive s, self s); ``records``
    are the traced pass's ops; ``suite_s`` maps verify suite to seconds.
    """

    def calls(span):
        return stats.get(span, (0, 0.0, 0.0))[0]

    def per_call(span, scale):
        c, total, _ = stats.get(span, (0, 0.0, 0.0))
        return total / c * scale if c else 0.0

    def self_ms(span):
        return stats.get(span, (0, 0.0, 0.0))[2] * 1e3

    out = {}
    evals = counts.get("numerics.integrate.evals", 0)
    out["numerics.integrate.calls"] = calls("numerics.integrate")
    out["numerics.integrate.evals"] = evals
    integrate_s = stats.get("numerics.integrate", (0, 0.0, 0.0))[1]
    out["numerics.integrate.us_per_eval"] = integrate_s / evals * 1e6 if evals else 0.0
    out["numerics.integrate.self_ms"] = self_ms("numerics.integrate")
    out["numerics.find_root.calls"] = calls("numerics.find_root")
    out["numerics.find_root.self_ms"] = self_ms("numerics.find_root")
    for fn, span in CORE_FUNCTIONS.items():
        out[f"core.{fn}.calls"] = calls(span)
        out[f"core.{fn}.us_per_call"] = per_call(span, 1e6)
    for fam, cls in FAMILIES.items():
        for fn in FAMILY_FUNCTIONS:
            span = f"families.{cls}.{fn}"
            out[f"families.{fam}.{fn}.calls"] = calls(span)
            out[f"families.{fam}.{fn}.us_per_call"] = per_call(span, 1e6)
    for fn in DISTRIBUTION_FUNCTIONS:
        span = f"distributions.{fn}"
        out[f"distributions.{fn}.calls"] = calls(span)
        out[f"distributions.{fn}.us_per_call"] = per_call(span, 1e6)
    for method, pred in PREDICTORS.items():
        for fam, cls in FAMILIES.items():
            span = f"prediction._PredictorBase.fit.{pred}.{cls}"
            out[f"prediction.fit.{method}.{fam}.ms_per_call"] = per_call(span, 1e3)
    out["prediction.log_predictive.ms_per_call"] = per_call(
        "prediction._PredictorBase.log_predictive", 1e3)
    out["prediction.lemma1_constancy.ms_per_call"] = per_call("prediction.lemma1_constancy", 1e3)
    for layer, classes in FAILURE_CLASSES.items():
        counted = {cls: 0 for cls in classes}
        for rec in records:
            if rec.error and rec.op.layer == layer:
                key = rec.error if rec.error in counted else "other"
                counted[key] += 1
        for cls, n in counted.items():
            out[f"{layer}.failures.{cls}"] = n
    for d in (1, 2):
        out[f"saddlepoint.renormalize.d{d}.ms_per_call"] = per_call(
            f"saddlepoint.renormalize.d{d}", 1e3)
    out["saddlepoint.exactness_report.ms_per_call"] = per_call("saddlepoint.exactness_report", 1e3)
    cov_span = "intervals.coverage_simulation"
    trials = counts.get("intervals.coverage_simulation.trials", 0)
    out["intervals.coverage_simulation.ms_per_call"] = per_call(cov_span, 1e3)
    cov_s = stats.get(cov_span, (0, 0.0, 0.0))[1]
    out["intervals.coverage_simulation.us_per_trial"] = cov_s / trials * 1e6 if trials else 0.0
    for k in range(CONFIDENCE_DECADES):
        out[f"intervals.poisson_exp_confidence.m1e{k}.ms_per_call"] = per_call(
            f"intervals.poisson_exp_confidence.m1e{k}", 1e3)
    out["intervals.gamma_credible.us_per_call"] = per_call("intervals.gamma_credible", 1e6)
    out["intervals.poisson_exp_credible.us_per_call"] = per_call(
        "intervals.poisson_exp_credible", 1e6)
    for suite in SUITES:
        out[f"verify.{suite}.s"] = suite_s.get(suite, 0.0)
    out["cli.import_s"] = import_s or 0.0
    out["cli.verify.s"] = verify_wall or 0.0
    for cmd in CLI_COMMANDS:
        lat = [t for r in records if r.op.layer == "cli" and r.op.kind == cmd
               for t in r.latencies]
        out[f"cli.{cmd}.ms_per_call"] = sum(lat) / len(lat) * 1e3 if lat else 0.0
    return out
