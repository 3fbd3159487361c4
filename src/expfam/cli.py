"""Command-line interface.

Subcommands: density, predict, interval, coverage, verify.  Output is a
JSON object (or array) or RFC-4180 CSV on stdout; identical inputs and
seeds produce byte-identical output.  Exit codes: 0 success, 1 failed
verification, 2 input/domain error, 3 numerical non-convergence,
4 degenerate data, 141 stdout closed by the reader (128 + SIGPIPE, what
shells report for a process that SIGPIPE ended).
"""

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .errors import (
    DegenerateDataError,
    DomainError,
    NonConvergenceError,
    NonNormalizableError,
    SupportError,
)
from .families import (
    GammaFamily,
    GaussianLocationFamily,
    InverseGaussianFamily,
    PoissonExponentialFamily,
)
from .intervals import (
    METHOD_DIVERGENCE_BALL,
    DivergenceBallRegion,
    coverage_simulation,
    interval_construction,
)
from .numerics import DEFAULT_TOL, exp_density
from .prediction import as_batch, make_predictor
from .validation import check_whole
from .verify import available_suites, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_DEGENERATE = 4
EXIT_BROKEN_PIPE = 141

#: --family name -> (family class, the option that holds its parameter)
FAMILIES = {
    "gamma": (GammaFamily, "shape"),
    "gaussian": (GaussianLocationFamily, "cov"),
    "inverse-gaussian": (InverseGaussianFamily, "kappa"),
    "poisson-exp": (PoissonExponentialFamily, "kappa"),
}


def _parse_matrix(text):
    try:
        matrix = np.asarray(
            [[float(entry) for entry in row.split(",")] for row in text.strip().split(";")]
        )
    except ValueError as exc:  # an entry that is no float, or ragged rows
        raise DomainError(f"cannot parse matrix {text!r}: {exc}") from None
    return matrix.item() if matrix.size == 1 else matrix


def _parse_vector(text):
    try:
        values = [float(entry) for entry in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"cannot parse vector {text!r}: {exc}") from None
    return values[0] if len(values) == 1 else np.asarray(values)


def _load_config(path):
    config = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DomainError(
                        f"{path}:{lineno}: expected key=value, got {line!r}"
                    )
                key, _, value = line.partition("=")
                config[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from None
    return config


def _resolve(args, config, key, default, convert):
    value = getattr(args, key)
    if value is not None:
        return value
    if key in config:
        try:
            return convert(config[key])
        except ValueError as exc:
            raise DomainError(f"bad config value for {key}: {exc}") from None
    return default


def _whole_number(text):
    """A count or seed from a config file, by the library's own whole-number check."""
    try:
        return check_whole(text)
    except DomainError:
        raise ValueError(f"expected a whole number, got {text!r}") from None


def _load_observations(path, d=1):
    rows = []
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    if d == 1:
                        rows.append(float(line))
                    else:
                        entries = [float(v) for v in line.split(",")]
                        if len(entries) != d:
                            raise ValueError(f"expected {d} coordinates")
                        rows.append(entries)
                except ValueError as exc:
                    raise DomainError(f"{path}:{lineno}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read data file {path}: {exc}") from None
    if not rows:
        raise DomainError(f"data file {path} contains no observations")
    return np.asarray(rows)


def _make_family(args):
    cls, option = FAMILIES[args.family]
    value = getattr(args, option)
    if option == "cov":
        return cls(1.0 if value is None else _parse_matrix(value))
    if value is None:
        raise DomainError(f"{args.family} needs --{option}")
    return cls(value)


def _theta_for(args, family):
    """Natural parameter from the user-facing parametrization."""
    if args.family in ("gamma", "poisson-exp"):
        if args.rate is None:
            raise DomainError(f"{args.family} needs --rate")
        if args.rate <= 0:
            raise DomainError(f"--rate must be > 0, got {args.rate}")
        return -args.rate
    if args.mu is None:
        raise DomainError(f"{args.family} needs --mu")
    return family.mle(_parse_vector(args.mu))


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    return str(value)


def _emit(records, fmt, out):
    if fmt == "json":
        payload = records[0] if len(records) == 1 else records
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
        return
    fieldnames = []
    for record in records:
        for key in record:
            if key not in fieldnames:
                fieldnames.append(key)
    writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\r\n")
    writer.writeheader()
    for record in records:
        writer.writerow({k: _csv_cell(v) for k, v in record.items()})


def _check_finite(value, key=None):
    """Raise DomainError at a non-finite float in a record: JSON has no number for it."""
    if isinstance(value, dict):
        for k, v in value.items():
            _check_finite(v, k)
    elif isinstance(value, (list, tuple)):
        for v in value:
            _check_finite(v, key)
    elif isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"{key} is {value}, outside the float range")


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def cmd_density(args, config):
    family = _make_family(args)
    x = _parse_vector(args.x)
    theta = _theta_for(args, family)
    record = {"family": args.family, "x": _jsonable(x)}
    atom = family.has_atom and np.ndim(x) == 0 and float(x) == family.atom_point
    log_value = family.log_density(theta, x)
    record["value_type"] = "atom" if atom else "density"
    record["value"] = exp_density(log_value)
    record["log_value"] = log_value
    return [record], EXIT_OK


def cmd_predict(args, config):
    family = _make_family(args)
    tol = _resolve(args, config, "tol", DEFAULT_TOL, float)
    prefix = _load_observations(args.data, family.d)
    future = np.atleast_1d(_parse_vector(args.future))
    horizon = future.shape[0]
    methods = ["cnml", "jeffreys"] if args.compare else [args.method]
    records = []
    values = {}
    for method in methods:
        predictor = make_predictor(method, family, horizon=horizon, tol=tol)
        predictor.fit(prefix)
        value = predictor.predictive_value(future)
        values[method] = value.log_density
        records.append(
            {
                "method": value.method,
                "m": int(prefix.shape[0]),
                "future": _jsonable(future),
                "log_density": value.log_density,
                "normalizer_error": value.normalizer_error,
            }
        )
    if args.compare:
        records.append(
            {
                "method": "compare",
                "abs_log_difference": abs(values["cnml"] - values["jeffreys"]),
            }
        )
    return records, EXIT_OK


def _interval_record(result):
    if isinstance(result, DivergenceBallRegion):
        return {
            "method": METHOD_DIVERGENCE_BALL,
            "center": _jsonable(result.center),
            "radius": result.radius,
            "level": result.level,
            "diagnostics": _jsonable(result.diagnostics),
        }
    return {
        "lower": result.lower,
        "upper": result.upper,
        "level": result.level,
        "method": result.method,
        "diagnostics": _jsonable(result.diagnostics),
    }


def cmd_interval(args, config):
    family = _make_family(args)
    level = _resolve(args, config, "level", 0.9, float)
    data = _load_observations(args.data, family.d)
    batch = as_batch(family, data)
    build = interval_construction(family, args.method, level)
    return [_interval_record(build(batch))], EXIT_OK


def cmd_coverage(args, config):
    family = _make_family(args)
    level = _resolve(args, config, "level", 0.9, float)
    trials = _resolve(args, config, "trials", 100_000, _whole_number)
    seed = _resolve(args, config, "seed", 0, _whole_number)
    m = _resolve(args, config, "m", 1, _whole_number)
    theta_true = _theta_for(args, family)
    build = interval_construction(family, args.method, level)
    report = coverage_simulation(family, build, theta_true, m, level, trials, seed)
    record = {
        "family": args.family,
        "method": args.method,
        "level": report.level,
        "trials": report.trials,
        "hits": report.hits,
        "empirical_coverage": report.empirical_coverage,
        "three_sigma_band": list(report.three_sigma_band),
        "degenerate": report.degenerate,
        "within_band": report.within_band,
    }
    return [record], EXIT_OK


def cmd_verify(args, config):
    tol = _resolve(args, config, "tol", DEFAULT_TOL, float)
    seed = _resolve(args, config, "seed", 0, _whole_number)
    trials = _resolve(args, config, "trials", 100_000, _whole_number)
    reports = run_suite(args.suite, tol=tol, seed=seed, trials=trials)
    records = []
    for report in reports:
        record = {
            "check": report.check,
            "pass": report.passed,
            "statistic": report.statistic,
            "threshold": report.threshold,
            "detail": report.detail,
        }
        if args.timing:
            record["runtime"] = report.runtime
        records.append(record)
    code = EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED
    return records, code


#: option -> its ``add_argument`` keywords; each subcommand takes the ones
#: that ``COMMANDS`` lists for it
OPTIONS = {
    "family": {"choices": FAMILIES, "required": True},
    "shape": {"type": float, "help": "gamma shape alpha"},
    "kappa": {"type": float, "help": "shape of the IG/compound family"},
    "cov": {"help": "gaussian covariance, e.g. '1' or '2,0.3;0.3,0.5'"},
    "rate": {"type": float, "help": "rate beta (gamma, poisson-exp)"},
    "mu": {"help": "location / mean parameter"},
    "x": {"required": True, "help": "evaluation point"},
    "data": {"required": True, "help": "file with one observation per line"},
    "future": {"required": True, "help": "future point(s), comma separated"},
    "compare": {"action": "store_true", "help": "report CNML and Jeffreys side by side"},
    "tol": {"type": float},
    "seed": {"type": int},
    "level": {"type": float},
    "m": {"type": int},
    "trials": {"type": int},
    "suite": {"choices": available_suites(), "default": "all"},
    "timing": {"action": "store_true", "help": "include per-check runtimes"},
    "format": {"choices": ("json", "csv")},
    "config": {"help": "flat key=value config file"},
}

_FAMILY_OPTIONS = ("family", "shape", "kappa", "cov")
_INTERVAL_METHODS = ("credible", "confidence", "divergence-ball")

#: subcommand -> (help, --method choices with the default first, the options
#: its handler reads); ``main`` reads --format and --config for every one
COMMANDS = {
    "density": (
        "evaluate a density or atom mass", (), (*_FAMILY_OPTIONS, "rate", "mu", "x")
    ),
    "predict": (
        "log predictive density of a suffix",
        ("cnml", "jeffreys", "plugin"),
        (*_FAMILY_OPTIONS, "data", "future", "compare", "tol"),
    ),
    "interval": (
        "one-sided interval or ball", _INTERVAL_METHODS, (*_FAMILY_OPTIONS, "data", "level")
    ),
    "coverage": (
        "Monte Carlo coverage simulation",
        _INTERVAL_METHODS,
        (*_FAMILY_OPTIONS, "rate", "mu", "level", "trials", "seed", "m"),
    ),
    "verify": ("run a verification suite", (), ("suite", "timing", "tol", "seed", "trials")),
}


def build_parser():
    """The parser; a subcommand rejects any option it does not read (exit 2).

    Abbreviated options are off, so that no undeclared ``--m`` is taken
    for a declared ``--mu`` or ``--method``.
    """
    parser = argparse.ArgumentParser(
        prog="expfam",
        description="Exponential-family densities, prediction, intervals and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, methods, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for option in (*options, "format", "config"):
            p.add_argument(f"--{option}", **OPTIONS[option])
        if methods:
            p.add_argument("--method", choices=methods, default=methods[0])
        # looked up now, not at import, so that whatever the name is bound
        # to when the parser is built (a tracing wrapper, say) sees the call
        p.set_defaults(handler=globals()[f"cmd_{name}"])
    return parser


def _fail(exc, code):
    """Report ``exc`` on one line of stderr, whatever reprs it holds; return ``code``."""
    print("error:", " ".join(str(exc).split()), file=sys.stderr)
    return code


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        fmt = _resolve(args, config, "format", "json", str)
        if fmt not in OPTIONS["format"]["choices"]:
            raise DomainError(f"format must be json or csv, got {fmt!r}")
        records, code = args.handler(args, config)
        if args.command != "verify":  # an inf statistic there marks a failed check
            _check_finite(records)
    except DegenerateDataError as exc:
        return _fail(exc, EXIT_DEGENERATE)
    except (NonNormalizableError, NonConvergenceError) as exc:
        return _fail(exc, EXIT_NUMERIC)
    except (DomainError, SupportError) as exc:
        return _fail(exc, EXIT_INPUT)
    try:
        _emit(records, fmt, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone (``expfam verify | head -1``); point stdout at
        # devnull so the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
