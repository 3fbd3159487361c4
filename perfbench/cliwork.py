"""The ``cli`` workload: ``expfam`` subprocesses, one at a time.

Two command sets make one pass:

* golden commands: the README's one-shot commands on the fixed data file
  ``golden/obs.txt``; their stdout bytes and exit codes were captured on
  the seed commit and must match byte for byte;
* seeded commands: the same subcommands on data files and parameters
  drawn from the workload seed, checked through the JSON they print.

``verify --suite all --trials 20000`` runs once per run, at verify's own
fixed ``--seed 0``.  Run ``python3 perfbench/cliwork.py --capture`` to
rewrite the goldens from the current ``src/``.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import special, stats

import oracles
from workloads import EXACT_TOL, INTERVAL_TOL, QUAD_TOL, Op, worst

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
OBS = "perfbench/golden/obs.txt"
VERIFY_ARGS = ["verify", "--suite", "all", "--trials", "20000"]

GOLDEN_COMMANDS = {
    "density-gamma": ["density", "--family", "gamma", "--shape", "1", "--rate", "1", "--x", "1"],
    "density-poisson-exp-atom": ["density", "--family", "poisson-exp", "--kappa", "2",
                                 "--rate", "1", "--x", "0"],
    "predict-cnml": ["predict", "--family", "gamma", "--shape", "1", "--data", OBS,
                     "--future", "1.0", "--method", "cnml"],
    "predict-compare": ["predict", "--family", "gamma", "--shape", "1", "--data", OBS,
                        "--future", "1.0", "--compare"],
    "interval-gamma-credible": ["interval", "--family", "gamma", "--shape", "1", "--data", OBS,
                                "--level", "0.9", "--method", "credible"],
    "interval-poisson-exp-confidence": ["interval", "--family", "poisson-exp", "--kappa", "2",
                                        "--data", OBS, "--method", "confidence"],
    "interval-gaussian-ball": ["interval", "--family", "gaussian", "--cov", "1", "--data", OBS,
                               "--method", "divergence-ball"],
    "coverage-gamma": ["coverage", "--family", "gamma", "--shape", "1", "--rate", "2", "--m", "5",
                       "--level", "0.9", "--trials", "2000", "--seed", "7"],
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def expfam_command(args, trace_out=None, kernel_out=None):
    """argv of one ``expfam`` call, through the tracing shim when tracing, or
    through ``hostclock.py`` when the host speed is sampled inside it."""
    if trace_out is not None:
        return [sys.executable, str(HERE / "tracing.py"), str(trace_out), *args]
    if kernel_out is not None:
        return [sys.executable, str(HERE / "hostclock.py"), str(kernel_out), "-m", "expfam.cli",
                *args]
    return [sys.executable, "-m", "expfam.cli", *args]


def call(args, trace_out=None, kernel_out=None):
    """Run one ``expfam`` subprocess to completion: (exit code, stdout bytes)."""
    proc = subprocess.run(
        expfam_command(args, trace_out, kernel_out), cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170, check=False,
    )
    return proc.returncode, proc.stdout


def _golden(name):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    return codes[name], (GOLDEN / f"{name}.out").read_bytes()


def _golden_op(name, args, tracer_dir):
    def run():
        return call(args, tracer_dir and tracer_dir.next())

    def check(result):
        code, out = result
        want_code, want_out = _golden(name)
        return None, code == want_code and out == want_out

    return Op(args[0], name, "cli", {"args": args}, run, check)


def _json_op(args, tracer_dir, checker):
    def run():
        return call(args, tracer_dir and tracer_dir.next())

    def check(result):
        code, out = result
        if code != 0:
            return None, False
        return checker(json.loads(out))

    return Op(args[0], args[2], "cli", {"args": args}, run, check)


def _write(path, values):
    path.write_text("".join(f"{v!r}\n" for v in values))
    return str(path)


def seeded_ops(seed, data_dir, tracer_dir=None):
    """The README's one-shot commands on inputs drawn from ``seed``."""
    rng = np.random.default_rng([int(seed), 3])
    data_dir.mkdir(parents=True, exist_ok=True)
    ops = []

    alpha, beta = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.3, 3.0))
    x = float(rng.uniform(0.1, 5.0))
    ref = float(stats.gamma.logpdf(x, alpha, scale=1.0 / beta))
    ops.append(_json_op(
        ["density", "--family", "gamma", "--shape", repr(alpha), "--rate", repr(beta),
         "--x", repr(x)], tracer_dir,
        lambda r: worst([abs(r["log_value"] - ref)], EXACT_TOL)))

    kappa, rate = float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 2.0))
    atom = -kappa / (2.0 * rate)
    ops.append(_json_op(
        ["density", "--family", "poisson-exp", "--kappa", repr(kappa), "--rate", repr(rate),
         "--x", "0"], tracer_dir,
        lambda r: worst([abs(r["log_value"] - atom)], EXACT_TOL)
        if r["value_type"] == "atom" else (None, False)))

    m = int(rng.integers(1, 9))
    gamma_data = [float(v) for v in rng.gamma(alpha, 1.0 / beta, m)]
    gamma_file = _write(data_dir / "gamma.txt", gamma_data)
    xbar = float(np.mean(gamma_data))
    future = float(rng.gamma(alpha, 1.0 / beta))
    closed = oracles.jeffreys_log_predictive("gamma", {"alpha": alpha}, m, xbar, future)

    def check_compare(records):
        cnml, jeff, diff = records
        errors = [diff["abs_log_difference"], abs(jeff["log_density"] - closed)]
        return worst(errors, QUAD_TOL)

    ops.append(_json_op(
        ["predict", "--family", "gamma", "--shape", repr(alpha), "--data", gamma_file,
         "--future", repr(future), "--compare"], tracer_dir, check_compare))

    level = float(rng.uniform(0.8, 0.95))
    upper = float(special.gammaincinv(m * alpha, level)) / (m * xbar)
    ops.append(_json_op(
        ["interval", "--family", "gamma", "--shape", repr(alpha), "--data", gamma_file,
         "--level", repr(level), "--method", "credible"], tracer_dir,
        lambda r: worst([oracles.rel_err(r["upper"], upper)], EXACT_TOL)))

    pe_m = int(rng.integers(1, 50))
    counts = rng.poisson(kappa / (2.0 * rate), pe_m)
    counts[0] = max(counts[0], 1)
    pe_data = [float(v) for v in rng.gamma(np.maximum(counts, 1), 1.0 / rate) * (counts > 0)]
    pe_file = _write(data_dir / "poisson-exp.txt", pe_data)
    pe_sum = float(np.sum(pe_data))

    def check_confidence(r):
        cdf = oracles.pe_sum_cdf(pe_m * kappa, r["upper"], pe_sum)
        return worst([abs(cdf - level)], INTERVAL_TOL)

    ops.append(_json_op(
        ["interval", "--family", "poisson-exp", "--kappa", repr(kappa), "--data", pe_file,
         "--level", repr(level), "--method", "confidence"], tracer_dir, check_confidence))

    cov, mean = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-2.0, 2.0))
    g_data = [float(v) for v in rng.normal(mean, math.sqrt(cov), m)]
    g_file = _write(data_dir / "gaussian.txt", g_data)
    radius = float(stats.chi2.ppf(level, 1)) / (2.0 * m)
    center = float(np.mean(g_data)) / cov
    ops.append(_json_op(
        ["interval", "--family", "gaussian", "--cov", repr(cov), "--data", g_file,
         "--level", repr(level), "--method", "divergence-ball"], tracer_dir,
        lambda r: worst([oracles.rel_err(r["radius"], radius),
                          oracles.rel_err(r["center"], center)], EXACT_TOL)))

    cov_seed = int(rng.integers(0, 2**31))

    def check_coverage(r):
        sigma = math.sqrt(r["level"] * (1.0 - r["level"]) / r["trials"])
        errors = [oracles.rel_err(r["empirical_coverage"], r["hits"] / r["trials"]),
                  oracles.rel_err(r["three_sigma_band"][1], r["level"] + 3.0 * sigma)]
        return worst(errors, EXACT_TOL)

    ops.append(_json_op(
        ["coverage", "--family", "gamma", "--shape", repr(alpha), "--rate", repr(beta),
         "--m", str(m), "--level", repr(level), "--trials", "2000", "--seed", str(cov_seed)],
        tracer_dir, check_coverage))
    return ops


def cli_ops(seed, data_dir, tracer_dir=None):
    """One pass: the golden commands, then the seeded ones."""
    ops = [_golden_op(name, args, tracer_dir) for name, args in GOLDEN_COMMANDS.items()]
    return ops + seeded_ops(seed, data_dir, tracer_dir)


def check_verify(code, out):
    """verify must exit 0, pass every check and match the golden report.

    Each record must equal the golden one in every field but
    ``statistic``, which may move as long as it stays within its threshold.
    """
    want_code, want_out = _golden("verify")
    if code != want_code or code != 0:
        return False
    got, want = json.loads(out), json.loads(want_out)
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        g, w = dict(g), dict(w)
        stat = g.pop("statistic")
        g.pop("runtime", None)
        w.pop("statistic")
        if g != w or not g["pass"] or not stat <= g["threshold"]:
            return False
    return True


def capture():
    """Rewrite the golden outputs from the current src/."""
    codes = {}
    for name, args in {**GOLDEN_COMMANDS, "verify": VERIFY_ARGS}.items():
        code, out = call(args)
        codes[name] = code
        (GOLDEN / f"{name}.out").write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python3 perfbench/cliwork.py --capture")
    capture()
