"""End-to-end tests of the command-line interface.

Each invocation goes through ``main(argv)`` with captured stdout; outputs
must parse as JSON or RFC-4180 CSV and reproduce byte-identically under a
fixed seed.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expfam.cli import _load_observations, main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracles  # noqa: E402


def _subprocess_env():
    """The environment for a child interpreter that imports expfam from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path}


def _scipy_modules_after(code):
    """The scipy modules a fresh interpreter holds after running ``code``."""
    probe = (
        f"import sys\n{code}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=_subprocess_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip().splitlines()[-1]


def test_import_leaves_out_quadrature_and_root_finding():
    """Neither ``import expfam`` nor ``import expfam.cli`` loads any scipy module.

    ``numerics`` imports scipy.special and scipy.integrate on first use, so
    commands without them never pay for them.  Brent's method is its own, so
    no command loads scipy.optimize: not the Poisson-exponential confidence
    interval, whose endpoints are Brent solves, nor the coverage suite.
    """
    assert _scipy_modules_after("import expfam") == "[]"
    assert _scipy_modules_after("import expfam.cli") == "[]"
    obs = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "obs.txt"
    for argv in (
        ["interval", "--family", "poisson-exp", "--kappa", "2", "--data", str(obs),
         "--method", "confidence"],
        ["verify", "--suite", "coverage"],
    ):
        code = (
            "import contextlib, io\nfrom expfam import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({argv!r}) == 0"
        )
        loaded = _scipy_modules_after(code)
        assert "scipy.special" in loaded
        assert "scipy.optimize" not in loaded


#: density calls that are closed forms, and one that sums the Bessel series
CLOSED_FORM_DENSITIES = [
    "--family gamma --shape 1 --rate 1 --x 1",
    "--family gaussian --mu 0 --x 1",
    "--family inverse-gaussian --kappa 2 --mu 1 --x 1",
    "--family poisson-exp --kappa 2 --rate 1 --x 0",
]


@pytest.mark.parametrize(
    "args, loads",
    [(args, False) for args in CLOSED_FORM_DENSITIES]
    + [("--family poisson-exp --kappa 2 --rate 1 --x 0.5", True)],
)
def test_closed_form_density_leaves_out_scipy(args, loads):
    argv = ["density", *args.split()]
    code = f"from expfam import cli\nassert cli.main({argv!r}) == 0"
    assert (_scipy_modules_after(code) != "[]") is loads


def test_scipy_special_handle_returns_scipy_functions():
    """Every ``_scisp`` name in the package is the scipy.special function itself,
    and the handle keeps it after the first read."""
    from scipy import special

    from expfam import numerics

    src = Path(numerics.__file__).parent
    names = set()
    for module in src.glob("*.py"):
        names.update(re.findall(r"_scisp\.(\w+)", module.read_text()))
    assert {"gammainc", "ndtri", "i1e", "erfcx"} <= names
    for name in sorted(names):
        assert getattr(numerics._scisp, name) is getattr(special, name), name
        assert vars(numerics._scisp)[name] is getattr(special, name), name  # kept


def test_closed_stdout_exits_141_without_traceback():
    """A reader that has gone (``expfam verify | head -1``) is not a failed check.

    The read end of stdout is closed before the child writes, so its first
    write meets a broken pipe: no traceback, and 128 + SIGPIPE, not 1.
    """
    child = subprocess.Popen(
        [sys.executable, "-m", "expfam.cli", "verify", "--suite", "lemma1"],
        env=_subprocess_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    child.stdout.close()
    _, stderr = child.communicate(timeout=60)
    assert child.returncode == 141
    assert stderr == b""


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def gamma_data(tmp_path):
    path = tmp_path / "gamma.txt"
    path.write_text("# one observation per line\n1.0\n")
    return str(path)


class TestDensityCommand:
    def test_gamma_unit_exponential(self, capsys):
        record = run_json(
            ["density", "--family", "gamma", "--shape", "1", "--rate", "1", "--x", "1"],
            capsys,
        )
        assert record["value"] == pytest.approx(0.3678794, abs=1e-7)
        assert record["value_type"] == "density"

    def test_poisson_exp_atom(self, capsys):
        record = run_json(
            [
                "density",
                "--family",
                "poisson-exp",
                "--kappa",
                "2",
                "--rate",
                "1",
                "--x",
                "0",
            ],
            capsys,
        )
        assert record["value_type"] == "atom"
        assert record["value"] == pytest.approx(0.3678794, abs=1e-7)

    def test_poisson_exp_density_where_the_bessel_quotient_underflows(self, capsys):
        # 2 i1e(y)/y underflows to 0 at y = 2 sqrt(kappa x / 2) = 1.4e300
        record = run_json(
            ["density", "--family", "poisson-exp", "--kappa", "1e300", "--rate", "1",
             "--x", "1e300"],
            capsys,
        )
        assert math.isfinite(record["log_value"])

    def test_poisson_exp_density_whose_carrier_overflows_exits_2(self, capsys):
        # y = 2 sqrt(kappa x / 2) overflows to inf, where i1e(y) is 0: the log
        # of 0 was a raw ValueError and a traceback (exit 1)
        code, out, err = run_cli(
            ["density", "--family", "poisson-exp", "--kappa", "1.7e308", "--rate", "1",
             "--x", "1.7e308"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "the carrier exceeds the float range" in err

    def test_support_error_exit_code(self, capsys):
        code, out, err = run_cli(
            [
                "density",
                "--family",
                "gamma",
                "--shape",
                "1",
                "--rate",
                "1",
                "--x",
                "-1",
            ],
            capsys,
        )
        assert code == 2
        assert "error" in err

    def test_inverse_gaussian_density(self, capsys):
        record = run_json(
            [
                "density",
                "--family",
                "inverse-gaussian",
                "--kappa",
                "1",
                "--mu",
                "1",
                "--x",
                "1",
            ],
            capsys,
        )
        assert record["value"] == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-9)

    def test_gaussian_multivariate(self, capsys):
        record = run_json(
            [
                "density",
                "--family",
                "gaussian",
                "--cov",
                "1,0;0,1",
                "--mu",
                "0,0",
                "--x",
                "0,0",
            ],
            capsys,
        )
        assert record["value"] == pytest.approx(1.0 / (2 * math.pi), abs=1e-12)


class TestPredictCommand:
    def test_cnml_closed_form(self, gamma_data, capsys):
        record = run_json(
            [
                "predict",
                "--family",
                "gamma",
                "--shape",
                "1",
                "--data",
                gamma_data,
                "--future",
                "1.0",
                "--method",
                "cnml",
            ],
            capsys,
        )
        assert record["log_density"] == pytest.approx(math.log(0.25), abs=1e-9)

    def test_compare_agreement(self, gamma_data, capsys):
        records = run_json(
            [
                "predict",
                "--family",
                "gamma",
                "--shape",
                "1",
                "--data",
                gamma_data,
                "--future",
                "1.0",
                "--compare",
            ],
            capsys,
        )
        summary = records[-1]
        assert summary["method"] == "compare"
        assert summary["abs_log_difference"] <= 1e-6

    def test_empty_data_exit_code(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing here\n")
        code, out, err = run_cli(
            [
                "predict",
                "--family",
                "gamma",
                "--shape",
                "1",
                "--data",
                str(empty),
                "--future",
                "1.0",
            ],
            capsys,
        )
        assert code == 2

    def test_unparsable_data_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\nnot-a-number\n")
        code, _, err = run_cli(
            [
                "predict",
                "--family",
                "gamma",
                "--shape",
                "1",
                "--data",
                str(bad),
                "--future",
                "1.0",
            ],
            capsys,
        )
        assert code == 2
        # numpy's parser names the entry, not the line
        assert f"cannot read data file {bad}: could not convert string 'not-a-number'" in err

    def test_far_poisson_exp_prefix_exit_code(self, tmp_path, capsys):
        # the CNML atom term used to overflow into a raw OverflowError (exit 1)
        data = tmp_path / "far.txt"
        data.write_text("1e8\n")
        code, out, err = run_cli(
            [
                "predict",
                "--family",
                "poisson-exp",
                "--kappa",
                "2",
                "--data",
                str(data),
                "--future",
                "1.0",
            ],
            capsys,
        )
        assert code == 0, err
        assert math.isfinite(json.loads(out)["log_density"])

    def test_gamma_tiny_prefix_cnml(self, tmp_path, capsys):
        # the CNML normalizer underflowed to 0.0 (exit 3); for Gamma, CNML
        # equals the Jeffreys predictive
        data = tmp_path / "tiny.txt"
        data.write_text("0.001\n")
        argv = ["predict", "--family", "gamma", "--shape", "100", "--data", str(data),
                "--future", "0.0013", "--method"]
        cnml = run_json([*argv, "cnml"], capsys)
        jeffreys = run_json([*argv, "jeffreys"], capsys)
        assert cnml["log_density"] == pytest.approx(jeffreys["log_density"], abs=1e-9)

    @pytest.mark.parametrize("method", ["cnml", "jeffreys", "plugin"])
    def test_multivariate_gaussian_exit_code(self, method, tmp_path, capsys):
        # the predictors are univariate; a 2-D Gaussian is an input error
        data = tmp_path / "plane.txt"
        data.write_text("0.0,1.0\n1.0,0.5\n")
        code, _, err = run_cli(
            ["predict", "--family", "gaussian", "--cov", "1,0;0,1", "--data", str(data),
             "--future", "1.0", "--method", method],
            capsys,
        )
        assert code == 2
        assert "univariate only" in err

    def test_gaussian_jeffreys_far_prefix_exit_code(self, tmp_path, capsys):
        # (ybar - xbar)^2 = 1e320 was a raw OverflowError and a traceback (exit 1);
        # the log density, about -3.8e319, is below the float range
        data = tmp_path / "far.txt"
        data.write_text("1e160\n1e160\n1e160\n")
        code, out, err = run_cli(
            ["predict", "--family", "gaussian", "--cov", "1", "--data", str(data),
             "--future", "1.0", "--method", "jeffreys"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "below the float range" in err

    @pytest.mark.parametrize(
        "method, message",
        [("cnml", "leaves the float range"), ("jeffreys", "below the float range"),
         ("plugin", "outside the float range")],
    )
    def test_far_gaussian_prefix_exits_2_for_every_method(self, method, message, tmp_path,
                                                          capsys):
        # CNML exited 3 on a NaN integrand, and the plug-in -inf reached the JSON check
        data = tmp_path / "far.txt"
        data.write_text("1e160\n1e160\n1e160\n")
        code, out, err = run_cli(
            ["predict", "--family", "gaussian", "--cov", "1", "--data", str(data),
             "--future", "1.0", "--method", method],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1

    def test_normalizable_far_gamma_prefix_is_no_divergence(self, tmp_path, capsys):
        # the CNML divergence probe called this normalizer divergent; QUADPACK
        # fails on it, which is a numerical failure, exit 3 as before
        data = tmp_path / "far.txt"
        data.write_text("1e50\n1e50\n1e50\n")
        code, out, err = run_cli(
            ["predict", "--family", "gamma", "--shape", "1", "--data", str(data),
             "--future", "1.0", "--method", "cnml"],
            capsys,
        )
        assert (code, out) == (3, "")
        assert "diverges" not in err and len(err.splitlines()) == 1

    def test_far_poisson_exp_prefix_jeffreys(self, tmp_path, capsys):
        # quadrature missed this evidence by 4.5e-4 while it reported an
        # error of 1.5e-9; the family's Bessel closed form replaces it
        data = tmp_path / "far.txt"
        data.write_text("1e8\n")
        argv = ["predict", "--family", "poisson-exp", "--kappa", "2", "--data", str(data),
                "--future", "1.0", "--method", "jeffreys"]
        record = run_json(argv, capsys)
        expected = oracles.jeffreys_log_predictive("poisson-exp", {"kappa": 2.0}, 1, 1e8, 1.0)
        assert record["log_density"] == pytest.approx(expected, rel=1e-13)

    def test_non_convergence_exit_code(self, gamma_data, capsys):
        # an unattainable tolerance forces the numeric failure path through
        # the CNML normalizer quadrature
        code, _, err = run_cli(
            [
                "predict",
                "--family",
                "gamma",
                "--shape",
                "1",
                "--data",
                gamma_data,
                "--future",
                "1.0",
                "--method",
                "cnml",
                "--tol",
                "1e-30",
            ],
            capsys,
        )
        assert code == 3


class TestIntervalCommand:
    def test_gamma_credible(self, gamma_data, capsys):
        record = run_json(
            [
                "interval",
                "--family",
                "gamma",
                "--shape",
                "1",
                "--data",
                gamma_data,
                "--level",
                "0.9",
            ],
            capsys,
        )
        assert record["upper"] == pytest.approx(2.302585, abs=1e-6)
        assert record["lower"] == 0.0

    def test_gamma_methods_coincide(self, gamma_data, capsys):
        credible = run_json(
            [
                "interval",
                "--family",
                "gamma",
                "--shape",
                "1",
                "--data",
                gamma_data,
                "--method",
                "credible",
            ],
            capsys,
        )
        confidence = run_json(
            [
                "interval",
                "--family",
                "gamma",
                "--shape",
                "1",
                "--data",
                gamma_data,
                "--method",
                "confidence",
            ],
            capsys,
        )
        assert credible["upper"] == confidence["upper"]

    def test_poisson_exp_methods_differ(self, tmp_path, capsys):
        path = tmp_path / "pe.txt"
        path.write_text("2.0\n")
        base = [
            "interval",
            "--family",
            "poisson-exp",
            "--kappa",
            "2",
            "--data",
            str(path),
            "--level",
            "0.9",
        ]
        credible = run_json(base + ["--method", "credible"], capsys)
        confidence = run_json(base + ["--method", "confidence"], capsys)
        assert abs(credible["upper"] - confidence["upper"]) > 1e-8

    def test_degenerate_data_exit_code(self, tmp_path, capsys):
        path = tmp_path / "zeros.txt"
        path.write_text("0.0\n0.0\n")
        code, _, err = run_cli(
            [
                "interval",
                "--family",
                "poisson-exp",
                "--kappa",
                "2",
                "--data",
                str(path),
            ],
            capsys,
        )
        assert code == 4

    def test_csv_round_trip(self, gamma_data, capsys):
        code, out, _ = run_cli(
            [
                "interval",
                "--family",
                "gamma",
                "--shape",
                "1",
                "--data",
                gamma_data,
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["upper"]) == pytest.approx(2.302585, abs=1e-6)
        assert json.loads(rows[0]["diagnostics"])["posterior_shape"] == 1.0


class TestCoverageCommand:
    def test_gamma_coverage_record(self, capsys):
        record = run_json(
            [
                "coverage",
                "--family",
                "gamma",
                "--shape",
                "1",
                "--rate",
                "2",
                "--m",
                "5",
                "--level",
                "0.9",
                "--trials",
                "4000",
                "--seed",
                "7",
            ],
            capsys,
        )
        assert record["trials"] == 4000
        assert record["within_band"]

    def test_byte_identical_output(self, capsys):
        argv = [
            "coverage",
            "--family",
            "gamma",
            "--shape",
            "1",
            "--rate",
            "2",
            "--m",
            "3",
            "--trials",
            "2000",
            "--seed",
            "11",
        ]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second


class TestVerifyCommand:
    def test_lemma1_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "lemma1"], capsys)
        assert code == 0
        records = json.loads(out)
        assert all(r["pass"] for r in records)
        assert any("gamma" in r["check"] for r in records)

    def test_saddlepoint_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "saddlepoint"], capsys)
        assert code == 0
        records = json.loads(out)
        assert {r["check"] for r in records} == {
            "saddlepoint/gamma[alpha=1]",
            "saddlepoint/gaussian[cov=1]",
            "saddlepoint/inverse-gaussian[kappa=2]",
        }

    def test_runtime_only_with_timing_flag(self, capsys):
        _, out, _ = run_cli(["verify", "--suite", "saddlepoint"], capsys)
        assert "runtime" not in out
        _, out, _ = run_cli(["verify", "--suite", "saddlepoint", "--timing"], capsys)
        assert "runtime" in out

    def test_verify_output_deterministic(self, capsys):
        argv = ["verify", "--suite", "normalization", "--seed", "5"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_zero_trials_exits_2(self, capsys):
        # 0 trials used to run the coverage suite at 100,000 and exit 0
        code, out, err = run_cli(["verify", "--suite", "coverage", "--trials", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: trials must be >= 1, got 0\n"

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        from expfam.verify import VerificationReport
        import expfam.cli as cli_module

        monkeypatch.setattr(
            cli_module,
            "run_suite",
            lambda *a, **k: [
                VerificationReport(
                    check="stub", passed=False, statistic=1.0, threshold=0.5
                )
            ],
        )
        code, out, _ = run_cli(["verify", "--suite", "lemma1"], capsys)
        assert code == 1
        assert json.loads(out)["pass"] is False


class TestConfigPrecedence:
    def test_config_supplies_defaults(self, tmp_path, gamma_data, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("level=0.5\n# comment\n")
        record = run_json(
            [
                "interval",
                "--family",
                "gamma",
                "--shape",
                "1",
                "--data",
                gamma_data,
                "--config",
                str(config),
            ],
            capsys,
        )
        assert record["level"] == 0.5

    def test_flag_beats_config(self, tmp_path, gamma_data, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("level=0.5\n")
        record = run_json(
            [
                "interval",
                "--family",
                "gamma",
                "--shape",
                "1",
                "--data",
                gamma_data,
                "--config",
                str(config),
                "--level",
                "0.8",
            ],
            capsys,
        )
        assert record["level"] == 0.8

    def test_config_format_checked(self, tmp_path, gamma_data, capsys):
        # an unknown format used to fall through to CSV with exit 0
        config = tmp_path / "run.cfg"
        config.write_text("format=xml\n")
        argv = ["interval", "--family", "gamma", "--shape", "1", "--data", gamma_data,
                "--config", str(config)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert "format must be json or csv" in err

    def test_malformed_config_exit_code(self, tmp_path, gamma_data, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("level 0.5\n")
        code, _, err = run_cli(
            [
                "interval",
                "--family",
                "gamma",
                "--shape",
                "1",
                "--data",
                gamma_data,
                "--config",
                str(config),
            ],
            capsys,
        )
        assert code == 2


    @pytest.mark.parametrize(
        "command, entry, message",
        [
            ("coverage", "trials=2.5", "bad config value for trials: expected a whole number"),
            ("coverage", "m=3.9", "bad config value for m: expected a whole number"),
            ("coverage", "seed=1.5", "bad config value for seed: expected a whole number"),
            ("coverage", "trials=inf", "bad config value for trials: expected a whole number"),
            ("coverage", "m=0", "m must be >= 1, got 0"),
            ("coverage", "trials=-4", "trials must be >= 1, got -4"),
            ("verify", "trials=2.5", "bad config value for trials: expected a whole number"),
            ("verify", "seed=0.5", "bad config value for seed: expected a whole number"),
            ("verify", "trials=0", "trials must be >= 1, got 0"),
        ],
    )
    def test_config_counts_are_whole_numbers(self, command, entry, message, tmp_path, capsys):
        # trials=2.5 and m=3.9 used to run 2 trials at m = 3 and exit 0
        config = tmp_path / "run.cfg"
        config.write_text(entry + "\n")
        argv = {
            "coverage": ["coverage", "--family", "gamma", "--shape", "1", "--rate", "2"],
            "verify": ["verify", "--suite", "lemma1"],
        }[command]
        code, out, err = run_cli([*argv, "--config", str(config)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_config_counts_in_float_notation(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("trials=2e3\nm=3.0\nseed=11\n")
        argv = ["coverage", "--family", "gamma", "--shape", "1", "--rate", "2"]
        _, from_config, _ = run_cli([*argv, "--config", str(config)], capsys)
        _, from_flags, _ = run_cli(
            [*argv, "--trials", "2000", "--m", "3", "--seed", "11"], capsys
        )
        assert from_config == from_flags
        assert json.loads(from_config)["trials"] == 2000


#: (family options, method) pairs with no interval construction.
UNSUPPORTED_PAIRS = [
    (["--family", "gamma", "--shape", "1"], "divergence-ball"),
    (["--family", "gaussian"], "credible"),
    (["--family", "gaussian"], "confidence"),
] + [
    (["--family", "inverse-gaussian", "--kappa", "2"], method)
    for method in ("credible", "confidence", "divergence-ball")
]

#: --family -> the options that give ``coverage`` its true parameter
TRUTH = {
    "gamma": ["--rate", "1"],
    "gaussian": ["--mu", "0.5"],
    "inverse-gaussian": ["--mu", "1"],
}


@pytest.mark.parametrize("cov", ["inf", "nan", "1,inf;inf,1"])
def test_non_finite_covariance_exits_2(cov, gamma_data, capsys):
    argv = ["interval", "--family", "gaussian", "--cov", cov, "--data", gamma_data,
            "--method", "divergence-ball"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "cov must be finite" in err


class TestUnsupportedMethods:
    @pytest.mark.parametrize("family_args, method", UNSUPPORTED_PAIRS)
    def test_interval_exit_code(self, family_args, method, gamma_data, capsys):
        argv = ["interval", *family_args, "--data", gamma_data, "--method", method]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"no {method!r} interval" in err

    @pytest.mark.parametrize("family_args, method", UNSUPPORTED_PAIRS)
    def test_coverage_exit_code(self, family_args, method, capsys):
        truth = TRUTH[family_args[1]]
        argv = ["coverage", *family_args, *truth, "--method", method, "--trials", "100"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"no {method!r} interval" in err


#: subcommand -> an argv that succeeds (``obs.txt`` stands for a one-point data file)
VALID = {
    "density": ["density", "--family", "gamma", "--shape", "1", "--rate", "1", "--x", "1"],
    "predict": ["predict", "--family", "gamma", "--shape", "1", "--data", "obs.txt",
                "--future", "1.0"],
    "interval": ["interval", "--family", "gamma", "--shape", "1", "--data", "obs.txt"],
    "coverage": ["coverage", "--family", "gamma", "--shape", "1", "--rate", "2",
                 "--trials", "50"],
    "verify": ["verify", "--suite", "lemma1"],
}

#: subcommand -> the options its handler does not read (29 in all)
UNREAD = {
    "density": ("tol", "seed", "level", "m", "trials", "data"),
    "predict": ("rate", "mu", "seed", "level", "m", "trials"),
    "interval": ("rate", "mu", "tol", "seed", "m", "trials"),
    "coverage": ("tol", "data"),
    "verify": ("family", "shape", "kappa", "cov", "rate", "mu", "level", "m", "data"),
}


@pytest.mark.parametrize(
    "command, flag", [(command, flag) for command, flags in UNREAD.items() for flag in flags]
)
def test_unread_option_exits_2(command, flag, gamma_data, capsys):
    """A flag the subcommand would ignore is an input error, not a silent no-op."""
    argv = [gamma_data if a == "obs.txt" else a for a in VALID[command]]
    value = {"family": "gamma", "data": gamma_data}.get(flag, "1")
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--{flag}", value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


def test_abbreviations_are_not_accepted(capsys):
    # else ``--m`` would be taken for the declared ``--mu``
    with pytest.raises(SystemExit) as exc:
        main(["density", "--family", "inverse-gaussian", "--kappa", "1", "--m", "1",
              "--x", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "gaussian", "--cov", "1,2;3", "--mu", "0", "--x", "0"],
         "cannot parse matrix"),
        (["--family", "gaussian", "--cov", "1e-300,0,0;0,1e-300,0;0,0,1e-300",
          "--mu", "0,0,0", "--x", "0,0,0"], "log_value 1033.4"),
        (["--family", "gamma", "--shape", "1e306", "--rate", "1", "--x", "1"],
         "alpha must be below"),
    ],
)
def test_boundary_errors_are_input_errors(argv, message, capsys):
    """A ragged matrix, a density above the float range and a shape whose
    lgamma overflows each raised a raw exception (exit 1, a traceback)."""
    code, out, err = run_cli(["density", *argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


IG = ["--family", "inverse-gaussian", "--kappa", "2", "--future", "1.0"]


@pytest.mark.parametrize(
    "argv, data",
    [
        (["predict", *IG, "--method", "jeffreys"], "1e-200"),
        (["predict", *IG, "--method", "cnml"], "1e-200"),
        (["interval", "--family", "poisson-exp", "--kappa", "2", "--method", "confidence"],
         "1e-320"),
        (["predict", "--family", "gamma", "--shape", "1", "--future", "1.0", "--compare"],
         "1e-320"),
        (["interval", "--family", "gamma", "--shape", "2", "--method", "credible"], "1e-320"),
        (["density", "--family", "gaussian", "--cov", "1", "--mu", "0", "--x", "1e200"], None),
        (["density", "--family", "inverse-gaussian", "--kappa", "2", "--mu", "1e-300",
          "--x", "1"], None),
    ],
    ids=["ig-jeffreys", "ig-cnml", "pe-confidence", "gamma-compare", "gamma-credible",
         "gaussian-far-point", "ig-density-tiny-mu"],
)
def test_tiny_means_and_far_points_are_input_errors(argv, data, tmp_path, capsys):
    """A positive mean with no finite MLE raised a raw ZeroDivisionError or math
    domain error (exit 1), or the command printed an infinite upper end or
    log density, which is not JSON (exit 0)."""
    if data is not None:
        path = tmp_path / "data.txt"
        path.write_text(data + "\n")
        argv = [*argv, "--data", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# -- property test: any argv the parsers declare ends in a documented code ------

FAMILY_NAMES = ("gamma", "gaussian", "inverse-gaussian", "poisson-exp")
MALFORMED = ("abc", "nan", "inf", "-inf", "-1", "0", "1,2;3", "")
#: --family -> the interval methods it has (the inverse Gaussian has none)
METHODS = {
    "gamma": ("credible", "confidence"),
    "poisson-exp": ("credible", "confidence"),
    "gaussian": ("divergence-ball",),
}
POSITIVE = st.floats(-3.0, 4.0).map(lambda e: repr(10.0**e))
REAL = st.floats(-1e4, 1e4).map(repr)


@st.composite
def _family_options(draw):
    """(--family and its parameter, dimension, point strategy, truth options)."""
    family = draw(st.sampled_from(FAMILY_NAMES))
    if family == "gaussian":
        d = draw(st.sampled_from((1, 2)))
        if d == 1:
            cov = draw(POSITIVE)
        else:
            a, c = float(draw(POSITIVE)), float(draw(POSITIVE))
            b = draw(st.floats(-0.9, 0.9)) * math.sqrt(a * c)
            cov = f"{a!r},{b!r};{b!r},{c!r}"
        point = st.lists(REAL, min_size=d, max_size=d).map(",".join)
        return ["--family", family, "--cov", cov], d, point, ["--mu", draw(point)]
    parameter = "--shape" if family == "gamma" else "--kappa"
    point = st.one_of(POSITIVE, st.just("0")) if family == "poisson-exp" else POSITIVE
    truth = ["--mu", draw(POSITIVE)] if family == "inverse-gaussian" else [
        "--rate", draw(POSITIVE)]
    return ["--family", family, parameter, draw(POSITIVE)], 1, point, truth


def _optional(draw, flag, values):
    return draw(st.one_of(st.just([]), values.map(lambda v: [flag, v])))


@st.composite
def _cli_calls(draw):
    """(argv, data file lines), drawn from the options each subcommand declares."""
    command = draw(st.sampled_from(("density", "predict", "interval", "coverage", "verify")))
    argv, lines = [command], []
    levels = st.floats(0.5, 0.99).map(repr)
    if command == "verify":
        argv += ["--suite", draw(st.sampled_from(
            ("lemma1", "equivalence", "saddlepoint", "normalization", "coverage", "all")))]
        argv += ["--trials", str(draw(st.integers(1, 200)))]
        argv += _optional(draw, "--seed", st.integers(0, 2**32).map(str))
        argv += _optional(draw, "--tol", st.sampled_from(("1e-10", "1e-11", "1e-12")))
        argv += draw(st.sampled_from(([], ["--timing"])))
    else:
        family, d, point, truth = draw(_family_options())
        argv += family
        methods = st.sampled_from(METHODS.get(family[1], ("credible", "divergence-ball")))
        if command in ("predict", "interval"):
            lines = draw(st.lists(point, min_size=1, max_size=8))
            argv += ["--data", "DATA"]
        if command in ("density", "coverage"):
            argv += truth
        if command == "density":
            argv += ["--x", draw(point)]
        elif command == "predict":
            future = draw(st.lists(point, min_size=1, max_size=3))
            argv += ["--future", ",".join(future)]
            argv += draw(st.one_of(
                st.sampled_from(("cnml", "jeffreys", "plugin")).map(lambda m: ["--method", m]),
                st.just(["--compare"]),
            ))
            argv += _optional(draw, "--tol", st.sampled_from(("1e-8", "1e-10")))
        elif command == "interval":
            argv += ["--method", draw(methods)] + _optional(draw, "--level", levels)
        else:
            argv += ["--method", draw(methods), "--level", draw(levels)]
            argv += ["--trials", str(draw(st.integers(1, 200)))]
            argv += ["--m", str(draw(st.integers(1, 8)))]
            argv += ["--seed", str(draw(st.integers(0, 2**32)))]
    argv += _optional(draw, "--format", st.sampled_from(("json", "csv")))
    values = [i for i in range(2, len(argv)) if not argv[i].startswith("--")]
    if values and draw(st.integers(0, 3)) == 0:
        argv[draw(st.sampled_from(values))] = draw(st.sampled_from(MALFORMED))
    if draw(st.integers(0, 3)) == 0:
        argv += [draw(st.sampled_from(("--bogus", "--config-file", "--levels", "--x0"))), "1"]
    return argv, lines


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli") / "data.txt"


@settings(max_examples=100, deadline=None)
@given(call=_cli_calls())
def test_any_declared_argv_exits_with_a_documented_code(call, data_path):
    """Exit 0, 2, 3 or 4 (or verify's 1), and on stderr nothing but one error line.

    argparse puts its usage lines before the error line.
    """
    argv, lines = call
    data_path.write_text("".join(f"{line}\n" for line in lines))
    argv = [str(data_path) if a == "DATA" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    if code == 1:
        # verify's documented "a check failed": the Monte Carlo coverage
        # checks miss their bands at a few trials (any check, at --trials 1)
        assert argv[0] == "verify" and "false" in out.getvalue(), argv
        code = 0
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    report = err.getvalue().splitlines()
    if code == 0:
        assert report == []
        return
    *usage, last = report
    assert last.startswith("error: ") or last.startswith("expfam") and ": error: " in last
    assert all(line.startswith(("usage: ", " ")) for line in usage), report


@pytest.mark.parametrize("option", ["--data", "--config"])
def test_undecodable_file_is_an_input_error(option, tmp_path, gamma_data, capsys):
    """A file that is not UTF-8 exits 2 with one error line, not a traceback."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1.0\n\xff\xfe2.0\n")
    argv = ["interval", "--family", "gamma", "--shape", "1", "--method", "credible"]
    argv += ["--data", str(bad)] if option == "--data" else ["--data", gamma_data]
    argv += ["--config", str(bad)] if option == "--config" else []
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    what = "data file" if option == "--data" else "config"
    assert err.startswith(f"error: cannot read {what} {bad}: 'utf-8' codec can't decode")
    assert len(err.splitlines()) == 1


# -- the data file: numpy's parser, checked by check_observations -----------------

ROOT = Path(__file__).resolve().parents[1]


def _float_line_by_line(path, d):
    """The data file as the old line walk read it: ``float`` on each entry."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append(float(line) if d == 1 else [float(v) for v in line.split(",")])
    return np.asarray(rows)


def _generated_rows(d):
    """Lines of d entries in several spellings, with comment and blank lines."""
    rng = np.random.default_rng(d)
    values = rng.standard_normal((200, d)) * 10.0 ** rng.integers(-300, 300, (200, d))
    spellings = (repr, "{:.17g}".format, "{:.3e}".format, "{:+.6f}".format)
    lines = ["# a comment line", ""]
    for i, row in enumerate(values.tolist()):
        lines.append(" " + ",".join(spellings[(i + j) % 4](v) for j, v in enumerate(row)))
    lines += ["-0.0" if d == 1 else "-0.0,0.0", "1E5" if d == 1 else "1E5,7", ""]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("source", ["golden", "d1", "d2"])
def test_loader_bits_equal_float_line_by_line(source, tmp_path):
    if source == "golden":
        path, d = ROOT / "perfbench" / "golden" / "obs.txt", 1
    else:
        d = int(source[1])
        path = tmp_path / "rows.txt"
        path.write_text(_generated_rows(d))
    got, want = _load_observations(str(path), d), _float_line_by_line(path, d)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # -0.0 included


@pytest.mark.filterwarnings("error")  # loadtxt warns on a file with no data
@pytest.mark.parametrize(
    "content, d, message",
    [
        (b"1.0\nnot-a-number\n", 1, "could not convert string 'not-a-number'"),
        (b"1.0,2.0\n3.0\n", 2, "the number of columns changed"),
        (b"1.0,2.0,3.0\n", 2, "expected observations of dimension 2"),
        (b"1.0,2.0\n", 1, "expected 1-d observations, got shape (1, 2)"),
        (b"", 1, "at least one observation is required"),
        (b"", 2, "at least one observation is required"),
        (b"# a comment and nothing else\n\n", 2, "at least one observation is required"),
        (None, 1, "No such file or directory"),
        (b"1.0\n\xff\xfe2.0\n", 1, "'utf-8' codec can't decode"),
    ],
    ids=["non-number", "ragged", "wrong-width", "one-row-at-d1", "empty", "empty-d2",
         "comment-only", "missing", "bad-utf8"],
)
def test_bad_data_file_exits_2_naming_the_file(content, d, message, tmp_path, capsys):
    path = tmp_path / "data.txt"
    if content is not None:
        path.write_bytes(content)
    family = ["--family", "gamma", "--shape", "1", "--method", "credible"]
    if d == 2:
        family = ["--family", "gaussian", "--cov", "1,0;0,1", "--method", "divergence-ball"]
    code, out, err = run_cli(["interval", *family, "--data", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read data file {path}: ") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "family",
    [
        ["--family", "gamma", "--shape", "2", "--method", "confidence"],
        ["--family", "poisson-exp", "--kappa", "2", "--method", "credible"],
        ["--family", "poisson-exp", "--kappa", "2", "--method", "confidence"],
        ["--family", "gaussian", "--cov", "1", "--method", "divergence-ball"],
    ],
)
def test_interval_checks_its_data_once(family, as_batch_calls, tmp_path, capsys):
    # cmd_interval checks the rows and hands the construction the batch, whose
    # own as_batch scans no sample; the construction must get a batch, as the
    # perfbench tracer labels poisson_exp_confidence calls by batch.n
    path = tmp_path / "data.txt"
    path.write_text("0.5\n1.5\n")
    run_json(["interval", *family, "--data", str(path)], capsys)
    assert as_batch_calls == ["rows", "batch"]


@pytest.mark.parametrize(
    "method, calls",
    [(["--compare"], ["rows", "batch", "batch"]), (["--method", "jeffreys"], ["rows", "batch"])],
)
def test_predict_checks_its_data_once(method, calls, as_batch_calls, tmp_path, capsys):
    # cmd_predict checks the rows once and fits each predictor on the batch;
    # a compare scanned the sample once per method
    path = tmp_path / "data.txt"
    path.write_text("0.5\n1.5\n")
    out = run_json(
        ["predict", "--family", "gamma", "--shape", "2", "--data", str(path), "--future", "1.0",
         *method],
        capsys,
    )
    assert as_batch_calls == calls
    assert (out[0] if isinstance(out, list) else out)["m"] == 2
