"""End-to-end tests of the command-line interface.

Each invocation goes through ``main(argv)`` with captured stdout; outputs
must parse as JSON or RFC-4180 CSV and reproduce byte-identically under a
fixed seed.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from expfam.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracles  # noqa: E402


def _subprocess_env():
    """The environment for a child interpreter that imports expfam from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path}


def test_import_leaves_out_quadrature_and_root_finding():
    """``import expfam.cli`` loads neither scipy.integrate nor scipy.optimize.

    ``numerics`` imports them on first use, so commands without quadrature
    or root finding never pay for them.
    """
    probe = (
        "import sys, expfam.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=_subprocess_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


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
        assert "bad.txt:2" in err

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


#: (family options, method) pairs with no interval construction; the
#: options also give each family its true parameter for ``coverage``.
UNSUPPORTED_PAIRS = [
    (["--family", "gamma", "--shape", "1", "--rate", "1"], "divergence-ball"),
    (["--family", "gaussian", "--mu", "0.5"], "credible"),
    (["--family", "gaussian", "--mu", "0.5"], "confidence"),
] + [
    (["--family", "inverse-gaussian", "--kappa", "2", "--mu", "1"], method)
    for method in ("credible", "confidence", "divergence-ball")
]


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
        argv = ["coverage", *family_args, "--method", method, "--trials", "100"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"no {method!r} interval" in err
