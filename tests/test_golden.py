"""Golden CLI replay: the README's one-shot commands and ``verify --suite all``.

The commands and their outputs live with the benchmark (``perfbench/``),
which captured them on a fixed commit.  Each command runs in process
through ``expfam.cli.main`` and must reproduce the captured stdout byte
for byte, with the captured exit code.
"""

import json
import sys
from pathlib import Path

import pytest

from expfam.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden"
sys.path.insert(0, str(ROOT / "perfbench"))
import cliwork  # noqa: E402

EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(cliwork.GOLDEN_COMMANDS))
def test_golden_command(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the commands name their data file relative to the root
    code = main(cliwork.GOLDEN_COMMANDS[name])
    out = capsys.readouterr().out
    assert code == EXIT_CODES[name]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_verify_all_matches_golden(capsys):
    """Every suite, same grids and seeds: every field but ``statistic`` is unchanged.

    A quadrature check's statistic is a rounding residue that moves in its
    last bits with any change of arithmetic, and a Monte Carlo statistic
    moves when the order of its draws does (the normalization draws are
    made in chunks).  The checks, the details (which echo the grids and the
    coverage counts), the thresholds and the pass flags must not move.
    """
    code = main(["verify", "--suite", "all", "--trials", "20000"])
    records = json.loads(capsys.readouterr().out)
    golden = json.loads((GOLDEN / "verify.out").read_text())
    assert code == 0
    assert all(record["pass"] for record in records)
    assert [r["check"] for r in records] == [r["check"] for r in golden]
    for got, want in zip(records, golden):
        got, want = dict(got), dict(want)
        got.pop("statistic")
        want.pop("statistic")
        assert got == want
