"""Golden CLI replay: the README's one-shot commands and the coverage suite.

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


def test_coverage_suite_matches_golden_verify(capsys):
    """Same draws, same hits: every field but ``statistic`` is unchanged."""
    code = main(["verify", "--suite", "coverage", "--trials", "20000"])
    records = json.loads(capsys.readouterr().out)
    golden = {r["check"]: r for r in json.loads((GOLDEN / "verify.out").read_text())}
    assert code == 0
    assert [r["check"] for r in records] == [c for c in golden if c.startswith("coverage/")]
    for record in records:
        want = dict(golden[record["check"]])
        got = dict(record)
        got.pop("statistic")
        want.pop("statistic")
        assert got == want
