"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They run each workload at a tiny size (a few ops, no timing loop), so
they take about a minute; the repository's own suite under ``tests/``
does not collect them.
"""

import json
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

E = run.import_expfam()

import cliwork  # noqa: E402
import hostclock  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _tiny(workload, seed, count=6):
    """The first ``count`` ops of a pass, leaving out the 2-D renormalization."""
    records = run.build_records(E, workload, seed)
    return [r for r in records if r.op.family != "gaussian-2d"][:count]


@pytest.mark.parametrize("workload", ["inference", "intervals"])
def test_workload_runs_at_tiny_size(workload, capsys):
    records = _tiny(workload, seed=5)
    wall = run.run_pass(records)
    assert wall > 0
    assert all(r.error is None for r in records if not r.op.stress)
    p50, tail, pct, n = run.latency_metrics(records)
    assert n == len(records)
    assert 0 < p50 <= tail
    metrics = {"wall_s": wall, "p50_ms": p50, "tail_ms": tail}
    args = run.parse_args(["--workload", workload, "--seed", "5"])
    run.report(args, records, metrics, {}, True, dict(run.END_TO_END))
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] == len(records) + 1


def test_raising_op_makes_the_run_incorrect(monkeypatch, capsys):
    def raises():
        raise ZeroDivisionError("float division by zero")

    op = workloads.Op("compare", "gamma", "prediction", {"n": 10**9}, raises,
                      lambda r: (None, True))
    records = [run.OpRecord(op)]
    run.run_pass(records)
    assert records[0].error == "ZeroDivisionError"
    monkeypatch.setattr(workloads, "warm_up", lambda E, workload: None)
    monkeypatch.setattr(run, "end_to_end", lambda args, E: (records, {"wall_s": 1.0}, {}, True))
    argv = ["--workload", "inference", "--seed", "1"]

    assert run.main(argv) != 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (last["correct"], last["failed"]) == (False, 1)

    op.stress = True  # the same failure of a large-n op is counted only
    assert run.main(argv) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 1)


def test_once_op_runs_in_the_first_pass_only():
    calls = []
    op = workloads.Op("profile", "gaussian-2d", "saddlepoint", {}, lambda: calls.append(1),
                      lambda r: (None, True), once=True)
    records = [run.OpRecord(op)]
    for _ in range(3):
        run.run_pass(records)
    assert len(calls) == len(records[0].latencies) == 1


def test_passes_alternate_with_every_verify_suite(monkeypatch):
    order = []

    class FakeExpfam:
        @staticmethod
        def run_suite(suite, trials):
            order.append(suite)
            return [SimpleNamespace(passed=suite != "failing")]

    monkeypatch.setitem(run.VERIFY_SUITES, "inference", ("lemma1", "failing"))
    op = workloads.Op("plugin", "gamma", "prediction", {}, lambda: order.append("op"),
                      lambda r: (None, True))
    records = [run.OpRecord(op)]
    walls, suite_s, passed = run.run_cycles(FakeExpfam, "inference", records, 0.0)
    assert order == ["op", "lemma1", "op", "failing"] * run.MIN_SUITE_RUNS
    assert len(walls) == len(records[0].latencies) == 2 * run.MIN_SUITE_RUNS
    assert [len(t) for t in suite_s.values()] == [run.MIN_SUITE_RUNS] * 2
    assert passed is False


def test_host_clock_scales_by_the_kernel_runs_around_an_item(monkeypatch):
    monkeypatch.setattr(hostclock, "NEIGHBOURS", 1)
    ref = 1e-3
    clock = hostclock.HostClock(None, ref)
    clock.starts = [0.0, 1.0, 2.0, 10.0, 11.0]
    clock.costs = [ref, ref, 2 * ref, 2 * ref, 4 * ref]
    # the kernel ran at the reference speed before the item, at half of it
    # inside and after; its own time inside is not the item's
    assert clock.scale(1.5, 3.0) == pytest.approx((1.5 - 2 * ref) / 2)
    assert clock.scale(0.5, 0.6) == pytest.approx(0.1)
    assert clock.scale(12.0, 13.0) == pytest.approx(0.25)


def test_kernel_samples_inside_a_long_op():
    clock = hostclock.in_process()
    clock.calibrate()
    with clock.sampling():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3.5 * hostclock.PERIOD_S:
            pass
        t1 = time.perf_counter()
    inside = [s for s in clock.starts if t0 < s < t1]
    assert len(inside) == 3
    clock.calibrate()
    assert 0 < clock.scale(t0, t1) < 2 * (t1 - t0) * clock.median_speed()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("clock", [hostclock.in_process, hostclock.spawning])
def test_kernel_runs_after_every_op(clock):
    op = workloads.Op("plugin", "gamma", "prediction", {}, lambda: None,
                      lambda r: (None, True))
    records = [run.OpRecord(op), run.OpRecord(op)]
    clock = clock()
    run.run_pass(records, clock=clock)
    run.run_pass(records, clock=clock)
    assert len(clock.costs) == hostclock.NEIGHBOURS + 4
    assert clock.starts == sorted(clock.starts)
    assert all(0 < s < 1 for s in records[0].scaled(clock))


def test_verify_through_hostclock_samples_inside(tmp_path):
    kernel_out = tmp_path / "kernel.json"
    code, out = cliwork.call(["verify", "--suite", "lemma1", "--trials", "200"],
                             kernel_out=kernel_out)
    plain = cliwork.call(["verify", "--suite", "lemma1", "--trials", "200"])
    assert (code, json.loads(out)[0]["check"]) == (plain[0], json.loads(plain[1])[0]["check"])
    costs = json.loads(kernel_out.read_text())
    assert costs and hostclock.scale_by(1.0, costs) > 0
    assert hostclock.scale_by(1.0, []) == 1.0


def test_cli_runs_at_tiny_size(tmp_path):
    ops = cliwork.cli_ops(5, tmp_path / "data")
    golden = next(op for op in ops if op.family == "density-gamma")
    seeded = next(op for op in ops if op.kind == "interval" and op.family == "poisson-exp")
    records = [run.OpRecord(golden), run.OpRecord(seeded)]
    run.run_pass(records)
    assert [r.error for r in records] == [None, None]
    assert records[1].oracle_err < cliwork.INTERVAL_TOL


def test_cli_golden_mismatch_fails_the_op(tmp_path):
    ops = cliwork.cli_ops(5, tmp_path / "data")
    golden = next(op for op in ops if op.family == "density-gamma")
    assert golden.check((0, b"{}\n")) == (None, False)
    assert golden.check((2, cliwork._golden("density-gamma")[1])) == (None, False)


def test_same_seed_same_ops_and_oracle_err():
    first, second = _tiny("inference", 7, 12), _tiny("inference", 7, 12)
    assert [r.op.describe() for r in first] == [r.op.describe() for r in second]
    run.run_pass(first)
    run.run_pass(second)
    assert [r.oracle_err for r in first] == [r.oracle_err for r in second]
    full = [r.op.describe() for r in run.build_records(E, "intervals", 7)]
    again = [r.op.describe() for r in run.build_records(E, "intervals", 7)]
    assert full == again


@pytest.mark.parametrize("workload", ["inference", "intervals", "cli"])
def test_different_seed_different_ops(workload, tmp_path):
    if workload == "cli":
        a = [op.describe() for op in cliwork.cli_ops(1, tmp_path / "a")]
        b = [op.describe() for op in cliwork.cli_ops(2, tmp_path / "b")]
    else:
        a = [r.op.describe() for r in run.build_records(E, workload, 1)]
        b = [r.op.describe() for r in run.build_records(E, workload, 2)]
    assert len(a) == len(b) and a != b


def test_passes_have_fixed_shape_across_seeds():
    """Stratification: every seed has the same count of each (kind, family)."""
    for workload in ("inference", "intervals"):
        shapes = {
            tuple(sorted((r.op.kind, r.op.family, r.op.stress)
                         for r in run.build_records(E, workload, seed)))
            for seed in (1, 2, 3)
        }
        assert len(shapes) == 1


def test_traced_counts_repeat_for_a_seed():
    def traced_counts():
        records = _tiny("inference", 9, 10)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run.run_pass(records, tracer)
        finally:
            tracer.uninstall()
        stats = tracing.span_stats(tracer.names, tracer.arrays())
        metrics = layers.per_layer(stats, tracer.counts, records, {}, None, None)
        return {k: v for k, v in metrics.items() if layers.UNITS[k] == "count"}

    first, second = traced_counts(), traced_counts()
    assert first == second
    assert first["numerics.integrate.calls"] > 0
    assert first["numerics.integrate.evals"] > first["numerics.integrate.calls"]
    assert set(first) <= set(layers.metric_names())


def test_tracer_restores_every_function():
    before = (E.renormalize, E.core.integrate, E.GammaFamily.cumulant)
    tracer = tracing.Tracer()
    tracer.install()
    assert E.core.integrate is E.numerics.integrate is not before[1]
    tracer.uninstall()
    assert (E.renormalize, E.core.integrate, E.GammaFamily.cumulant) == before


def test_one_worker_at_a_time(monkeypatch, tmp_path):
    live, peak = [], []
    real_run = subprocess.run

    def counting_run(*args, **kwargs):
        live.append(1)
        peak.append((len(live), threading.active_count()))
        try:
            return real_run(*args, **kwargs)
        finally:
            live.pop()

    monkeypatch.setattr(subprocess, "run", counting_run)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    run.setup_samples("cli")
    ops = cliwork.cli_ops(3, tmp_path / "data")[:2]
    run.run_pass([run.OpRecord(op) for op in ops])
    assert len(peak) == 4
    assert max(p[0] for p in peak) == 1
    assert max(p[1] for p in peak) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inference", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
