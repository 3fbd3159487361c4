"""The verify runner: ``run_suite`` judges and times what a suite yields."""

import inspect
import math
import time
import tracemalloc

import pytest

from expfam import verify
from expfam.distributions import PoissonExponentialDist
from expfam.errors import DomainError


def test_every_suite_is_a_generator():
    for suite in verify.SUITES.values():
        assert inspect.isgeneratorfunction(suite)


def test_nan_statistic_fails(monkeypatch):
    def suite(tol, seed, trials):
        yield "fake/nan", math.nan, 1.0, "not a number"
        yield "fake/equal", 1.0, 1.0, "on the threshold"

    monkeypatch.setitem(verify.SUITES, "fake", suite)
    nan, equal = verify.run_suite("fake")
    assert nan.check == "fake/nan" and nan.passed is False
    assert math.isnan(nan.statistic) and nan.threshold == 1.0
    assert nan.detail == "not a number"
    assert equal.passed is True


def test_runtimes_add_up_to_the_wall_time(monkeypatch):
    pause = 0.01

    def suite(tol, seed, trials):
        for i in range(3):
            time.sleep(pause)
            yield f"fake/{i}", 0.0, 1.0, ""

    monkeypatch.setitem(verify.SUITES, "fake", suite)
    started = time.perf_counter()
    reports = verify.run_suite("fake")
    wall = time.perf_counter() - started
    runtimes = [r.runtime for r in reports]
    assert all(runtime >= pause for runtime in runtimes)
    assert sum(runtimes) <= wall


def test_unknown_suite_raises_before_any_suite_runs(monkeypatch):
    ran = []

    def suite(tol, seed, trials):
        ran.append(trials)
        yield "fake/ran", 0.0, 1.0, ""

    monkeypatch.setattr(verify, "SUITES", {"fake": suite})
    with pytest.raises(DomainError, match="unknown suite 'nope'"):
        verify.run_suite("nope")
    assert ran == []


@pytest.mark.parametrize("trials", [0, -3, 2.5, math.inf, None, "abc"])
def test_trials_checked_once_for_every_suite(trials, monkeypatch):
    ran = []

    def suite(tol, seed, trials):
        ran.append(trials)
        yield "fake/ran", 0.0, 1.0, ""

    monkeypatch.setattr(verify, "SUITES", {"fake": suite})
    with pytest.raises(DomainError, match="trials"):
        verify.run_suite("all", trials=trials)
    assert ran == []
    assert [r.check for r in verify.run_suite("all", trials=5.0)] == ["fake/ran"]
    assert ran == [5]


def test_normalization_streams_its_draws():
    # 10^6 Monte Carlo draws and their copies held at once take about 24 MB;
    # counted chunk by chunk they take about 2 MB.  An untraced run first
    # loads the modules the suite imports on first use (QUADPACK,
    # scipy.special).
    suite = verify.SUITES["normalization"]
    list(suite(1e-10, 0, 1))
    tracemalloc.start()
    try:
        list(suite(1e-10, 0, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_bins_end_at_the_continuous_quantile():
    dist = PoissonExponentialDist(2.0, 1.0)
    q = verify._continuous_quantile(dist, 0.99)
    atom = dist.atom_weight
    assert abs((dist.cdf(q) - atom) / (1.0 - atom) - 0.99) <= 1e-12
