"""The verify runner: ``run_suite`` judges and times what a suite yields."""

import inspect
import math
import time

import pytest

from expfam import verify
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
