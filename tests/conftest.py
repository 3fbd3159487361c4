"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def as_batch_calls(monkeypatch):
    """The ``core.as_batch`` calls, through every expfam module that binds the name.

    Each call is recorded as "rows" where it checked raw observations and as
    "batch" where it took a ready ``ObservationBatch``, which scans no sample.
    """
    from expfam import core

    calls = []
    original = core.as_batch

    def counted(family, X):
        calls.append("batch" if isinstance(X, core.ObservationBatch) else "rows")
        return original(family, X)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "expfam" and hasattr(module, "as_batch"):
            monkeypatch.setattr(module, "as_batch", counted)
    return calls
