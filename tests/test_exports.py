"""Every name a module exports is defined, so no deletion leaves a stale export."""

import importlib

import pytest

MODULES = [
    "base", "cli", "core", "distributions", "errors", "families", "intervals",
    "numerics", "prediction", "saddlepoint", "validation", "verify",
]


@pytest.mark.parametrize("module", ["expfam"] + [f"expfam.{name}" for name in MODULES])
def test_all_names_are_defined(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert [name for name in names if not hasattr(mod, name)] == []
    star = {}
    exec(f"from {module} import *", star)
    assert set(names) <= set(star)
