"""Every exported name resolves: the benchmark tracer wraps each name in a
module's ``__all__``, so a stale export breaks a traced run."""

import importlib
import pkgutil

import pytest

import distillab

MODULES = ["distillab"] + [f"distillab.{m.name}" for m in pkgutil.iter_modules(distillab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)
