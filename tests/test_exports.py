"""Every exported name resolves: the benchmark tracer wraps each name in a
module's ``__all__``, so a stale export breaks a traced run."""

import importlib
import inspect
import os
import pkgutil

import pytest

import distillab
from distillab import cli, gram_models, oracle

MODULES = ["distillab"] + [f"distillab.{m.name}" for m in pkgutil.iter_modules(distillab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)


BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _is_traced_function(name: str) -> bool:
    """Whether ``bench/tracing.install`` wraps ``module.function`` ``name``:
    a function of that module's ``__all__``, defined in the module itself."""
    short, attr = name.split(".")
    module = importlib.import_module(f"distillab.{short}")
    fn = getattr(module, attr, None)
    return (attr in module.__all__ and inspect.isfunction(fn)
            and fn.__module__ == module.__name__)


def test_bench_traces_and_pins_names_that_exist(monkeypatch):
    # both bench modules import only the standard library
    monkeypatch.syspath_prepend(BENCH_DIR)
    workloads, tracing = (importlib.import_module(m) for m in ("workloads", "tracing"))
    pinned = {fn for w in workloads.WORKLOADS.values() for fn in w.expected_calls}
    functions = (pinned | set(tracing.STATS)) - set(tracing.METHODS)
    assert [fn for fn in sorted(functions)
            if fn.split(".")[0] not in tracing.MODULES or not _is_traced_function(fn)] == []
    for targets in tracing.METHODS.values():
        for short, cls_name, attr in targets:
            cls = getattr(importlib.import_module(f"distillab.{short}"), cls_name)
            assert attr in vars(cls), f"{short}.{cls_name}.{attr}"
    # module globals the bench reads after the tracer rebinds them
    assert cli.solve_round is oracle.solve_round
    assert oracle.analytic_eigensystem is gram_models.analytic_eigensystem
