"""Every exported name resolves: the benchmark tracer wraps each name in a
module's ``__all__``, so a stale export breaks a traced run."""

import ast
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


def _unused_imports(path: str) -> list:
    """The names ``path`` imports but never reads and does not list in its
    ``__all__``; imports on a line marked ``# noqa``, star imports and
    ``__future__`` features are exempt."""
    with open(path) as fh:
        source = fh.read()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = {const.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for const in ast.walk(node.value) if isinstance(const, ast.Constant)}
    unused = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name != "*" and name not in read | exported:
                unused.append(f"{os.path.basename(path)}:{node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_read_or_exported(name):
    assert _unused_imports(importlib.import_module(name).__file__) == []


def _sites(path: str, matches) -> list:
    """``(file, function)`` of each node of ``path`` that ``matches``; a
    node outside any function is in ``<module>``."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if matches(child):
                found.append((os.path.basename(path), where))
            visit(child, where)

    visit(tree, "<module>")
    return found


def _opens_for_writing(node) -> bool:
    """An ``open(...)`` call given a mode other than ``"r"``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"):
        return False
    mode = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
    return bool(mode) and not (isinstance(mode[0], ast.Constant) and mode[0].value == "r")


def _names_numpy_random(node) -> bool:
    """An ``np.random`` or ``numpy.random`` attribute, or an import of
    ``numpy.random`` or of a module in it."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "random" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
    else:
        return False
    return any(m == "numpy.random" or m.startswith("numpy.random.") for m in modules)


def test_every_output_file_opens_in_one_place():
    # csvio.open_output turns a refused path into "choose another --out";
    # an open elsewhere would let an unwritable output end in a traceback
    opens = [site for name in MODULES
             for site in _sites(importlib.import_module(name).__file__, _opens_for_writing)]
    assert opens == [("csvio.py", "open_output")]


def test_no_module_uses_numpy_random():
    # every seeded draw is gram_models._draw_bits, whose stream the package
    # owns: numpy does not promise its generators' streams across releases,
    # and importing numpy.random adds about 5 MB to a run's peak RSS
    uses = [site for name in MODULES
            for site in _sites(importlib.import_module(name).__file__, _names_numpy_random)]
    assert uses == []


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


def _layout_parameter(param) -> bool:
    return any(name in str(param.annotation) for name in ("EigenSystem", "CellGram"))


@pytest.mark.parametrize("name", MODULES)
def test_no_export_takes_k_or_n_beside_a_layout(name):
    # an EigenSystem or a CellGram fixes the run's K and n; a loose copy
    # beside it could disagree with it
    module = importlib.import_module(name)
    loose = []
    for attr in getattr(module, "__all__", []):
        obj = getattr(module, attr)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # the exception classes have no inspectable signature
            continue
        if any(map(_layout_parameter, params)):
            loose += [f"{attr}({p.name})" for p in params if p.name in ("K", "n")]
    assert loose == []
