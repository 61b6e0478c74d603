"""Per-call spans for the distillab modules, installed from outside the package.

:func:`install` replaces every public function of the traced modules (the
names in each module's ``__all__``), plus ``ExperimentConfig.from_json`` and
the ``to_csv`` methods of the distillation output classes, with a wrapper
that records one span per call.  Every distillab module global bound to a
wrapped function is rebound too, so names imported with ``from .x import y``
(``cli.solve_round``, ``oracle.analytic_eigensystem``, ...) are traced as
well.  Spans are kept in memory and summarised by :meth:`Tracer.summary`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

MODULES = ("gram_models", "distillation", "noise_theory", "oracle", "config", "cli")

# name -> (module, class, attribute) for methods traced under a module name
METHODS = {
    "config.from_json": [("config", "ExperimentConfig", "from_json")],
    "distillation.to_csv": [
        ("distillation", "OutputMatrix", "to_csv"),
        ("distillation", "PartialLabelMatrix", "to_csv"),
    ],
}


def _eigen_bytes(result, args):
    return {"bytes": result.values.nbytes + result.vectors.nbytes}


# Extra per-call counters read from a call's arguments and result.  Array
# bytes are computed from the result's shapes; to_csv bytes are the size of
# the file written.
STATS = {
    "gram_models.analytic_eigensystem": _eigen_bytes,
    "gram_models.numeric_eigensystem": _eigen_bytes,
    "gram_models.build_gram": lambda r, a: {"bytes": r.nbytes},
    "distillation.averaging_operator": lambda r, a: {
        "bytes": r.matrix.nbytes + r.eigenvalues.nbytes
    },
    "distillation.to_csv": lambda r, a: {"bytes": os.path.getsize(a[1])},
    "oracle.solve_round": lambda r, a: {
        "iterations": r.iterations_used,
        "unconverged": int(not r.converged),
    },
}


class Tracer:
    """Records spans (name, start, end, parent) and per-function counters."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counters: dict[str, dict[str, int]] = {}

    def traced(self, name: str, fn):
        stats = STATS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter_ns(), 0, parent]
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._count(name, {"failed": 1})
                raise
            finally:
                span[2] = time.perf_counter_ns()
                self._open.pop()
            if stats is not None:
                self._count(name, stats(result, args))
            return result

        wrapper.__traced__ = fn
        return wrapper

    def _count(self, name: str, values: dict[str, int]) -> None:
        entry = self.counters.setdefault(name, {})
        for key, value in values.items():
            entry[key] = entry.get(key, 0) + int(value)

    def summary(self) -> dict:
        """Per function: calls, inclusive seconds, self seconds, counters."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[idx]) / 1e9
        for name, counters in self.counters.items():
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0}).update(counters)
        return out


def _distillab_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "distillab" or k.startswith("distillab."))]


def install(tracer: Tracer) -> dict:
    """Wrap the traced functions and rebind every module global naming one.

    Returns the map from original function to wrapper.
    """
    wrappers = {}
    for short in MODULES:
        mod = importlib.import_module(f"distillab.{short}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrappers[obj] = tracer.traced(f"{short}.{attr}", obj)
    for mod in _distillab_modules():
        for key, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, key, wrappers[value])
    for name, targets in METHODS.items():
        for short, cls_name, attr in targets:
            cls = getattr(importlib.import_module(f"distillab.{short}"), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.traced(name, raw.__func__)))
            else:
                setattr(cls, attr, tracer.traced(name, raw))
    return wrappers


def untraced_references(wrappers: dict) -> list[str]:
    """Module globals still bound to an original, unwrapped function."""
    return [
        f"{mod.__name__}.{key}"
        for mod in _distillab_modules()
        for key, value in vars(mod).items()
        if inspect.isfunction(value) and value in wrappers
    ]
