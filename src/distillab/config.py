"""JSON experiment configuration with dotted-key overrides.

A single document describes the Gram model, the corruption scenario, the
regularization strength, the rounds to simulate, which computation modes
run, and an optional sweep over corruption rates or dataset sizes.  Any
leaf can be overridden from the command line with ``--set key=value``.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .errors import ValidationError
from .gram_models import GramCase, GramModel, SuperclassMap
from .noise_theory import CORRUPTION_KINDS, CorruptionMatrix, make_corruption
from .oracle import SolverConfig

__all__ = ["ExperimentConfig", "GramConfig", "CorruptionConfig"]

_KINDS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string",
          type(None): "null"}
_PLURAL_KINDS = {int: "integers", float: "finite numbers", str: "strings"}


def _type_check(hint):
    """A predicate for JSON-like values of the declared type ``hint`` and its
    description: an int is a number, a bool is neither, and a number is
    finite (JSON's ``NaN`` and ``Infinity`` are not)."""
    args = get_args(hint)
    if get_origin(hint) is Union:
        checks = [_type_check(arg) for arg in args]
        return (lambda v: any(ok(v) for ok, _ in checks)), " or ".join(k for _, k in checks)
    if args:  # list[x] or tuple[x, ...]
        ok = _type_check(args[0])[0]
        return (lambda v: isinstance(v, (list, tuple)) and all(map(ok, v)),
                f"a list of {_PLURAL_KINDS[args[0]]}")
    if hint is float:
        return (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
                and -math.inf < v < math.inf), _KINDS[float]
    return (lambda v: isinstance(v, hint) and (hint is bool or not isinstance(v, bool)),
            _KINDS.get(hint, hint.__name__))


@functools.cache
def _field_checks(cls) -> list:
    return [(name, *_type_check(hint)) for name, hint in get_type_hints(cls).items()]


def _check_leaves(section, prefix: str = "") -> None:
    """Reject the first field of a config ``section`` whose value does not
    have the field's declared type, naming its key."""
    for name, ok, kind in _field_checks(type(section)):
        value = getattr(section, name)
        if not ok(value):
            raise ValidationError(f"{prefix}{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class GramConfig:
    case: str = "III"
    K: int = 4
    n: int = 100
    c: Union[float, list[float]] = 0.4  # a list, one per class, in case II only
    d: Optional[float] = None  # omitted: 0 in cases I and II, else 0.1
    e: float = 0.0
    superclass_sizes: Optional[list[int]] = None
    perturbation_amplitude: float = 0.0

    def __post_init__(self):
        _check_leaves(self, "gram.")
        cases = [case.value for case in GramCase]
        if self.case not in cases:
            raise ValidationError(f"gram.case must be one of {', '.join(cases)}, got {self.case!r}")
        if isinstance(self.c, (list, tuple)) and self.case != "II":
            raise ValidationError(f"gram.c must be one number in case {self.case}; "
                                  "a per-class list is case II")
        if any(size < 1 for size in self.superclass_sizes or ()):
            raise ValidationError("gram.superclass_sizes must be positive class counts, "
                                  f"got {self.superclass_sizes}")

    def superclass_map(self) -> Optional[SuperclassMap]:
        """The map of ``superclass_sizes``, or ``None`` when they are omitted."""
        return SuperclassMap.from_sizes(self.superclass_sizes) if self.superclass_sizes else None

    def build(self, n: Optional[int] = None, seed: int = 0) -> GramModel:
        smap = self.superclass_map()
        c = tuple(self.c) if isinstance(self.c, (list, tuple)) else self.c
        d = (0.0 if self.case in ("I", "II") else 0.1) if self.d is None else self.d
        return GramModel(
            case=GramCase(self.case),
            K=self.K,
            n=n if n is not None else self.n,
            c=c,
            d=d,
            e=self.e,
            superclass_map=smap,
            perturbation_amplitude=self.perturbation_amplitude,
            seed=seed,
        )


@dataclass(frozen=True)
class CorruptionConfig:
    """A generated corruption of rate ``eta`` (``symmetric``, ``asymmetric``
    or ``superclass``), or the ``explicit`` matrix read from ``matrix_path``.
    A setting the kind would ignore is rejected."""

    kind: str = "symmetric"
    eta: float = 0.0
    matrix_path: Optional[str] = None

    def __post_init__(self):
        _check_leaves(self, "corruption.")
        kinds = (*CORRUPTION_KINDS, "explicit")
        if self.kind not in kinds:
            raise ValidationError(f"corruption.kind must be one of {', '.join(kinds)}, "
                                  f"got {self.kind!r}")
        if self.kind == "explicit":
            if self.matrix_path is None:
                raise ValidationError("explicit corruption needs matrix_path")
            if self.eta != 0.0:
                raise ValidationError("explicit corruption reads its rates from matrix_path: "
                                      "set corruption.eta to 0")
        elif self.matrix_path is not None:
            raise ValidationError(f"corruption kind {self.kind!r} generates its matrix from "
                                  "eta: drop matrix_path or set kind to explicit")

    def build(self, K: int, smap: Optional[SuperclassMap], eta: Optional[float] = None
              ) -> CorruptionMatrix:
        if self.kind == "explicit":
            return CorruptionMatrix.from_csv(self.matrix_path)
        return make_corruption(self.kind, self.eta if eta is None else eta, K,
                               superclass_map=smap)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model, corruption, ``lam``, rounds, modes and sweep.

    What each command does with ``modes``, ``t_max`` and the sweep (the
    ``pll`` and ``oracle`` modes need ``t_max >= 1`` everywhere):

    - ``trajectory`` always runs ``closed_form``; ``pll`` adds the top-2
      student and ``oracle`` the exact rounds.  It rejects a sweep.
    - ``phase`` measures the closed-form rounds under ``closed_form`` or
      ``pll``, the oracle rounds in their place under ``oracle``, and adds
      the student's row under ``pll``; with none of the three, its rows
      hold predictions only.  It needs ``t_max >= 1`` and sweeps over
      ``eta`` only.
    - ``approx-error`` needs ``oracle`` and ``t_max >= 1``, reads no other
      mode and sweeps over ``n`` only.  It runs the closed-form stage on
      every model, and so checks the Gram's spectrum as ``trajectory`` does.
    - ``theory`` reads no mode and rejects a sweep.  No command reads the
      ``theory`` mode; it is accepted so that existing configs that list it
      keep loading.

    A sweep lists one or more strictly ascending ``sweep_values``: whole
    sample counts in ``1..2**53`` for ``n``, as ``gram.n``, and corruption
    rates in ``[0, 1]`` for ``eta``.

    ``seed``, in ``0..2**64 - 1``, is the seed of :meth:`gram_model`,
    which places the labels and draws the Gram perturbation, and nothing
    else: the exact oracle starts every round at the same point.  Both
    draws read the package's counter-based stream, each class's placement
    and each block of Gram rows on its own
    (:class:`~distillab.noise_theory.LabelAssignment`,
    :func:`~distillab.gram_models.build_gram`), so a seed gives the same
    dataset on every numpy release.
    """

    gram: GramConfig = field(default_factory=GramConfig)
    corruption: CorruptionConfig = field(default_factory=CorruptionConfig)
    lam: float = 3.125e-4
    t_max: int = 4
    modes: tuple[str, ...] = ("closed_form",)
    sweep_parameter: Optional[str] = None
    sweep_values: Optional[tuple[float, ...]] = None
    seed: int = 0
    output_dir: str = "out"
    workers: int = 1
    solver_max_iterations: int = 50_000
    solver_tolerance: float = 1e-10

    def __post_init__(self):
        _check_leaves(self)
        if self.lam <= 0.0:
            raise ValidationError("lam must be positive")
        if self.t_max < 0:
            raise ValidationError("t_max must be >= 0")
        if self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed}")
        if self.seed >= 2**64:  # the stream keys are 64-bit, so larger seeds would repeat
            raise ValidationError(f"seed must be below 2**64, got {self.seed}")
        known_modes = {"closed_form", "oracle", "pll", "theory"}
        unknown = set(self.modes) - known_modes
        if unknown:
            raise ValidationError(f"unknown modes {sorted(unknown)}; expected {sorted(known_modes)}")
        object.__setattr__(self, "modes", tuple(self.modes))
        if "pll" in self.modes and self.t_max < 1:
            raise ValidationError("the pll mode refines round-1 outputs, so it needs t_max >= 1")
        if "oracle" in self.modes and self.t_max < 1:
            raise ValidationError("the oracle mode solves rounds 1..t_max, so it needs t_max >= 1")
        if (self.sweep_parameter is None) != (self.sweep_values is None):
            raise ValidationError("sweep_parameter and sweep_values go together")
        if self.sweep_parameter is not None:
            if self.sweep_parameter not in ("eta", "n"):
                raise ValidationError("sweep_parameter must be 'eta' or 'n'")
            vals = tuple(self.sweep_values)
            if not vals or any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValidationError(f"sweep_values must be one or more strictly ascending "
                                      f"values, got {list(vals)}")
            if self.sweep_parameter == "n" and not all(float(v).is_integer() and 1 <= v <= 2**53
                                                       for v in vals):
                raise ValidationError(f"sweep_values must be whole sample counts in 1..2**53 to "
                                      f"sweep n, got {list(vals)}")
            if self.sweep_parameter == "eta" and not all(0.0 <= v <= 1.0 for v in vals):
                raise ValidationError(f"sweep_values must be corruption rates in [0, 1] to "
                                      f"sweep eta, got {list(vals)}")
            if self.sweep_parameter == "eta" and self.corruption.kind == "explicit":
                raise ValidationError("explicit corruption reads its rates from matrix_path, "
                                      "so an eta sweep would repeat one matrix: use a generated "
                                      "corruption.kind or drop the sweep")
            object.__setattr__(self, "sweep_values", vals)
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        if not self.output_dir:
            raise ValidationError(f"output_dir must be a non-empty string, got {self.output_dir!r}")
        if self.corruption.matrix_path is not None and not os.path.exists(
            self.corruption.matrix_path
        ):
            raise ValidationError(
                f"corruption matrix_path does not exist: {self.corruption.matrix_path}"
            )
        try:
            solver = SolverConfig(self.solver_max_iterations, self.solver_tolerance)
        except ValidationError as exc:
            # SolverConfig names its own fields; the config keys add "solver_"
            raise ValidationError(f"solver_{exc}") from exc
        object.__setattr__(self, "_solver", solver)

    # -- construction helpers -------------------------------------------------

    def gram_model(self, n: Optional[int] = None) -> GramModel:
        return self.gram.build(n=n, seed=self.seed)

    def corruption_matrix(self, eta: Optional[float] = None) -> CorruptionMatrix:
        """The corruption matrix, at rate ``eta`` when given.  The superclass
        map in force (a single superclass when ``gram.superclass_sizes`` is
        omitted) is read from the config, not from a model, so that no
        ``n``-sweep point builds a model at ``gram.n``; the caller's own
        model checks the map against its case."""
        smap = self.gram.superclass_map() or SuperclassMap.trivial(self.gram.K)
        C = self.corruption.build(self.gram.K, smap, eta=eta)
        if C.K != self.gram.K:
            raise ValidationError(f"{self.corruption.matrix_path}: the corruption matrix is "
                                  f"{C.K} x {C.K}, but gram.K is {self.gram.K}")
        return C

    def solver(self) -> SolverConfig:
        return self._solver

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        d["modes"] = list(self.modes)
        if self.sweep_values is not None:
            d["sweep_values"] = list(self.sweep_values)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValidationError("a configuration must be a JSON object")
        data = copy.deepcopy(data)
        try:
            gram = GramConfig(**data.pop("gram", {}))
            corruption = CorruptionConfig(**data.pop("corruption", {}))
            return cls(gram=gram, corruption=corruption, **data)
        except TypeError as exc:
            raise ValidationError(f"bad configuration: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                return cls.from_json(fh.read())
        except OSError as exc:
            raise ValidationError(f"{path}: cannot read the config ({exc.strerror})") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: malformed JSON config ({exc})") from exc

    def with_overrides(self, assignments: list[str]) -> "ExperimentConfig":
        """Apply ``key=value`` overrides; dotted keys reach nested sections.

        Values parse as JSON, falling back to plain strings.
        """
        data = self.to_dict()
        for item in assignments:
            if "=" not in item:
                raise ValidationError(f"override {item!r} is not of the form key=value")
            key, raw = item.split("=", 1)
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            node = data
            parts = key.split(".")
            for part in parts[:-1]:
                if part not in node or not isinstance(node[part], dict):
                    raise ValidationError(f"unknown configuration section {part!r}")
                node = node[part]
            if parts[-1] not in node:
                raise ValidationError(f"unknown configuration key {key!r}")
            node[parts[-1]] = value
        return self.from_dict(data)
