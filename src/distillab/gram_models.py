"""Structured feature-correlation (Gram) matrices and their eigensystems.

A dataset of ``K`` classes with ``n`` unit-norm feature vectors per class,
sorted by class, induces a ``Kn x Kn`` Gram matrix of pairwise inner
products.  This module builds the five block-structured correlation models
used throughout the package, exposes their eigensystems in closed form
(grouped by multiplicity family), provides a dense symmetric fallback for
perturbed or empirical matrices, and computes per-relation correlation
statistics from raw feature matrices.

Correlation cases
-----------------
I    constant intra-class correlation ``c``, zero across classes
II   per-class intra-class correlation ``omega(k)``, zero across classes
III  intra-class ``c``, constant inter-class ``d``
IV   intra-class ``c``, ``d`` within a superclass, zero across superclasses
V    as IV plus constant inter-superclass correlation ``e``
"""

from __future__ import annotations

import csv
import enum
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = [
    "GramCase",
    "SuperclassMap",
    "GramModel",
    "EigenGroup",
    "EigenSystem",
    "FeatureMatrix",
    "RelationStats",
    "GramStatistics",
    "build_gram",
    "analytic_eigensystem",
    "numeric_eigensystem",
    "eigensystem",
    "gram_statistics",
]

# Tolerances fixed by the module contracts.
SYMMETRY_TOL = 1e-10
EIGEN_RESIDUAL_REL_TOL = 1e-8
UNIT_NORM_TOL = 1e-6


class GramCase(enum.Enum):
    """The five block-correlation structures."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"


@dataclass(frozen=True)
class SuperclassMap:
    """Assignment of each class to a superclass.

    ``assignments[k-1]`` is the superclass (1-based) of class ``k``.  Classes
    must be in canonical order: sorted by superclass, so the assignment
    sequence is non-decreasing and every superclass index in ``1..R``
    occurs at least once.
    """

    assignments: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignments", tuple(int(a) for a in self.assignments))
        if not self.assignments:
            raise ValidationError("superclass map must cover at least one class")
        r = max(self.assignments)
        present = set(self.assignments)
        if min(self.assignments) < 1 or present != set(range(1, r + 1)):
            raise ValidationError(
                f"superclass indices must cover 1..{r} with no gaps, got {sorted(present)}"
            )
        if any(a > b for a, b in zip(self.assignments, self.assignments[1:])):
            raise ValidationError(
                "classes must be sorted by superclass (non-decreasing assignments)"
            )

    @property
    def num_classes(self) -> int:
        return len(self.assignments)

    @property
    def num_superclasses(self) -> int:
        return max(self.assignments)

    @property
    def sizes(self) -> tuple[int, ...]:
        """Number of classes in each superclass, indexed ``1..R``."""
        counts = [0] * self.num_superclasses
        for a in self.assignments:
            counts[a - 1] += 1
        return tuple(counts)

    def superclass_of(self, k: int) -> int:
        """Superclass of class ``k`` (both 1-based)."""
        return self.assignments[k - 1]

    def classes_of(self, s: int) -> tuple[int, ...]:
        return tuple(k for k in range(1, self.num_classes + 1) if self.assignments[k - 1] == s)

    @classmethod
    def trivial(cls, num_classes: int) -> "SuperclassMap":
        """All classes in a single superclass."""
        return cls(tuple([1] * num_classes))

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "SuperclassMap":
        assignments: list[int] = []
        for s, size in enumerate(sizes, start=1):
            assignments.extend([s] * size)
        return cls(tuple(assignments))


@dataclass(frozen=True)
class GramModel:
    """Parameters of a structured Gram matrix.

    ``c`` is a scalar for all cases except II, where it is a length-``K``
    vector of per-class intra-class correlations.  ``d`` applies to cases
    III/IV/V, ``e`` to case V only.  Cases IV and V require a superclass
    map; case III is the single-superclass specialisation.  A positive
    ``perturbation_amplitude`` adds a symmetric matrix of i.i.d. uniform
    entries in ``+-amplitude`` to the off-diagonal (diagonal kept at 1,
    lower triangle mirrored from the upper), drawn reproducibly from
    ``seed``.
    """

    case: GramCase
    K: int
    n: int
    c: float | tuple[float, ...]
    d: float = 0.0
    e: float = 0.0
    superclass_map: Optional[SuperclassMap] = None
    perturbation_amplitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.K < 1 or self.n < 1:
            raise ValidationError("K and n must be positive")
        if self.perturbation_amplitude < 0:
            raise ValidationError("perturbation amplitude must be >= 0")
        if self.case is GramCase.II:
            omega = np.asarray(self.c, dtype=float)
            if omega.shape != (self.K,):
                raise ValidationError(
                    f"case II needs a length-{self.K} intra-class correlation vector"
                )
            if np.any(omega <= 0.0) or np.any(omega >= 1.0):
                raise ValidationError("case II correlations must satisfy 0 < omega(k) < 1")
            object.__setattr__(self, "c", tuple(float(w) for w in omega))
            return
        c = float(self.c)  # type: ignore[arg-type]
        if not 0.0 <= c < 1.0:
            raise ValidationError("intra-class correlation must satisfy 0 <= c < 1")
        if self.case is GramCase.I:
            if self.d != 0.0 or self.e != 0.0:
                raise ValidationError("case I has no inter-class correlations")
        elif self.case is GramCase.III:
            if not c > self.d >= 0.0:
                raise ValidationError("case III requires 1 > c > d >= 0")
            if self.e != 0.0:
                raise ValidationError("case III has no inter-superclass correlation")
        elif self.case in (GramCase.IV, GramCase.V):
            if self.superclass_map is None:
                raise ValidationError(f"case {self.case.value} requires a superclass map")
            if self.superclass_map.num_classes != self.K:
                raise ValidationError("superclass map size does not match K")
            if self.case is GramCase.IV:
                if not c > self.d >= 0.0:
                    raise ValidationError("case IV requires 1 > c > d >= 0")
                if self.e != 0.0:
                    raise ValidationError("case IV has zero inter-superclass correlation")
            else:
                if not c > self.d >= self.e >= 0.0:
                    raise ValidationError("case V requires 1 > c > d >= e >= 0")

    @property
    def size(self) -> int:
        return self.K * self.n

    @property
    def omega(self) -> np.ndarray:
        """Per-class intra-class correlation vector (constant outside case II)."""
        if self.case is GramCase.II:
            return np.asarray(self.c, dtype=float)
        return np.full(self.K, float(self.c))  # type: ignore[arg-type]

    def effective_map(self) -> SuperclassMap:
        """The superclass map in force (single superclass for cases I-III)."""
        if self.case in (GramCase.IV, GramCase.V):
            assert self.superclass_map is not None
            return self.superclass_map
        return SuperclassMap.trivial(self.K)

    def class_of_sample(self) -> np.ndarray:
        """True class (1-based) of each of the ``Kn`` canonical samples."""
        return np.repeat(np.arange(1, self.K + 1), self.n)


@dataclass(frozen=True)
class EigenGroup:
    """Indices of one eigenvalue multiplicity family, post-sorting."""

    label: str
    indices: tuple[int, ...]


@dataclass(frozen=True)
class EigenSystem:
    """Full symmetric eigendecomposition, eigenvalues descending.

    ``vectors[:, i]`` is the orthonormal eigenvector for ``values[i]``.
    Eigenpairs with exactly equal values keep the order in which they were
    constructed (family by family for the analytic form, the solver's order
    for the dense one).  ``groups`` partitions the indices by eigenvalue
    family (analytic construction) or by numerically clustered value (dense
    fallback).
    """

    values: np.ndarray
    vectors: np.ndarray
    groups: tuple[EigenGroup, ...]

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        vectors = np.array(self.vectors, dtype=float)
        if vectors.shape != (values.size, values.size):
            raise ValidationError("eigenvector matrix must be square and match values")
        if np.any(np.diff(values) > 1e-12):
            raise ValidationError("eigenvalues must be sorted descending")
        covered = sorted(i for g in self.groups for i in g.indices)
        if covered != list(range(values.size)):
            raise ValidationError("groups must partition the index range")
        values.flags.writeable = False
        vectors.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)

    @property
    def size(self) -> int:
        return self.values.size

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.T

    def orthonormality_error(self) -> float:
        m = self.vectors.T @ self.vectors
        return float(np.abs(m - np.eye(self.size)).max())

    def group(self, label: str) -> EigenGroup:
        for g in self.groups:
            if g.label == label:
                return g
        raise KeyError(label)


def _validate_symmetric(matrix: np.ndarray, tol: float = SYMMETRY_TOL) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    dev = float(np.abs(a - a.T).max()) if a.size else 0.0
    if dev > tol:
        raise ValidationError(f"matrix is not symmetric: max |A - A^T| = {dev:.3e} > {tol:.0e}")
    return a


def build_gram(model: GramModel) -> np.ndarray:
    """Realize the structured Gram matrix for ``model``.

    Samples are in canonical order (sorted by true class, classes sorted by
    superclass).  The entry for samples ``i != j`` is the correlation implied
    by their class relation; the diagonal is exactly 1 before perturbation.
    """
    K, n = model.K, model.n
    labels = model.class_of_sample() - 1
    omega = model.omega
    if model.case in (GramCase.I, GramCase.II):
        gram = np.zeros((K * n, K * n))
    elif model.case is GramCase.III:
        gram = np.full((K * n, K * n), float(model.d))
    else:
        smap = model.effective_map()
        sup = np.asarray(smap.assignments)[labels]
        gram = np.full((K * n, K * n), float(model.e))
        gram[sup[:, None] == sup[None, :]] = float(model.d)
    same_class = labels[:, None] == labels[None, :]
    row_omega = np.broadcast_to(omega[labels][:, None], gram.shape)
    gram[same_class] = row_omega[same_class]
    np.fill_diagonal(gram, 1.0)
    if model.perturbation_amplitude > 0.0:
        rng = np.random.default_rng(model.seed)
        noise = rng.uniform(
            -model.perturbation_amplitude, model.perturbation_amplitude, size=gram.shape
        )
        upper = np.triu(noise, k=1)
        gram = gram + upper + upper.T
    return gram


def _helmert_vectors(m: int) -> np.ndarray:
    """Deterministic orthonormal basis of the zero-sum subspace of R^m.

    Returns an ``m x (m-1)`` matrix; column ``j`` has ``j+1`` leading entries
    ``1/sqrt((j+1)(j+2))`` followed by ``-(j+1)/sqrt((j+1)(j+2))``.
    """
    out = np.zeros((m, m - 1))
    for j in range(1, m):
        norm = math.sqrt(j * (j + 1))
        out[:j, j - 1] = 1.0 / norm
        out[j, j - 1] = -j / norm
    return out


def _lift_class_coeffs(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Map class-space coefficients to a unit sample-space vector.

    A unit vector ``u`` over classes lifts to the unit vector assigning
    ``u_k / sqrt(n)`` to every sample of class ``k``.
    """
    return np.repeat(coeffs / math.sqrt(n), n)


def _sort_eigensystem(
    values: np.ndarray, vectors: np.ndarray, family: list[str]
) -> tuple[np.ndarray, np.ndarray, tuple[EigenGroup, ...]]:
    """Sort descending; exact value ties keep their construction order."""
    order = np.argsort(-values, kind="stable")
    by_label: dict[str, list[int]] = {}
    for new_idx, old_idx in enumerate(order.tolist()):
        by_label.setdefault(family[old_idx], []).append(new_idx)
    groups = tuple(EigenGroup(label, tuple(idx)) for label, idx in by_label.items())
    return values[order], vectors[:, order], groups


def analytic_eigensystem(model: GramModel) -> EigenSystem:
    """Closed-form eigensystem of an unperturbed structured Gram matrix.

    Eigenvalues come in at most three families:

    * ``superclass`` - one per superclass; ``K_s * n * d + n(c-d) + (1-c)``
      for case IV (case V couples the superclass directions through ``e``
      and diagonalises an ``R x R`` core instead);
    * ``class`` - contrasts between classes, ``n(c-d) + (1-c)``;
    * ``bulk`` - contrasts within a class, ``1-c``.

    Cases I and II have no superclass family and per-class eigenvalues.
    Perturbed models are rejected; use :func:`numeric_eigensystem` on the
    realized matrix instead.
    """
    if model.perturbation_amplitude != 0.0:
        raise ValidationError(
            "analytic eigensystem is only defined for unperturbed models; "
            "use numeric_eigensystem on build_gram output"
        )
    K, n, size = model.K, model.n, model.size
    values = np.empty(size)
    vectors = np.zeros((size, size))
    family: list[str] = []
    col = 0

    def put(value: float, vec: np.ndarray, label: str):
        nonlocal col
        values[col] = value
        vectors[:, col] = vec
        family.append(label)
        col += 1

    omega = model.omega
    if model.case in (GramCase.I, GramCase.II):
        for k in range(K):
            coeff = np.zeros(K)
            coeff[k] = 1.0
            put(n * omega[k] + 1.0 - omega[k], _lift_class_coeffs(coeff, n), "class")
    else:
        c = float(model.c)  # type: ignore[arg-type]
        a_class = n * (c - model.d) + 1.0 - c
        smap = model.effective_map()
        sizes = smap.sizes
        if model.case is GramCase.V and model.e > 0.0:
            # Superclass directions couple through e: diagonalise the R x R
            # core acting on normalised superclass indicators.
            r = smap.num_superclasses
            core = np.zeros((r, r))
            for i in range(r):
                core[i, i] = a_class + n * (model.d - model.e) * sizes[i]
                for j in range(r):
                    core[i, j] += n * model.e * math.sqrt(sizes[i] * sizes[j])
            core_vals, core_vecs = np.linalg.eigh(core)
            for m in range(r):
                coeff = np.zeros(K)
                for s in range(r):
                    for k in smap.classes_of(s + 1):
                        coeff[k - 1] = core_vecs[s, m] / math.sqrt(sizes[s])
                put(core_vals[m], _lift_class_coeffs(coeff, n), "superclass")
        else:
            d_eff = model.d if model.case is not GramCase.I else 0.0
            for s in range(1, smap.num_superclasses + 1):
                k_s = sizes[s - 1]
                coeff = np.zeros(K)
                for k in smap.classes_of(s):
                    coeff[k - 1] = 1.0 / math.sqrt(k_s)
                put(k_s * n * d_eff + a_class, _lift_class_coeffs(coeff, n), "superclass")
        for s in range(1, smap.num_superclasses + 1):
            classes = smap.classes_of(s)
            if len(classes) < 2:
                continue
            basis = _helmert_vectors(len(classes))
            for jcol in range(basis.shape[1]):
                coeff = np.zeros(K)
                for pos, k in enumerate(classes):
                    coeff[k - 1] = basis[pos, jcol]
                put(a_class, _lift_class_coeffs(coeff, n), "class")
    # Within-class contrasts: eigenvalue 1 - omega(k) for every class.
    if n > 1:
        basis = _helmert_vectors(n)
        for k in range(K):
            block = slice(k * n, (k + 1) * n)
            for jcol in range(n - 1):
                vec = np.zeros(size)
                vec[block] = basis[:, jcol]
                put(1.0 - omega[k], vec, "bulk")
    assert col == size
    values, vectors, groups = _sort_eigensystem(values, vectors, family)
    return EigenSystem(values=values, vectors=vectors, groups=groups)


def numeric_eigensystem(matrix: np.ndarray) -> EigenSystem:
    """Dense symmetric eigendecomposition, eigenvalues descending.

    Fallback for perturbed or empirical Gram matrices.  The input must be
    symmetric to 1e-10; each eigenpair is verified against the residual
    bound ``max|A v - lambda v| <= 1e-8 * max|A|``.
    """
    a = _validate_symmetric(matrix)
    vals, vecs = np.linalg.eigh(a)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    # Deterministic sign: first non-negligible component positive.
    for i in range(vecs.shape[1]):
        nz = np.nonzero(np.abs(vecs[:, i]) > 1e-12)[0]
        if nz.size and vecs[nz[0], i] < 0:
            vecs[:, i] = -vecs[:, i]
    scale = float(np.abs(a).max()) if a.size else 0.0
    resid = np.abs(a @ vecs - vecs * vals).max(axis=0)
    bound = EIGEN_RESIDUAL_REL_TOL * max(scale, 1e-300)
    if np.any(resid > bound):
        raise NumericalError(
            f"eigendecomposition residual {resid.max():.3e} exceeds {bound:.3e}"
        )
    # Cluster near-equal eigenvalues into multiplicity groups.
    tol = max(1e-8, 1e-10 * scale)
    family: list[str] = []
    cluster = 0
    for i in range(vals.size):
        if i > 0 and vals[i - 1] - vals[i] > tol:
            cluster += 1
        family.append(f"cluster{cluster}")
    values, vectors, groups = _sort_eigensystem(vals.copy(), vecs, family)
    return EigenSystem(values=values, vectors=vectors, groups=groups)


def eigensystem(model: GramModel) -> EigenSystem:
    """Eigensystem of ``model``'s Gram matrix: the closed form when the model
    is unperturbed, else the dense decomposition of the realized matrix."""
    if model.perturbation_amplitude == 0.0:
        return analytic_eigensystem(model)
    return numeric_eigensystem(build_gram(model))


@dataclass(frozen=True)
class RelationStats:
    """Mean/std of feature inner products over one pair relation."""

    mean: float
    std: float
    pairs: int


@dataclass(frozen=True)
class GramStatistics:
    """Per-relation correlation statistics; a relation with no pairs is None."""

    same_class: Optional[RelationStats]
    cross_class_within_superclass: Optional[RelationStats]
    cross_superclass: Optional[RelationStats]


@dataclass(frozen=True)
class FeatureMatrix:
    """Unit-norm feature vectors with true labels.

    ``features`` has one row per sample; ``labels`` holds 1-based class
    indices.  Every row must have unit Euclidean norm to 1e-6.
    """

    features: np.ndarray
    labels: np.ndarray
    superclass_map: Optional[SuperclassMap] = None

    def __post_init__(self):
        feats = np.array(self.features, dtype=float)
        labels = np.array(self.labels, dtype=int)
        if feats.ndim != 2:
            raise ValidationError("features must be a 2-D array")
        if labels.shape != (feats.shape[0],):
            raise ValidationError("labels must have one entry per feature row")
        if labels.size and labels.min() < 1:
            raise ValidationError("labels are 1-based class indices")
        norms = np.linalg.norm(feats, axis=1)
        worst = float(np.abs(norms - 1.0).max()) if norms.size else 0.0
        if worst > UNIT_NORM_TOL:
            raise ValidationError(
                f"feature rows must be unit-norm to {UNIT_NORM_TOL:.0e}; worst deviation {worst:.3e}"
            )
        if self.superclass_map is not None and labels.size:
            if labels.max() > self.superclass_map.num_classes:
                raise ValidationError("label exceeds superclass map size")
        feats.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    def to_csv(self, path) -> None:
        """One row per sample: feature components then the integer label."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row, label in zip(self.features, self.labels):
                writer.writerow([f"{x:.12g}" for x in row] + [int(label)])

    @classmethod
    def from_csv(
        cls,
        path,
        superclass_path=None,
        renormalize: bool = False,
    ) -> "FeatureMatrix":
        """Load features from CSV (final column = integer class label).

        With ``renormalize`` rows whose norm is within 1% of 1 are rescaled
        to unit norm; anything farther off is rejected.
        """
        rows: list[list[float]] = []
        labels: list[int] = []
        with open(path, newline="") as fh:
            for lineno, rec in enumerate(csv.reader(fh), start=1):
                if not rec:
                    continue
                try:
                    rows.append([float(x) for x in rec[:-1]])
                    labels.append(int(rec[-1]))
                except ValueError as exc:
                    raise ValidationError(f"{path}:{lineno}: malformed row ({exc})") from exc
                if len(rows[-1]) != len(rows[0]):
                    raise ValidationError(
                        f"{path}:{lineno}: expected {len(rows[0])} feature columns, got {len(rows[-1])}"
                    )
        feats = np.asarray(rows, dtype=float)
        if renormalize and feats.size:
            norms = np.linalg.norm(feats, axis=1)
            worst = float(np.abs(norms - 1.0).max())
            if worst > 0.01:
                raise ValidationError("rows deviate from unit norm by more than 1%")
            if worst > UNIT_NORM_TOL:
                warnings.warn(
                    f"renormalizing rows deviating up to {worst:.2e} from unit norm",
                    stacklevel=2,
                )
            feats = feats / norms[:, None]
        smap = load_superclass_map(superclass_path) if superclass_path else None
        return cls(features=feats, labels=np.asarray(labels), superclass_map=smap)


def load_superclass_map(path) -> SuperclassMap:
    """Read a sidecar file of ``class_index,superclass_index`` lines."""
    entries: dict[int, int] = {}
    with open(path, newline="") as fh:
        for lineno, rec in enumerate(csv.reader(fh), start=1):
            if not rec:
                continue
            try:
                k, s = int(rec[0]), int(rec[1])
            except (IndexError, ValueError) as exc:
                raise ValidationError(f"{path}:{lineno}: malformed superclass row") from exc
            entries[k] = s
    if sorted(entries) != list(range(1, len(entries) + 1)):
        raise ValidationError("superclass file must cover classes 1..K exactly once")
    return SuperclassMap(tuple(entries[k] for k in sorted(entries)))


def _relation_stats(values: np.ndarray) -> Optional[RelationStats]:
    if values.size == 0:
        return None
    return RelationStats(
        mean=float(values.mean()), std=float(values.std()), pairs=int(values.size)
    )


def gram_statistics(features: FeatureMatrix) -> GramStatistics:
    """Mean/std of inner products per pair relation.

    Relations over unordered pairs ``i < j``: same class, different class
    within the same superclass, and different superclass.  Without a
    superclass map all classes count as one superclass, so the last
    relation is absent.  Relations with no pairs are reported as absent.
    """
    gram = features.features @ features.features.T
    labels = features.labels
    m = labels.size
    iu, ju = np.triu_indices(m, k=1)
    vals = gram[iu, ju]
    same_class = labels[iu] == labels[ju]
    if features.superclass_map is not None:
        sup = np.asarray(features.superclass_map.assignments)[labels - 1]
        same_sup = sup[iu] == sup[ju]
    else:
        same_sup = np.ones(iu.size, dtype=bool)
    return GramStatistics(
        same_class=_relation_stats(vals[same_class]),
        cross_class_within_superclass=_relation_stats(vals[~same_class & same_sup]),
        cross_superclass=_relation_stats(vals[~same_sup]),
    )


def embed_gram(gram: np.ndarray) -> np.ndarray:
    """Factor a PSD Gram matrix into feature rows ``F`` with ``F F^T = gram``.

    Used to turn a structured correlation model into an explicit unit-norm
    feature matrix (the diagonal of ``gram`` must be 1).
    """
    a = _validate_symmetric(gram)
    vals, vecs = np.linalg.eigh(a)
    if vals.min() < -1e-10 * max(abs(vals.max()), 1.0):
        raise ValidationError("matrix is not positive semidefinite; cannot embed")
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)
