"""Structured feature-correlation (Gram) matrices and their eigensystems.

A dataset of ``K`` classes with ``n`` unit-norm feature vectors per class,
sorted by class, induces a ``Kn x Kn`` Gram matrix of pairwise inner
products.  This module builds the five block-structured correlation models
used throughout the package, exposes their eigensystems in closed form,
provides a dense symmetric fallback for perturbed or empirical matrices,
and computes per-relation correlation statistics from raw feature matrices.

Every unperturbed model is described by its ``K x K`` class-level Gram
``B`` (:attr:`GramModel.class_gram`): the realized matrix, the cell Gram
and the class-constant eigenpairs (those of ``n B + diag(1 - omega)``) are
all read from it.  The rest of the spectrum is the within-class bulk
``1 - omega_k``, so a function of the Gram is one ``K x K`` block on the
class means plus a per-class bulk power
(:func:`~distillab.distillation._class_block`): the closed-form eigensystem
holds only its model.  A dense one holds its values and its Gram, whose
chain of rounds :func:`_shifted_rounds` solves with one cached Cholesky
factor of the shifted Gram (:meth:`EigenSystem.factor`).  Each stage of the
dense path (the perturbed draw, the symmetry check, the eigenvalues and the
factor) holds the Gram plus at most one ``N x N`` working array: the draw
and the check go by blocks of :data:`SOLVE_BLOCK` rows, and the factor is
formed in place in one copy of the Gram.

Correlation cases
-----------------
I    constant intra-class correlation ``c``, zero across classes
II   per-class intra-class correlation ``omega(k)``, zero across classes
III  intra-class ``c``, constant inter-class ``d``
IV   intra-class ``c``, ``d`` within a superclass, zero across superclasses
V    as IV plus constant inter-superclass correlation ``e``
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .csvio import read_csv, write_csv
from .errors import NumericalError, ValidationError

__all__ = [
    "GramCase",
    "SuperclassMap",
    "GramModel",
    "EigenSystem",
    "CellGram",
    "FeatureMatrix",
    "build_gram",
    "cell_gram",
    "analytic_eigensystem",
    "numeric_eigensystem",
    "gram_statistics",
    "load_superclass_map",
]

# Tolerances fixed by the module contracts.
SYMMETRY_TOL = 1e-10
EIGEN_RESIDUAL_REL_TOL = 1e-8
SOLVE_RESIDUAL_REL_TOL = 1e-8
UNIT_NORM_TOL = 1e-6
# rows or columns per block of the perturbed draw, the symmetry check, the
# in-place factorisation and the substitutions of the dense path
SOLVE_BLOCK = 128


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

    ``assignments[k-1]`` is the superclass (1-based) of class ``k``, in any
    order; every superclass index in ``1..R`` occurs at least once.
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
    map, whose superclasses may interleave in class order; case III is the
    single-superclass specialisation.  A positive ``perturbation_amplitude``
    adds a symmetric matrix of i.i.d. uniform entries in ``+-amplitude`` to
    the off-diagonal (diagonal kept at 1, lower triangle mirrored from the
    upper), drawn reproducibly from ``seed``, which also places a run's
    labels (:func:`~distillab.oracle.run_rounds`).
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
        if self.K < 1:
            raise ValidationError(f"gram.K must be a positive class count, got {self.K}")
        if self.n < 1:
            raise ValidationError("gram.n must be a positive sample count per class, "
                                  f"got {self.n}")
        if self.n > 2**53:  # the float64 cell counts C n stop being exact
            raise ValidationError(f"gram.n must be at most 2**53, got {self.n}")
        if self.perturbation_amplitude < 0:
            raise ValidationError("gram.perturbation_amplitude must be >= 0, "
                                  f"got {self.perturbation_amplitude}")
        case = self.case.value
        if self.case in (GramCase.IV, GramCase.V):
            if self.superclass_map is None:
                raise ValidationError(f"case {case} requires a superclass map")
            if self.superclass_map.num_classes != self.K:
                raise ValidationError("superclass map size does not match K")
        elif self.superclass_map is not None:
            raise ValidationError(f"case {case} has a single superclass: "
                                  "drop superclass_sizes or use case IV or V")
        if self.case in (GramCase.I, GramCase.II) and (self.d != 0.0 or self.e != 0.0):
            raise ValidationError(f"case {case} has no inter-class correlations: "
                                  "set gram.d and gram.e to 0")
        if self.case is GramCase.II:
            omega = np.asarray(self.c, dtype=float)
            if omega.shape != (self.K,):
                raise ValidationError(f"gram.c must list {self.K} intra-class correlations, "
                                      f"one per class, in case II, got {self.c}")
            if np.any(omega <= 0.0) or np.any(omega >= 1.0):
                raise ValidationError("gram.c must satisfy 0 < omega(k) < 1 in case II, "
                                      f"got {omega.tolist()}")
            object.__setattr__(self, "c", tuple(float(w) for w in omega))
            return
        c = float(self.c)  # type: ignore[arg-type]
        if not 0.0 <= c < 1.0:
            raise ValidationError(f"gram.c must satisfy 0 <= c < 1, got {c}")
        if self.case in (GramCase.III, GramCase.IV):
            if not c > self.d >= 0.0:
                raise ValidationError(f"case {case} requires 1 > gram.c > gram.d >= 0, "
                                      f"got c={c}, d={self.d}")
            if self.e != 0.0:
                raise ValidationError(f"case {case} has no inter-superclass correlation: "
                                      "set gram.e to 0")
        elif self.case is GramCase.V and not c > self.d >= self.e >= 0.0:
            raise ValidationError("case V requires 1 > gram.c > gram.d >= gram.e >= 0, "
                                  f"got c={c}, d={self.d}, e={self.e}")

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
        return self.superclass_map or SuperclassMap.trivial(self.K)

    @property
    def class_gram(self) -> np.ndarray:
        """The ``K x K`` class-level Gram ``B``: ``omega`` on the diagonal,
        ``d`` between two classes of one superclass and ``e`` across
        superclasses (zero off the diagonal in cases I and II).  A sample of
        class ``k`` correlates ``B[k, k']`` with every other sample of class
        ``k'``."""
        sup = np.asarray(self.effective_map().assignments)
        gram = np.where(sup[:, None] == sup, float(self.d), float(self.e))
        np.fill_diagonal(gram, self.omega)
        return gram

    def class_of_sample(self) -> np.ndarray:
        """True class (1-based) of each of the ``Kn`` canonical samples."""
        return np.repeat(np.arange(1, self.K + 1), self.n)


def _spectrum_order(model: GramModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coefficients of :func:`_head_columns`, all ``N`` eigenvalues of
    ``model`` (the head, then class by class ``n - 1`` times the bulk
    ``1 - omega_k``) and their stable descending sort."""
    head_values, coeffs = _head_columns(model)
    values = np.concatenate([head_values, np.repeat(1.0 - model.omega, model.n - 1)])
    return coeffs, values, np.argsort(-values, kind="stable")


class EigenSystem:
    """A symmetric spectrum, eigenvalues descending, and one layout of ``K``
    classes of ``n`` samples, the run's only record of both.

    A class-structured system (from :func:`analytic_eigensystem`) holds its
    unperturbed ``model``, whose ``K`` and ``n`` it reads; the averaging
    operator reads the model's ``K x K`` class block.  A dense one (from
    :func:`numeric_eigensystem`) holds its ``gram``, ``values`` and ``K``,
    with ``n = N / K``; the averaging operator solves with its cached
    :meth:`factor`.  Exactly one layout is given.  Every output reads only
    ``values`` and the layout.  A class-structured system builds its
    ``values`` on first read; :attr:`vectors`, a reference, are built on
    first read on either.
    """

    def __init__(self, values=None, model: Optional[GramModel] = None,
                 gram: Optional[np.ndarray] = None, K: Optional[int] = None):
        if [x is None for x in (values, gram, K)] != [model is not None] * 3:
            raise ValidationError("an eigensystem holds exactly one layout: its model, or its "
                                  "Gram, values and K")
        size = model.size if gram is None else gram.shape[0]
        self.K = K = model.K if K is None else K
        if K < 1 or size % K:
            raise ValidationError(f"K={K} classes do not divide the N={size} samples of the "
                                  "Gram into classes of equal size")
        self.n, self.size = size // K, size
        if values is not None:
            values = np.array(values, dtype=float)
            if np.any(np.diff(values) > 1e-12):
                raise ValidationError("eigenvalues must be sorted descending")
            values.flags.writeable = False
            self.values = values
        self.model = model
        self.gram = gram
        self._factors: dict[float, np.ndarray] = {}

    @cached_property
    def values(self) -> np.ndarray:
        """A class-structured system's values, by :func:`_spectrum_order`."""
        _, values, order = _spectrum_order(self.model)
        values = values[order]
        values.flags.writeable = False
        return values

    def factor(self, shift: float) -> np.ndarray:
        """The lower Cholesky factor of a dense system's ``gram + shift I``
        (:func:`_shifted_factor`), computed on first use and kept per
        ``shift``, so every round and the student at one ``lam`` share it.
        Each factor is one ``N x N`` array beside the Gram, formed in place
        with no other ``N x N`` temporary."""
        if shift not in self._factors:
            self._factors[shift] = _shifted_factor(self.gram, shift)
        return self._factors[shift]

    @cached_property
    def vectors(self) -> np.ndarray:
        """The read-only ``N x N`` eigenvectors, built on first read:
        ``vectors[:, i]`` is the orthonormal eigenvector for ``values[i]``;
        within a repeated value the basis, and a column's sign, is arbitrary.
        A dense system takes ``eigh``'s pairs of its Gram in reverse, checked
        by the residual bound ``max|G v - lambda v| <= 1e-8 * max|G|``.  A
        class-structured system writes each column once into its sorted
        position of one zeroed column-major array: the head columns (column
        ``j`` repeats ``coeffs[k, j] / sqrt(n)`` over class ``k``), then each
        class's Helmert contrasts (:func:`_helmert_vectors`) in its rows.
        """
        if self.model is None:
            vectors = np.linalg.eigh(self.gram)[1][:, ::-1]
            resid = np.abs(self.gram @ vectors - vectors * self.values).max(initial=0.0)
            bound = EIGEN_RESIDUAL_REL_TOL * max(np.abs(self.gram).max(initial=0.0), 1e-300)
            if resid > bound:
                raise NumericalError(f"eigendecomposition residual {resid:.3e} exceeds {bound:.3e}")
            vectors.flags.writeable = False
            return vectors
        K, n, size = self.model.K, self.model.n, self.size
        coeffs, _, order = _spectrum_order(self.model)
        position = np.empty(size, dtype=np.intp)
        position[order] = np.arange(size)
        vectors = np.zeros((size, size), order="F")
        vectors[:, position[:K]] = np.repeat(coeffs / math.sqrt(n), n, axis=0)
        if n > 1:
            basis = _helmert_vectors(n)
            for k in range(K):
                # one class's contrasts share a value and are adjacent in
                # the unsorted values, so the stable sort keeps them adjacent
                start = position[K + k * (n - 1)]
                vectors[k * n:(k + 1) * n, start:start + n - 1] = basis
        vectors.flags.writeable = False
        return vectors


def _shifted_factor(gram: np.ndarray, shift: float) -> np.ndarray:
    """The read-only lower Cholesky factor ``L`` of ``gram + shift I``.

    Factors one shifted copy of ``gram`` in place, so it holds a single
    ``N x N`` array beside the Gram: per diagonal block of
    :data:`SOLVE_BLOCK` rows, ``np.linalg.cholesky`` of the block, then per
    chunk of :data:`SOLVE_BLOCK` rows of the panel below it a solve with the
    block and a product updating those rows of the lower trailing part;
    entries above the diagonal are exact zeros.  Solving by chunks keeps
    LAPACK's own copies of the operands, which ``tracemalloc`` does not see,
    to one chunk, and gives the panel bitwise as one solve would.  Fails
    with :class:`NumericalError` when the shifted Gram is not positive
    definite, which a positive ``shift`` rules out on a PSD Gram.
    """
    factor = np.array(gram, dtype=float)
    size = factor.shape[0]
    factor.flat[::size + 1] += shift
    try:
        for s in range(0, size, SOLVE_BLOCK):
            e = s + SOLVE_BLOCK
            block = np.linalg.cholesky(factor[s:e, s:e])
            factor[s:e, s:e] = block
            factor[s:e, e:] = 0.0
            panel = factor[e:, s:e]
            trailing = factor[e:, e:]
            for r in range(0, size - e, SOLVE_BLOCK):
                end = r + SOLVE_BLOCK
                # the earlier chunks solved panel[:r], so panel[:end] is final
                panel[r:end] = np.linalg.solve(block, panel[r:end].T).T
                trailing[r:end, :end] -= panel[r:end] @ panel[:end].T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"Cholesky factorisation of G + {shift:.3e} I failed ({exc}); lower "
            "gram.perturbation_amplitude until the Gram is positive semidefinite"
        ) from exc
    factor.flags.writeable = False
    return factor


def _shifted_rounds(gram: np.ndarray, factor: np.ndarray, shift: float,
                    rows: np.ndarray, t: int) -> Iterator[np.ndarray]:
    """Rounds ``1..t`` of the dense round ``X <- (X gram)(gram + shift I)^-1``
    from ``K x N`` ``rows``, one new array per round.

    ``factor`` is :func:`_shifted_factor`'s ``L``, so ``X L L^T = rhs =
    X_prev gram``: a forward substitution for ``W L^T = rhs``, then a back
    substitution for ``X L = W``, each in blocks of :data:`SOLVE_BLOCK`
    columns (one small solve per diagonal block, matrix products for the
    rest), ``O(K N^2)``.  Each round is checked by its own residual,
    ``max|X (gram + shift I) - rhs| <= 1e-8 * max|rhs|``, whose product
    ``X gram`` is the next round's ``rhs``: ``t`` rounds cost ``t + 1``
    ``K x N x N`` products.
    """
    rhs = rows @ gram if t else None
    for _ in range(t):
        x = rhs.copy()
        starts = range(0, x.shape[1], SOLVE_BLOCK)
        for s in starts:
            e = s + SOLVE_BLOCK
            x[:, s:e] = np.linalg.solve(factor[s:e, s:e],
                                        (x[:, s:e] - x[:, :s] @ factor[s:e, :s].T).T).T
        for s in reversed(starts):
            e = s + SOLVE_BLOCK
            x[:, s:e] = np.linalg.solve(factor[s:e, s:e].T,
                                        (x[:, s:e] - x[:, e:] @ factor[e:, s:e]).T).T
        product = x @ gram
        worst = float(np.abs(product + shift * x - rhs).max(initial=0.0))
        bound = SOLVE_RESIDUAL_REL_TOL * float(np.abs(rhs).max(initial=0.0))
        if not worst <= bound:
            raise NumericalError(f"shifted Gram solve residual {worst:.3e} exceeds {bound:.3e}")
        yield x
        rhs = product


def build_gram(model: GramModel) -> np.ndarray:
    """Realize the structured Gram matrix for ``model``.

    Samples are in canonical order (sorted by true class).  The entry for
    samples ``i != j`` is the :attr:`GramModel.class_gram` entry of their
    classes; the diagonal is exactly 1 before perturbation.

    The perturbation is drawn from one seeded generator, :data:`SOLVE_BLOCK`
    rows at a time in row order, which is the stream of a single ``N x N``
    draw.  Each block keeps its entries right of the diagonal and is added
    to its rows and, transposed, to its columns, so each off-diagonal entry
    gets exactly one nonzero addition.  The result is bitwise that of the
    full draw, while only the Gram and one block are alive.
    """
    labels = model.class_of_sample() - 1
    gram = model.class_gram[np.ix_(labels, labels)]
    np.fill_diagonal(gram, 1.0)
    amplitude, size = model.perturbation_amplitude, gram.shape[0]
    if amplitude > 0.0:
        rng = np.random.default_rng(model.seed)
        for s in range(0, size, SOLVE_BLOCK):
            e = min(s + SOLVE_BLOCK, size)
            upper = rng.uniform(-amplitude, amplitude, size=(e - s, size))
            upper[np.tri(e - s, size, s, dtype=bool)] = 0.0
            gram[s:e] += upper
            gram[:, s:e] += upper.T
            del upper  # before the next block's draw
    return gram


class CellGram(NamedTuple):
    """A Gram on outputs constant on each cell: ``cells[j]`` is cell ``j``'s
    1-based (true class, given label) pair and ``weights[j]`` its sample
    count.  ``X @ matrix`` is the cell form of ``X[:, sample_cell] @ G``.
    ``assignment`` holds the placement that :attr:`sample_cell` reads; it
    is ``None`` when each cell is one sample, in sample order."""

    cells: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray
    assignment: Optional[object]

    @property
    def sample_cell(self) -> np.ndarray:
        """Each sample's cell: the assignment's
        :attr:`~distillab.noise_theory.LabelAssignment.sample_cell`, or each
        sample its own."""
        if self.assignment is None:
            return np.arange(self.weights.size)
        return self.assignment.sample_cell


def cell_gram(model: GramModel, assignment) -> CellGram:
    """The :class:`CellGram` of a label assignment.  On an unperturbed model
    its realised cells, row-major, read from ``assignment.counts`` with no
    per-sample array: with ``B`` the :attr:`GramModel.class_gram`, a sample
    of class ``k`` sees ``1 - omega_k`` from itself and ``B[k', k]`` from
    each sample of class ``k'``.  On a perturbed one a cell per sample, of
    weight 1, on the read-only :func:`build_gram`: sample ``i``'s cell is
    the pair ``assignment.cells[assignment.sample_cell[i]]``."""
    if (assignment.K, assignment.n) != (model.K, model.n):
        raise ValidationError("label assignment size does not match the model")
    if model.perturbation_amplitude:
        matrix = build_gram(model)
        matrix.flags.writeable = False
        return CellGram(assignment.cells[assignment.sample_cell], np.ones(model.size),
                        matrix, None)
    cells = assignment.cells
    true, given = (cells - 1).T
    weights = assignment.counts[true, given].astype(float)
    matrix = (weights[:, None] * model.class_gram[np.ix_(true, true)]
              + np.diag(1.0 - model.omega[true]))
    return CellGram(cells, weights, matrix, assignment)


def _helmert_vectors(m: int) -> np.ndarray:
    """Deterministic orthonormal basis of the zero-sum subspace of R^m.

    Returns an ``m x (m-1)`` matrix; column ``j`` has ``j+1`` leading entries
    ``1/sqrt((j+1)(j+2))`` followed by ``-(j+1)/sqrt((j+1)(j+2))``.
    """
    j = np.arange(1, m)
    norm = np.sqrt(j * (j + 1))
    out = np.triu(np.broadcast_to(1.0 / norm, (m, m - 1)))
    out[j, j - 1] = -j / norm
    return out


@lru_cache(maxsize=16)
def _head_columns(model: GramModel) -> tuple[np.ndarray, np.ndarray]:
    """The ``K`` eigenpairs that are constant on each class, values descending.

    On the normalised class indicators the Gram acts as the ``K x K``
    matrix ``n B + diag(1 - omega)`` (``B`` the :attr:`GramModel.class_gram`).
    Returns its eigenvalues and coefficients: column ``j`` is eigenvector
    ``j`` in class space, lifted to samples by repeating ``coeff_k /
    sqrt(n)`` over class ``k``.  With the bulk ``1 - omega_k`` (``n - 1``
    times per class) they are the whole spectrum of an unperturbed model.
    The values equal the family formulas
    (:class:`~distillab.noise_theory.TheoryConstants`) only to rounding, and
    within a repeated value the basis is the solver's.  Cached, and so
    read-only, since every round reads them.
    """
    head = model.n * model.class_gram + np.diag(1.0 - model.omega)
    values, coeffs = np.linalg.eigh(head)
    values, coeffs = values[::-1], coeffs[:, ::-1]
    values.flags.writeable = coeffs.flags.writeable = False
    return values, coeffs


def analytic_eigensystem(model: GramModel) -> EigenSystem:
    """Closed-form eigensystem of an unperturbed structured Gram matrix.

    The spectrum splits into the ``K`` class-constant eigenpairs of
    :func:`_head_columns` and the bulk: ``n - 1`` contrasts within each class ``k``, eigenvalue
    ``1 - omega_k``, spanned by that class's Helmert vectors.  For cases
    III-V the head holds one value per superclass and ``n(c-d) + (1-c)``
    for the ``K - R`` class contrasts, equal to those formulas only to
    rounding.  Perturbed models are rejected; use
    :func:`numeric_eigensystem` on the realized matrix instead.

    The pairs are sorted by a stable descending sort of the values (head
    first, then class by class the bulk).  The result holds only ``model``:
    its ``O(N)`` values and its ``N x N`` :attr:`EigenSystem.vectors` are
    built on first read only.
    """
    if model.perturbation_amplitude != 0.0:
        raise ValidationError(
            "analytic eigensystem is only defined for unperturbed models; "
            "use numeric_eigensystem on build_gram output"
        )
    return EigenSystem(model=model)


def numeric_eigensystem(matrix: np.ndarray, K: int) -> EigenSystem:
    """Dense symmetric eigensystem of ``K`` classes, eigenvalues descending.

    Fallback for perturbed or empirical Gram matrices.  The input must be
    finite and symmetric to 1e-10 (the largest ``|A - A^T|``), both checked
    over blocks of :data:`SOLVE_BLOCK` rows, and ``K`` must divide its size
    ``N``, the system's ``n`` being ``N / K``.  The result holds
    ``eigvalsh``'s values in reverse and the matrix itself, neither copied
    nor modified.  ``eigvalsh`` frees its copy of the matrix when it
    returns, so that copy and the cached Cholesky factor of the shifted
    matrix (:meth:`EigenSystem.factor`) are never alive together, and the
    operator's negative-eigenvalue guard reads the values before anything
    is factored.  The ``N x N`` :attr:`EigenSystem.vectors`, ``eigh``'s, are
    built and checked on first read only.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    dev = 0.0
    for s in range(0, a.shape[0], SOLVE_BLOCK):
        e = s + SOLVE_BLOCK
        # a NaN difference never exceeds the tolerance, so finiteness comes first
        finite = np.isfinite(a[s:e]).all(axis=1)
        if not finite.all():
            raise ValidationError(
                f"matrix has a NaN or infinite entry in row {s + int(np.argmin(finite))}; "
                "give a Gram whose every entry is finite")
        dev = max(dev, float(np.abs(a[s:e] - a[:, s:e].T).max()))
    if dev > SYMMETRY_TOL:
        raise ValidationError(f"matrix is not symmetric: max |A - A^T| = {dev:.3e} "
                              f"> {SYMMETRY_TOL:.0e}")
    return EigenSystem(values=np.linalg.eigvalsh(a)[::-1], gram=a, K=K)


@dataclass(frozen=True)
class FeatureMatrix:
    """Unit-norm feature vectors with true labels.

    ``features`` has one row per sample; ``labels`` holds 1-based class
    indices and every class up to the largest has a sample.  Every row must
    have unit Euclidean norm to 1e-6.  A superclass map must list exactly
    the labels' classes.
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
        if labels.size:
            K = int(labels.max())
            absent = np.setdiff1d(np.arange(1, K + 1), labels)
            if absent.size:
                raise ValidationError(f"labels must cover every class 1..{K}; "
                                      f"absent labels: {absent.tolist()}")
            if self.superclass_map is not None and self.superclass_map.num_classes != K:
                raise ValidationError(
                    f"the superclass map lists {self.superclass_map.num_classes} classes "
                    f"but the labels cover {K}; list exactly the classes 1..{K}"
                )
        feats.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    def to_csv(self, path) -> None:
        """One row per sample: feature components then the integer label."""
        write_csv(path, (), [*self.features.T, map(str, self.labels.tolist())])

    @classmethod
    def from_csv(cls, path, superclass_path=None) -> "FeatureMatrix":
        """Load features from CSV (final column = integer class label).

        Rows whose norm is within 1% of 1 are rescaled to unit norm, with a
        warning past 1e-6; anything farther off is rejected.
        """
        table = read_csv(path)
        feats, labels = table[:, :-1], table[:, -1]
        if np.any(labels % 1 != 0):
            raise ValidationError(f"{path}: the last column must hold integer class labels")
        if feats.size:
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
        return cls(features=feats, labels=labels, superclass_map=smap)


def load_superclass_map(path) -> SuperclassMap:
    """Read a sidecar file of ``class_index,superclass_index`` lines."""
    table = read_csv(path, int)
    if table.shape[1] < 2:
        raise ValidationError(f"{path}: expected class_index,superclass_index rows")
    classes, counts = np.unique(table[:, 0], return_counts=True)
    if np.any(counts > 1):
        raise ValidationError(f"{path}: class {classes[counts > 1][0]} is listed more than once; "
                              "list each class 1..K exactly once")
    if classes.tolist() != list(range(1, classes.size + 1)):
        raise ValidationError("superclass file must cover classes 1..K exactly once")
    return SuperclassMap(tuple(table[np.argsort(table[:, 0]), 1].tolist()))


def _relation_stats(values: np.ndarray) -> Optional[dict]:
    if values.size == 0:
        return None
    return {"mean": float(values.mean()), "std": float(values.std()), "pairs": int(values.size)}


def gram_statistics(features: FeatureMatrix) -> dict[str, Optional[dict]]:
    """Mean/std of inner products per pair relation.

    Relations over unordered pairs ``i < j``, in this order:
    ``same_class``, ``cross_class_within_superclass`` (different class,
    same superclass) and ``cross_superclass``.  Each maps to its
    ``{"mean", "std", "pairs"}``, or to None when it has no pairs.  Without
    a superclass map all classes count as one superclass, so the last
    relation is None.
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
    return {
        "same_class": _relation_stats(vals[same_class]),
        "cross_class_within_superclass": _relation_stats(vals[~same_class & same_sup]),
        "cross_superclass": _relation_stats(vals[~same_sup]),
    }
