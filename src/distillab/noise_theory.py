"""Label corruption models and closed-form accuracy phase conditions.

The corruption matrix ``C`` records, for each true class ``k``, the fraction
of its ``n`` samples carrying each given label ``k'``.  Balanced datasets
make ``C`` doubly stochastic.  Every eigen-ratio ``v / (K^2 n lam + v)`` of
a Gram eigenvalue ``v`` is :func:`eigen_ratio`.  :class:`TheoryConstants`
holds an unperturbed Gram model and ``lam`` and derives the ratios from
them: ``p_k`` (bulk) and ``q_k`` (class contrasts) per class ``k``, one pair
outside case II, and ``r_s`` per superclass; row ``k``'s round-``t``
threshold is ``1/((q_k/p_k)^t - 1)``.  Every verdict and prediction here, in
all five Gram cases, is one boolean expression over the ``K x K`` gap matrix
``C[k,k] - C[k,k']`` and its off-diagonal mask (:func:`_gaps`): after ``t``
distillation rounds the gap of a mislabeled cell ``(k, k')`` must exceed its
row's threshold for the cell to be classified correctly, while the one-round
top-2 partial-label student only needs every gap to be positive.  Strict
comparisons keep a ``TIE_TOL`` band; an infinite threshold needs no special
case, since ``gap - inf`` is ``-inf``.  The exact outputs of every cell come
from :func:`distillab.distillation.cell_outputs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .csvio import fmt, read_csv, write_cell_rows, write_csv
from .errors import NumericalError, ValidationError
from .gram_models import GramCase, GramModel, SuperclassMap, _head_columns

__all__ = [
    "CorruptionMatrix",
    "LabelAssignment",
    "TheoryConstants",
    "ConditionResult",
    "eigen_ratio",
    "make_corruption",
    "nearest_realizable",
    "realize_labels",
    "theory_constants",
    "sd_accuracy_condition",
    "minimal_rounds",
    "pll_accuracy_condition",
    "evolving_condition",
    "predicted_population_accuracy",
]

STOCHASTIC_TOL = 1e-12
# Strict phase inequalities: anything within this band of equality counts as
# a tie and therefore as a classification failure.
TIE_TOL = 1e-12
# Steps ``minimal_rounds`` may take from its closed-form candidate.
MINIMAL_ROUNDS_STEPS = 1000

CORRUPTION_KINDS = ("symmetric", "asymmetric", "superclass")


@dataclass(frozen=True)
class CorruptionMatrix:
    """Row- and column-stochastic matrix of true-to-given label fractions."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"corruption matrix must be square, got {m.shape}")
        if np.any(m < -STOCHASTIC_TOL) or np.any(m > 1.0 + STOCHASTIC_TOL):
            k, kp = np.unravel_index(int(np.argmin(np.minimum(m, 1.0 - m))), m.shape)
            raise ValidationError(
                f"corruption entries must lie in [0, 1]; entry ({k + 1},{kp + 1}) = {m[k, kp]}"
            )
        row = m.sum(axis=1)
        bad = np.nonzero(np.abs(row - 1.0) > STOCHASTIC_TOL)[0]
        if bad.size:
            raise ValidationError(
                f"row {bad[0] + 1} sums to {float(row[bad[0]])!r}, expected 1 within "
                f"{STOCHASTIC_TOL:.0e}"
            )
        col = m.sum(axis=0)
        bad = np.nonzero(np.abs(col - 1.0) > STOCHASTIC_TOL)[0]
        if bad.size:
            raise ValidationError(
                f"column {bad[0] + 1} sums to {float(col[bad[0]])!r}, expected 1 within "
                f"{STOCHASTIC_TOL:.0e} (the dataset must be balanced in given labels too)"
            )
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def K(self) -> int:
        return self.entries.shape[0]

    def entry(self, k: int, kp: int) -> float:
        """Fraction of class-``k`` samples labeled ``kp`` (1-based)."""
        return float(self.entries[k - 1, kp - 1])

    def is_block_confined(self, smap: SuperclassMap) -> bool:
        """True when mislabeling never crosses superclass boundaries (cross
        mass within the stochasticity tolerance counts as none)."""
        sup = np.asarray(smap.assignments)
        cross = sup[:, None] != sup[None, :]
        return bool(np.all(np.abs(self.entries[cross]) <= STOCHASTIC_TOL))

    def to_csv(self, path) -> None:
        """One row per true class, each entry to 12 significant digits when
        that text reads back as the same float and in full (``repr``)
        otherwise, so that :meth:`from_csv` reads back this matrix."""
        write_csv(path, (), [[fmt(x) if float(fmt(x)) == x else repr(x) for x in column]
                             for column in self.entries.T.tolist()])

    @classmethod
    def from_csv(cls, path) -> "CorruptionMatrix":
        return cls(read_csv(path))


def make_corruption(
    kind: str,
    eta: float,
    K: int,
    superclass_map: Optional[SuperclassMap] = None,
) -> CorruptionMatrix:
    """Build a corruption matrix for a given scenario.

    ``symmetric`` spreads ``eta`` uniformly over the other ``K-1`` labels;
    ``asymmetric`` puts ``2*eta/K`` on the cyclic successor
    ``(k mod K) + 1`` and ``eta/K`` elsewhere; ``superclass`` confines the
    noise to the sample's superclass.  Any other matrix is a
    :class:`CorruptionMatrix` built directly, which checks it.
    """
    if kind not in CORRUPTION_KINDS:
        raise ValidationError(f"unknown corruption kind {kind!r}; expected {CORRUPTION_KINDS}")
    if not 0.0 <= eta <= 1.0:
        raise ValidationError("corruption rate must lie in [0, 1]")
    if eta == 0.0:
        return CorruptionMatrix(np.eye(K))
    if kind == "symmetric":
        if K < 2:
            raise ValidationError("symmetric corruption needs K >= 2")
        m = np.full((K, K), eta / (K - 1))
        np.fill_diagonal(m, 1.0 - eta)
    elif kind == "asymmetric":
        if K < 2:
            raise ValidationError("asymmetric corruption needs K >= 2")
        m = np.full((K, K), eta / K)
        np.fill_diagonal(m, 1.0 - eta)
        m[np.arange(K), (np.arange(K) + 1) % K] = 2.0 * eta / K
    else:  # superclass
        if superclass_map is None:
            raise ValidationError("superclass corruption requires a superclass map")
        if superclass_map.num_classes != K:
            raise ValidationError("superclass map size does not match K")
        sup = np.asarray(superclass_map.assignments)
        same = sup[:, None] == sup[None, :]
        size = same.sum(axis=1)
        if np.any(size < 2):
            raise ValidationError(
                f"superclass of class {int(np.argmax(size < 2)) + 1} is a singleton; "
                f"corruption rate {eta} has nowhere to go"
            )
        m = np.where(same, eta / (size[:, None] - 1), 0.0)
        np.fill_diagonal(m, 1.0 - eta)
    return CorruptionMatrix(m)


@dataclass(frozen=True)
class LabelAssignment:
    """The labels of ``K n`` samples in canonical class order, as counts.

    ``counts[k-1, k'-1]`` samples of true class ``k`` carry given label
    ``k'``; every row and column sums to ``n``.  A run on an unperturbed
    model reads only these.  The one per-sample record is
    :attr:`sample_cell`, each sample's row of :attr:`cells`, built on first
    read: class ``k``'s block of cell rows, in label order, shuffled by
    ``default_rng(seed)`` (one shuffle per class, in class order).
    :attr:`true_labels` and :attr:`given_labels` are read from it on each
    read.  :meth:`from_labels` keeps the placement it is given.
    """

    counts: np.ndarray
    seed: int = 0

    def __post_init__(self):
        counts = np.array(self.counts, dtype=int)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1] or np.any(counts < 0):
            raise ValidationError("label counts must be a square matrix of nonnegative integers")
        sums = np.concatenate([counts.sum(axis=0), counts.sum(axis=1)])
        if not sums.size or np.any(sums != sums[0]):
            raise ValidationError("labels must be balanced in both true and given classes")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def K(self) -> int:
        return self.counts.shape[0]

    @property
    def n(self) -> int:
        return int(self.counts[0].sum())

    @property
    def cells(self) -> np.ndarray:
        """The realised (true class, given label) pairs, 1-based, one row per
        nonzero count in row-major order."""
        return np.argwhere(self.counts) + 1

    @cached_property
    def sample_cell(self) -> np.ndarray:
        """Each sample's row of :attr:`cells`."""
        nonzero = self.counts[self.counts > 0]
        sample_cell = np.repeat(np.arange(nonzero.size), nonzero)
        rng = np.random.default_rng(self.seed)
        # a shuffle's draws depend only on the block's length
        for block in sample_cell.reshape(self.K, self.n):
            rng.shuffle(block)
        return _read_only(sample_cell)

    @property
    def true_labels(self) -> np.ndarray:
        return _read_only(self.cells[self.sample_cell, 0])

    @property
    def given_labels(self) -> np.ndarray:
        return _read_only(self.cells[self.sample_cell, 1])

    @classmethod
    def from_labels(cls, true_labels, given_labels) -> "LabelAssignment":
        """The assignment of per-sample labels, sorted by true label."""
        t, g = (np.asarray(x, dtype=int) for x in (true_labels, given_labels))
        K = int(t.max(initial=0))
        if (t.shape != g.shape or t.ndim != 1 or np.any(np.diff(t) < 0)
                or min(t.min(initial=1), g.min(initial=1)) < 1 or g.max(initial=1) > K):
            raise ValidationError("true and given labels must be equal-length vectors "
                                  "in 1..K, sorted by true label")
        cell = (t - 1) * K + g - 1
        counts = np.bincount(cell, minlength=K * K)
        assignment = cls(counts.reshape(K, K))
        # sorted and balanced, so the true labels are the canonical ones
        position = np.cumsum(counts > 0) - 1
        object.__setattr__(assignment, "sample_cell", _read_only(position[cell]))
        return assignment

    def empirical_corruption(self) -> CorruptionMatrix:
        return CorruptionMatrix(self.counts / self.n)

    def to_csv(self, path) -> None:
        """One ``index,true_label,given_label`` line per sample, from its cell."""
        write_cell_rows(path, ("index", "true_label", "given_label"),
                        [((), 1, map(str, self.cells.ravel().tolist()))], self.sample_cell)

    @classmethod
    def from_csv(cls, path) -> "LabelAssignment":
        """The labels of a :meth:`to_csv` file; its index must read ``0..N-1``."""
        table = read_csv(path, int, header=True)
        wrong = np.flatnonzero(table[:, 0] != np.arange(len(table)))
        if wrong.size:
            raise ValidationError(f"{path}:{wrong[0] + 2}: index {table[wrong[0], 0]} where "
                                  f"{wrong[0]} belongs; list the samples 0..N-1 in order")
        return cls.from_labels(table[:, 1], table[:, 2])


def _minimal_feasible_n(entries: np.ndarray) -> int:
    denoms = [
        Fraction(float(x)).limit_denominator(10**6).denominator for x in entries.ravel()
    ]
    return math.lcm(*denoms)


def nearest_realizable(C: CorruptionMatrix, n: int) -> CorruptionMatrix:
    """Snap a corruption matrix onto the ``n``-sample grid.

    Rounds each row's cell counts by largest remainder (row sums stay at
    ``n``), then moves single counts between columns of the donor rows
    until the given labels are balanced again.  Cell counts move by at
    most a few units of ``1/n``; an already-realizable matrix is returned
    unchanged.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    K = C.K
    target = C.entries * n
    counts = np.floor(target).astype(int)
    # each row's deficit goes to its largest remainders (stable order)
    rank = np.argsort(np.argsort(counts - target, axis=1, kind="stable"), axis=1)
    counts += rank < (n - counts.sum(axis=1))[:, None]
    col = counts.sum(axis=0)
    guard = 0
    while not np.all(col == n):
        hi = int(np.argmax(col))
        lo = int(np.argmin(col))
        donors = np.nonzero(counts[:, hi] > 0)[0]
        # prefer the donor whose move costs the least against the target
        costs = [
            abs(counts[r, hi] - 1 - target[r, hi]) + abs(counts[r, lo] + 1 - target[r, lo])
            for r in donors
        ]
        r = int(donors[int(np.argmin(costs))])
        counts[r, hi] -= 1
        counts[r, lo] += 1
        col = counts.sum(axis=0)
        guard += 1
        if guard > 4 * K * K * n:
            raise NumericalError("failed to balance the rounded corruption counts")
    return CorruptionMatrix(counts / n)


def realize_labels(C: CorruptionMatrix, n: int, seed: int = 0) -> LabelAssignment:
    """The labels of ``n`` samples per class whose empirical corruption is ``C``.

    Every off-diagonal cell count ``n * C[k, k']`` must be an integer
    (the diagonal then is too); otherwise the offending entry and the
    smallest workable ``n`` are reported.  Returns the counts and ``seed``
    and draws nothing: the per-class shuffle that places the given labels
    is drawn from ``seed`` only when they are first read.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    K = C.K
    counts = np.rint(C.entries * n).astype(int)
    err = np.abs(C.entries * n - counts)
    # an off-diagonal cell is named first (row-major), else the worst diagonal one
    bad = np.argwhere((err > 1e-9) & ~np.eye(K, dtype=bool))
    if not bad.size and np.any(np.diag(err) > 1e-9):
        bad = np.full((1, 2), np.argmax(np.diag(err)))
    if bad.size:
        k, kp = bad[0]
        raise ValidationError(
            f"cell ({k + 1},{kp + 1}) needs {C.entries[k, kp] * n:.6g} samples, "
            f"which is not an integer; smallest feasible n is {_minimal_feasible_n(C.entries)}"
        )
    return LabelAssignment(counts, seed)


def eigen_ratio(values, lam: float, K: int, n: int):
    """One-round averaging-operator eigenvalue ``v / (K^2 n lam + v)`` of the
    Gram eigenvalue(s) ``v``."""
    return values / (K * K * n * lam + values)


@dataclass(frozen=True)
class TheoryConstants:
    """Eigen-ratio constants of the label-averaging operator of ``model``.

    Only the unperturbed Gram model and ``lam`` are stored; every constant
    is derived from them as the :meth:`ratio` of a Gram eigenvalue.  Class
    ``k`` has its own read-only pair ``p[k-1]`` (bulk, eigenvalue
    ``1 - omega_k``) and ``q[k-1]`` (class contrast,
    ``1 - omega_k + n(omega_k - d)``); outside case II every class shares
    one pair.  ``r[s-1]`` (superclass ``s``, ``K_s n d`` above ``q``'s
    eigenvalue, taken at zero inter-superclass correlation) is ``None`` only
    in case II, which has no superclass-constant eigenvector.  The exact
    per-cell outputs (:func:`~distillab.distillation.cell_outputs`) take
    every eigen-ratio from ``model``, coupled superclasses included.
    """

    model: GramModel
    lam: float

    def ratio(self, values):
        """:func:`eigen_ratio` of Gram eigenvalue(s) ``values`` at this ``lam``."""
        return eigen_ratio(values, self.lam, self.model.K, self.model.n)

    def _contrast_eigenvalues(self) -> np.ndarray:
        omega = self.model.omega
        return 1.0 - omega + self.model.n * (omega - self.model.d)

    @property
    def p(self) -> np.ndarray:
        return _read_only(self.ratio(1.0 - self.model.omega))

    @property
    def q(self) -> np.ndarray:
        return _read_only(self.ratio(self._contrast_eigenvalues()))

    @property
    def r(self) -> Optional[np.ndarray]:
        if self.model.case is GramCase.II:
            return None
        sizes = np.asarray(self.model.effective_map().sizes)
        return _read_only(self.ratio(self._contrast_eigenvalues()[0]
                                     + sizes * self.model.n * self.model.d))

    def threshold(self, t: int) -> np.ndarray:
        """Phase boundary ``1 / ((q_k/p_k)^t - 1)`` per class; inf where ``q_k <= p_k``."""
        if t < 0:
            raise ValidationError("round index must be >= 0")
        # libm's pow per class: numpy's vector pow can differ in the last bit
        return _threshold(np.array([x ** t for x in (self.q / self.p).tolist()]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _threshold(ratio_t: np.ndarray) -> np.ndarray:
    """``1 / (ratio_t - 1)`` per class, infinite where ``ratio_t <= 1``."""
    over = ratio_t - 1.0
    return np.divide(1.0, over, out=np.full_like(over, math.inf), where=over > 0.0)


def _check_lam(model: GramModel, lam: float) -> None:
    """Reject a ``lam`` at which the largest eigen-ratio of ``model``'s
    structured Gram rounds to 1 (too small) or its smallest bulk ratio
    rounds to 0 (too large)."""
    if lam <= 0.0:
        raise ValidationError("regularization strength must be positive")
    K, n = model.K, model.n
    a_top = float(_head_columns(model)[0].max())
    if eigen_ratio(a_top, lam, K, n) == 1.0:
        raise ValidationError(f"lam={lam:g} is too small for K={K}, n={n}: the eigen-ratios "
                              f"round to 1; they need lam >= {math.ulp(a_top) / (K * K * n):.3g}")
    if eigen_ratio(float(np.min(1.0 - model.omega)), lam, K, n) == 0.0:  # p's, p <= q
        raise ValidationError(f"lam={lam:g} is too large for K={K}, n={n}: the bulk "
                              "eigen-ratio rounds to 0")


def theory_constants(model: GramModel, lam: float) -> TheoryConstants:
    """The label-averaging eigen-ratios of an unperturbed model at ``lam``."""
    _check_lam(model, lam)
    if model.perturbation_amplitude != 0.0:
        raise ValidationError("theory constants are defined for unperturbed models: "
                              "set gram.perturbation_amplitude to 0")
    return TheoryConstants(model, lam)


@dataclass(frozen=True)
class ConditionResult:
    """Outcome of a 100%-population-accuracy test, with one threshold per class."""

    achieves_100: bool
    failing_pairs: tuple[tuple[int, int], ...]
    threshold: np.ndarray


def _gaps(C: CorruptionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The gap matrix ``C[k,k] - C[k,k']`` and its off-diagonal mask."""
    return np.diag(C.entries)[:, None] - C.entries, ~np.eye(C.K, dtype=bool)


def _pairs(mask: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The cells of ``mask`` as 1-based ``(k, k')`` pairs, row-major."""
    return tuple(map(tuple, (np.argwhere(mask) + 1).tolist()))


def _failing_cells(C: CorruptionMatrix, thr: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Realized mislabeled cells ``(k, k')`` (1-based, with mass) whose gap
    ``C[k,k] - C[k,k']`` does not strictly exceed their row's ``thr[k-1]``."""
    gap, off = _gaps(C)
    return _pairs(off & (C.entries > 0.0) & ~(gap - thr[:, None] > TIE_TOL))


def _check_corruption(C: CorruptionMatrix, tc: TheoryConstants):
    """``C`` must have the model's ``K`` classes and keep its noise within
    the model's superclasses."""
    if C.K != tc.model.K:
        raise ValidationError("corruption matrix size does not match the constants")
    smap = tc.model.effective_map()
    if smap.num_superclasses > 1 and not C.is_block_confined(smap):
        raise ValidationError(
            "corruption crosses superclass boundaries; the accuracy conditions "
            "are only derived for noise confined within superclasses"
        )


def sd_accuracy_condition(
    C: CorruptionMatrix, tc: TheoryConstants, t: int
) -> ConditionResult:
    """Does the ``t``-th distilled model classify every realized sample?

    A mislabeled cell ``(k, k')`` with mass is classified correctly iff
    ``C[k,k] > C[k,k'] + 1/((q_k/p_k)^t - 1)`` together with ``C[k,k]``
    dominating every other row entry; clean cells need the same comparisons
    with the threshold on the favorable side.  Cells without mass impose no
    constraint, so the verdict is exactly "population accuracy equals 1".
    ``failing_pairs`` lists the realized cells whose threshold comparison
    fails (1-based).
    """
    if t < 1:
        raise ValidationError("distillation round must be >= 1")
    _check_corruption(C, tc)
    thr = tc.threshold(t)
    failing = _failing_cells(C, thr)
    return ConditionResult(achieves_100=not failing, failing_pairs=failing, threshold=thr)


def minimal_rounds(C: CorruptionMatrix, tc: TheoryConstants) -> Optional[int]:
    """Smallest ``t`` at which the distilled model reaches 100% accuracy.

    Returns 1 when no mislabeled cell is realized, and ``None`` when a row
    with one has a non-positive gap or ``q_k <= p_k`` (an infinite
    threshold), which no number of rounds can fix.  Each such row ``k`` gives
    the closed-form candidate ``floor(log(1 + 1/g') / log(q_k/p_k)) + 1`` for
    its smallest gap ``g`` less the tie band, ``g' = g - TIE_TOL``; the
    largest candidate is verified by re-evaluating the condition at ``t``
    and ``t - 1`` and moved by single rounds until it is the smallest ``t``
    that holds.
    """
    _check_corruption(C, tc)
    gap, off = _gaps(C)
    cells = off & (C.entries > 0.0)
    rows = cells.any(axis=1)
    if not rows.any():
        return 1
    g = np.min(np.where(cells, gap, np.inf), axis=1)[rows]
    if np.any(g <= TIE_TOL):
        return None
    ratio = (tc.q / tc.p)[rows]
    if np.any(ratio <= 1.0):
        return None
    t = max(1, *(math.floor(math.log1p(1.0 / (g_k - TIE_TOL)) / math.log(r_k)) + 1
                 for g_k, r_k in zip(g.tolist(), ratio.tolist())))
    for _ in range(MINIMAL_ROUNDS_STEPS):
        if not sd_accuracy_condition(C, tc, t).achieves_100:
            t += 1
        elif t > 1 and sd_accuracy_condition(C, tc, t - 1).achieves_100:
            t -= 1
        else:
            return t
    raise ValidationError("minimal rounds search failed to terminate")


def pll_accuracy_condition(C: CorruptionMatrix) -> ConditionResult:
    """Does the one-round top-2 partial-label student reach 100% accuracy?

    True iff every diagonal entry strictly dominates its row.  This is what
    guarantees the teacher ranks the true label within its top two outputs
    for every sample.
    """
    gap, off = _gaps(C)
    failing = _pairs(off & ~(gap > TIE_TOL))
    return ConditionResult(achieves_100=not failing, failing_pairs=failing,
                           threshold=np.zeros(C.K))


def evolving_condition(
    C: CorruptionMatrix,
    schedule: Sequence[tuple[float, float]],
    lam: float,
    K: int,
    n: int,
    t: int,
    superclass_map: Optional[SuperclassMap] = None,
) -> bool:
    """Accuracy condition when correlations evolve across rounds.

    Each schedule entry ``(c_i, d_i)`` is the case III model (case IV with a
    ``superclass_map`` of more than one superclass) of one round, and the
    fixed ratio power ``(q_k/p_k)^t`` becomes the product of its per-round
    ratios ``q_k,i / p_k,i`` over ``i = 1..t``.  Per-round superclass ratios
    do not enter the condition.
    """
    if t < 1:
        raise ValidationError("round must be >= 1")
    if len(schedule) < t:
        raise ValidationError(f"schedule has {len(schedule)} rounds, need at least {t}")
    smap = superclass_map or SuperclassMap.trivial(K)
    case = GramCase.III if smap.num_superclasses == 1 else GramCase.IV
    rounds = []
    for i, (c_i, d_i) in enumerate(schedule, start=1):
        if not 1.0 > c_i > d_i >= 0.0:
            raise ValidationError(f"schedule entry {i} must satisfy 1 > c > d >= 0")
        rounds.append(theory_constants(GramModel(
            case=case, K=K, n=n, c=c_i, d=d_i,
            superclass_map=smap if case is GramCase.IV else None), lam))
    _check_corruption(C, rounds[0])
    prod = np.prod([tc_i.q / tc_i.p for tc_i in rounds[:t]], axis=0)
    return not _failing_cells(C, _threshold(prod))


def predicted_population_accuracy(
    C: CorruptionMatrix, tc: TheoryConstants, t: int, mode: str = "sd"
) -> float:
    """Population accuracy predicted by the piecewise closed forms.

    The mass ``C[k,k']`` of every cell that is classified correctly, summed
    exactly (``math.fsum``) and divided by ``K``; which cells count is one
    boolean expression over the gap matrix ``G = C[k,k] - C[k,k']``
    (comparisons strict beyond ``TIE_TOL``; cells ``(k, k')`` off the
    diagonal count only with mass).  In ``sd`` mode, with row ``k``'s
    round-``t`` threshold ``thr``, the clean cell of class ``k`` is correct
    iff every gap of its row exceeds ``-thr``, and a mislabeled cell
    ``(k, k')`` iff ``G[k,k'] > thr`` and every gap of the row is positive
    (``thr >= 0``, so its own already is).  In ``pll`` mode the one-round top-2 student pairs each class with its
    dominant wrong label ``k~`` (the masked row argmax, lowest index on
    ties): the cells ``(k, k)`` and ``(k, k~)`` are correct iff the top-2
    target mass ``C[k,k] + C[k,k~]`` stays below 1 (a tie otherwise), and
    any other cell iff its own mass is below 1.
    """
    if mode not in ("sd", "pll"):
        raise ValidationError(f"mode must be 'sd' or 'pll', got {mode!r}")
    _check_corruption(C, tc)
    E = C.entries
    gap, off = _gaps(C)
    if mode == "sd":
        if t < 1:
            raise ValidationError("distillation round must be >= 1")
        thr = tc.threshold(t)[:, None]
        clean = np.all(~off | (gap + thr > TIE_TOL), axis=1)
        dominant = np.all(~off | (gap > TIE_TOL), axis=1)
        correct = np.where(off, (gap - thr > TIE_TOL) & dominant[:, None], clean[:, None])
    else:
        tilde = np.argmax(np.where(off, E, -np.inf), axis=1)
        pair = ~off
        pair[np.arange(C.K), tilde] = True
        two_hot_ok = 1.0 - (np.diag(E) + E[np.arange(C.K), tilde]) > TIE_TOL
        correct = np.where(pair, two_hot_ok[:, None], 1.0 - E > TIE_TOL)
    return math.fsum(E[correct & (~off | (E > 0.0))]) / C.K
