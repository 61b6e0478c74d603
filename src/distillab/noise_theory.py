"""Label corruption models and closed-form accuracy phase conditions.

The corruption matrix ``C`` records, for each true class ``k``, the fraction
of its ``n`` samples carrying each given label ``k'``.  Balanced datasets
make ``C`` doubly stochastic.  The scalar constants derived from a
structured Gram model (``p`` for the bulk eigenspace, ``q`` for class
contrasts, ``r_s`` per superclass) drive every closed-form prediction:
after ``t`` distillation rounds a gap ``C[k,k] - C[k,k']`` must exceed
``1/((q/p)^t - 1)`` for the mislabeled cell ``(k, k')`` to be classified
correctly, while the one-round top-2 partial-label student only needs the
gap to be positive.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .gram_models import GramCase, GramModel, SuperclassMap

__all__ = [
    "CorruptionMatrix",
    "LabelAssignment",
    "TheoryConstants",
    "ConditionResult",
    "make_corruption",
    "nearest_realizable",
    "realize_labels",
    "theory_constants",
    "evolving_constants",
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

CORRUPTION_KINDS = ("symmetric", "asymmetric", "superclass", "explicit")


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
                f"row {bad[0] + 1} sums to {row[bad[0]]!r}, expected 1 within {STOCHASTIC_TOL:.0e}"
            )
        col = m.sum(axis=0)
        bad = np.nonzero(np.abs(col - 1.0) > STOCHASTIC_TOL)[0]
        if bad.size:
            raise ValidationError(
                f"column {bad[0] + 1} sums to {col[bad[0]]!r}, expected 1 within {STOCHASTIC_TOL:.0e} "
                "(the dataset must be balanced in given labels too)"
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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in self.entries:
                writer.writerow([f"{x:.12g}" for x in row])

    @classmethod
    def from_csv(cls, path) -> "CorruptionMatrix":
        with open(path, newline="") as fh:
            rows = [[float(x) for x in rec] for rec in csv.reader(fh) if rec]
        return cls(np.asarray(rows))


def make_corruption(
    kind: str,
    eta: float,
    K: int,
    superclass_map: Optional[SuperclassMap] = None,
    explicit_matrix: Optional[np.ndarray] = None,
) -> CorruptionMatrix:
    """Build a corruption matrix for a given scenario.

    ``symmetric`` spreads ``eta`` uniformly over the other ``K-1`` labels;
    ``asymmetric`` puts ``2*eta/K`` on the cyclic successor
    ``(k mod K) + 1`` and ``eta/K`` elsewhere; ``superclass`` confines the
    noise to the sample's superclass.  ``explicit`` validates a caller
    matrix against the stochasticity invariants.
    """
    if kind not in CORRUPTION_KINDS:
        raise ValidationError(f"unknown corruption kind {kind!r}; expected {CORRUPTION_KINDS}")
    if kind == "explicit":
        if explicit_matrix is None:
            raise ValidationError("explicit corruption requires a matrix")
        return CorruptionMatrix(np.asarray(explicit_matrix, dtype=float))
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
        for k in range(1, K + 1):
            succ = (k % K) + 1
            m[k - 1, succ - 1] = 2.0 * eta / K
    else:  # superclass
        if superclass_map is None:
            raise ValidationError("superclass corruption requires a superclass map")
        if superclass_map.num_classes != K:
            raise ValidationError("superclass map size does not match K")
        m = np.zeros((K, K))
        for k in range(1, K + 1):
            omega_k = superclass_map.classes_of(superclass_map.superclass_of(k))
            if len(omega_k) < 2:
                raise ValidationError(
                    f"superclass of class {k} is a singleton; corruption rate {eta} has nowhere to go"
                )
            m[k - 1, k - 1] = 1.0 - eta
            for kp in omega_k:
                if kp != k:
                    m[k - 1, kp - 1] = eta / (len(omega_k) - 1)
    return CorruptionMatrix(m)


@dataclass(frozen=True)
class LabelAssignment:
    """Paired true/given labels for ``Kn`` samples in canonical class order."""

    true_labels: np.ndarray
    given_labels: np.ndarray

    def __post_init__(self):
        t = np.array(self.true_labels, dtype=int)
        g = np.array(self.given_labels, dtype=int)
        if t.shape != g.shape or t.ndim != 1:
            raise ValidationError("true and given labels must be equal-length vectors")
        K = int(t.max(initial=0))
        counts_t = np.bincount(t, minlength=K + 1)[1:]
        counts_g = np.bincount(g, minlength=K + 1)[1:]
        if not np.all(counts_t == counts_t[0]) or not np.all(counts_g == counts_t[0]):
            raise ValidationError("labels must be balanced in both true and given classes")
        if np.any(np.diff(t) < 0):
            raise ValidationError("samples must be sorted by true label")
        t.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "true_labels", t)
        object.__setattr__(self, "given_labels", g)

    @property
    def K(self) -> int:
        return int(self.true_labels.max())

    @property
    def n(self) -> int:
        return self.true_labels.size // self.K

    def empirical_corruption(self) -> CorruptionMatrix:
        K, n = self.K, self.n
        m = np.zeros((K, K))
        for yt, yg in zip(self.true_labels, self.given_labels):
            m[yt - 1, yg - 1] += 1.0
        return CorruptionMatrix(m / n)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "true_label", "given_label"])
            for i, (yt, yg) in enumerate(zip(self.true_labels, self.given_labels)):
                writer.writerow([i, int(yt), int(yg)])

    @classmethod
    def from_csv(cls, path) -> "LabelAssignment":
        true_l, given_l = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for rec in reader:
                if rec:
                    true_l.append(int(rec[1]))
                    given_l.append(int(rec[2]))
        return cls(np.asarray(true_l), np.asarray(given_l))


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
    for k in range(K):
        deficit = n - int(counts[k].sum())
        if deficit:
            remainders = target[k] - counts[k]
            for kp in np.argsort(-remainders, kind="stable")[:deficit]:
                counts[k, kp] += 1
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
    """Materialize ``n`` samples per class whose empirical corruption is ``C``.

    Every off-diagonal cell count ``n * C[k, k']`` must be an integer
    (the diagonal then is too); otherwise the offending entry and the
    smallest workable ``n`` are reported.  Which sample slots of class
    ``k`` receive each given label is a per-class shuffle drawn from
    ``seed``.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    K = C.K
    counts = np.rint(C.entries * n).astype(int)
    err = np.abs(C.entries * n - counts)
    for k in range(K):
        for kp in range(K):
            if kp == k:
                continue
            if err[k, kp] > 1e-9:
                raise ValidationError(
                    f"cell ({k + 1},{kp + 1}) needs {C.entries[k, kp] * n:.6g} samples, "
                    f"which is not an integer; smallest feasible n is {_minimal_feasible_n(C.entries)}"
                )
    if np.any(err[np.diag_indices(K)] > 1e-9):
        k = int(np.argmax(err[np.diag_indices(K)]))
        raise ValidationError(
            f"cell ({k + 1},{k + 1}) needs {C.entries[k, k] * n:.6g} samples, "
            f"which is not an integer; smallest feasible n is {_minimal_feasible_n(C.entries)}"
        )
    rng = np.random.default_rng(seed)
    true_labels = np.repeat(np.arange(1, K + 1), n)
    given_labels = np.empty(K * n, dtype=int)
    for k in range(K):
        block = np.repeat(np.arange(1, K + 1), counts[k])
        rng.shuffle(block)
        given_labels[k * n : (k + 1) * n] = block
    return LabelAssignment(true_labels, given_labels)


@dataclass(frozen=True)
class Case5Constants:
    """Eigen-ratio constants coupling superclasses through a nonzero
    inter-superclass correlation ``e`` (equal superclass sizes).

    ``superclass_ratio`` plays the role ``r_s`` plays at ``e = 0`` but with
    ``d`` replaced by ``d - e``; ``global_ratio`` is the ratio of the
    all-samples eigenvalue.
    """

    e: float
    superclass_ratio: np.ndarray
    global_ratio: float

    def __post_init__(self):
        sr = np.array(self.superclass_ratio, dtype=float)
        sr.flags.writeable = False
        object.__setattr__(self, "superclass_ratio", sr)


@dataclass(frozen=True)
class TheoryConstants:
    """Eigen-ratio constants of the label-averaging operator.

    ``p`` (bulk), ``q`` (class contrasts) and ``r[s-1]`` (superclass ``s``)
    are each ``lambda_eig / (K^2 n lam + lambda_eig)`` for the matching Gram
    eigenvalue.  Per-class models fill ``per_class_p``/``per_class_q``
    instead of the scalars.  Coupled-superclass models additionally fill
    ``case5``.
    """

    lam: float
    K: int
    n: int
    superclass_map: SuperclassMap
    p: Optional[float] = None
    q: Optional[float] = None
    r: Optional[np.ndarray] = None
    per_class_p: Optional[np.ndarray] = None
    per_class_q: Optional[np.ndarray] = None
    case5: Optional[Case5Constants] = None

    def __post_init__(self):
        for name in ("r", "per_class_p", "per_class_q"):
            val = getattr(self, name)
            if val is not None:
                arr = np.array(val, dtype=float)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)
        if self.p is not None:
            if not (0.0 < self.p <= self.q + 1e-15 and self.q < 1.0):
                raise ValidationError("ratios must satisfy 0 < p <= q < 1")
            if self.r is not None and np.any(self.r < self.q - 1e-15):
                raise ValidationError("superclass ratios must dominate the class ratio")

    @property
    def scalar(self) -> bool:
        return self.p is not None

    def _require_scalar(self):
        if not self.scalar:
            raise ValidationError(
                "this operation needs scalar p/q constants; per-class intra-class "
                "correlations yield one ratio pair per class instead"
            )

    def qp_ratio(self) -> float:
        self._require_scalar()
        return self.q / self.p  # type: ignore[operator]

    def threshold(self, t: int) -> float:
        """Phase boundary ``1 / ((q/p)^t - 1)``; infinite when ``q == p``."""
        if t < 0:
            raise ValidationError("round index must be >= 0")
        ratio_t = self.qp_ratio() ** t
        if ratio_t <= 1.0:
            return math.inf
        return 1.0 / (ratio_t - 1.0)

    def mu(self, s: int, t: int) -> float:
        """Superclass-averaging weight after ``t`` rounds."""
        self._require_scalar()
        if self.case5 is not None:
            return float(self.case5.superclass_ratio[s - 1] ** t - self.q**t)
        return float(self.r[s - 1] ** t - self.q**t)  # type: ignore[index]

    def nu(self, t: int) -> float:
        """Global-averaging weight after ``t`` rounds (zero when labels are
        balanced or superclasses are uncoupled)."""
        self._require_scalar()
        if self.case5 is None:
            return 0.0
        wr = float(self.case5.superclass_ratio[0])
        return (self.case5.global_ratio**t - wr**t) / self.K


def theory_constants(model: GramModel, lam: float) -> TheoryConstants:
    """Derive the label-averaging eigen-ratios for an unperturbed model.

    The coupled-superclass extension (case V with ``e > 0``) admits scalar
    per-superclass constants only when all superclasses have equal size;
    unequal sizes leave the extension unset.
    """
    if lam <= 0.0:
        raise ValidationError("regularization strength must be positive")
    if model.perturbation_amplitude != 0.0:
        raise ValidationError("theory constants are defined for unperturbed models")
    K, n = model.K, model.n
    D = K * K * n * lam
    smap = model.effective_map()

    def ratio(eig: float) -> float:
        return eig / (D + eig)

    if model.case is GramCase.II:
        omega = model.omega
        return TheoryConstants(
            lam=lam,
            K=K,
            n=n,
            superclass_map=smap,
            per_class_p=np.array([ratio(1.0 - w) for w in omega]),
            per_class_q=np.array([ratio(1.0 - w + n * w) for w in omega]),
        )
    c = float(model.c)  # type: ignore[arg-type]
    d = model.d if model.case is not GramCase.I else 0.0
    a_p = 1.0 - c
    a_q = 1.0 - c + n * (c - d)
    sizes = smap.sizes
    r = np.array([ratio(a_q + ks * n * d) for ks in sizes])
    case5 = None
    if model.case is GramCase.V:
        if len(set(sizes)) == 1:
            ks = sizes[0]
            wr = np.array([ratio(a_q + ks * n * (d - model.e))] * len(sizes))
            wg = ratio(a_q + ks * n * (d - model.e) + K * n * model.e)
            case5 = Case5Constants(e=model.e, superclass_ratio=wr, global_ratio=wg)
        elif model.e == 0.0:
            case5 = Case5Constants(e=0.0, superclass_ratio=r.copy(), global_ratio=float(r[0]))
    return TheoryConstants(
        lam=lam,
        K=K,
        n=n,
        superclass_map=smap,
        p=ratio(a_p),
        q=ratio(a_q),
        r=r,
        case5=case5,
    )


def evolving_constants(
    schedule: Sequence[tuple[float, float]],
    lam: float,
    K: int,
    n: int,
    superclass_map: Optional[SuperclassMap] = None,
) -> list[TheoryConstants]:
    """Per-round constants for a feature map whose correlations evolve.

    Each schedule entry ``(c_i, d_i)`` yields one set of ratios; round ``t``
    then uses products of the per-round ratios in place of ``t``-th powers.
    """
    smap = superclass_map or SuperclassMap.trivial(K)
    out = []
    for i, (c_i, d_i) in enumerate(schedule, start=1):
        if not 1.0 > c_i > d_i >= 0.0:
            raise ValidationError(f"schedule entry {i} must satisfy 1 > c > d >= 0")
        case = GramCase.III if smap.num_superclasses == 1 else GramCase.IV
        model = GramModel(case=case, K=K, n=n, c=c_i, d=d_i, superclass_map=(
            smap if case is GramCase.IV else None))
        out.append(theory_constants(model, lam))
    return out


@dataclass(frozen=True)
class ConditionResult:
    """Outcome of a 100%-population-accuracy test."""

    achieves_100: bool
    failing_pairs: tuple[tuple[int, int], ...]
    threshold: float


def _strictly_exceeds(lhs: float, rhs: float) -> bool:
    """Strict inequality with a tie band: equality to 1e-12 is a failure."""
    if math.isinf(rhs):
        return rhs < 0
    return lhs - rhs > TIE_TOL


def _failing_cells(C: CorruptionMatrix, thr: float) -> list[tuple[int, int]]:
    """Realized mislabeled cells ``(k, k')`` (1-based, with mass) whose gap
    ``C[k,k] - C[k,k']`` does not strictly exceed ``thr``."""
    cells = [(k, kp) for k in range(1, C.K + 1) for kp in range(1, C.K + 1)
             if kp != k and C.entry(k, kp) > 0.0]
    return [(k, kp) for k, kp in cells
            if not _strictly_exceeds(C.entry(k, k) - C.entry(k, kp), thr)]


def _check_block_confined(C: CorruptionMatrix, smap: SuperclassMap):
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
    ``C[k,k] > C[k,k'] + 1/((q/p)^t - 1)`` together with ``C[k,k]``
    dominating every other row entry; clean cells need the same comparisons
    with the threshold on the favorable side.  Cells without mass impose no
    constraint, so the verdict is exactly "population accuracy equals 1".
    ``failing_pairs`` lists the realized cells whose threshold comparison
    fails (1-based).
    """
    if t < 1:
        raise ValidationError("distillation round must be >= 1")
    if C.K != tc.K:
        raise ValidationError("corruption matrix size does not match the constants")
    _check_block_confined(C, tc.superclass_map)
    thr = tc.threshold(t)
    failing = _failing_cells(C, thr)
    return ConditionResult(
        achieves_100=not failing, failing_pairs=tuple(failing), threshold=thr
    )


def minimal_rounds(C: CorruptionMatrix, tc: TheoryConstants) -> Optional[int]:
    """Smallest ``t`` at which the distilled model reaches 100% accuracy.

    Returns ``None`` when some realized cell has a non-positive gap, which
    no number of rounds can fix.  The closed-form candidate
    ``ceil(log(1 + 1/g) / log(q/p))`` is verified by re-evaluating the
    condition at ``t`` and ``t - 1``.
    """
    tc._require_scalar()
    ratio = tc.qp_ratio()
    if ratio <= 1.0:
        raise ValidationError("minimal rounds needs q > p (a positive class-contrast gap)")
    gaps = [
        C.entry(k, k) - C.entry(k, kp)
        for k in range(1, C.K + 1)
        for kp in range(1, C.K + 1)
        if kp != k and C.entry(k, kp) > 0.0
    ]
    if not gaps:
        return 1
    g = min(gaps)
    if g <= TIE_TOL:
        return None
    t = max(1, math.floor(math.log1p(1.0 / g) / math.log(ratio)) + 1)
    while not sd_accuracy_condition(C, tc, t).achieves_100:
        t += 1
        if t > 10_000:
            raise ValidationError("minimal rounds search failed to terminate")
    while t > 1 and sd_accuracy_condition(C, tc, t - 1).achieves_100:
        t -= 1
    return t


def pll_accuracy_condition(
    C: CorruptionMatrix, superclass_map: Optional[SuperclassMap] = None
) -> ConditionResult:
    """Does the one-round top-2 partial-label student reach 100% accuracy?

    True iff every diagonal entry strictly dominates its row.  This is what
    guarantees the teacher ranks the true label within its top two outputs
    for every sample.
    """
    if superclass_map is not None:
        _check_block_confined(C, superclass_map)
    failing = []
    for k in range(1, C.K + 1):
        for kp in range(1, C.K + 1):
            if kp != k and not _strictly_exceeds(C.entry(k, k) - C.entry(k, kp), 0.0):
                failing.append((k, kp))
    return ConditionResult(
        achieves_100=not failing, failing_pairs=tuple(failing), threshold=0.0
    )


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

    The fixed ratio power ``(q/p)^t`` becomes the product of per-round
    ratios ``q_i / p_i`` over ``i = 1..t``.  Per-round superclass ratios
    are derived alongside but do not enter the condition.
    """
    if t < 1:
        raise ValidationError("round must be >= 1")
    if len(schedule) < t:
        raise ValidationError(f"schedule has {len(schedule)} rounds, need at least {t}")
    rounds = evolving_constants(schedule, lam, K, n, superclass_map)
    smap = rounds[0].superclass_map
    _check_block_confined(C, smap)
    prod = 1.0
    for tc_i in rounds[:t]:
        prod *= tc_i.qp_ratio()
    thr = math.inf if prod <= 1.0 else 1.0 / (prod - 1.0)
    return not _failing_cells(C, thr)


def _tilde_label(C: CorruptionMatrix, k: int) -> int:
    """Most frequent wrong label of class ``k`` (lowest index on ties)."""
    row = C.entries[k - 1].copy()
    row[k - 1] = -np.inf
    return int(np.argmax(row)) + 1


def predicted_population_accuracy(
    C: CorruptionMatrix, tc: TheoryConstants, t: int, mode: str = "sd"
) -> float:
    """Population accuracy predicted by the piecewise closed forms.

    Sums, over the ``K x K`` cells of the corruption matrix, the cell mass
    times an indicator of correct classification.  In ``sd`` mode a clean
    cell of class ``k`` is correct iff the row gap stays above the negated
    round-``t`` threshold, and a mislabeled cell ``(k, k')`` additionally
    needs the gap to exceed the positive threshold with ``C[k,k]``
    dominating the rest of the row.  In ``pll`` mode the one-round top-2
    student is correct on a cell iff the top-2 target mass
    ``C[k,k] + max_{k' != k} C[k,k']`` stays below 1 (a tie otherwise), with
    cells mislabeled away from the dominant wrong label always correct.
    """
    if mode not in ("sd", "pll"):
        raise ValidationError(f"mode must be 'sd' or 'pll', got {mode!r}")
    if C.K != tc.K:
        raise ValidationError("corruption matrix size does not match the constants")
    _check_block_confined(C, tc.superclass_map)
    K = C.K
    total = 0.0
    if mode == "sd":
        if t < 1:
            raise ValidationError("distillation round must be >= 1")
        thr = tc.threshold(t)
        for k in range(1, K + 1):
            clean_ok = all(
                _strictly_exceeds(C.entry(k, k) - C.entry(k, kp), -thr)
                for kp in range(1, K + 1)
                if kp != k
            )
            if clean_ok:
                total += C.entry(k, k)
            for kp in range(1, K + 1):
                if kp == k or C.entry(k, kp) <= 0.0:
                    continue
                noisy_ok = _strictly_exceeds(C.entry(k, k) - C.entry(k, kp), thr) and all(
                    _strictly_exceeds(C.entry(k, k) - C.entry(k, kpp), 0.0)
                    for kpp in range(1, K + 1)
                    if kpp not in (k, kp)
                )
                if noisy_ok:
                    total += C.entry(k, kp)
    else:
        tc._require_scalar()
        for k in range(1, K + 1):
            tilde = _tilde_label(C, k)
            two_hot_ok = _strictly_exceeds(
                1.0, C.entry(k, k) + C.entry(k, tilde)
            )
            if two_hot_ok:
                total += C.entry(k, k)
            for kp in range(1, K + 1):
                if kp == k or C.entry(k, kp) <= 0.0:
                    continue
                if kp == tilde:
                    if two_hot_ok:
                        total += C.entry(k, kp)
                else:
                    if _strictly_exceeds(1.0, C.entry(k, kp)):
                        total += C.entry(k, kp)
    return total / K
