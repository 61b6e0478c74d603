"""Closed-form multi-round distillation dynamics and the top-2 student.

Centered one-hot targets evolve under powers of the label-averaging
operator, whose eigenvalues are ``(lambda_i / (K^2 n lam + lambda_i))^t``
for the Gram eigenvalues ``lambda_i``.  Per-sample outputs admit closed
forms in the corruption matrix: a shrinking weight on the given label, a
growing weight on the class- and superclass-averaged labels, and a uniform
remainder.  The partial-label student replaces the teacher's soft output
with a two-hot vector on its top two entries.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .gram_models import EigenSystem, SuperclassMap
from .noise_theory import (
    TIE_TOL,
    CorruptionMatrix,
    TheoryConstants,
    _check_block_confined,
    _tilde_label,
    pll_accuracy_condition,
)

__all__ = [
    "OutputMatrix",
    "AveragingOperator",
    "PartialLabelMatrix",
    "PllOutput",
    "averaging_operator",
    "trajectory",
    "closed_form_output",
    "extended_output",
    "pll_refine",
    "pll_student",
    "pll_output",
    "argmax_accuracy",
]

COLUMN_SUM_TOL = 1e-9
NEGATIVE_EIGENVALUE_TOL = 1e-8


@dataclass(frozen=True)
class OutputMatrix:
    """Per-sample output distributions at one distillation round.

    ``columns[:, i]`` is sample ``i``'s length-``K`` output; every column
    sums to 1 within 1e-9 and round-0 matrices are one-hot.  Entries may go
    slightly negative under heavily perturbed Gram matrices; they are kept
    as-is (clamping would break the affine recursion) and surfaced through
    :attr:`min_entry`.
    """

    columns: np.ndarray
    round: int

    def __post_init__(self):
        cols = np.array(self.columns, dtype=float)
        if cols.ndim != 2:
            raise ValidationError("output matrix must be 2-D (K x samples)")
        if self.round < 0:
            raise ValidationError("round must be >= 0")
        sums = cols.sum(axis=0)
        worst = float(np.abs(sums - 1.0).max()) if cols.size else 0.0
        if worst > COLUMN_SUM_TOL:
            raise ValidationError(
                f"output columns must sum to 1 within {COLUMN_SUM_TOL:.0e}; worst {worst:.3e}"
            )
        if self.round == 0:
            one_hot = np.isin(cols, (0.0, 1.0)).all() and np.all(
                (cols == 1.0).sum(axis=0) == 1
            )
            if not one_hot:
                raise ValidationError("round-0 outputs must be one-hot given labels")
        cols.flags.writeable = False
        object.__setattr__(self, "columns", cols)

    @property
    def K(self) -> int:
        return self.columns.shape[0]

    @property
    def num_samples(self) -> int:
        return self.columns.shape[1]

    @property
    def min_entry(self) -> float:
        """Diagnostic: most negative output entry (0 or less is suspect)."""
        return float(self.columns.min())

    @classmethod
    def from_labels(cls, labels: np.ndarray, K: int) -> "OutputMatrix":
        """One-hot round-0 targets from 1-based given labels."""
        labels = np.asarray(labels, dtype=int)
        if labels.min(initial=1) < 1 or labels.max(initial=1) > K:
            raise ValidationError("labels must lie in 1..K")
        cols = np.zeros((K, labels.size))
        cols[labels - 1, np.arange(labels.size)] = 1.0
        return cls(columns=cols, round=0)

    def to_csv(self, path) -> None:
        _write_long_csv(path, self.columns, self.round)

    @classmethod
    def from_csv(cls, path) -> "OutputMatrix":
        cols, rnd = _read_long_csv(path)
        return cls(columns=cols, round=rnd)


def _write_long_csv(path, columns: np.ndarray, round_idx: int) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "sample_index", "class_index", "value"])
        K, m = columns.shape
        for i in range(m):
            for k in range(K):
                writer.writerow([round_idx, i, k + 1, f"{columns[k, i]:.12g}"])


def _read_long_csv(path) -> tuple[np.ndarray, int]:
    entries: dict[tuple[int, int], float] = {}
    rounds = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for rec in reader:
            if not rec:
                continue
            rounds.add(int(rec[0]))
            entries[(int(rec[2]), int(rec[1]))] = float(rec[3])
    if len(rounds) != 1:
        raise ValidationError(f"expected a single round per file, got {sorted(rounds)}")
    K = max(k for k, _ in entries)
    m = max(i for _, i in entries) + 1
    cols = np.zeros((K, m))
    for (k, i), v in entries.items():
        cols[k - 1, i] = v
    return cols, rounds.pop()


@dataclass(frozen=True)
class PartialLabelMatrix:
    """Two-hot targets: weight 1/2 on exactly two classes per sample."""

    columns: np.ndarray
    source_round: int = 1

    def __post_init__(self):
        cols = np.array(self.columns, dtype=float)
        if cols.ndim != 2:
            raise ValidationError("partial label matrix must be 2-D")
        ok = np.all(np.isin(cols, (0.0, 0.5))) and np.all((cols == 0.5).sum(axis=0) == 2)
        if not ok:
            raise ValidationError("each column must hold exactly two entries of 1/2")
        cols.flags.writeable = False
        object.__setattr__(self, "columns", cols)

    @property
    def K(self) -> int:
        return self.columns.shape[0]

    def to_csv(self, path) -> None:
        _write_long_csv(path, self.columns, self.source_round)


@dataclass(frozen=True)
class AveragingOperator:
    """The round-``t`` label-averaging matrix and its spectrum."""

    matrix: np.ndarray
    t: int
    lam: float
    eigenvalues: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        ev = np.array(self.eigenvalues, dtype=float)
        # the round-0 operator is the identity; from round 1 on the spectrum
        # contracts strictly below 1
        ceiling_ok = np.all(ev == 1.0) if self.t == 0 else np.all(ev < 1.0)
        if np.any(ev < 0.0) or not ceiling_ok:
            raise ValidationError("operator eigenvalues must lie in [0, 1)")
        m.flags.writeable = False
        ev.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "eigenvalues", ev)


def _operator_ratios(eig: EigenSystem, lam: float, K: int, n: int) -> np.ndarray:
    if lam <= 0.0:
        raise ValidationError("regularization strength must be positive")
    values = eig.values
    if np.any(values < -NEGATIVE_EIGENVALUE_TOL):
        raise ValidationError(
            f"Gram eigenvalue {values.min():.3e} below -{NEGATIVE_EIGENVALUE_TOL:.0e}; "
            "the averaging operator would leave [0, 1)"
        )
    clipped = np.clip(values, 0.0, None)
    return clipped / (K * K * n * lam + clipped)


def averaging_operator(
    eig: EigenSystem, lam: float, K: int, n: int, t: int
) -> AveragingOperator:
    """Spectral power of the one-round label-averaging map.

    Shares the Gram eigenvectors; eigenvalue ``lambda_i`` maps to
    ``(lambda_i / (K^2 n lam + lambda_i))^t``.  ``t = 0`` is the identity.
    Source eigenvalues below ``-1e-8`` are rejected; tiny negatives from a
    perturbed matrix are clipped to zero.
    """
    if t < 0:
        raise ValidationError("round must be >= 0")
    ratios = _operator_ratios(eig, lam, K, n)
    powered = ratios**t
    matrix = (eig.vectors * powered) @ eig.vectors.T
    return AveragingOperator(matrix=matrix, t=t, lam=lam, eigenvalues=powered)


def trajectory(
    Y0: OutputMatrix, eig: EigenSystem, lam: float, K: int, n: int, t_max: int
) -> list[OutputMatrix]:
    """Outputs for rounds ``0..t_max`` from one-hot given labels.

    Evaluates the eigen form: center the targets at the uniform vector,
    scale each eigencomponent by its round-``t`` operator eigenvalue, and
    shift back.
    """
    if Y0.round != 0:
        raise ValidationError("trajectory starts from round-0 one-hot targets")
    if Y0.num_samples != eig.size:
        raise ValidationError(
            f"output matrix has {Y0.num_samples} samples but the eigensystem has {eig.size}"
        )
    if t_max < 0:
        raise ValidationError("t_max must be >= 0")
    ratios = _operator_ratios(eig, lam, K, n)
    centered = Y0.columns - 1.0 / K
    basis = centered @ eig.vectors
    out = [Y0]
    for t in range(1, t_max + 1):
        cols = (basis * ratios**t) @ eig.vectors.T + 1.0 / K
        out.append(OutputMatrix(columns=cols, round=t))
    return out


def _superclass_uniform(smap: SuperclassMap, s: int, K: int) -> np.ndarray:
    vec = np.zeros(K)
    for k in smap.classes_of(s):
        vec[k - 1] = 1.0
    return vec / len(smap.classes_of(s))


def _check_sample(sample: tuple[int, int], K: int) -> tuple[int, int]:
    y, yhat = int(sample[0]), int(sample[1])
    if not (1 <= y <= K and 1 <= yhat <= K):
        raise ValidationError(f"sample labels must lie in 1..{K}, got {sample}")
    return y, yhat


def closed_form_output(
    sample: tuple[int, int],
    C: CorruptionMatrix,
    tc: TheoryConstants,
    t: int,
    superclass_map: Optional[SuperclassMap] = None,
) -> np.ndarray:
    """Round-``t`` output for a sample of true class ``y`` given label ``yhat``.

    ``p^t`` weights the given label, ``q^t - p^t`` the row of the corruption
    matrix (the class-averaged labels), ``r_s^t - q^t`` the uniform vector on
    the sample's superclass, and the remainder the global uniform vector.
    Models with per-class constants drop the superclass term and use the
    sample class's own ratio pair.  Coupled superclasses (nonzero
    inter-superclass correlation) are handled by :func:`extended_output`.
    """
    if t < 0:
        raise ValidationError("round must be >= 0")
    K = tc.K
    if C.K != K:
        raise ValidationError("corruption matrix size does not match the constants")
    smap = superclass_map or tc.superclass_map
    _check_block_confined(C, smap)
    y, yhat = _check_sample(sample, K)
    row = C.entries[y - 1]
    e_given = np.zeros(K)
    e_given[yhat - 1] = 1.0
    if not tc.scalar:
        p = float(tc.per_class_p[y - 1])
        q = float(tc.per_class_q[y - 1])
        return p**t * e_given + (q**t - p**t) * row + (1.0 - q**t) / K
    if tc.case5 is not None and tc.case5.e > 0.0:
        raise ValidationError(
            "constants describe coupled superclasses; use extended_output"
        )
    s = smap.superclass_of(y)
    p, q = float(tc.p), float(tc.q)
    r_s = float(tc.r[s - 1])
    return (
        p**t * e_given
        + (q**t - p**t) * row
        + (r_s**t - q**t) * _superclass_uniform(smap, s, K)
        + (1.0 - r_s**t) / K
    )


def extended_output(
    sample: tuple[int, int],
    C: CorruptionMatrix,
    tc: TheoryConstants,
    t: int,
) -> np.ndarray:
    """Per-sample closed form with coupled superclasses.

    The superclass-averaging weight becomes ``mu_s(t)`` and the uniform
    remainder ``1 - mu_s(t) - q^t``; at zero inter-superclass correlation
    ``mu_s(t) = r_s^t - q^t`` and this reduces to :func:`closed_form_output`.
    Scalar per-superclass weights exist only for equal-size superclasses,
    which :func:`~distillab.noise_theory.theory_constants` enforces.
    """
    if t < 0:
        raise ValidationError("round must be >= 0")
    if tc.case5 is None:
        raise ValidationError(
            "constants lack the coupled-superclass extension (it needs either "
            "zero inter-superclass correlation or equal superclass sizes)"
        )
    K = tc.K
    if C.K != K:
        raise ValidationError("corruption matrix size does not match the constants")
    smap = tc.superclass_map
    _check_block_confined(C, smap)
    y, yhat = _check_sample(sample, K)
    s = smap.superclass_of(y)
    row = C.entries[y - 1]
    e_given = np.zeros(K)
    e_given[yhat - 1] = 1.0
    p, q = float(tc.p), float(tc.q)
    mu = tc.mu(s, t)
    return (
        p**t * e_given
        + (q**t - p**t) * row
        + mu * _superclass_uniform(smap, s, K)
        + (1.0 - mu - q**t) / K
    )


def _within_tie_band(cols: np.ndarray) -> np.ndarray:
    """Entries within ``TIE_TOL`` of their column's maximum (all tied)."""
    return cols >= cols.max(axis=0) - TIE_TOL


def pll_refine(teacher: OutputMatrix) -> PartialLabelMatrix:
    """Two-hot refinement of the teacher's outputs.

    Each sample keeps its two largest output entries at weight 1/2 each.
    Entries within ``TIE_TOL`` (1e-12) of the largest remaining entry are
    tied, and ties go to the lowest class index, so rounding noise in the
    teacher cannot reorder classes the closed forms rank equal.
    """
    if teacher.K < 2:
        raise ValidationError("top-2 refinement needs at least two classes")
    samples = np.arange(teacher.num_samples)
    rest = teacher.columns.copy()
    cols = np.zeros_like(rest)
    for _ in range(2):
        # argmax of a boolean picks the lowest index in the tie band
        top = np.argmax(_within_tie_band(rest), axis=0)
        cols[top, samples] = 0.5
        rest[top, samples] = -np.inf
    return PartialLabelMatrix(columns=cols, source_round=teacher.round)


def pll_student(
    targets: PartialLabelMatrix, eig: EigenSystem, lam: float, K: int, n: int
) -> OutputMatrix:
    """Outputs of the student trained one round on two-hot ``targets``.

    Applies the one-round averaging operator to the centered targets:
    ``(targets - 1/K) @ A_1 + 1/K``, one round after the targets' source.
    """
    matrix = averaging_operator(eig, lam, K, n, 1).matrix
    student = (targets.columns - 1.0 / K) @ matrix + 1.0 / K
    return OutputMatrix(columns=student, round=targets.source_round + 1)


class PllOutput(NamedTuple):
    """Output of the one-round partial-label student for one sample.

    ``premise_ok`` is False when the corruption matrix violates the
    diagonal-dominance premise, in which case the teacher's top-2 set may
    miss the true label and the closed form is not guaranteed to apply.
    """

    vector: np.ndarray
    premise_ok: bool


def pll_output(
    sample: tuple[int, int],
    C: CorruptionMatrix,
    tc: TheoryConstants,
    superclass_map: Optional[SuperclassMap] = None,
) -> PllOutput:
    """Closed-form output of the student trained on top-2 refined targets.

    The sample's two-hot target pairs the true label with the dominant
    wrong label of its class (clean samples) or with the given label
    (mislabeled samples); class and superclass averages follow from the
    balanced corruption rows.
    """
    tc._require_scalar()
    K = tc.K
    if C.K != K:
        raise ValidationError("corruption matrix size does not match the constants")
    smap = superclass_map or tc.superclass_map
    _check_block_confined(C, smap)
    y, yhat = _check_sample(sample, K)
    tilde = _tilde_label(C, y)
    pair = tilde if yhat == y else yhat
    ybar = np.zeros(K)
    ybar[y - 1] += 0.5
    ybar[pair - 1] += 0.5
    class_avg = np.zeros(K)
    class_avg[y - 1] += 0.5
    class_avg[tilde - 1] += 0.5 * C.entry(y, y)
    for j in range(1, K + 1):
        if j != y:
            class_avg[j - 1] += 0.5 * C.entry(y, j)
    s = smap.superclass_of(y)
    p, q = float(tc.p), float(tc.q)
    r_s = float(tc.r[s - 1])
    vec = (
        p * ybar
        + (q - p) * class_avg
        + (r_s - q) * _superclass_uniform(smap, s, K)
        + (1.0 - r_s) / K
    )
    return PllOutput(vector=vec, premise_ok=pll_accuracy_condition(C).achieves_100)


def argmax_accuracy(outputs: OutputMatrix, true_labels: Sequence[int]) -> float:
    """Fraction of samples whose strict output argmax is the true label.

    Entries within ``TIE_TOL`` (1e-12) of the column maximum are tied with
    it, and a tie for the maximum counts as incorrect.
    """
    labels = np.asarray(true_labels, dtype=int)
    if labels.shape != (outputs.num_samples,):
        raise ValidationError("true labels must have one entry per sample")
    tied = _within_tie_band(outputs.columns)
    unique = tied.sum(axis=0) == 1
    hits = tied[labels - 1, np.arange(labels.size)]
    return float(np.mean(unique & hits)) if labels.size else 0.0
