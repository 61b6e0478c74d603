"""Closed-form multi-round distillation dynamics and the top-2 student.

Centered one-hot targets evolve under powers of the label-averaging
operator, whose eigenvalues are the ``t``-th powers of
:func:`~distillab.noise_theory.eigen_ratio` of the Gram eigenvalues.  A
round is written once per layout.  On an unperturbed Gram it is
:func:`_class_round`, on columns that each stand for a weighted number of
samples of one class: a run's realised (true class, given label) cells
(:class:`~distillab.gram_models.CellGram`), the ``K^2`` cells of
:func:`cell_outputs`, or single samples; on cells it costs ``O(K^3)``,
whatever ``n``.  On a dense (perturbed) Gram, where each sample is its own
cell, it is the chain :func:`~distillab.gram_models._shifted_rounds` on one
Cholesky factor of the shifted Gram.  :func:`_rounds` chains either layout.
The partial-label student replaces the teacher's soft output with a two-hot
vector on its top two entries; :func:`argmax_accuracy` weights each cell by
its count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, cycle
from typing import Iterator, Optional, Sequence

import numpy as np

from .csvio import fmt_all, read_csv, write_cell_rows
from .errors import ValidationError
from .gram_models import CellGram, EigenSystem, GramModel, _head_columns, _shifted_rounds
from .noise_theory import (
    TIE_TOL,
    CorruptionMatrix,
    TheoryConstants,
    eigen_ratio,
)

__all__ = [
    "OutputMatrix",
    "AveragingOperator",
    "PartialLabelMatrix",
    "averaging_operator",
    "trajectory",
    "cell_outputs",
    "closed_form_output",
    "pll_refine",
    "pll_student",
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
        if not worst <= COLUMN_SUM_TOL:  # a NaN sum fails it
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

    def to_csv(self, path, sample_cell: Optional[np.ndarray] = None) -> None:
        """One row per (sample, class), sample ``i`` reading column
        ``sample_cell[i]`` (column ``i`` when not given)."""
        _write_long_csv(path, self.columns, self.round, sample_cell)

    @classmethod
    def from_csv(cls, path) -> "OutputMatrix":
        table = read_csv(path, float, header=True)
        rounds = np.unique(table[:, 0]).astype(int).tolist()
        if len(rounds) != 1:
            raise ValidationError(f"expected a single round per file, got {rounds}")
        sample, k = table[:, 1].astype(int), table[:, 2].astype(int)
        if sample.min() < 0 or k.min() < 1:
            raise ValidationError(f"{path}: sample indices start at 0 and class indices at 1")
        K = k.max()
        listed = np.bincount(sample * K + k - 1, minlength=(sample.max() + 1) * K)
        if np.any(listed != 1):
            s, c = divmod(int(np.argmax(listed != 1)), K)
            raise ValidationError(f"{path}: (sample {s}, class {c + 1}) has {listed[s * K + c]} "
                                  "rows; give each pair exactly one")
        cols = np.zeros((K, sample.max() + 1))
        cols[k - 1, sample] = table[:, 3]
        return cls(columns=cols, round=rounds[0])


def _write_long_csv(path, columns: np.ndarray, round_idx: int,
                    sample_cell: Optional[np.ndarray]) -> None:
    """One ``round,sample_index,class_index,value`` row per entry, sample
    major: each sample index ``K`` times, the class index cycling ``1..K``
    and the values of the sample's column of ``columns``, ``sample_cell[i]``
    for sample ``i`` (``i`` when not given), each column formatted once."""
    K, m = columns.shape
    fields = zip(cycle([str(k) for k in range(1, K + 1)]), fmt_all(columns.T.ravel()))
    write_cell_rows(path, ("round", "sample_index", "class_index", "value"),
                    [((str(round_idx),), K, chain.from_iterable(fields))],
                    np.arange(m) if sample_cell is None else sample_cell)


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

    def to_csv(self, path, sample_cell: Optional[np.ndarray] = None) -> None:
        """As :meth:`OutputMatrix.to_csv`, in the round of the targets' source."""
        _write_long_csv(path, self.columns, self.source_round, sample_cell)


@dataclass(frozen=True)
class AveragingOperator:
    """The round-``t`` label-averaging operator ``A_t``, kept factored.

    :meth:`apply` maps centered rows ``X`` to ``X A_t``, the last of the
    rounds ``1..t`` of :func:`_rounds`.  Its spectrum :attr:`eigenvalues`,
    ``rho^t`` of the Gram spectrum of ``eig`` (see :func:`averaging_operator`),
    and its ``N x N`` :attr:`matrix`, ``apply(I)``, are built on first read.
    """

    t: int
    eig: EigenSystem
    lam: float

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The read-only ``rho^t``, in the order of ``eig.values``."""
        ev = _ratios(self.eig.values, self.lam, self.eig.K, self.eig.n) ** self.t
        # the round-0 operator is the identity; from round 1 on the spectrum
        # contracts strictly below 1
        ceiling_ok = np.all(ev == 1.0) if self.t == 0 else np.all(ev < 1.0)
        if np.any(ev < 0.0) or not ceiling_ok:
            raise ValidationError("operator eigenvalues must lie in [0, 1)")
        ev.flags.writeable = False
        return ev

    def apply(self, centered: np.ndarray, cells: Optional[CellGram] = None) -> np.ndarray:
        """``centered @ A_t`` as a new array, one column per sample or per
        cell of ``cells``; exactly ``centered`` at ``t = 0``."""
        out = np.array(centered, dtype=float)
        for out in _rounds(self.eig, self.lam, out, self.t, cells):
            pass
        return out

    @cached_property
    def matrix(self) -> np.ndarray:
        """The read-only ``N x N`` matrix ``apply(I)``, on first read only."""
        matrix = self.apply(np.eye(self.eig.size))
        matrix.flags.writeable = False
        return matrix


def _check_spectrum(eig: EigenSystem, lam: float) -> None:
    """:func:`_ratios`' checks on a dense system's values, or on the head
    values of a class-structured one (its bulk ``1 - omega`` is positive)."""
    _ratios(eig.values if eig.model is None else _head_columns(eig.model)[0], lam, eig.K, eig.n)


def _ratios(values: np.ndarray, lam: float, K: int, n: int) -> np.ndarray:
    if lam <= 0.0:
        raise ValidationError("regularization strength must be positive")
    if np.any(values < -NEGATIVE_EIGENVALUE_TOL):
        raise ValidationError(
            f"Gram eigenvalue {values.min():.3e} below -{NEGATIVE_EIGENVALUE_TOL:.0e}; "
            "the averaging operator would leave [0, 1): lower gram.perturbation_amplitude "
            "until the Gram is positive semidefinite"
        )
    return eigen_ratio(np.clip(values, 0.0, None), lam, K, n)


def _class_block(model: GramModel, lam: float, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The round-``t`` averaging of an unperturbed ``model`` on classes.

    With ``f = rho^t`` and ``m`` the centered class means, a sample of class
    ``k`` with centered label ``y`` goes to ``bulk[k] y + (m @ block)[k]``:
    ``bulk = f(1 - omega)`` shrinks it toward its class mean, and
    ``block = coeffs diag(f(eta)) coeffs^T - diag(bulk)`` mixes the means,
    with ``eta``, ``coeffs`` the class-constant eigenpairs of
    :func:`~distillab.gram_models._head_columns`.
    """
    K, n = model.K, model.n
    head_values, coeffs = _head_columns(model)
    bulk = _ratios(1.0 - model.omega, lam, K, n) ** t
    block = (coeffs * _ratios(head_values, lam, K, n) ** t) @ coeffs.T - np.diag(bulk)
    return bulk, block


def _class_round(rows: np.ndarray, classes: np.ndarray, weights: np.ndarray | float,
                 model: GramModel, lam: float, t: int) -> np.ndarray:
    """Round ``t`` of centered ``K x m`` ``rows`` on an unperturbed ``model``,
    ``(((rows * weights) @ E) @ block) @ E^T + bulk[classes] * rows`` with
    ``E = eye(K)[classes] / sqrt(n)`` and :func:`_class_block`'s ``bulk``
    and ``block``.  Column ``j`` stands for ``weights[j]`` samples of true
    class ``classes[j]`` (0-based): 1 per sample, the count per cell of a
    ``CellGram`` and ``n C[k, k']`` per cell of :func:`cell_outputs`."""
    bulk, block = _class_block(model, lam, t)
    E = np.eye(model.K)[classes] / np.sqrt(model.n)
    return (((rows * weights) @ E) @ block) @ E.T + bulk[classes] * rows


def _rounds(eig: EigenSystem, lam: float, centered: np.ndarray, t_max: int,
            cells: Optional[CellGram] = None) -> Iterator[np.ndarray]:
    """Rounds ``1..t_max`` of centered ``K x m`` rows on ``eig``, one new array
    each: :func:`_class_round` on a class-structured system, its columns the
    samples or the weighted ``cells``; the chain of
    :func:`~distillab.gram_models._shifted_rounds` with the cached
    :meth:`~distillab.gram_models.EigenSystem.factor` on a dense one.  The
    eigenvalue guard runs first; ``t_max = 0`` factors nothing."""
    _check_spectrum(eig, lam)
    if eig.model is not None:
        classes, weights = ((eig.model.class_of_sample() - 1, 1.0) if cells is None
                            else (cells.cells[:, 0] - 1, cells.weights))
        for t in range(1, t_max + 1):
            yield _class_round(centered, classes, weights, eig.model, lam, t)
    elif t_max:
        shift = eig.K * eig.K * eig.n * lam
        yield from _shifted_rounds(eig.gram, eig.factor(shift), shift, centered, t_max)


def averaging_operator(eig: EigenSystem, lam: float, t: int) -> AveragingOperator:
    """Spectral power of the one-round label-averaging map.

    Its ``eigenvalues`` are the Gram's, each ``lambda_i`` mapped to
    ``rho_i^t = (lambda_i / (K^2 n lam + lambda_i))^t`` with the ``K`` and
    ``n`` of ``eig``.  ``t = 0`` is exactly the identity.  Source eigenvalues
    below ``-1e-8`` are rejected before anything is factored; tiny negatives
    from a perturbed matrix are clipped to zero in ``eigenvalues``.

    :meth:`~AveragingOperator.apply` takes the rounds of :func:`_rounds`:
    :func:`_class_round` on a class-structured eigensystem (one that holds
    its ``model``), ``O(K^2 m)`` on ``m`` columns; on a dense one ``t``
    chained rounds, ``O(K N^2)`` each, with the eigensystem's Cholesky
    factor of the shifted Gram, computed on the first apply with ``t >= 1``
    and shared by every operator at that ``lam``.  Building an operator
    factors nothing and computes no ``O(N)`` array.
    """
    if t < 0:
        raise ValidationError("round must be >= 0")
    _check_spectrum(eig, lam)
    return AveragingOperator(t=t, eig=eig, lam=lam)


def trajectory(Y0: OutputMatrix, eig: EigenSystem, lam: float, t_max: int,
               cells: Optional[CellGram] = None) -> list[OutputMatrix]:
    """Outputs for rounds ``0..t_max`` from one-hot given labels of
    ``eig.K`` classes, one column per sample or per cell of ``cells``.

    Centers the targets at the uniform vector, takes the rounds of
    :func:`_rounds` and shifts back: the same arithmetic as the round-``t``
    operator of :func:`averaging_operator` applied to round 0.
    """
    if Y0.round != 0:
        raise ValidationError("trajectory starts from round-0 one-hot targets")
    if Y0.K != eig.K:
        raise ValidationError(f"targets have {Y0.K} classes, the eigensystem {eig.K}")
    size = eig.size if cells is None else cells.weights.size
    if Y0.num_samples != size:
        raise ValidationError(f"output matrix has {Y0.num_samples} columns, the layout {size}")
    if t_max < 0:
        raise ValidationError("t_max must be >= 0")
    rounds = enumerate(_rounds(eig, lam, Y0.columns - 1.0 / eig.K, t_max, cells), 1)
    return [Y0, *(OutputMatrix(columns=rows + 1.0 / eig.K, round=t) for t, rows in rounds)]


def cell_outputs(
    targets: np.ndarray, C: CorruptionMatrix, tc: TheoryConstants, t: int
) -> np.ndarray:
    """Round-``t`` outputs of every (true class, given label) cell.

    ``targets[:, k, k']`` is the label vector shared by the samples of true
    class ``k + 1`` given label ``k' + 1`` (0-based array indices), and
    ``C`` weights the cells of each class.  It is :func:`_class_round` on
    the ``K^2`` centered targets, cell ``(k, k')`` weighted ``n C[k, k']``::

        out[:, k, k'] = bulk[k] (targets[:, k, k'] - 1/K) + (M block)[:, k] + 1/K

    with the centered class means ``M[:, k] = sum_k' C[k, k'] (targets[:,
    k, k'] - 1/K)``.  That is exact for all five Gram cases and any ``C``
    whose cells the samples realise, at a cost of ``O(K^3)`` independent of
    ``n``; at ``t = 0`` the targets are returned unchanged.
    """
    if t < 0:
        raise ValidationError("round must be >= 0")
    K = tc.model.K
    if C.K != K:
        raise ValidationError("corruption matrix size does not match the constants")
    targets = np.array(targets, dtype=float)
    if targets.shape != (K, K, K):
        raise ValidationError(f"cell targets must have shape {(K, K, K)}, got {targets.shape}")
    if t == 0:
        return targets
    rows = (targets - 1.0 / K).reshape(K, K * K)
    out = _class_round(rows, np.repeat(np.arange(K), K), tc.model.n * C.entries.ravel(),
                       tc.model, tc.lam, t)
    return out.reshape(K, K, K) + 1.0 / K


def _check_sample(sample: tuple[int, int], K: int) -> tuple[int, int]:
    y, yhat = int(sample[0]), int(sample[1])
    if not (1 <= y <= K and 1 <= yhat <= K):
        raise ValidationError(f"sample labels must lie in 1..{K}, got {sample}")
    return y, yhat


def closed_form_output(
    sample: tuple[int, int], C: CorruptionMatrix, tc: TheoryConstants, t: int
) -> np.ndarray:
    """Round-``t`` output for a sample of true class ``y`` given label ``yhat``.

    The ``(y, yhat)`` cell of :func:`cell_outputs` on one-hot targets, so it
    holds for every Gram case, coupled and unequal superclasses included,
    and for any ``C`` with the model's ``K`` classes, noise across
    superclasses included; only the phase conditions need that noise
    confined within superclasses.
    """
    K = tc.model.K
    y, yhat = _check_sample(sample, K)
    one_hot = np.broadcast_to(np.eye(K)[:, None, :], (K, K, K))
    return cell_outputs(one_hot, C, tc, t)[:, y - 1, yhat - 1]


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


def pll_student(targets: PartialLabelMatrix, eig: EigenSystem, lam: float,
                cells: Optional[CellGram] = None) -> OutputMatrix:
    """Outputs of the student trained one round on two-hot ``targets`` of
    ``eig.K`` classes (one column per sample or per cell of ``cells``).

    Applies the one-round averaging operator to the centered targets:
    ``(targets - 1/K) @ A_1 + 1/K``, one round after the targets' source.
    """
    if targets.K != eig.K:
        raise ValidationError(f"targets have {targets.K} classes, the eigensystem {eig.K}")
    student = averaging_operator(eig, lam, 1).apply(targets.columns - 1.0 / eig.K, cells)
    return OutputMatrix(columns=student + 1.0 / eig.K, round=targets.source_round + 1)


def argmax_accuracy(outputs: OutputMatrix, true_labels: Sequence[int],
                    weights: Optional[np.ndarray] = None) -> float:
    """Fraction of samples whose strict output argmax is the true label,
    column ``j`` standing for ``weights[j]`` samples (1 when not given).

    Entries within ``TIE_TOL`` (1e-12) of the column maximum are tied with
    it, and a tie for the maximum counts as incorrect.
    """
    labels = np.asarray(true_labels, dtype=int)
    if labels.shape != (outputs.num_samples,):
        raise ValidationError("true labels must have one entry per column")
    tied = _within_tie_band(outputs.columns)
    correct = (tied.sum(axis=0) == 1) & tied[labels - 1, np.arange(labels.size)]
    return float(np.average(correct, weights=weights)) if labels.size else 0.0
