"""Exact softmax fixed-point solver for one distillation round.

The optimal outputs of a round solve, column by column,

    y_i = softmax( sum_j gram[i, j] * (y_prev_j - y_j) / (K n lam) ),

with no linearization.  With dual coefficients ``A = Y_prev - Y`` and
logits ``Z = A G / c`` (``c = K n lam``) this is the stationarity condition
of the strictly convex kernel-logistic objective

    Phi(A) = sum_i logsumexp(Z_i) - <Y_prev, Z> + <A, Z> / 2,

whose gradient is ``(softmax(Z) - Y_prev + A) G / c`` (Keerthi et al., "A
fast dual algorithm for kernel logistic regression", 2005).  The solver
minimises ``Phi`` by damped inexact Newton steps: conjugate gradients in
the ``G``-inner product solve each Newton system, and a backtracking line
search on ``Phi`` damps the step.  Every round starts at the zero dual
``A = 0``, the uniform outputs ``softmax(0) = 1/K`` about which the
linearized rounds expand softmax, so the first Newton step is the
linearized round and the solver draws no random numbers.  Convergence is declared on the max-norm
residual of the fixed-point equation itself, evaluated at
``Y = softmax(Z)``.

On an unperturbed Gram ``Phi`` is invariant under permutations within a
(true class, given label) cell, so its minimiser is constant on each cell
and the solver runs on the ``m <= K^2`` realised cells
(:class:`~distillab.gram_models.CellGram`), every sum over samples weighted
by the cell counts, at a cost independent of ``n``.  On a perturbed model
each sample is its own cell, of weight 1, on the dense Gram.
:func:`oracle_trajectory` chains the rounds; a round that does not converge
stops the chain with a :class:`NumericalError`.  A temperature ``tau`` on
the logits gives the fixed point at ``lam * tau``, so the solver takes none.

:func:`run_rounds` is the one pipeline of the ``trajectory``, ``phase`` and
``approx-error`` commands: on the cells of one set of realised labels it
runs the closed-form rounds, the top-2 student and the chained oracle
rounds that its modes ask for, the oracle on a helper thread only beside
dense (perturbed) closed-form stages.  :func:`measure_approx_error`
compares the oracle rounds with the run's own closed-form rounds, the
linearized rounds ``1/K + ((Y - 1/K) G)(G + K^2 n lam I)^-1``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .distillation import OutputMatrix, PartialLabelMatrix, pll_refine, pll_student, trajectory
from .errors import NumericalError, ValidationError
from .gram_models import (CellGram, EigenSystem, GramModel, analytic_eigensystem, cell_gram,
                          numeric_eigensystem)
from .noise_theory import (CorruptionMatrix, LabelAssignment, _check_lam,
                           nearest_realizable, realize_labels)

__all__ = [
    "SolverConfig",
    "OracleResult",
    "softmax",
    "fixed_point_residual",
    "solve_round",
    "Rounds",
    "oracle_trajectory",
    "run_rounds",
    "measure_approx_error",
]

ZERO_MEAN_LOGIT_TOL = 1e-9
PHI_ROUNDING = 1e-12  # relative; a larger rise of Phi lets the iterates cycle
# backtracking stops here and takes its last, 2**-29-scaled trial step
_MAX_HALVINGS = 30


def softmax(v: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of each column."""
    v = np.asarray(v, dtype=float)
    z = v - v.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


@dataclass(frozen=True)
class SolverConfig:
    """Settings for the Newton-CG fixed-point solver.

    ``max_iterations`` caps the Newton steps of one round.  ``tolerance``
    is the max-norm fixed-point residual below which the round counts as
    converged, positive and finite.  ``seed`` places the labels in
    :func:`run_rounds`; the solver does not read it, since every round starts
    at the zero dual, whose first Newton step is the linear round.
    """

    max_iterations: int = 50_000
    tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tolerance < np.inf:
            raise ValidationError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be positive")


@dataclass(frozen=True)
class OracleResult:
    """Solver outcome: outputs plus convergence diagnostics."""

    outputs: OutputMatrix
    converged: bool
    final_loss: float
    iterations_used: int

    def __post_init__(self):
        if self.converged and not self.final_loss < np.inf:
            raise ValidationError("a converged result must carry a finite residual")

    def convergence_report(self) -> dict:
        """JSON-ready summary of the solve (outputs live in their own CSV)."""
        return {
            "converged": self.converged,
            "final_loss": self.final_loss,
            "iterations_used": self.iterations_used,
        }


def _residual(Y: np.ndarray, Y_prev: np.ndarray, matrix: np.ndarray,
              c: float) -> tuple[np.ndarray, np.ndarray]:
    """The fixed-point residual and the coupled logits it was taken at."""
    logits = ((Y_prev - Y) @ matrix) / c
    # holds whenever both output matrices keep unit column sums, as on every
    # solver iterate
    col = float(np.abs(logits.sum(axis=0)).max()) if logits.size else 0.0
    if not np.isfinite(col):
        raise NumericalError("non-finite logits in residual evaluation")
    if col > ZERO_MEAN_LOGIT_TOL * max(1.0, float(np.abs(logits).max())):
        raise NumericalError(f"logit columns drifted off zero mean: {col:.3e}")
    return Y - softmax(logits), logits


def fixed_point_residual(
    Y: np.ndarray,
    Y_prev: np.ndarray,
    gram: np.ndarray,
    lam: float,
    K: int,
    n: int,
) -> np.ndarray:
    """Residual ``Y - softmax_map(Y)`` of the fixed-point equation.

    Also asserts the zero-mean-logit invariant: coupled logits of unit-sum
    output columns sum to zero per sample.
    """
    return _residual(Y, Y_prev, gram, K * n * lam)[0]


def _dual_objective(A: np.ndarray, Z: np.ndarray, Y_prev: np.ndarray,
                    weights: np.ndarray | float = 1.0) -> float:
    """``Phi(A)`` from its logits ``Z = A G / c``, each column counted
    ``weights`` times."""
    top = Z.max(axis=0)
    lse = top + np.log(np.exp(Z - top).sum(axis=0))
    return float((lse * weights).sum() - (Y_prev * Z * weights).sum()
                 + 0.5 * (A * Z * weights).sum())


def _newton_direction(r: np.ndarray, rG: np.ndarray, S: np.ndarray, matrix: np.ndarray,
                      weights: np.ndarray | float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Inexact solution ``d`` of ``d + J_S(d G) / c = -r`` and its ``d G``.

    The operator is self-adjoint and positive definite in
    ``<x, y>_G = tr(x G W y^T)`` (``W`` the column weights) when ``G`` is,
    so conjugate gradients run in that inner product; carrying ``p G`` next
    to each direction ``p`` costs one product with ``matrix`` per step.
    Stops once ``||res||_G <= min(0.5, ||r||_G^(1/2)) ||r||_G``.
    """
    d, dG = np.zeros_like(r), np.zeros_like(r)
    res, resG = -r, -rG
    p, pG = res, resG
    rho = rho0 = float((res * resG * weights).sum())
    for _ in range(r.size):
        pGp = float((p * pG * weights).sum())
        if pGp <= 0.0:
            raise NumericalError(
                f"Gram matrix is not positive definite: CG direction has "
                f"tr(p G p^T) = {pGp:.3e}"
            )
        # softmax Jacobian applied columnwise to the direction's logits
        sp = S * pG
        Mp = p + (sp - S * sp.sum(axis=0)) / c
        alpha = rho / float((pG * Mp * weights).sum())
        d, dG = d + alpha * p, dG + alpha * pG
        res = res - alpha * Mp
        resG = res @ matrix
        rho_new = float((res * resG * weights).sum())
        if rho_new <= min(0.25, rho0 ** 0.5) * rho0:
            break
        beta, rho = rho_new / rho, rho_new
        p, pG = res + beta * p, resG + beta * pG
    return d, dG


def solve_round(Y_prev: OutputMatrix, gram: CellGram, lam: float, K: int, n: int,
                config: Optional[SolverConfig] = None) -> OracleResult:
    """Solve one distillation round's softmax fixed point exactly.

    ``gram`` is a :class:`CellGram`: one column of ``Y_prev`` per cell,
    each weighted by its count in ``Phi`` and every inner product (a dense
    Gram is a cell per sample, of weight 1); the outputs keep that layout.

    Starts at the zero dual ``A = 0``, where ``Z = 0`` and
    ``softmax(Z) = 1/K``, the point where the rounds are linearized, and
    takes damped Newton-CG steps on the convex objective ``Phi`` of the
    module docstring.  There the Newton system on zero-sum columns reads
    ``d (I + G / (K c)) = Y_prev - 1/K``, so ``Y_prev - d`` is the linear
    round ``1/K + ((Y_prev - 1/K) G)(G + K^2 n lam I)^-1``: the first exact
    step lands on the closed-form round, and the later ones add the softmax
    correction.
    A step is accepted when it passes an Armijo test on ``Phi`` or halves the
    max-norm gradient residual ``A - (Y_prev - softmax(Z))`` with ``Phi``
    risen by no more than rounding; the second test carries the last steps,
    where differences of ``Phi`` fall below rounding.  Stops when the
    max-norm fixed-point residual at ``Y = softmax(Z)`` drops below the
    tolerance or after ``max_iterations`` Newton steps (returning the best
    iterate found, flagged unconverged).  A non-finite residual reports the
    iteration at which it appeared; a Gram matrix that is not positive
    definite raises :class:`NumericalError`.
    """
    config = config or SolverConfig()
    matrix, weights = gram.matrix, gram.weights
    if matrix.shape != (Y_prev.num_samples, Y_prev.num_samples):
        raise ValidationError("Gram matrix size does not match the previous outputs")
    if lam <= 0.0:
        raise ValidationError("regularization strength must be positive")
    c = K * n * lam
    Yp = Y_prev.columns
    A = Z = np.zeros(Yp.shape)  # the zero dual; no step updates either in place
    best_S, best_linf = None, np.inf
    iterations = 0
    while True:
        S = softmax(Z)
        R, logits = _residual(S, Yp, matrix, c)
        linf = float(np.abs(R).max())
        if not np.isfinite(linf):
            raise NumericalError(f"residual became non-finite at iteration {iterations}")
        if linf < best_linf:
            best_S, best_linf = S, linf
        if linf < config.tolerance or iterations == config.max_iterations:
            break
        r = A - Yp + S
        # r G = A G - (Y_prev - S) G, both products already at hand
        rG = c * (Z - logits)
        d, dG = _newton_direction(r, rG, S, matrix, weights, c)
        phi = _dual_objective(A, Z, Yp, weights)
        slope = float((rG * d * weights).sum()) / c
        r_max = float(np.abs(r).max())
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            A_new, Z_new = A + step * d, Z + (step / c) * dG
            phi_new = _dual_objective(A_new, Z_new, Yp, weights)
            if (phi_new <= phi + 1e-4 * step * slope
                    or (phi_new <= phi + PHI_ROUNDING * abs(phi)
                        and np.abs(A_new - Yp + softmax(Z_new)).max() <= 0.5 * r_max)):
                break
            step *= 0.5
        A, Z = A_new, Z_new
        iterations += 1
    return OracleResult(
        outputs=OutputMatrix(columns=best_S, round=Y_prev.round + 1),
        converged=bool(best_linf < config.tolerance),
        final_loss=best_linf,
        iterations_used=iterations,
    )


def oracle_trajectory(Y0: OutputMatrix, gram: CellGram, lam: float, K: int, n: int, t_max: int,
                      config: Optional[SolverConfig] = None) -> list[OracleResult]:
    """Oracle results for rounds ``1..t_max``, each solved from the previous
    round's oracle outputs (round 1 from ``Y0``).  A round that fails to
    converge raises :class:`NumericalError` naming the round, its residual
    and its iteration count."""
    results: list[OracleResult] = []
    current = Y0
    for t in range(1, t_max + 1):
        result = solve_round(current, gram, lam, K, n, config)
        if not result.converged:
            raise NumericalError(
                f"oracle failed to converge at round {t} (residual "
                f"{result.final_loss:.3e} after {result.iterations_used} iterations)"
            )
        results.append(result)
        current = result.outputs
    return results


class Rounds(NamedTuple):
    """What :func:`run_rounds` computed on one set of realised labels (a stage
    its modes skip is ``None``): the closed-form rounds ``0..t_max`` on
    ``eig``, the top-2 targets and student, and the oracle rounds, each from
    the one-hot given labels of the cells of ``gram`` and with one column
    per cell; sample ``i`` reads column ``gram.sample_cell[i]``."""

    assignment: LabelAssignment
    eig: Optional[EigenSystem]
    closed: Optional[list[OutputMatrix]]
    refined: Optional[PartialLabelMatrix]
    student: Optional[OutputMatrix]
    gram: CellGram
    oracle: Optional[list[OracleResult]]


def _beside(side, main):
    """``(side(), main())``, with ``side`` on one helper thread while ``main``
    runs on the caller's.  The thread is joined before anything returns or
    raises; when both raise, ``main``'s exception wins.  Only for the oracle
    beside a dense closed-form stage, where overlap pays."""
    outcome = []

    def target():
        try:
            outcome.append((side(), None))
        except BaseException as exc:  # re-raised on the caller's thread below
            outcome.append((None, exc))

    helper = threading.Thread(target=target, name="distillab-oracle", daemon=True)
    helper.start()
    try:
        main_value = main()
    finally:
        helper.join()
    side_value, exc = outcome[0]
    if exc is not None:
        raise exc
    return side_value, main_value


def run_rounds(model: GramModel, C: CorruptionMatrix, lam: float, t_max: int,
               modes: Sequence[str], solver: SolverConfig, snap: bool = False) -> Rounds:
    """Realise ``C``'s label counts and run the rounds ``modes`` ask for.

    Every stage runs on the :func:`~distillab.gram_models.cell_gram` of the
    labels: the realised cells of an unperturbed model, weighted by their
    counts, so no stage builds a per-sample array, and a cell per sample on
    the dense Gram of a perturbed one.  ``closed_form`` runs the closed-form
    rounds ``1..t_max``, ``pll`` the top-2 student (and the rounds it
    refines) and ``oracle`` the chained oracle rounds under ``solver``;
    other modes are ignored.  The closed-form stages read the analytic
    eigensystem of an unperturbed model, and the dense one of a perturbed
    model's Gram: its eigenvalues and one Cholesky factor of the shifted
    Gram, shared by the rounds and the student, so each dense stage holds
    the Gram plus at most one ``N x N`` working array; the returned
    :class:`Rounds` holds both as long as it lives.  ``lam`` is checked
    first.  ``solver.seed`` places the labels; a ``C`` off the ``n``-sample
    grid raises, or with ``snap`` runs on :func:`nearest_realizable`.

    The oracle rounds run on one helper thread only beside dense
    closed-form stages (a perturbed model), whose eigensystem and factor
    take time worth overlapping; on cells, where they take microseconds,
    every stage runs on the caller's thread.  The oracle only reads the
    read-only Gram and draws no random numbers, so the outputs are the
    same either way.  The thread is joined before this returns or raises,
    and a closed-form error wins over an oracle error.
    """
    _check_lam(model, lam)
    K, n = model.K, model.n
    try:
        assignment = realize_labels(C, n, seed=solver.seed)
    except ValidationError:
        if not snap:
            raise
        assignment = realize_labels(nearest_realizable(C, n), n, seed=solver.seed)
    gram = cell_gram(model, assignment)
    Y0 = OutputMatrix.from_labels(gram.cells[:, 1], K)
    wants_closed = "closed_form" in modes or "pll" in modes

    def closed_stage():
        if not wants_closed:
            return None, None, None, None
        if not model.perturbation_amplitude:
            eig = analytic_eigensystem(model)
        else:
            eig = numeric_eigensystem(gram.matrix)
        closed = trajectory(Y0, eig, lam, K, n, t_max, gram)
        if "pll" not in modes:
            return eig, closed, None, None
        refined = pll_refine(closed[1])
        return eig, closed, refined, pll_student(refined, eig, lam, K, n, gram)

    def oracle_stage():
        return oracle_trajectory(Y0, gram, lam, K, n, t_max, solver)

    if "oracle" in modes and wants_closed and model.perturbation_amplitude:
        oracle, (eig, closed, refined, student) = _beside(oracle_stage, closed_stage)
    else:
        eig, closed, refined, student = closed_stage()
        oracle = oracle_stage() if "oracle" in modes else None
    return Rounds(assignment, eig, closed, refined, student, gram, oracle)


def measure_approx_error(
    gram_model: GramModel,
    C: CorruptionMatrix,
    lam: float,
    t: int,
    config: Optional[SolverConfig] = None,
) -> float:
    """Max-norm gap between the exact oracle and the linearized rounds.

    Runs the oracle and closed-form rounds ``1..t`` of :func:`run_rounds`
    on ``C``, snapped to the ``n``-grid when off it, and compares them round
    by round: on the caller's thread on an unperturbed model, beside the
    oracle's helper thread on a perturbed one, whose dense eigensystem
    rejects an indefinite Gram.  Raises when the oracle fails to converge.
    """
    if t < 1:
        raise ValidationError("need at least one round to measure")
    run = run_rounds(gram_model, C, lam, t, ("oracle", "closed_form"), config or SolverConfig(),
                     snap=True)
    return max(float(np.abs(result.outputs.columns - linear.columns).max())
               for result, linear in zip(run.oracle, run.closed[1:]))
