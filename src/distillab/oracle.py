"""Exact softmax fixed-point solver for one distillation round.

The optimal outputs of a round solve, column by column,

    y_i = softmax( sum_j gram[i, j] * (y_prev_j - y_j) / (K n lam) ),

with no linearization.  The solver minimises the squared Frobenius norm of
the fixed-point residual by gradient descent through the exact softmax
Jacobian; step sizes come from a Barzilai-Borwein estimate safeguarded by
a nonmonotone backtracking line search, so the update direction is always
the plain gradient.  Convergence is declared on the max-norm residual.

Multi-round runs chain the rounds in :func:`oracle_trajectory`, each round
solved from the previous round's oracle outputs; a round that does not
converge stops the chain with a :class:`NumericalError`.  The solver doubles
as the ground-truth oracle for measuring how far the linearized closed forms
drift from the true softmax outputs, and for checking that temperature
scaling leaves the optimum unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distillation import OutputMatrix, _operator_ratios, trajectory
from .errors import NumericalError, ValidationError
from .gram_models import GramModel, build_gram, eigensystem, numeric_eigensystem
# kept importable from here: bench/test_bench.py checks the tracer rebinds it
from .gram_models import analytic_eigensystem  # noqa: F401
from .noise_theory import CorruptionMatrix, nearest_realizable, realize_labels

__all__ = [
    "SolverConfig",
    "OracleResult",
    "softmax",
    "linearized_softmax",
    "fixed_point_residual",
    "objective_and_gradient",
    "solve_round",
    "oracle_trajectory",
    "measure_approx_error",
]

ZERO_MEAN_LOGIT_TOL = 1e-9


def softmax(v: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Numerically stable softmax with temperature ``tau``."""
    if tau <= 0.0:
        raise ValidationError("temperature must be positive")
    v = np.asarray(v, dtype=float)
    z = v / tau
    z = z - z.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def linearized_softmax(v: np.ndarray) -> np.ndarray:
    """First-order softmax surrogate ``1/K + v/K`` for zero-mean logits."""
    v = np.asarray(v, dtype=float)
    total = float(np.abs(v.sum(axis=0)).max()) if v.size else 0.0
    if total > ZERO_MEAN_LOGIT_TOL:
        raise ValidationError(
            f"logits must be zero-mean to {ZERO_MEAN_LOGIT_TOL:.0e}; column sum {total:.3e}"
        )
    K = v.shape[0]
    return 1.0 / K + v / K


@dataclass(frozen=True)
class SolverConfig:
    """Settings for the fixed-point solver.

    ``learning_rate`` seeds the step size; the line search rescales it per
    iteration.  ``tolerance`` is the max-norm residual below which the
    round counts as converged.  ``warm_start`` initialises at the
    linearized closed-form prediction instead of random normalized columns.
    """

    learning_rate: float = 0.5
    max_iterations: int = 50_000
    tolerance: float = 1e-10
    seed: int = 0
    warm_start: bool = False
    nonmonotone_window: int = 10

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValidationError("learning rate must be positive")
        if self.tolerance <= 0.0:
            raise ValidationError("tolerance must be positive")
        if self.max_iterations < 1 or self.nonmonotone_window < 1:
            raise ValidationError("iteration counts must be positive")


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


def _logits(Y: np.ndarray, Y_prev: np.ndarray, gram: np.ndarray, knlam: float,
            tau: float, check_zero_mean: bool) -> np.ndarray:
    logits = tau * ((Y_prev - Y) @ gram) / knlam
    if check_zero_mean:
        # holds whenever both output matrices keep unit column sums, i.e. on
        # every solver iterate; off-manifold probes skip it
        col = float(np.abs(logits.sum(axis=0)).max()) if logits.size else 0.0
        if not np.isfinite(col):
            raise NumericalError("non-finite logits in residual evaluation")
        if col > ZERO_MEAN_LOGIT_TOL * max(1.0, float(np.abs(logits).max())):
            raise NumericalError(f"logit columns drifted off zero mean: {col:.3e}")
    return logits


def fixed_point_residual(
    Y: np.ndarray,
    Y_prev: np.ndarray,
    gram: np.ndarray,
    lam: float,
    K: int,
    n: int,
    tau: float = 1.0,
) -> np.ndarray:
    """Residual ``Y - softmax_map(Y)`` of the fixed-point equation.

    Also asserts the zero-mean-logit invariant: coupled logits of unit-sum
    output columns sum to zero per sample.
    """
    knlam = K * n * lam
    logits = _logits(Y, Y_prev, gram, knlam, tau, check_zero_mean=True)
    return Y - softmax(logits, tau)


def objective_and_gradient(
    Y: np.ndarray,
    Y_prev: np.ndarray,
    gram: np.ndarray,
    lam: float,
    K: int,
    n: int,
    tau: float = 1.0,
    check_zero_mean: bool = False,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Squared-Frobenius residual loss, its exact gradient, and the residual.

    The gradient passes through the softmax Jacobian: with residual
    ``R = Y - S`` and ``S`` the softmax of the coupled logits,
    ``grad = 2 R + (2 / (K n lam)) * (J S applied to R) @ gram``.
    """
    knlam = K * n * lam
    logits = _logits(Y, Y_prev, gram, knlam, tau, check_zero_mean)
    S = softmax(logits, tau)
    R = Y - S
    loss = float((R * R).sum())
    # softmax Jacobian applied columnwise: J_i r = s*(r - s.r); temperature
    # scales the Jacobian by 1/tau and the logits by tau, which cancels.
    sr = S * R
    jac_r = sr - S * sr.sum(axis=0, keepdims=True)
    grad = 2.0 * R + (2.0 / knlam) * (jac_r @ gram)
    return loss, grad, R


def _initial_iterate(
    Y_prev: OutputMatrix,
    gram: np.ndarray,
    lam: float,
    K: int,
    n: int,
    config: SolverConfig,
) -> np.ndarray:
    if config.warm_start:
        eig = numeric_eigensystem(gram)
        # single linearized step from the previous outputs
        ratios = _operator_ratios(eig, lam, K, n)
        centered = Y_prev.columns - 1.0 / K
        return (centered @ eig.vectors * ratios) @ eig.vectors.T + 1.0 / K
    rng = np.random.default_rng(config.seed)
    raw = rng.uniform(0.0, 1.0, size=Y_prev.columns.shape)
    return raw / raw.sum(axis=0, keepdims=True)


def solve_round(
    Y_prev: OutputMatrix,
    gram: np.ndarray,
    lam: float,
    K: int,
    n: int,
    config: Optional[SolverConfig] = None,
    tau: float = 1.0,
) -> OracleResult:
    """Solve one distillation round's softmax fixed point exactly.

    Starts from seed-deterministic normalized uniform random columns,
    iterates gradient steps on the squared residual, and stops when the
    max-norm residual drops below the tolerance or the iteration budget
    runs out (returning the best iterate found, flagged unconverged).
    A non-finite loss reports the iteration at which it appeared.
    """
    config = config or SolverConfig()
    gram = np.asarray(gram, dtype=float)
    if gram.shape != (Y_prev.num_samples, Y_prev.num_samples):
        raise ValidationError("Gram matrix size does not match the previous outputs")
    if lam <= 0.0:
        raise ValidationError("regularization strength must be positive")
    Y = _initial_iterate(Y_prev, gram, lam, K, n, config)
    Yp = Y_prev.columns
    loss, grad, R = objective_and_gradient(Y, Yp, gram, lam, K, n, tau,
                                           check_zero_mean=True)
    best_Y, best_linf = Y, float(np.abs(R).max())
    history = [loss]
    step = config.learning_rate
    iterations = 0
    for it in range(config.max_iterations):
        if not np.isfinite(loss):
            raise NumericalError(f"loss became non-finite at iteration {it}")
        linf = float(np.abs(R).max())
        if linf < best_linf:
            best_Y, best_linf = Y, linf
        if linf < config.tolerance:
            return OracleResult(
                outputs=OutputMatrix(columns=Y, round=Y_prev.round + 1),
                converged=True,
                final_loss=linf,
                iterations_used=iterations,
            )
        gnorm2 = float((grad * grad).sum())
        reference = max(history[-config.nonmonotone_window :])
        trial = step
        for _ in range(60):
            Y_new = Y - trial * grad
            loss_new, grad_new, R_new = objective_and_gradient(
                Y_new, Yp, gram, lam, K, n, tau, check_zero_mean=True
            )
            if np.isfinite(loss_new) and loss_new <= reference - 1e-4 * trial * gnorm2:
                break
            trial *= 0.5
        # Barzilai-Borwein secant step for the next iteration
        sk = (Y_new - Y).ravel()
        yk = (grad_new - grad).ravel()
        curvature = float(sk @ yk)
        if curvature > 0.0:
            step = float((sk @ sk) / curvature)
        else:
            step = trial * 2.0
        step = min(max(step, 1e-14), 10.0)
        Y, loss, grad, R = Y_new, loss_new, grad_new, R_new
        history.append(loss)
        iterations = it + 1
    linf = float(np.abs(R).max())
    if linf < best_linf:
        best_Y, best_linf = Y, linf
    return OracleResult(
        outputs=OutputMatrix(columns=best_Y, round=Y_prev.round + 1),
        converged=bool(best_linf < config.tolerance),
        final_loss=best_linf,
        iterations_used=iterations,
    )


def oracle_trajectory(
    Y0: OutputMatrix,
    gram: np.ndarray,
    lam: float,
    K: int,
    n: int,
    t_max: int,
    config: Optional[SolverConfig] = None,
) -> list[OracleResult]:
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


def measure_approx_error(
    gram_model: GramModel,
    C: CorruptionMatrix,
    lam: float,
    t: int,
    config: Optional[SolverConfig] = None,
) -> float:
    """Max-norm gap between the exact oracle and the linearized closed form.

    Realizes the corruption exactly (snapping to the nearest realizable
    matrix when the requested rates are not integral on the ``n``-grid),
    runs the oracle round by round (each round chained on the previous
    oracle outputs), and compares every round up to ``t`` against the
    closed-form trajectory from the same one-hot targets.  Raises when the
    oracle fails to converge at some round.
    """
    if t < 1:
        raise ValidationError("need at least one round to measure")
    config = config or SolverConfig()
    try:
        assignment = realize_labels(C, gram_model.n, seed=config.seed)
    except ValidationError:
        # n-grid infeasible: measure on the nearest realizable corruption
        # (both the oracle and the closed form consume the same labels)
        snapped = nearest_realizable(C, gram_model.n)
        assignment = realize_labels(snapped, gram_model.n, seed=config.seed)
    K, n = gram_model.K, gram_model.n
    Y0 = OutputMatrix.from_labels(assignment.given_labels, K)
    closed = trajectory(Y0, eigensystem(gram_model), lam, K, n, t)
    rounds = oracle_trajectory(Y0, build_gram(gram_model), lam, K, n, t, config)
    return max(
        float(np.abs(r.outputs.columns - c.columns).max())
        for r, c in zip(rounds, closed[1:])
    )
