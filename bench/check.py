"""Correctness gate for one workload run, checked by independent computation.

Usage (from the repository root)::

    python3 bench/check.py WORKLOAD CONFIG OUT_DIR   # one JSON verdict line
    python3 bench/check.py --environment             # numpy and BLAS in use

Runs as a separate process so that the timed children and the parent stay
free of its memory.  The verdict is ``{"attempted", "failed", "problems"}``:

* ``traj_structured``: every sample's output at every round equals the
  per-cell ``closed_form_output`` to 1e-9.
* ``oracle_nsweep``: every row reports ``converged=true`` and the gaps do not
  increase with ``n`` (1e-12 slack, as in acceptance criterion 6).
* ``phase_eta``: the rows and their predicted accuracies equal
  ``phase_eta_reference.csv`` (the ``phase`` output at the commit that added
  the benchmark; labels are realised exactly on the ``n``-grid there, so the
  table is the same for every seed).  Empirical accuracies equal the
  reference too, except on the rows of :data:`ROUNDING_DECIDED` and
  :data:`SUSPECT`.
* ``traj_dense_oracle``: every ``oracle_round_*.csv``, re-read, passes
  ``fixed_point_residual`` within the solver tolerance plus the effect of
  12-significant-digit rounding (see :func:`_rounding_allowance`).
"""

from __future__ import annotations

import csv
import ctypes
import glob
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from distillab import (  # noqa: E402
    ExperimentConfig,
    LabelAssignment,
    OutputMatrix,
    build_gram,
    closed_form_output,
    fixed_point_residual,
    theory_constants,
)
from distillab.errors import NumericalError, ValidationError  # noqa: E402

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "phase_eta_reference.csv")
CLOSED_FORM_TOL = 1e-9
PHASE_TOL = 1e-9
# (eta, model) rows whose empirical accuracy rounding decides: at eta=0 the
# theory predicts a tie (C[k,k] + C[k,k~] = 1), every sample's top-2 teacher
# entries are equal, and pll_refine and argmax_accuracy split them by exact
# comparison.  Relative noise of 1e-15 on the teacher outputs moves this row
# from 0.436 to 0.413; 1e-13 moves it to 1.  Only [0, 1] is checked here.
ROUNDING_DECIDED = {("0", "PLL")}
# Rows where the program's theory and its measurement disagree: the PLL
# student is predicted correct (1) but measured 0.  They are not rounding
# decided (relative noise of 1e-11 on the teacher outputs and the averaging
# operator leaves them at 0), so either the measured 0 or the prediction is
# accepted, and a fix of the disagreement does not fail the benchmark.
SUSPECT = {(eta, "PLL") for eta in ("0.7", "0.75", "0.8", "0.85", "0.9")}
# `.12g` keeps 12 significant digits: relative error at most 5e-12
CSV_RELATIVE_ROUNDING = 5e-12


def _rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [rec for rec in csv.reader(fh) if rec][1:]


def check_traj_structured(config: ExperimentConfig, out: str) -> tuple[int, list[str]]:
    model = config.gram_model()
    C = config.corruption_matrix()
    tc = theory_constants(model, config.lam)
    labels = LabelAssignment.from_csv(os.path.join(out, "labels.csv"))
    cells: dict[tuple[int, int], np.ndarray] = {}
    for y in range(1, model.K + 1):
        for yhat in range(1, model.K + 1):
            idx = np.flatnonzero((labels.true_labels == y) & (labels.given_labels == yhat))
            if idx.size:
                cells[(y, yhat)] = idx
    problems = []
    for t in range(config.t_max + 1):
        Y = OutputMatrix.from_csv(os.path.join(out, f"outputs_round_{t:03d}.csv"))
        if Y.num_samples != model.size:
            problems.append(f"round {t}: {Y.num_samples} samples, expected {model.size}")
            continue
        for cell, idx in cells.items():
            expected = closed_form_output(cell, C, tc, t)
            err = float(np.abs(Y.columns[:, idx] - expected[:, None]).max())
            if err > CLOSED_FORM_TOL:
                problems.append(f"round {t} cell {cell}: |output - closed form| = {err:.3e}")
    return (1 if problems else 0), problems


def check_oracle_nsweep(config: ExperimentConfig, out: str) -> tuple[int, list[str]]:
    rows = _rows(os.path.join(out, "approx_error.csv"))
    wanted = [int(v) for v in config.sweep_values]
    got = [int(r[0]) for r in rows]
    if got != wanted:
        return len(wanted), [f"rows for n={got}, expected {wanted}"]
    problems = []
    failed = 0
    previous = None
    for n, gap, converged in rows:
        if converged != "true":
            failed += 1
            problems.append(f"n={n}: converged={converged}")
            previous = None
            continue
        value = float(gap)
        if previous is not None and value > previous + 1e-12:
            failed += 1
            problems.append(f"n={n}: gap {value!r} exceeds the previous {previous!r}")
        previous = value
    return failed, problems


def _close(x: str, y: str) -> bool:
    return (x == "") == (y == "") and (not x or abs(float(x) - float(y)) <= PHASE_TOL)


def _phase_row_problem(row: list[str], ref: list[str]) -> str | None:
    """Why an output row ``eta,model,predicted,empirical`` fails, or None."""
    key = (ref[0], ref[1])
    if len(row) != 4 or (row[0], row[1]) != key:
        return f"row {row} where the reference has eta={key[0]} model={key[1]}"
    predicted, empirical = row[2], row[3]
    if not _close(predicted, ref[2]):
        return f"eta={key[0]} {key[1]}: predicted {predicted}, reference {ref[2]}"
    if key in ROUNDING_DECIDED:
        ok = empirical != "" and 0.0 <= float(empirical) <= 1.0
    elif key in SUSPECT:
        ok = _close(empirical, ref[3]) or _close(empirical, predicted)
    else:
        ok = _close(empirical, ref[3])
    return None if ok else f"eta={key[0]} {key[1]}: empirical {empirical}, reference {ref[3]}"


def check_phase_eta(config: ExperimentConfig, out: str) -> tuple[int, list[str]]:
    rows = _rows(os.path.join(out, "phase.csv"))
    reference = _rows(REFERENCE)
    if len(rows) != len(reference):
        return len(config.sweep_values), [f"{len(rows)} rows, reference {len(reference)}"]
    problems = []
    failed_etas = set()
    for row, ref in zip(rows, reference):
        problem = _phase_row_problem(row, ref)
        if problem is not None:
            problems.append(problem)
            failed_etas.add(ref[0])
    return len(failed_etas), problems


def _rounding_allowance(gram: np.ndarray, K: int, knlam: float) -> float:
    """Bound on how far 12-digit rounding moves the fixed-point residual.

    Each re-read entry (|y| <= 1) is off by at most 5e-12, and renormalising
    the K entries of a column to unit sum moves each by at most K times that,
    so every entry of ``Y`` and ``Y_prev`` is within ``delta = (K+1) 5e-12``.
    The residual ``Y - softmax(G (Y_prev - Y) / Knlam)`` then moves by at most
    ``delta`` directly plus half the logit shift (the softmax Jacobian has
    max-norm at most 1/2), and the logits shift by at most
    ``2 delta max_i sum_j |G_ij| / Knlam``.
    """
    delta = (K + 1) * CSV_RELATIVE_ROUNDING
    row_sum = float(np.abs(gram).sum(axis=1).max())
    return delta * (1.0 + row_sum / knlam)


def _read_columns(path) -> np.ndarray:
    cols = OutputMatrix.from_csv(path).columns
    return cols / cols.sum(axis=0, keepdims=True)


def check_traj_dense_oracle(config: ExperimentConfig, out: str) -> tuple[int, list[str]]:
    model = config.gram_model()
    gram = build_gram(model)
    K, n, lam = model.K, model.n, config.lam
    tol = config.solver_tolerance + _rounding_allowance(gram, K, K * n * lam)
    labels = LabelAssignment.from_csv(os.path.join(out, "labels.csv"))
    previous = OutputMatrix.from_labels(labels.given_labels, K).columns
    problems = []
    for t in range(1, config.t_max + 1):
        with open(os.path.join(out, f"oracle_round_{t:03d}.json")) as fh:
            if not json.load(fh)["converged"]:
                problems.append(f"round {t}: converged=false")
        Y = _read_columns(os.path.join(out, f"oracle_round_{t:03d}.csv"))
        try:
            worst = float(np.abs(fixed_point_residual(Y, previous, gram, lam, K, n)).max())
        except (NumericalError, ValidationError) as exc:
            problems.append(f"round {t}: {exc}")
        else:
            if worst > tol:
                problems.append(f"round {t}: residual {worst:.3e} > {tol:.3e}")
        previous = Y
    return (1 if problems else 0), problems


CHECKS = {
    "traj_structured": check_traj_structured,
    "oracle_nsweep": check_oracle_nsweep,
    "phase_eta": check_phase_eta,
    "traj_dense_oracle": check_traj_dense_oracle,
}


def check(workload: str, config_path: str, out: str) -> dict:
    config = ExperimentConfig.load(config_path)
    attempted = len(config.sweep_values) if config.sweep_values else 1
    try:
        failed, problems = CHECKS[workload](config, out)
    except (OSError, ValueError, KeyError, IndexError, NumericalError, ValidationError) as exc:
        failed, problems = attempted, [f"unreadable output: {exc!r}"]
    return {"attempted": attempted, "failed": failed, "problems": problems}


def _openblas():
    """numpy's bundled scipy-openblas library, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            return lib
    return None


def environment() -> dict:
    """numpy and its BLAS, with the thread count the BLAS actually uses."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
           "blas_threads": None, "blas_config": None}
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        env["blas_threads"] = int(lib.scipy_openblas_get_num_threads64_())
        env["blas_config"] = lib.scipy_openblas_get_config64_().decode()
    return env


def main(argv: list[str]) -> int:
    if argv == ["--environment"]:
        print(json.dumps(environment()))
        return 0
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    print(json.dumps(check(*argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
