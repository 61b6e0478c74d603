"""Command-line harness for the synthetic experiments.

Subcommands::

    trajectory   per-round outputs, 2-D projections, operator spectrum
    phase        predicted vs empirical accuracy across corruption rates
    approx-error softmax linearization error across dataset sizes
    theory       constants, thresholds, verdicts as a JSON report
    ingest       correlation statistics and fitted constants from features

``trajectory``, ``phase`` and ``approx-error`` read the labels and rounds of
one :func:`~distillab.oracle.run_rounds` call per run or sweep point; what
each command does with the config's ``modes`` is listed in
:class:`~distillab.config.ExperimentConfig`.  ``run_rounds`` checks
``lam`` and realises the corruption before any file is written;
``approx-error`` snaps an off-grid corruption to the ``n``-grid, the other
two reject it.  The rounds come one per realised (true class, given label)
cell: ``phase`` scores them there, each weighted by its sample count, so on
an unperturbed model it builds no per-sample array and draws no labels;
``trajectory`` writes each sample's lines from its cell's text, formatted
once per cell.  Every command runs on all five Gram cases.  CSV numbers
have 12 significant digits and are byte-reproducible for a fixed
configuration and seed.  Exit codes: 0 success, 1 invalid input or an
output that cannot be written, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .config import ExperimentConfig
from .distillation import argmax_accuracy, averaging_operator
from .csvio import cannot_write, fmt, fmt_all, write_cell_rows, write_csv
from .errors import NumericalError, ValidationError
from .gram_models import FeatureMatrix, gram_statistics
from .noise_theory import (
    _gaps,
    minimal_rounds,
    pll_accuracy_condition,
    predicted_population_accuracy,
    sd_accuracy_condition,
    theory_constants,
)
from .oracle import measure_approx_error, run_rounds
# kept importable from here: bench/test_bench.py checks the tracer rebinds it
from .oracle import solve_round  # noqa: F401

__all__ = [
    "cmd_trajectory",
    "cmd_phase",
    "cmd_approx_error",
    "cmd_theory",
    "cmd_ingest",
    "simplex_projection",
    "main",
]


def _write_json(path, report: dict) -> None:
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise cannot_write(path, exc) from exc
    with fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def simplex_projection(columns: np.ndarray) -> np.ndarray:
    """Project output columns to 2-D: classes sit on a regular polygon.

    Class ``k`` occupies the unit-circle vertex at angle
    ``90 + 360 (k-1)/K`` degrees and each output is the convex combination
    of the vertices it weights (for K=4 the vertices form a square, one
    corner per one-hot vector).  A vertex on an axis is exact, ``0`` and
    ``+-1`` (all four for K=4, so there an output that weights two opposite
    classes equally projects to ``0`` across them).  Each point is summed
    class by class, so it depends on its own column alone, not on the
    columns beside it.
    """
    K = columns.shape[0]
    angles = np.pi / 2 + 2.0 * np.pi * np.arange(K) / K
    verts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    on_axis = 4 * np.arange(K) % K == 0
    # + 0.0 turns rint's -0.0 into 0.0
    verts[on_axis] = np.rint(verts[on_axis]) + 0.0
    return sum(np.outer(column, vert) for column, vert in zip(columns, verts))


def _out_path(directory: str, name: str) -> str:
    path = os.path.join(directory, name)
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise cannot_write(path, exc) from exc
    return path


def _check_sweep(config: ExperimentConfig, command: str) -> None:
    # phase sweeps over eta, approx-error over n, the other commands over nothing
    if config.sweep_parameter not in (None, {"phase": "eta", "approx-error": "n"}.get(command)):
        raise ValidationError(
            f"the {command} command does not sweep over {config.sweep_parameter}: drop "
            "sweep_parameter and sweep_values, or use phase (eta) or approx-error (n)")


def cmd_trajectory(config: ExperimentConfig) -> list[str]:
    """Write per-round outputs, the 2-D projection table, and the operator
    eigenvalue table; with the oracle mode enabled, also the exact outputs.

    Every result is computed before the first file is written, so a
    numerical failure writes nothing.  The rounds stay on the cells of the
    run, and each per-sample file goes through ``write_cell_rows``, sample
    ``i`` reading cell ``sample_cell[i]``; so does the eigenvalue table, one
    pass per round, its cells the distinct eigenvalues.  No per-sample
    output array or text is built.  The eigensystem and the Gram are
    dropped before the first file: no ``N x N`` array (a perturbed Gram or
    its factor) is alive while files are written."""
    _check_sweep(config, "trajectory")
    model = config.gram_model()
    C = config.corruption_matrix()
    run = run_rounds(model, C, config.lam, config.t_max, ("closed_form", *config.modes),
                     config.solver())
    # each round's distinct eigenvalues, told apart by their bits as fmt_all
    # tells numbers apart: the eigenvalue table's cells, index i reading
    # cell inverse[i]
    _, first, inverse = np.unique(run.eig.values.view(np.int64), return_index=True,
                                  return_inverse=True)
    spectra = [averaging_operator(run.eig, config.lam, t).eigenvalues[first]
               for t in range(config.t_max + 1)]
    cells, sample_cell = run.gram.cells, run.gram.sample_cell
    run = run._replace(eig=None, gram=None)
    written: list[str] = []

    def emit(name, fn):
        path = _out_path(config.output_dir, name)
        fn(path)
        written.append(path)

    def emit_rounds(name, mat):
        emit(name, lambda p: mat.to_csv(p, sample_cell))

    def projection_rows(mat):
        # per cell: its labels (whole numbers, which fmt prints as integers),
        # x, y, then its output column
        table = np.hstack([cells, simplex_projection(mat.columns), mat.columns.T])
        return (str(mat.round),), 1, fmt_all(table.ravel())

    emit("corruption.csv", C.to_csv)
    emit("labels.csv", run.assignment.to_csv)
    for mat in run.closed:
        emit_rounds(f"outputs_round_{mat.round:03d}.csv", mat)
    emit("projection.csv", lambda p: write_cell_rows(
        p, ["round", "sample_index", "true_label", "given_label", "x", "y",
            *(f"y_{k}" for k in range(1, model.K + 1))],
        map(projection_rows, run.closed), sample_cell))
    emit("eigenvalues.csv", lambda p: write_cell_rows(
        p, ("round", "index", "eigenvalue"),
        (((str(t),), 1, fmt_all(values)) for t, values in enumerate(spectra)), inverse))
    if run.student is not None:
        emit_rounds("pll_targets.csv", run.refined)
        emit_rounds("pll_outputs.csv", run.student)
    for result in run.oracle or ():
        emit_rounds(f"oracle_round_{result.outputs.round:03d}.csv", result.outputs)
        emit(f"oracle_round_{result.outputs.round:03d}.json",
             lambda p, r=result: _write_json(p, r.convergence_report()))
    return written


def _phase_point(payload: tuple[str, float]) -> list[list[str]]:
    config = ExperimentConfig.from_json(payload[0])
    eta = payload[1]
    model = config.gram_model()
    C = config.corruption_matrix(eta=eta)
    tc = theory_constants(model, config.lam)
    empirical: dict[object, float] = {}
    if {"closed_form", "pll", "oracle"} & set(config.modes):
        modes = config.modes
        if "oracle" in modes:
            # the oracle rounds replace the closed-form ones in the table
            modes = tuple(m for m in modes if m != "closed_form")
        try:
            run = run_rounds(model, C, config.lam, config.t_max, modes, config.solver())
        except (NumericalError, ValidationError) as exc:
            raise type(exc)(f"eta={eta}: {exc}") from exc
        # scored on the cells, each weighted by its sample count
        true, weights = run.gram.cells[:, 0], run.gram.weights
        outputs = run.closed[1:] if run.oracle is None else [r.outputs for r in run.oracle]
        for mat in outputs:
            empirical[mat.round] = argmax_accuracy(mat, true, weights)
        if run.student is not None:
            empirical["PLL"] = argmax_accuracy(run.student, true, weights)
    # one row per (model, round of its prediction, prediction mode)
    models = [(t, t, "sd") for t in range(1, config.t_max + 1)]
    models += [("PLL", 1, "pll")] if "pll" in config.modes else []
    return [[fmt(eta), str(key), fmt(predicted_population_accuracy(C, tc, t, mode)),
             fmt(empirical[key]) if key in empirical else ""]
            for key, t, mode in models]


def _sweep(config: ExperimentConfig, command: str, default, worker) -> list:
    """``worker`` on each value of the config's sweep, or on ``default``
    alone when the config sweeps nothing."""
    _check_sweep(config, command)
    if config.t_max < 1:
        raise ValidationError(f"{command} measures rounds 1..t_max, so it needs t_max >= 1")
    text = config.to_json()
    values = [default] if config.sweep_parameter is None else config.sweep_values
    payloads = [(text, v) for v in values]
    # the pool starts every worker at once, so no more than there are points
    workers = min(config.workers, len(payloads))
    if workers > 1:
        # imported here: the pool's modules cost every CLI start 13-20 ms
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, payloads))
    return [worker(p) for p in payloads]


def cmd_phase(config: ExperimentConfig) -> str:
    """Predicted and empirical accuracy per corruption rate and round."""
    chunks = _sweep(config, "phase", config.corruption.eta, _phase_point)
    path = _out_path(config.output_dir, "phase.csv")
    write_csv(path, ("eta", "model", "predicted_accuracy", "empirical_accuracy"),
              zip(*(row for chunk in chunks for row in chunk)))
    return path


def _approx_point(payload: tuple[str, float]) -> list[str]:
    config = ExperimentConfig.from_json(payload[0])
    n = int(payload[1])
    model = config.gram_model(n=n)
    C = config.corruption_matrix()
    try:
        gap = measure_approx_error(model, C, config.lam, config.t_max, config.solver())
        return [str(n), fmt(gap), "true"]
    except ValidationError as exc:
        raise ValidationError(f"n={n}: {exc}") from exc
    except NumericalError as exc:
        # the row only flags the failure; the reason goes to stderr
        print(f"approx-error n={n}: {exc}", file=sys.stderr)
        return [str(n), "", "false"]


def cmd_approx_error(config: ExperimentConfig) -> str:
    """Max-norm oracle-vs-closed-form gap per dataset size."""
    if "oracle" not in config.modes:
        raise ValidationError("the approx-error command needs the oracle mode enabled")
    rows = _sweep(config, "approx-error", config.gram.n, _approx_point)
    path = _out_path(config.output_dir, "approx_error.csv")
    write_csv(path, ("n", "max_linf_error", "converged"), zip(*rows))
    return path


def _per_class(values: np.ndarray):
    """One number when every class shares it, else the per-class list."""
    values = values.tolist()
    return values[0] if len(set(values)) == 1 else values


def cmd_theory(config: ExperimentConfig) -> str:
    """JSON report: constants, thresholds, verdicts, per-pair gaps."""
    _check_sweep(config, "theory")
    model = config.gram_model()
    C = config.corruption_matrix()
    tc = theory_constants(model, config.lam)
    t_star = minimal_rounds(C, tc)
    sd = {}
    for t in range(1, config.t_max + 1):
        res = sd_accuracy_condition(C, tc, t)
        sd[str(t)] = {
            "achieves_100": res.achieves_100,
            "threshold": _per_class(res.threshold),
            "failing_pairs": [list(p) for p in res.failing_pairs],
            "predicted_accuracy": predicted_population_accuracy(C, tc, t, "sd"),
        }
    pll = pll_accuracy_condition(C)
    gap, off = _gaps(C)
    pairs = [
        {"true_class": k + 1, "given_class": kp + 1,
         "mass": float(C.entries[k, kp]), "gap": float(gap[k, kp])}
        for k, kp in np.argwhere(off).tolist()
    ]
    report = {
        "K": model.K,
        "n": model.n,
        "lam": config.lam,
        "p": _per_class(tc.p),
        "q": _per_class(tc.q),
        "r": None if tc.r is None else tc.r.tolist(),
        "q_over_p": _per_class(tc.q / tc.p),
        "minimal_rounds": t_star if t_star is not None else "unreachable",
        "sd_conditions": sd,
        "pll": {
            "achieves_100": pll.achieves_100,
            "failing_pairs": [list(p) for p in pll.failing_pairs],
            "predicted_accuracy": predicted_population_accuracy(C, tc, 1, "pll"),
        },
        "pairs": pairs,
    }
    path = _out_path(config.output_dir, "theory.json")
    _write_json(path, report)
    return path


RATIO_TARGETS = (1.8, 2.0, 2.2)


def suggest_lambda(c: float, d: float, K: int, n: int, target: float) -> Optional[float]:
    """Regularization giving class-to-bulk ratio ``q/p == target``.

    Solves ``target = (a_q (D + a_p)) / (a_p (D + a_q))`` for
    ``D = K^2 n lam``; infeasible when the zero-regularization limit
    ``a_q / a_p`` does not reach the target.
    """
    a_p = 1.0 - c
    a_q = 1.0 - c + n * (c - d)
    if target <= 1.0 or a_q <= target * a_p:
        return None
    D = a_p * a_q * (target - 1.0) / (a_q - target * a_p)
    return D / (K * K * n)


def cmd_ingest(
    features_path: str,
    superclass_path: Optional[str],
    output_dir: str,
) -> str:
    """Correlation statistics, fitted constants, and workable regularization
    suggestions from an exported feature matrix."""
    features = FeatureMatrix.from_csv(features_path, superclass_path=superclass_path)
    stats = gram_statistics(features)
    labels = features.labels
    K = int(labels.max())
    # FeatureMatrix rejects labels with an absent class, so every count is positive
    n = int(np.median(np.bincount(labels)[1:]))
    c, d, e = (None if s is None else s["mean"] for s in stats.values())
    suggestions = []
    if c is not None and d is not None and c > d:
        for target in RATIO_TARGETS:
            lam = suggest_lambda(c, d, K, n, target)
            if lam is not None and lam > 0:
                suggestions.append({"q_over_p": target, "lam": lam})
    report = {
        "num_samples": int(labels.size),
        "K": K,
        "n": n,
        "statistics": stats,
        "fitted": {"c": c, "d": d, "e": e},
        "suggested_lambda": suggestions,
    }
    path = _out_path(output_dir, "ingest.json")
    _write_json(path, report)
    return path


def _load_config(args) -> ExperimentConfig:
    config = (
        ExperimentConfig.load(args.config)
        if args.config
        else ExperimentConfig()
    )
    overrides = list(args.set or [])
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.out is not None:
        overrides.append(f"output_dir={json.dumps(args.out)}")
    return config.with_overrides(overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distillab",
        description="Self-distillation label-averaging laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override any configuration leaf (repeatable)",
        )

    for name, help_text in [
        ("trajectory", "per-round outputs, projections, operator spectrum"),
        ("phase", "accuracy phase table across corruption rates"),
        ("approx-error", "softmax linearization error across dataset sizes"),
        ("theory", "constants, thresholds and verdicts as JSON"),
    ]:
        common(sub.add_parser(name, help=help_text))
    ingest = sub.add_parser("ingest", help="statistics from an exported feature matrix")
    ingest.add_argument("features", help="CSV of feature rows with a final label column")
    ingest.add_argument("--superclasses", default=None,
                        help="CSV of class_index,superclass_index lines")
    ingest.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "ingest":
            path = cmd_ingest(args.features, args.superclasses, args.out)
            print(path)
            return 0
        config = _load_config(args)
        if args.command == "trajectory":
            for path in cmd_trajectory(config):
                print(path)
        elif args.command == "phase":
            print(cmd_phase(config))
        elif args.command == "approx-error":
            print(cmd_approx_error(config))
        elif args.command == "theory":
            print(cmd_theory(config))
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
