"""Command-line harness for the synthetic experiments.

Subcommands::

    trajectory   per-round outputs, 2-D projections, operator spectrum
    phase        predicted vs empirical accuracy across corruption rates
    approx-error softmax linearization error across dataset sizes
    theory       constants, thresholds, verdicts as a JSON report
    ingest       correlation statistics and fitted constants from features

All numeric CSV output uses 12 significant digits and is byte-reproducible
for a fixed configuration and seed.  Exit codes: 0 success, 1 invalid
input, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Sequence

import numpy as np

from .config import ExperimentConfig
from .distillation import (
    OutputMatrix,
    argmax_accuracy,
    averaging_operator,
    pll_refine,
    pll_student,
    trajectory,
)
from .errors import NumericalError, ValidationError
from .gram_models import FeatureMatrix, build_gram, eigensystem, gram_statistics
from .noise_theory import (
    minimal_rounds,
    pll_accuracy_condition,
    predicted_population_accuracy,
    realize_labels,
    sd_accuracy_condition,
    theory_constants,
)
from .oracle import measure_approx_error, oracle_trajectory
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


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_csv(path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def simplex_projection(columns: np.ndarray) -> np.ndarray:
    """Project output columns to 2-D: classes sit on a regular polygon.

    Class ``k`` occupies the unit-circle vertex at angle
    ``90 + 360 (k-1)/K`` degrees and each output is the convex combination
    of the vertices it weights (for K=4 the vertices form a square, one
    corner per one-hot vector).
    """
    K = columns.shape[0]
    angles = np.pi / 2 + 2.0 * np.pi * np.arange(K) / K
    verts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return columns.T @ verts


def cmd_trajectory(config: ExperimentConfig) -> list[str]:
    """Write per-round outputs, the 2-D projection table, and the operator
    eigenvalue table; with the oracle mode enabled, also the exact outputs."""
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    model = config.gram_model()
    C = config.corruption_matrix()
    assignment = realize_labels(C, model.n, seed=config.seed)
    eig = eigensystem(model)
    Y0 = OutputMatrix.from_labels(assignment.given_labels, model.K)
    traj = trajectory(Y0, eig, config.lam, model.K, model.n, config.t_max)
    written: list[str] = []

    def emit(name, fn):
        path = os.path.join(out, name)
        fn(path)
        written.append(path)

    emit("corruption.csv", C.to_csv)
    emit("labels.csv", assignment.to_csv)
    for t, mat in enumerate(traj):
        emit(f"outputs_round_{t:03d}.csv", mat.to_csv)
    proj_rows = []
    for t, mat in enumerate(traj):
        xy = simplex_projection(mat.columns)
        for i in range(mat.num_samples):
            proj_rows.append(
                [t, i, int(assignment.true_labels[i]), int(assignment.given_labels[i]),
                 _fmt(xy[i, 0]), _fmt(xy[i, 1])]
                + [_fmt(v) for v in mat.columns[:, i]]
            )
    emit(
        "projection.csv",
        lambda p: _write_csv(
            p,
            ["round", "sample_index", "true_label", "given_label", "x", "y"]
            + [f"y_{k}" for k in range(1, model.K + 1)],
            proj_rows,
        ),
    )
    eig_rows = []
    for t in range(config.t_max + 1):
        op = averaging_operator(eig, config.lam, model.K, model.n, t)
        for idx, val in enumerate(sorted(op.eigenvalues, reverse=True)):
            eig_rows.append([t, idx, _fmt(val)])
    emit(
        "eigenvalues.csv",
        lambda p: _write_csv(p, ["round", "index", "eigenvalue"], eig_rows),
    )
    if "pll" in config.modes and config.t_max >= 1:
        refined = pll_refine(traj[1])
        emit("pll_targets.csv", refined.to_csv)
        student = pll_student(refined, eig, config.lam, model.K, model.n)
        emit("pll_outputs.csv", student.to_csv)
    if "oracle" in config.modes:
        rounds = oracle_trajectory(
            Y0, build_gram(model), config.lam, model.K, model.n, config.t_max,
            config.solver(),
        )
        for t, result in enumerate(rounds, start=1):
            report = result.convergence_report()
            emit(f"oracle_round_{t:03d}.csv", result.outputs.to_csv)
            emit(f"oracle_round_{t:03d}.json", lambda p, r=report: _write_json(p, r))
    return written


def _phase_point(payload: tuple[str, float]) -> list[list[str]]:
    config = ExperimentConfig.from_json(payload[0])
    eta = payload[1]
    model = config.gram_model()
    C = config.corruption_matrix(eta=eta)
    tc = theory_constants(model, config.lam)
    rows: list[list[str]] = []
    empirical: dict[object, float] = {}
    if "closed_form" in config.modes or "oracle" in config.modes:
        assignment = realize_labels(C, model.n, seed=config.seed)
        eig = eigensystem(model)
        Y0 = OutputMatrix.from_labels(assignment.given_labels, model.K)
        traj = trajectory(Y0, eig, config.lam, model.K, model.n, config.t_max)
        outputs = traj[1:]
        if "oracle" in config.modes:
            try:
                rounds = oracle_trajectory(
                    Y0, build_gram(model), config.lam, model.K, model.n,
                    config.t_max, config.solver(),
                )
            except NumericalError as exc:
                raise NumericalError(f"eta={eta}: {exc}") from exc
            outputs = [result.outputs for result in rounds]
        for t, mat in enumerate(outputs, start=1):
            empirical[t] = argmax_accuracy(mat, assignment.true_labels)
        if "pll" in config.modes:
            student = pll_student(pll_refine(traj[1]), eig, config.lam, model.K, model.n)
            empirical["PLL"] = argmax_accuracy(student, assignment.true_labels)
    for t in range(1, config.t_max + 1):
        pred = predicted_population_accuracy(C, tc, t, "sd")
        emp = empirical.get(t)
        rows.append([_fmt(eta), str(t), _fmt(pred), "" if emp is None else _fmt(emp)])
    if "pll" in config.modes:
        pred = predicted_population_accuracy(C, tc, 1, "pll")
        emp = empirical.get("PLL")
        rows.append([_fmt(eta), "PLL", _fmt(pred), "" if emp is None else _fmt(emp)])
    return rows


def _run_sweep(config: ExperimentConfig, values, worker):
    payloads = [(config.to_json(), v) for v in values]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            return list(pool.map(worker, payloads))
    return [worker(p) for p in payloads]


def cmd_phase(config: ExperimentConfig) -> str:
    """Predicted and empirical accuracy per corruption rate and round."""
    if config.sweep_parameter == "eta":
        values = list(config.sweep_values)
    elif config.sweep_parameter is None:
        values = [config.corruption.eta]
    else:
        raise ValidationError("the phase command sweeps over eta")
    os.makedirs(config.output_dir, exist_ok=True)
    chunks = _run_sweep(config, values, _phase_point)
    path = os.path.join(config.output_dir, "phase.csv")
    _write_csv(
        path,
        ["eta", "model", "predicted_accuracy", "empirical_accuracy"],
        [row for chunk in chunks for row in chunk],
    )
    return path


def _approx_point(payload: tuple[str, float]) -> list[str]:
    config = ExperimentConfig.from_json(payload[0])
    n = int(payload[1])
    model = config.gram_model(n=n)
    C = config.corruption_matrix()
    try:
        gap = measure_approx_error(
            model, C, config.lam, max(1, config.t_max), config.solver()
        )
        return [str(n), _fmt(gap), "true"]
    except NumericalError:
        return [str(n), "", "false"]


def cmd_approx_error(config: ExperimentConfig) -> str:
    """Max-norm oracle-vs-closed-form gap per dataset size."""
    if "oracle" not in config.modes:
        raise ValidationError("the approx-error command needs the oracle mode enabled")
    if config.sweep_parameter == "n":
        values = list(config.sweep_values)
    elif config.sweep_parameter is None:
        values = [config.gram.n]
    else:
        raise ValidationError("the approx-error command sweeps over n")
    os.makedirs(config.output_dir, exist_ok=True)
    rows = _run_sweep(config, values, _approx_point)
    path = os.path.join(config.output_dir, "approx_error.csv")
    _write_csv(path, ["n", "max_linf_error", "converged"], rows)
    return path


def cmd_theory(config: ExperimentConfig) -> str:
    """JSON report: constants, thresholds, verdicts, per-pair gaps."""
    os.makedirs(config.output_dir, exist_ok=True)
    model = config.gram_model()
    C = config.corruption_matrix()
    tc = theory_constants(model, config.lam)
    ratio = tc.qp_ratio()
    t_star = minimal_rounds(C, tc)
    sd = {}
    for t in range(1, config.t_max + 1):
        res = sd_accuracy_condition(C, tc, t)
        sd[str(t)] = {
            "achieves_100": res.achieves_100,
            "threshold": res.threshold,
            "failing_pairs": [list(p) for p in res.failing_pairs],
            "predicted_accuracy": predicted_population_accuracy(C, tc, t, "sd"),
        }
    pll = pll_accuracy_condition(C)
    pairs = []
    for k in range(1, C.K + 1):
        for kp in range(1, C.K + 1):
            if kp == k:
                continue
            pairs.append(
                {
                    "true_class": k,
                    "given_class": kp,
                    "mass": C.entry(k, kp),
                    "gap": C.entry(k, k) - C.entry(k, kp),
                }
            )
    report = {
        "K": model.K,
        "n": model.n,
        "lam": config.lam,
        "p": tc.p,
        "q": tc.q,
        "r": [float(x) for x in tc.r],
        "q_over_p": ratio,
        "minimal_rounds": t_star if t_star is not None else "unreachable",
        "sd_conditions": sd,
        "pll": {
            "achieves_100": pll.achieves_100,
            "failing_pairs": [list(p) for p in pll.failing_pairs],
            "predicted_accuracy": predicted_population_accuracy(C, tc, 1, "pll"),
        },
        "pairs": pairs,
    }
    path = os.path.join(config.output_dir, "theory.json")
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
    os.makedirs(output_dir, exist_ok=True)
    features = FeatureMatrix.from_csv(
        features_path, superclass_path=superclass_path, renormalize=True
    )
    stats = gram_statistics(features)
    labels = features.labels
    K = int(labels.max())
    class_counts = np.bincount(labels, minlength=K + 1)[1:]
    n = int(np.median(class_counts))

    def stat_dict(s):
        if s is None:
            return None
        return {"mean": s.mean, "std": s.std, "pairs": s.pairs}

    c = stats.same_class.mean if stats.same_class else None
    d = (
        stats.cross_class_within_superclass.mean
        if stats.cross_class_within_superclass
        else None
    )
    e = stats.cross_superclass.mean if stats.cross_superclass else None
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
        "statistics": {
            "same_class": stat_dict(stats.same_class),
            "cross_class_within_superclass": stat_dict(
                stats.cross_class_within_superclass
            ),
            "cross_superclass": stat_dict(stats.cross_superclass),
        },
        "fitted": {"c": c, "d": d, "e": e},
        "suggested_lambda": suggestions,
    }
    path = os.path.join(output_dir, "ingest.json")
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
        overrides.append(f'output_dir="{args.out}"')
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
