"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines alongside the usual pytest output.
"""

import filecmp
import json
import math
import os
import time

import numpy as np
import pytest

from _support import (
    SETUP_A_LAMBDA,
    cell_accuracy,
    cell_pll_outputs,
    random_doubly_stochastic,
    sample_cells,
    setup_a_constants,
    setup_a_model,
)
from distillab import (
    GramCase,
    GramModel,
    OutputMatrix,
    SuperclassMap,
    analytic_eigensystem,
    build_gram,
    closed_form_output,
    evolving_condition,
    make_corruption,
    measure_approx_error,
    minimal_rounds,
    numeric_eigensystem,
    pll_accuracy_condition,
    predicted_population_accuracy,
    realize_labels,
    sd_accuracy_condition,
    softmax,
    solve_round,
    theory_constants,
    trajectory,
)
from distillab.cli import main
from distillab.distillation import averaging_operator
from distillab.oracle import SolverConfig, _dual_objective, softmax


def verdict(number: int, description: str):
    print(f"[criterion {number:2d}] PASS  {description}")


def superclass_map_for(K: int) -> SuperclassMap:
    return SuperclassMap.from_sizes({2: (1, 1), 4: (2, 2), 6: (2, 2, 2)}[K])


def test_criterion_01_eigen_structure_equivalence():
    start = time.perf_counter()
    checked = 0
    for case in GramCase:
        for K in (2, 4, 6):
            for n in (3, 10, 50):
                kwargs = dict(case=case, K=K, n=n, c=0.5)
                if case is GramCase.II:
                    kwargs["c"] = tuple(np.linspace(0.3, 0.7, K))
                if case in (GramCase.III, GramCase.IV, GramCase.V):
                    kwargs["d"] = 0.2
                if case in (GramCase.IV, GramCase.V):
                    kwargs["superclass_map"] = superclass_map_for(K)
                if case is GramCase.V:
                    kwargs["e"] = 0.05
                model = GramModel(**kwargs)
                analytic = analytic_eigensystem(model)
                dense = numeric_eigensystem(build_gram(model), model.K)
                np.testing.assert_allclose(
                    analytic.values, dense.values, atol=1e-8,
                    err_msg=f"{case} K={K} n={n}",
                )
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"eigen sweep took {elapsed:.1f}s"
    assert checked == 45
    verdict(1, f"analytic vs dense eigenvalues agree to 1e-8 on {checked} models "
               f"({elapsed:.2f}s)")


def test_criterion_02_trajectory_consistency():
    rng = np.random.default_rng(2024)
    # eigen form vs t-fold single-step recursion
    for _ in range(20):
        K = int(rng.integers(2, 5))
        n = int(rng.integers(1, 11))
        c = float(rng.uniform(0.25, 0.85))
        d = float(rng.uniform(0.0, c - 0.05))
        lam = float(rng.uniform(1e-4, 1e-2))
        model = GramModel(case=GramCase.III if d > 0 else GramCase.I, K=K, n=n, c=c,
                          d=d if d > 0 else 0.0)
        eig = analytic_eigensystem(model)
        labels = rng.integers(1, K + 1, size=K * n)
        Y0 = OutputMatrix.from_labels(labels, K)
        traj = trajectory(Y0, eig, lam, 8)
        step = averaging_operator(eig, lam, 1).matrix
        cur = Y0.columns
        for t in range(1, 9):
            cur = (cur - 1.0 / K) @ step + 1.0 / K
            assert np.abs(traj[t].columns - cur).max() <= 1e-10
    # per-sample closed form vs trajectory columns on cases III and IV
    smap = SuperclassMap((1, 1, 2, 2))
    for model in (
        GramModel(case=GramCase.III, K=4, n=12, c=0.5, d=0.2),
        GramModel(case=GramCase.IV, K=4, n=12, c=0.5, d=0.2, superclass_map=smap),
    ):
        if model.case is GramCase.IV:
            C = make_corruption("superclass", 0.25, 4, superclass_map=smap)
        else:
            C = make_corruption("symmetric", 0.25, 4)
        la = realize_labels(C, model.n, seed=7)
        tc = theory_constants(model, 1e-3)
        eig = analytic_eigensystem(model)
        traj = trajectory(OutputMatrix.from_labels(la.given_labels, 4), eig,
                          1e-3, 5)
        for t in (1, 3, 5):
            for i in range(0, 48, 5):
                expected = closed_form_output(
                    (int(la.true_labels[i]), int(la.given_labels[i])), C, tc, t
                )
                assert np.abs(traj[t].columns[:, i] - expected).max() <= 1e-9
    verdict(2, "eigen form == stepwise recursion (1e-10) and per-sample closed "
               "forms == trajectory columns (1e-9)")


def test_criterion_03_phase_reproduction():
    start = time.perf_counter()
    tc = setup_a_constants()
    C = make_corruption("symmetric", 0.5, 4)
    predictions = {t: predicted_population_accuracy(C, tc, t, "sd") for t in (1, 2, 3, 4)}
    assert predictions[1] == pytest.approx(0.5, abs=1e-12)
    assert predictions[2] == pytest.approx(0.5, abs=1e-12)
    assert predictions[3] == pytest.approx(1.0, abs=1e-12)
    assert predictions[4] == pytest.approx(1.0, abs=1e-12)
    assert predicted_population_accuracy(C, tc, 1, "pll") == pytest.approx(1.0, abs=1e-12)
    assert minimal_rounds(C, tc) == 3
    # empirical argmax on the exact closed form, cell by cell with cell masses
    for t in (1, 2, 3, 4):
        acc = 0.0
        for y in range(1, 5):
            for yhat in range(1, 5):
                mass = C.entry(y, yhat)
                vec = closed_form_output((y, yhat), C, tc, t)
                strict = (vec == vec.max()).sum() == 1 and int(np.argmax(vec)) == y - 1
                acc += mass * strict
        assert acc / 4 == pytest.approx(predictions[t], abs=1e-12)
    # the top-2 student on every cell, accuracy summed exactly
    assert cell_accuracy(cell_pll_outputs(C, tc), C) == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    verdict(3, f"phase values 0.5/0.5/1.0/1.0, PLL 1.0, minimal rounds 3, "
               f"empirical == predicted ({elapsed:.2f}s)")


def test_criterion_04_crossover_values():
    tc = setup_a_constants()
    C = make_corruption("symmetric", 0.5, 4)
    out3 = closed_form_output((1, 2), C, tc, 3)
    assert out3[0] == pytest.approx(0.406993, abs=1e-5)
    assert out3[1] == pytest.approx(0.305858, abs=1e-5)
    assert out3[0] > out3[1]
    out2 = closed_form_output((1, 2), C, tc, 2)
    assert out2[1] > out2[0]
    verdict(4, "noisy-sample crossover: reversed at t=2, "
               "0.406993 > 0.305858 at t=3 (1e-5)")


def test_criterion_05_pll_dominance():
    rng = np.random.default_rng(55)
    constants = {
        K: theory_constants(
            GramModel(case=GramCase.III, K=K, n=100, c=0.4, d=0.1), SETUP_A_LAMBDA
        )
        for K in range(2, 7)
    }
    checked = 0
    while checked < 200:
        K = int(rng.integers(2, 7))
        C = random_doubly_stochastic(K, rng)
        checked += 1
        pll_ok = pll_accuracy_condition(C).achieves_100
        for t in range(1, 11):
            if sd_accuracy_condition(C, constants[K], t).achieves_100:
                assert pll_ok, f"multi-round passed at t={t} without the top-2 premise"
    witness = make_corruption("symmetric", 0.7, 4)
    assert pll_accuracy_condition(witness).achieves_100
    res1 = sd_accuracy_condition(witness, setup_a_constants(), 1)
    assert not res1.achieves_100
    assert res1.threshold == pytest.approx(1.244, abs=1e-3)
    assert witness.entry(1, 1) - witness.entry(1, 2) == pytest.approx(0.3 - 0.7 / 3, abs=1e-12)
    verdict(5, "top-2 condition dominates every multi-round verdict on 200 grids; "
               "strict superset witnessed at symmetric 0.7")


def test_criterion_06_oracle_fidelity():
    start = time.perf_counter()
    model = setup_a_model()
    gram = build_gram(model)
    C = make_corruption("symmetric", 0.5, 4)
    from distillab.noise_theory import nearest_realizable

    la = realize_labels(nearest_realizable(C, model.n), model.n, seed=0)
    Y_prev = OutputMatrix.from_labels(la.given_labels, 4)
    config = SolverConfig(tolerance=1e-10, max_iterations=50_000)
    result = solve_round(Y_prev, sample_cells(gram), SETUP_A_LAMBDA, config)
    assert result.converged
    assert result.final_loss < 1e-10
    assert result.iterations_used <= 50_000
    # the doubling grid must sit past the hump of the error curve for the
    # shrinking trend to show; lam=1e-3 puts the peak below n=50 (the
    # decisions notes record the measured curve at smaller lam)
    sweep_config = SolverConfig(tolerance=1e-8, max_iterations=50_000)
    gaps = []
    for n in (50, 100, 200, 400):
        sweep_model = GramModel(case=GramCase.III, K=4, n=n, c=0.4, d=0.1)
        gaps.append(measure_approx_error(sweep_model, C, 1e-3, 1, sweep_config))
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:])), gaps
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"oracle fidelity took {elapsed:.0f}s"
    verdict(6, f"round solved to 1e-10 in {result.iterations_used} iterations; "
               f"linearization gaps non-increasing over n=50..400 "
               f"({', '.join(f'{g:.4f}' for g in gaps)}; {elapsed:.0f}s)")


def test_criterion_07_temperature_rescales_regularization():
    K, n, lam = 4, 20, 1e-3
    model = GramModel(case=GramCase.III, K=K, n=n, c=0.4, d=0.1)
    gram = build_gram(model)
    C = make_corruption("symmetric", 0.3, K)
    la = realize_labels(C, n, seed=0)
    Y_prev = OutputMatrix.from_labels(la.given_labels, K)
    plain = solve_round(Y_prev, sample_cells(gram), lam, SolverConfig()).outputs.columns
    worst, moved = 0.0, np.inf
    for tau in (0.5, 2.0):
        Y = solve_round(Y_prev, sample_cells(gram), lam * tau,
                        SolverConfig()).outputs.columns
        logits = (Y_prev.columns - Y) @ gram / (K * n * lam)
        worst = max(worst, float(np.abs(Y - softmax(logits / tau)).max()))
        moved = min(moved, float(np.abs(Y - plain).max()))
    assert worst <= 1e-9
    assert moved > 1e-3
    verdict(7, f"rounds at lam*tau (tau 0.5/2) solve the tau-softmax fixed point at lam "
               f"to {worst:.1e} and differ from the lam round by >= {moved:.3f} on K=4, n=20")


def test_criterion_08_gradient_check():
    rng = np.random.default_rng(88)
    K, n = 3, 2
    worst = 0.0
    for _ in range(10):
        a = rng.normal(size=(K * n, K * n))
        gram = (a + a.T) / 2
        np.fill_diagonal(gram, 1.0)
        lam = float(rng.uniform(0.02, 0.3))
        Y_prev = OutputMatrix.from_labels(rng.integers(1, K + 1, size=K * n), K)
        raw = rng.uniform(0.2, 1.0, size=(K, K * n))
        Y = raw / raw.sum(axis=0, keepdims=True)
        # the solver's objective Phi over the dual coefficients A = Y_prev - Y
        c = K * n * lam
        A = Y_prev.columns - Y
        grad = (softmax(A @ gram / c) - Y_prev.columns + A) @ gram / c
        fd = np.zeros_like(grad)
        h = 1e-6
        for idx in np.ndindex(*A.shape):
            bump = np.zeros_like(A)
            bump[idx] = h
            lp = _dual_objective(A + bump, (A + bump) @ gram / c, Y_prev.columns)
            lm = _dual_objective(A - bump, (A - bump) @ gram / c, Y_prev.columns)
            fd[idx] = (lp - lm) / (2 * h)
        rel = float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-300))
        worst = max(worst, rel)
        assert rel <= 1e-4
    verdict(8, f"dual-objective gradient vs central differences: worst relative "
               f"error {worst:.2e} over 10 instances")


def test_criterion_09_case_v_reduction_and_evolving_schedules():
    rng = np.random.default_rng(99)
    from _support import random_block_confined

    for _ in range(20):
        sizes = [(2, 2), (1, 3), (2, 2, 2), (3, 3)][int(rng.integers(0, 4))]
        K = int(sum(sizes))
        n = int(rng.integers(2, 25))
        c = float(rng.uniform(0.3, 0.8))
        d = float(rng.uniform(0.05, c - 0.05))
        smap = SuperclassMap.from_sizes(sizes)
        lam = float(rng.uniform(1e-4, 1e-2))
        tc5, tc4 = (
            theory_constants(GramModel(case=case, K=K, n=n, c=c, d=d, e=0.0,
                                       superclass_map=smap), lam)
            for case in (GramCase.V, GramCase.IV)
        )
        C, _ = random_block_confined(K, sizes, rng)
        y = int(rng.integers(1, K + 1))
        yhat = int(rng.choice(list(smap.classes_of(smap.superclass_of(y)))))
        t = int(rng.integers(0, 7))
        gap = np.abs(
            closed_form_output((y, yhat), C, tc5, t)
            - closed_form_output((y, yhat), C, tc4, t)
        ).max()
        assert gap <= 1e-12
    # constant schedules reproduce the fixed-correlation verdicts
    agreements = 0
    for _ in range(50):
        K = 4
        n = int(rng.integers(5, 200))
        c = float(rng.uniform(0.3, 0.8))
        d = float(rng.uniform(0.02, c - 0.05))
        lam = float(rng.uniform(5e-5, 5e-3))
        t = int(rng.integers(1, 7))
        C = random_doubly_stochastic(K, rng, diag_weight=float(rng.uniform(0.3, 0.95)))
        tc = theory_constants(GramModel(case=GramCase.III, K=K, n=n, c=c, d=d), lam)
        fixed = sd_accuracy_condition(C, tc, t).achieves_100
        evolving = evolving_condition(C, [(c, d)] * t, lam, K, n, t)
        assert fixed == evolving
        agreements += 1
    verdict(9, f"coupling-free case-V closed forms equal the case-IV ones "
               f"(1e-12, 20 draws); constant schedules match fixed verdicts "
               f"on {agreements} grid points")


def test_criterion_10_cli_determinism(tmp_path):
    base = {
        "gram": {"case": "III", "K": 4, "n": 12, "c": 0.4, "d": 0.1},
        "corruption": {"kind": "symmetric", "eta": 0.5},
        "lam": 3.125e-4,
        "t_max": 2,
        "modes": ["closed_form", "pll", "theory", "oracle"],
        "seed": 3,
        "solver_tolerance": 1e-9,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base))
    sweep_cfg = dict(base, sweep_parameter="eta", sweep_values=[0.0, 0.25, 0.5],
                     modes=["closed_form", "pll", "theory"])
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(sweep_cfg))
    napprox = dict(base, sweep_parameter="n", sweep_values=[4, 8], modes=["oracle"],
                   lam=0.05, t_max=1)
    napprox_path = tmp_path / "napprox.json"
    napprox_path.write_text(json.dumps(napprox))
    feats = tmp_path / "features.csv"
    feats.write_text("1,0,0,1\n0,1,0,1\n0,0,1,2\n1,0,0,2\n")

    runs = [
        (["trajectory", "--config", str(cfg_path)], "trajectory"),
        (["phase", "--config", str(sweep_path)], "phase"),
        (["approx-error", "--config", str(napprox_path)], "approx"),
        (["theory", "--config", str(cfg_path)], "theory"),
    ]
    for args, name in runs:
        for rep in ("a", "b"):
            out = tmp_path / f"{name}_{rep}"
            assert main(args + ["--out", str(out)]) == 0, name
        dir_a, dir_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        names = sorted(os.listdir(dir_a))
        assert names == sorted(os.listdir(dir_b))
        for fname in names:
            assert filecmp.cmp(dir_a / fname, dir_b / fname, shallow=False), (name, fname)
    for rep in ("a", "b"):
        assert main(["ingest", str(feats), "--out", str(tmp_path / f"ingest_{rep}")]) == 0
    assert filecmp.cmp(
        tmp_path / "ingest_a" / "ingest.json",
        tmp_path / "ingest_b" / "ingest.json",
        shallow=False,
    )
    verdict(10, "all five commands re-run byte-identically under a fixed seed")
