import dataclasses
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import (CASE_MODELS, CASE_NOISE, SETUP_A_LAMBDA, eager_labels, one_hot_cells,
                      per_sample_rounds, random_doubly_stochastic, sample_cells, setup_a_model)
from distillab import (
    GramCase,
    GramModel,
    NumericalError,
    SuperclassMap,
    ValidationError,
    analytic_eigensystem,
    build_gram,
    numeric_eigensystem,
)
from distillab.distillation import (OutputMatrix, _class_round, argmax_accuracy, cell_outputs,
                                    pll_refine, pll_student, trajectory)
from distillab import gram_models, oracle
from distillab.gram_models import cell_gram
from distillab.noise_theory import (
    LabelAssignment,
    make_corruption,
    nearest_realizable,
    realize_labels,
    theory_constants,
)
from distillab.oracle import (
    OracleResult,
    SolverConfig,
    fixed_point_residual,
    measure_approx_error,
    oracle_trajectory,
    run_rounds,
    softmax,
    solve_round,
)


class TestSoftmax:
    def test_zero_logits_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(4)), 0.25, atol=1e-15)

    def test_exact_ratio(self):
        np.testing.assert_allclose(
            softmax(np.array([math.log(2.0), 0.0])), [2 / 3, 1 / 3], atol=1e-15
        )

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        v = rng.normal(scale=50.0, size=(5, 20))
        np.testing.assert_allclose(softmax(v).sum(axis=0), 1.0, atol=1e-12)


def bisect_root(f, lo, hi, xtol):
    """The root of ``f`` in ``[lo, hi]``, where ``f`` changes sign, to ``xtol``."""
    f_lo = f(lo)
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def small_round(K=2, n=1, lam=0.25, labels=(1, 2), gram=None, **cfg):
    gram = np.eye(K * n) if gram is None else gram
    Y_prev = OutputMatrix.from_labels(np.array(labels), K)
    config = SolverConfig(**cfg) if cfg else SolverConfig()
    return solve_round(Y_prev, sample_cells(gram), lam, config), Y_prev, gram


class TestSolveRound:
    def test_uniform_previous_round_fixed_point_is_uniform(self):
        K, n = 3, 2
        Y_prev_cols = np.full((K, K * n), 1.0 / K)
        Y_prev = OutputMatrix(Y_prev_cols, round=1)
        res = solve_round(Y_prev, sample_cells(np.eye(K * n)), 0.1, SolverConfig())
        assert res.converged
        np.testing.assert_allclose(res.outputs.columns, 1.0 / K, atol=1e-9)
        assert res.outputs.round == 2

    def test_two_class_scalar_fixed_point_by_bisection(self):
        res, Y_prev, gram = small_round()
        assert res.converged
        # sample 1 (given label 1): y1 solves y1 = 1/(1 + exp(-4(1-y1)))
        root = bisect_root(lambda y1: y1 - 1.0 / (1.0 + math.exp(-4.0 * (1.0 - y1))),
                           0.5, 1.0, xtol=1e-13)
        assert res.outputs.columns[0, 0] == pytest.approx(root, abs=1e-8)
        assert res.outputs.columns[1, 1] == pytest.approx(root, abs=1e-8)

    def test_residual_verified_independently(self):
        res, Y_prev, gram = small_round(K=4, n=3, lam=0.05,
                                        labels=(1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4))
        R = fixed_point_residual(res.outputs.columns, Y_prev.columns, gram,
                                 0.05, 4, 3)
        assert np.abs(R).max() <= res.final_loss + 1e-15
        assert np.abs(R).max() < 1e-10

    def test_solver_takes_no_seed(self):
        # every round starts at the zero dual; the model's seed places labels
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["max_iterations",
                                                                      "tolerance"]
        with pytest.raises(TypeError):
            SolverConfig(seed=1)
        a, b = (small_round(K=3, n=2, lam=0.1, labels=(1, 2, 3, 1, 2, 3))[0] for _ in range(2))
        assert np.array_equal(a.outputs.columns, b.outputs.columns)
        assert a.iterations_used == b.iterations_used and a.final_loss == b.final_loss

    @pytest.mark.parametrize("K, n", [(4, 100), (3, 2**53 - 1), (7, 2**52 + 3), (9, 2**53)])
    def test_c_is_the_weight_sum_times_lam(self, monkeypatch, K, n):
        # the cell counts sum to N = K n, which fsum rounds once, as K * n * lam does
        class Seen(Exception):
            pass

        def record(Y, Y_prev, matrix, c):
            raise Seen(c)

        monkeypatch.setattr(oracle, "_residual", record)
        model = GramModel(case=GramCase.III, K=K, n=n, c=0.4, d=0.1)
        C = make_corruption("symmetric", (K - 1) / K, K)
        cells = cell_gram(model, realize_labels(nearest_realizable(C, n), n))
        for lam in (1e-3, 1.0 / 3.0, SETUP_A_LAMBDA):
            with pytest.raises(Seen) as seen:
                solve_round(OutputMatrix.from_labels(cells.cells[:, 1], K), cells, lam)
            assert seen.value.args[0] == K * n * lam

    @pytest.mark.parametrize("tolerance", [0.0, -1e-10, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        # under NaN no residual ever converges; under inf the start would
        with pytest.raises(ValidationError, match="tolerance must be positive and finite"):
            SolverConfig(tolerance=tolerance)

    def test_temperature_rescales_regularization(self):
        # the fixed point with softmax(. / tau) on the lam logits is the one at lam * tau
        K, n, lam = 4, 18, 1e-3
        model = GramModel(case=GramCase.III, K=K, n=n, c=0.4, d=0.1)
        gram = build_gram(model)
        C = make_corruption("symmetric", 0.5, K)
        la = realize_labels(C, n=n, seed=0)
        Y_prev = OutputMatrix.from_labels(la.given_labels, K)
        plain = solve_round(Y_prev, sample_cells(gram), lam, SolverConfig()).outputs.columns
        for tau in (0.5, 2.0):
            Y = solve_round(Y_prev, sample_cells(gram), lam * tau,
                            SolverConfig()).outputs.columns
            logits = (Y_prev.columns - Y) @ gram / (K * n * lam)
            assert np.abs(Y - softmax(logits / tau)).max() <= 1e-9
            assert np.abs(Y - plain).max() > 1e-3

    def test_non_finite_input_reports_iteration(self):
        gram = np.eye(2)
        gram[0, 0] = np.nan
        Y_prev = OutputMatrix.from_labels(np.array([1, 2]), 2)
        with pytest.raises(NumericalError):
            solve_round(Y_prev, sample_cells(gram), 0.25, SolverConfig(max_iterations=5))

    def test_unconverged_result_flagged(self):
        res, *_ = small_round(K=4, n=2, lam=1e-4,
                              labels=(1, 2, 3, 4, 1, 2, 3, 4), max_iterations=3)
        assert not res.converged
        assert res.final_loss > 0

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(12)
        K, n = 3, 2
        for _ in range(10):
            a = rng.normal(size=(K * n, K * n))
            gram = (a + a.T) / 2
            np.fill_diagonal(gram, 1.0)
            lam = float(rng.uniform(0.01, 0.2))
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
                lp = oracle._dual_objective(A + bump, (A + bump) @ gram / c, Y_prev.columns)
                lm = oracle._dual_objective(A - bump, (A - bump) @ gram / c, Y_prev.columns)
                fd[idx] = (lp - lm) / (2 * h)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-4


class TestNewtonSolver:
    @pytest.mark.parametrize("name", sorted(CASE_MODELS))
    def test_every_case_converges_to_one_fixed_point(self, name):
        # checked against a second solver: damped Picard iteration
        # Y <- (1 - beta) Y + beta softmax((Y_prev - Y) G / c).  The map's
        # Jacobian -J_S G / c is similar to a symmetric matrix with spectrum in
        # [-L, 0], L = lambda_max(G) / (2 c), so beta = 1 / (1 + L) contracts,
        # and a step below 1e-13 bounds the distance to the fixed point
        model = CASE_MODELS[name]
        K, n, lam, tol = model.K, model.n, 1e-3, 1e-10
        gram = build_gram(model)
        labels = np.random.default_rng(7).integers(1, K + 1, size=model.size)
        Y_prev = OutputMatrix.from_labels(labels, K)
        res = solve_round(Y_prev, sample_cells(gram), lam, SolverConfig(tolerance=tol))
        assert res.converged
        R = fixed_point_residual(res.outputs.columns, Y_prev.columns, gram, lam, K, n)
        assert np.abs(R).max() < tol
        c = K * n * lam
        beta = 1.0 / (1.0 + np.linalg.eigvalsh(gram)[-1] / (2.0 * c))
        Y = np.full_like(Y_prev.columns, 1.0 / K)
        for _ in range(20_000):
            step = softmax((Y_prev.columns - Y) @ gram / c) - Y
            if np.abs(step).max() < 1e-13:
                break
            Y = Y + beta * step
        else:
            pytest.fail("the Picard reference did not converge")
        np.testing.assert_allclose(res.outputs.columns, Y, rtol=0, atol=1e-8)

    def test_criterion_6_round_takes_few_newton_steps(self):
        model = setup_a_model()
        C = make_corruption("symmetric", 0.5, model.K)
        la = realize_labels(nearest_realizable(C, model.n), model.n, seed=0)
        Y_prev = OutputMatrix.from_labels(la.given_labels, model.K)
        res = solve_round(Y_prev, sample_cells(build_gram(model)), SETUP_A_LAMBDA,
                          SolverConfig(tolerance=1e-10))
        assert res.converged
        # 10 steps from the zero dual (15 from the random start it replaced)
        assert res.iterations_used <= 12

    def test_chained_perturbed_rounds_take_few_newton_steps(self):
        K, n, lam = 4, 60, 1e-3
        model = GramModel(case=GramCase.IV, K=K, n=n, c=0.4, d=0.1,
                          superclass_map=SuperclassMap((1, 1, 2, 2)),
                          perturbation_amplitude=0.01, seed=3)
        C = make_corruption("superclass", 0.3, K, superclass_map=model.effective_map())
        la = realize_labels(C, n, seed=0)
        Y0 = OutputMatrix.from_labels(la.given_labels, K)
        rounds = oracle_trajectory(Y0, sample_cells(build_gram(model)), lam, 3,
                                   SolverConfig(tolerance=1e-9))
        assert len(rounds) == 3
        # [9, 8, 10] from the zero dual ([14, 12, 15] from the random start)
        assert max(r.iterations_used for r in rounds) <= 12, [r.iterations_used for r in rounds]

    def test_saturated_chained_round_does_not_cycle(self):
        # a residual-halving step that raised Phi used to be accepted here,
        # and the iterates cycled between two points with residual 0.99
        K, lam = 3, 2.0**-8
        Y0 = OutputMatrix.from_labels(np.arange(1, K + 1), K)
        rounds = oracle_trajectory(Y0, sample_cells(np.eye(K)), lam, 2,
                                   SolverConfig(tolerance=1e-12, max_iterations=100))
        assert [r.converged for r in rounds] == [True, True]

    def test_gram_not_positive_definite_raises(self):
        K, n = 3, 2
        Y_prev = OutputMatrix.from_labels(np.array([1, 2, 3, 1, 2, 3]), K)
        with pytest.raises(NumericalError, match="positive definite"):
            solve_round(Y_prev, sample_cells(-np.eye(K * n)), 0.1, SolverConfig())


class TestMeasureApproxError:
    def test_identity_gram_two_class_gap_matches_scalar_analysis(self):
        K, n, lam = 2, 2, 0.05
        model = GramModel(case=GramCase.I, K=K, n=n, c=0.0)
        C = make_corruption("symmetric", 0.5, K)
        gap = measure_approx_error(model, C, lam, t=1, config=SolverConfig())
        # decoupled samples: logit difference is 2(1 - y1)/(K n lam), so the
        # oracle's top component solves y1 = 1/(1 + exp(-2 (1 - y1)/(K n lam)));
        # the closed form predicts 1/K + (1 - 1/K)/(K^2 n lam + 1)
        knlam = K * n * lam
        root = bisect_root(
            lambda y1: y1 - 1.0 / (1.0 + math.exp(-2.0 * (1.0 - y1) / knlam)),
            0.5, 1.0, xtol=1e-14,
        )
        closed = 0.5 + 0.5 / (K * K * n * lam + 1.0)
        assert gap == pytest.approx(abs(root - closed), abs=1e-8)

    def test_large_regularization_shrinks_gap(self):
        K, n = 4, 5
        model = GramModel(case=GramCase.III, K=K, n=n, c=0.4, d=0.1)
        C = make_corruption("symmetric", 0.6, K)
        gap = measure_approx_error(model, C, lam=1.0, t=1, config=SolverConfig())
        assert gap < 1e-3

    def test_nonconvergence_names_round(self):
        K, n = 4, 5
        model = GramModel(case=GramCase.III, K=K, n=n, c=0.4, d=0.1)
        C = make_corruption("symmetric", 0.6, K)
        with pytest.raises(NumericalError, match="round 1"):
            measure_approx_error(
                model, C, lam=1e-3, t=1, config=SolverConfig(max_iterations=2)
            )

    @pytest.mark.parametrize("name", sorted(CASE_MODELS))
    def test_chained_rounds_compare_against_the_cell_closed_form(self, name):
        model = CASE_MODELS[name]
        K, n, lam = model.K, model.n, 0.02
        kind, eta = CASE_NOISE[name]
        C = make_corruption(kind, eta, K, superclass_map=model.effective_map())
        model = dataclasses.replace(model, seed=3)
        config = SolverConfig()
        gap = measure_approx_error(model, C, lam, t=3, config=config)
        # recompute by hand: chain the oracle on the cells, compare to the
        # closed form of each cell
        la = realize_labels(C, n, seed=model.seed)
        cells = cell_gram(model, la)
        true, given = (cells.cells - 1).T
        tc = theory_constants(model, lam)
        rounds = oracle_trajectory(OutputMatrix.from_labels(given + 1, K), cells, lam, 3,
                                   config)
        worst = max(
            float(np.abs(r.outputs.columns
                         - cell_outputs(one_hot_cells(K), C, tc, t)[:, true, given]).max())
            for t, r in enumerate(rounds, start=1)
        )
        assert gap == pytest.approx(worst, abs=1e-12)
        # and the dense chain against the per-sample closed-form trajectory,
        # within the solver tolerance
        gram = build_gram(model)
        Y0 = OutputMatrix.from_labels(la.given_labels, K)
        traj = trajectory(Y0, analytic_eigensystem(model), lam, 3)
        cur, worst = Y0, 0.0
        for t in range(1, 4):
            cur = solve_round(cur, sample_cells(gram), lam, config).outputs
            worst = max(worst, float(np.abs(cur.columns - traj[t].columns).max()))
        assert gap == pytest.approx(worst, abs=1e-9)

    def test_perturbed_rounds_compare_against_the_eigen_form(self):
        K, n, lam = 4, 6, 0.02
        model = GramModel(case=GramCase.IV, K=K, n=n, c=0.5, d=0.2,
                          superclass_map=SuperclassMap((1, 1, 2, 2)),
                          perturbation_amplitude=0.01, seed=5)
        C = make_corruption("superclass", 1.0 / 3.0, K, superclass_map=model.effective_map())
        config = SolverConfig()
        gap = measure_approx_error(model, C, lam, t=3, config=config)
        gram = build_gram(model)
        Y0 = OutputMatrix.from_labels(realize_labels(C, n, seed=model.seed).given_labels, K)
        traj = trajectory(Y0, numeric_eigensystem(gram, K), lam, 3)
        rounds = oracle_trajectory(Y0, sample_cells(gram), lam, 3, config)
        worst = max(float(np.abs(r.outputs.columns - traj[t].columns).max())
                    for t, r in enumerate(rounds, start=1))
        assert gap == pytest.approx(worst, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(CASE_MODELS))
    def test_unperturbed_gap_is_the_private_class_round(self, name):
        # the reference: the oracle rounds on the cells against _class_round
        # of their centered one-hot labels, each cell weighted by its count
        model = CASE_MODELS[name]
        K, n, lam, t = model.K, model.n, 0.02, 3
        kind, eta = CASE_NOISE[name]
        C = make_corruption(kind, eta, K, superclass_map=model.effective_map())
        model = dataclasses.replace(model, seed=3)
        config = SolverConfig()
        cells = cell_gram(model, realize_labels(C, n, seed=model.seed))
        Y0 = OutputMatrix.from_labels(cells.cells[:, 1], K)
        rounds = oracle_trajectory(Y0, cells, lam, t, config)
        want = max(
            float(np.abs(r.outputs.columns
                         - (_class_round(Y0.columns - 1.0 / K, cells.cells[:, 0] - 1,
                                         cells.weights, model, lam, s) + 1.0 / K)).max())
            for s, r in enumerate(rounds, start=1))
        assert measure_approx_error(model, C, lam, t, config) == want

    @pytest.mark.parametrize("t", [1, 3])
    def test_perturbed_gap_is_the_private_dense_chain(self, t):
        # the reference: the oracle rounds against the dense chain of
        # _shifted_rounds on a fresh factor of the shifted Gram
        model, C = perturbed_case_iv(n=20, seed=7)
        K, n, lam = model.K, model.n, 1e-3
        config = SolverConfig()
        gram = build_gram(model)
        Y0 = OutputMatrix.from_labels(realize_labels(C, n, seed=model.seed).given_labels, K)
        shift = K * K * n * lam
        linear = gram_models._shifted_rounds(gram, gram_models._shifted_factor(gram, shift),
                                             shift, Y0.columns - 1.0 / K, t)
        rounds = oracle_trajectory(Y0, sample_cells(gram), lam, t, config)
        want = max(float(np.abs(r.outputs.columns - (rows + 1.0 / K)).max())
                   for r, rows in zip(rounds, linear))
        assert measure_approx_error(model, C, lam, t, config) == want

    def test_perturbed_model_builds_gram_once(self, monkeypatch):
        calls = []

        def counting_build_gram(model):
            calls.append(model)
            return build_gram(model)

        monkeypatch.setattr(gram_models, "build_gram", counting_build_gram)
        K, n = 3, 8
        model = GramModel(case=GramCase.III, K=K, n=n, c=0.4, d=0.1,
                          perturbation_amplitude=0.01, seed=5)
        C = make_corruption("symmetric", 0.25, K)
        gap = measure_approx_error(model, C, 0.02, t=2, config=SolverConfig())
        assert np.isfinite(gap)
        assert len(calls) == 1


def partly_shuffled_assignment(K, n, moved, seed):
    """Balanced labels with ``moved`` samples' given labels permuted among
    themselves: from clean (many empty cells) to fully mixed."""
    rng = np.random.default_rng(seed)
    true = np.repeat(np.arange(1, K + 1), n)
    given = true.copy()
    picked = rng.choice(K * n, size=min(moved, K * n), replace=False)
    given[picked] = rng.permutation(given[picked])
    return LabelAssignment.from_labels(true, given)


class TestCellGram:
    @given(st.sampled_from(sorted(CASE_MODELS)), st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_cell_product_is_the_sample_product(self, name, n, seed):
        model = dataclasses.replace(CASE_MODELS[name], n=n)
        la = partly_shuffled_assignment(model.K, n, seed % (model.size + 1), seed)
        cells = cell_gram(model, la)
        X = np.random.default_rng(seed).normal(size=(model.K, cells.weights.size))
        np.testing.assert_allclose(
            (X @ cells.matrix)[:, cells.sample_cell],
            X[:, cells.sample_cell] @ build_gram(model), rtol=0, atol=1e-12,
        )
        assert cells.weights.sum() == model.size
        assert np.array_equal(cells.cells[cells.sample_cell],
                              np.column_stack([la.true_labels, la.given_labels]))

    @given(
        st.sampled_from(sorted(CASE_MODELS)),
        st.integers(1, 5),
        st.floats(1e-3, 0.2),
        st.integers(1, 3),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_cell_rounds_are_the_dense_rounds(self, name, n, lam, t_max, seed):
        model = dataclasses.replace(CASE_MODELS[name], n=n)
        K, tol = model.K, 1e-12
        la = partly_shuffled_assignment(K, n, seed % (model.size + 1), seed)
        gram, cells = build_gram(model), cell_gram(model, la)
        config = SolverConfig(tolerance=tol)
        dense = oracle_trajectory(OutputMatrix.from_labels(la.given_labels, K), sample_cells(gram),
                                  lam, t_max, config)
        by_cell = oracle_trajectory(OutputMatrix.from_labels(cells.cells[:, 1], K), cells,
                                    lam, t_max, config)
        previous = OutputMatrix.from_labels(la.given_labels, K).columns
        for d, c in zip(dense, by_cell):
            per_sample = c.outputs.columns[:, cells.sample_cell]
            assert np.abs(per_sample - d.outputs.columns).max() <= 1e-10
            # an independent certificate: the dense fixed-point equation
            R = fixed_point_residual(per_sample, previous, gram, lam, K, n)
            assert np.abs(R).max() <= tol + 1e-12
            previous = per_sample

    @given(
        st.sampled_from(sorted(CASE_MODELS)),
        st.integers(1, 12),
        st.sampled_from([1e-4, 1e-3, 1e-2]),
        st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_class_round_is_the_cell_solve_and_the_sample_round(self, name, n, lam, seed):
        model = dataclasses.replace(CASE_MODELS[name], n=n)
        K, shift = model.K, model.K ** 2 * n * lam
        rng = np.random.default_rng(seed)
        C = nearest_realizable(random_doubly_stochastic(K, rng), n)
        la = realize_labels(C, n, seed=seed)
        cells = cell_gram(model, la)
        rows = OutputMatrix.from_labels(cells.cells[:, 1], K).columns - 1.0 / K
        shifted = cells.matrix + shift * np.eye(cells.weights.size)
        closed = trajectory(OutputMatrix.from_labels(la.given_labels, K),
                            analytic_eigensystem(model), lam, 4)
        chained = rows
        for t in range(1, 5):
            chained = np.linalg.solve(shifted.T, (chained @ cells.matrix).T).T
            by_cell = _class_round(rows, cells.cells[:, 0] - 1, cells.weights, model, lam, t)
            np.testing.assert_allclose(by_cell, chained, rtol=0, atol=1e-12)
            np.testing.assert_allclose(by_cell[:, cells.sample_cell] + 1.0 / K,
                                       closed[t].columns, rtol=0, atol=1e-12)

    def test_perturbed_model_has_one_cell_per_sample(self):
        model = GramModel(case=GramCase.III, K=3, n=4, c=0.4, d=0.1,
                          perturbation_amplitude=0.01)
        la = partly_shuffled_assignment(3, 4, 6, 0)
        cells = cell_gram(model, la)
        assert np.array_equal(cells.cells, np.column_stack([la.true_labels, la.given_labels]))
        assert np.array_equal(cells.weights, np.ones(model.size))
        assert np.array_equal(cells.sample_cell, np.arange(model.size))
        assert np.array_equal(cells.matrix, build_gram(model))
        assert not cells.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cells.matrix[0, 1] = 0.0
        with pytest.raises(ValidationError, match="does not match"):
            cell_gram(model, partly_shuffled_assignment(4, 3, 6, 0))

    @pytest.mark.parametrize("name", sorted(CASE_MODELS))
    def test_per_sample_cells_solve_as_the_bare_gram(self, name):
        model = dataclasses.replace(CASE_MODELS[name], perturbation_amplitude=0.01, seed=3)
        K, n, lam = model.K, model.n, 0.02
        kind, eta = CASE_NOISE[name]
        C = make_corruption(kind, eta, K, superclass_map=model.effective_map())
        cells = cell_gram(model, realize_labels(C, n, seed=2))
        Y_prev = OutputMatrix.from_labels(cells.cells[:, 1], K)
        config = SolverConfig()
        by_cell = solve_round(Y_prev, cells, lam, config)
        bare = solve_round(Y_prev, sample_cells(build_gram(model)), lam, config)
        assert by_cell.converged
        assert np.array_equal(by_cell.outputs.columns, bare.outputs.columns)
        assert by_cell.convergence_report() == bare.convergence_report()

    def test_foreign_labels_are_rejected(self):
        model = GramModel(case=GramCase.III, K=3, n=4, c=0.4, d=0.1)
        with pytest.raises(ValidationError, match="does not match"):
            cell_gram(model, partly_shuffled_assignment(4, 3, 6, 0))


def perturbed_case_iv(n=30, seed=4):
    """A perturbed case-IV model (dense Gram, numeric eigensystem) and its
    superclass corruption."""
    model = GramModel(case=GramCase.IV, K=4, n=n, c=0.4, d=0.1,
                      superclass_map=SuperclassMap((1, 1, 2, 2)),
                      perturbation_amplitude=0.01, seed=seed)
    return model, make_corruption("superclass", 0.3, 4, superclass_map=model.effective_map())


ALL_STAGES = ("closed_form", "pll", "oracle")


class TestRunRounds:
    @given(st.sampled_from(sorted(CASE_MODELS)), st.integers(1, 12),
           st.sampled_from([1e-4, 1e-3, 1e-2]), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_cell_rounds_score_and_gather_as_the_per_sample_rounds(self, name, n, lam, seed):
        model = dataclasses.replace(CASE_MODELS[name], n=n, seed=seed)
        K = model.K
        C = nearest_realizable(random_doubly_stochastic(K, np.random.default_rng(seed)), n)
        run = run_rounds(model, C, lam, 4, ("closed_form", "pll"), SolverConfig())
        assert np.array_equal(run.assignment.counts, np.rint(C.entries * n))
        # the labels built on first read are the ones drawn at once
        true, given = eager_labels(run.assignment.counts, seed)
        assert np.array_equal(run.assignment.true_labels, true)
        assert np.array_equal(run.assignment.given_labels, given)
        closed, refined, student = per_sample_rounds(model, given, lam, 4)
        sample_cell = run.gram.sample_cell
        assert np.array_equal(run.refined.columns[:, sample_cell], refined.columns)
        classes, weights = run.gram.cells[:, 0], run.gram.weights
        for by_cell, by_sample in zip([*run.closed[1:], run.student], [*closed[1:], student]):
            assert (argmax_accuracy(by_cell, classes, weights)
                    == argmax_accuracy(by_sample, true))
            np.testing.assert_allclose(by_cell.columns[:, sample_cell], by_sample.columns,
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_the_models_seed_places_the_labels(self, perturbed):
        model, C = perturbed_case_iv(n=20, seed=1)
        if not perturbed:
            model = dataclasses.replace(model, perturbation_amplitude=0.0)
        runs = [run_rounds(dataclasses.replace(model, seed=seed), C, 1e-3, 1, ALL_STAGES,
                           SolverConfig()) for seed in (1, 2)]
        a, b = (run.assignment for run in runs)
        assert np.array_equal(a.counts, b.counts)
        assert (a.seed, b.seed) == (1, 2)
        assert not np.array_equal(a.given_labels, b.given_labels)
        for run, seed in zip(runs, (1, 2)):
            la = realize_labels(C, model.n, seed=seed)
            assert np.array_equal(run.assignment.given_labels, la.given_labels)

    def test_overlapped_stages_equal_the_stages_run_one_after_the_other(self):
        model, C = perturbed_case_iv()
        K, n, lam, t_max = model.K, model.n, 1e-3, 3
        solver = SolverConfig(tolerance=1e-9)
        run = run_rounds(model, C, lam, t_max, ALL_STAGES, solver)
        Y0 = OutputMatrix.from_labels(realize_labels(C, n, seed=model.seed).given_labels, K)
        gram = build_gram(model)
        eig = numeric_eigensystem(gram, K)
        closed = trajectory(Y0, eig, lam, t_max)
        refined = pll_refine(closed[1])
        student = pll_student(refined, eig, lam)
        rounds = oracle_trajectory(Y0, sample_cells(gram), lam, t_max, solver)
        assert np.array_equal(run.gram.matrix, gram)
        assert np.array_equal(run.eig.values, eig.values)
        assert np.array_equal(run.eig.vectors, eig.vectors)
        assert len(run.closed) == len(closed) == t_max + 1
        for got, want in zip(run.closed, closed):
            assert np.array_equal(got.columns, want.columns)
        assert np.array_equal(run.refined.columns, refined.columns)
        assert np.array_equal(run.student.columns, student.columns)
        assert len(run.oracle) == len(rounds) == t_max
        for got, want in zip(run.oracle, rounds):
            assert np.array_equal(got.outputs.columns, want.outputs.columns)
            assert got.convergence_report() == want.convergence_report()

    def test_dense_gram_is_read_only(self):
        model, C = perturbed_case_iv(n=10)
        gram = run_rounds(model, C, 1e-3, 1, ALL_STAGES, SolverConfig()).gram.matrix
        assert not gram.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            gram[0, 1] = 0.0

    def test_oracle_error_is_raised_and_its_thread_joined(self):
        model, C = perturbed_case_iv()
        before = threading.active_count()
        with pytest.raises(NumericalError, match="oracle failed to converge at round 1"):
            run_rounds(model, C, 1e-3, 2, ALL_STAGES, SolverConfig(max_iterations=1))
        assert threading.active_count() == before
        run_rounds(model, C, 1e-3, 2, ALL_STAGES, SolverConfig(tolerance=1e-9))
        assert threading.active_count() == before

    def test_closed_form_error_wins_over_the_oracle_error(self, monkeypatch):
        def failing_eigensystem(gram, K):
            raise NumericalError("closed-form stage failed")

        calls = []

        def slow_oracle_trajectory(*args):
            # still running when the closed-form stage fails, so that the
            # run must wait for it
            calls.append(args)
            time.sleep(0.2)
            return oracle_trajectory(*args)

        monkeypatch.setattr(oracle, "numeric_eigensystem", failing_eigensystem)
        # looked up when the thread runs, as a tracer's rebinding needs
        monkeypatch.setattr(oracle, "oracle_trajectory", slow_oracle_trajectory)
        model, C = perturbed_case_iv()
        before = threading.active_count()
        with pytest.raises(NumericalError, match="closed-form stage failed"):
            run_rounds(model, C, 1e-3, 2, ALL_STAGES, SolverConfig(max_iterations=1))
        assert threading.active_count() == before
        assert len(calls) == 1

    def test_single_stage_runs_start_no_thread(self, monkeypatch):
        started = []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(threading, "Thread", CountingThread)
        model, C = perturbed_case_iv(n=10)
        unperturbed = dataclasses.replace(model, perturbation_amplitude=0.0)
        # on the cells the closed-form stage runs first on the caller's
        # thread, whatever the stages
        assert np.isfinite(measure_approx_error(unperturbed, C, 1e-3, t=2))
        run = run_rounds(unperturbed, C, 1e-3, 2, ALL_STAGES, SolverConfig())
        assert run.oracle is not None and run.student is not None
        for m in (model, unperturbed):
            run = run_rounds(m, C, 1e-3, 2, ("closed_form", "pll"), SolverConfig())
            assert run.oracle is None and run.student is not None
        run = run_rounds(model, C, 1e-3, 2, ("oracle",), SolverConfig())
        assert run.oracle is not None and run.closed is None
        assert started == []
        # beside a dense closed-form stage the oracle runs on the one helper
        # thread, for approx-error and for a run alike
        assert np.isfinite(measure_approx_error(model, C, 1e-3, t=2))
        assert started == ["distillab-oracle"]
        run_rounds(model, C, 1e-3, 2, ALL_STAGES, SolverConfig())
        assert started == ["distillab-oracle"] * 2

    def test_linear_round_is_the_shifted_solve(self):
        model, C = perturbed_case_iv(n=10)
        K, n, lam = model.K, model.n, 1e-3
        gram = build_gram(model)
        Y = OutputMatrix.from_labels(realize_labels(C, n, seed=0).given_labels, K).columns
        shift = K * K * n * lam
        reference = np.linalg.solve((gram + shift * np.eye(gram.shape[0])).T,
                                    ((Y - 1.0 / K) @ gram).T).T
        # a dense round solves with the Cholesky factor of the shifted Gram
        factor = gram_models._shifted_factor(gram, shift)
        linear = next(gram_models._shifted_rounds(gram, factor, shift, Y - 1.0 / K, 1))
        np.testing.assert_allclose(linear, reference, rtol=0, atol=1e-13)
        # a cell round is the class round with the cell counts as weights,
        # equal to an LU solve of the unsymmetric cell matrix
        unperturbed = dataclasses.replace(model, perturbation_amplitude=0.0)
        cells = cell_gram(unperturbed, realize_labels(C, n, seed=0))
        Yc = OutputMatrix.from_labels(cells.cells[:, 1], K).columns
        shifted = cells.matrix + shift * np.eye(cells.matrix.shape[0])
        reference = np.linalg.solve(shifted.T, ((Yc - 1.0 / K) @ cells.matrix).T).T
        linear = _class_round(Yc - 1.0 / K, cells.cells[:, 0] - 1, cells.weights, unperturbed,
                              lam, 1)
        np.testing.assert_allclose(linear, reference, rtol=0, atol=1e-13)
