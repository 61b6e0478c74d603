import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import (
    SETUP_A_LAMBDA,
    random_block_confined,
    random_doubly_stochastic,
    setup_a_constants,
    setup_a_model,
)
from distillab import (
    GramCase,
    GramModel,
    SuperclassMap,
    ValidationError,
    analytic_eigensystem,
    build_gram,
    numeric_eigensystem,
)
from distillab.distillation import (
    OutputMatrix,
    PartialLabelMatrix,
    argmax_accuracy,
    averaging_operator,
    closed_form_output,
    extended_output,
    pll_output,
    pll_refine,
    trajectory,
)
from distillab.noise_theory import (
    CorruptionMatrix,
    make_corruption,
    pll_accuracy_condition,
    predicted_population_accuracy,
    realize_labels,
    theory_constants,
)


def one_hot_from(assignment):
    return OutputMatrix.from_labels(assignment.given_labels, assignment.K)


class TestAveragingOperator:
    def test_round_zero_is_identity(self):
        model = setup_a_model()
        eig = analytic_eigensystem(model)
        op = averaging_operator(eig, SETUP_A_LAMBDA, model.K, model.n, 0)
        np.testing.assert_allclose(op.matrix, np.eye(model.size), atol=1e-10)

    def test_identity_gram_contracts_uniformly(self):
        model = GramModel(case=GramCase.I, K=4, n=100, c=0.0)
        eig = analytic_eigensystem(model)
        op = averaging_operator(eig, SETUP_A_LAMBDA, 4, 100, 1)
        # every eigenvalue is 1/(K^2 n lam + 1) = 1/1.5
        np.testing.assert_allclose(op.matrix, np.eye(400) / 1.5, atol=1e-12)

    def test_reference_operator_spectrum(self):
        model = setup_a_model()
        eig = analytic_eigensystem(model)
        op = averaging_operator(eig, SETUP_A_LAMBDA, 4, 100, 1)
        ev = np.sort(op.eigenvalues)[::-1]
        assert ev[0] == pytest.approx(70.6 / 71.1, abs=1e-12)
        np.testing.assert_allclose(ev[1:4], 30.6 / 31.1, atol=1e-12)
        np.testing.assert_allclose(ev[4:], 0.6 / 1.1, atol=1e-12)

    def test_rejects_negative_source_eigenvalue(self):
        bad = numeric_eigensystem(np.array([[1.0, 0.0], [0.0, -0.5]]))
        with pytest.raises(ValidationError):
            averaging_operator(bad, 1e-3, 2, 1, 1)


class TestTrajectory:
    def test_round_zero_unchanged(self):
        C = make_corruption("symmetric", 0.5, 4)
        la = realize_labels(C, n=6, seed=0)
        model = GramModel(case=GramCase.III, K=4, n=6, c=0.4, d=0.1)
        eig = analytic_eigensystem(model)
        traj = trajectory(one_hot_from(la), eig, 1e-3, 4, 6, 3)
        np.testing.assert_array_equal(traj[0].columns, one_hot_from(la).columns)
        assert [m.round for m in traj] == [0, 1, 2, 3]

    def test_long_run_converges_to_uniform(self):
        model = setup_a_model()
        C = make_corruption("symmetric", 0.0, 4)
        la = realize_labels(C, n=100, seed=0)
        eig = analytic_eigensystem(model)
        traj = trajectory(one_hot_from(la), eig, SETUP_A_LAMBDA, 4, 100, 1000)
        # slowest surviving mode decays like q^t (the balanced all-ones mode
        # carries no weight): ~3e-4 at t=500, below 1e-6 by t=1000
        assert np.abs(traj[500].columns - 0.25).max() < 1e-3
        np.testing.assert_allclose(traj[1000].columns, 0.25, atol=1e-6)

    def test_clean_sample_column_reference_values(self):
        # one exact realization of eta=0.5 symmetric needs n divisible by 6
        K, n = 4, 102
        model = GramModel(case=GramCase.III, K=K, n=n, c=0.4, d=0.1)
        C = make_corruption("symmetric", 0.5, K)
        la = realize_labels(C, n=n, seed=4)
        eig = analytic_eigensystem(model)
        traj = trajectory(one_hot_from(la), eig, SETUP_A_LAMBDA, K, n, 1)
        tc = theory_constants(model, SETUP_A_LAMBDA)
        clean = np.nonzero((la.true_labels == 1) & (la.given_labels == 1))[0][0]
        expected = closed_form_output((1, 1), C, tc, 1)
        np.testing.assert_allclose(traj[1].columns[:, clean], expected, atol=1e-10)

    def test_column_sums_preserved(self):
        C = make_corruption("asymmetric", 0.4, 4)
        la = realize_labels(C, n=10, seed=2)
        model = GramModel(case=GramCase.III, K=4, n=10, c=0.5, d=0.2)
        eig = analytic_eigensystem(model)
        for m in trajectory(one_hot_from(la), eig, 1e-3, 4, 10, 6):
            np.testing.assert_allclose(m.columns.sum(axis=0), 1.0, atol=1e-9)

    def test_dimension_mismatch_rejected(self):
        model = GramModel(case=GramCase.III, K=4, n=10, c=0.5, d=0.2)
        eig = analytic_eigensystem(model)
        y0 = OutputMatrix.from_labels(np.array([1, 2, 3, 4]), 4)
        with pytest.raises(ValidationError):
            trajectory(y0, eig, 1e-3, 4, 10, 1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_eigen_form_matches_single_step_recursion(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 5))
        n = int(rng.integers(1, 11))
        c = float(rng.uniform(0.2, 0.8))
        d = float(rng.uniform(0.0, c - 0.1)) if c > 0.1 else 0.0
        lam = float(rng.uniform(1e-4, 1e-2))
        model = GramModel(case=GramCase.III if d > 0 else GramCase.I,
                          K=K, n=n, c=c, d=d)
        eig = analytic_eigensystem(model)
        labels = rng.integers(1, K + 1, size=K * n)
        y0 = OutputMatrix.from_labels(labels, K)
        traj = trajectory(y0, eig, lam, K, n, 8)
        step = averaging_operator(eig, lam, K, n, 1).matrix
        cur = y0.columns
        for t in range(1, 9):
            cur = (cur - 1.0 / K) @ step + 1.0 / K
            np.testing.assert_allclose(traj[t].columns, cur, atol=1e-10)


class TestClosedFormOutput:
    def test_clean_sample_reference_values(self):
        tc = setup_a_constants()
        C = make_corruption("symmetric", 0.5, 4)
        out = closed_form_output((1, 1), C, tc, 1)
        np.testing.assert_allclose(
            out, [0.768708, 0.077097, 0.077097, 0.077097], atol=1e-6
        )

    def test_noisy_sample_crossover_values(self):
        tc = setup_a_constants()
        C = make_corruption("symmetric", 0.5, 4)
        out3 = closed_form_output((1, 2), C, tc, 3)
        assert out3[0] == pytest.approx(0.406993, abs=1e-6)
        assert out3[1] == pytest.approx(0.305858, abs=1e-6)
        assert out3[0] > out3[1]
        out2 = closed_form_output((1, 2), C, tc, 2)
        assert out2[1] > out2[0]

    def test_round_zero_is_one_hot_given_label(self):
        tc = setup_a_constants()
        C = make_corruption("symmetric", 0.5, 4)
        np.testing.assert_array_equal(
            closed_form_output((1, 3), C, tc, 0), np.array([0.0, 0.0, 1.0, 0.0])
        )

    def test_matches_trajectory_on_case3_and_case4(self):
        rng = np.random.default_rng(0)
        smap = SuperclassMap((1, 1, 2, 2))
        cases = [
            GramModel(case=GramCase.III, K=4, n=12, c=0.5, d=0.2),
            GramModel(case=GramCase.IV, K=4, n=12, c=0.5, d=0.2, superclass_map=smap),
        ]
        for model in cases:
            if model.case is GramCase.IV:
                C, _ = random_block_confined(4, (2, 2), rng)
            else:
                C = random_doubly_stochastic(4, rng)
            C = _round_to_n(C, model.n)
            la = realize_labels(C, n=model.n, seed=1)
            tc = theory_constants(model, 1e-3)
            eig = analytic_eigensystem(model)
            traj = trajectory(one_hot_from(la), eig, 1e-3, 4, model.n, 4)
            emp = la.empirical_corruption()
            for t in (1, 2, 4):
                for i in (0, 13, 25, 47):
                    expected = closed_form_output(
                        (int(la.true_labels[i]), int(la.given_labels[i])), emp, tc, t
                    )
                    np.testing.assert_allclose(
                        traj[t].columns[:, i], expected, atol=1e-9
                    )

    def test_monotone_confidence_transfer(self):
        tc = setup_a_constants()
        C = make_corruption("symmetric", 0.5, 4)
        clean = [closed_form_output((1, 1), C, tc, t)[0] for t in range(1, 21)]
        noisy = [closed_form_output((1, 2), C, tc, t)[0] for t in range(1, 21)]
        assert all(b < a for a, b in zip(clean, clean[1:]))
        diffs = np.diff(noisy)
        peak = int(np.argmax(noisy))
        assert np.all(diffs[:peak] > 0)
        assert np.all(diffs[peak:] < 0)

    def test_rejects_cross_superclass_noise(self):
        smap = SuperclassMap((1, 1, 2, 2))
        model = GramModel(case=GramCase.IV, K=4, n=30, c=0.5, d=0.2, superclass_map=smap)
        tc = theory_constants(model, 1e-3)
        C = make_corruption("symmetric", 0.4, 4)
        with pytest.raises(ValidationError):
            closed_form_output((1, 2), C, tc, 1)

    def test_per_class_constants_drop_superclass_term(self):
        model = GramModel(case=GramCase.II, K=3, n=12, c=(0.3, 0.5, 0.7))
        tc = theory_constants(model, 1e-3)
        C = make_corruption("symmetric", 1.0 / 3.0, 3)
        la = realize_labels(C, n=12, seed=5)
        eig = analytic_eigensystem(model)
        traj = trajectory(one_hot_from(la), eig, 1e-3, 3, 12, 3)
        emp = la.empirical_corruption()
        for i in (0, 13, 26):
            expected = closed_form_output(
                (int(la.true_labels[i]), int(la.given_labels[i])), emp, tc, 3
            )
            np.testing.assert_allclose(traj[3].columns[:, i], expected, atol=1e-9)


def _round_to_n(C, n):
    """Snap a random corruption matrix onto the n-sample grid exactly."""
    counts = np.rint(C.entries * n)
    # repair rows then columns greedily to keep sums at n
    for row in counts:
        while row.sum() > n:
            row[np.argmax(row)] -= 1
        while row.sum() < n:
            row[np.argmin(row)] += 1
    col = counts.sum(axis=0)
    k = 0
    while not np.all(col == n) and k < 200:
        hi, lo = int(np.argmax(col)), int(np.argmin(col))
        rows = np.nonzero(counts[:, hi] > 0)[0]
        r = rows[np.argmax(counts[rows, hi])]
        counts[r, hi] -= 1
        counts[r, lo] += 1
        col = counts.sum(axis=0)
        k += 1
    assert np.all(counts.sum(axis=0) == n) and np.all(counts.sum(axis=1) == n)
    return CorruptionMatrix(counts / n)


class TestExtendedOutput:
    def test_zero_coupling_equals_plain_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            sizes = [(2, 2), (1, 3), (2, 2, 2)][int(rng.integers(0, 3))]
            K = int(sum(sizes))
            n = int(rng.integers(2, 30))
            c = float(rng.uniform(0.3, 0.8))
            d = float(rng.uniform(0.05, c - 0.05))
            smap = SuperclassMap.from_sizes(sizes)
            model = GramModel(case=GramCase.V, K=K, n=n, c=c, d=d, e=0.0,
                              superclass_map=smap)
            tc = theory_constants(model, float(rng.uniform(1e-4, 1e-2)))
            C, _ = random_block_confined(K, sizes, rng)
            y = int(rng.integers(1, K + 1))
            yhat_choices = [k for k in smap.classes_of(smap.superclass_of(y))]
            yhat = int(rng.choice(yhat_choices))
            t = int(rng.integers(0, 6))
            np.testing.assert_allclose(
                extended_output((y, yhat), C, tc, t),
                closed_form_output((y, yhat), C, tc, t),
                atol=1e-12,
            )

    def test_round_zero_one_hot(self):
        smap = SuperclassMap((1, 1, 2, 2))
        model = GramModel(case=GramCase.V, K=4, n=10, c=0.5, d=0.2, e=0.05,
                          superclass_map=smap)
        tc = theory_constants(model, 1e-3)
        C = make_corruption("superclass", 0.2, 4, superclass_map=smap)
        out = extended_output((2, 1), C, tc, 0)
        np.testing.assert_array_equal(out, [1.0, 0.0, 0.0, 0.0])

    def test_matches_trajectory_with_coupling(self):
        K, n, lam = 4, 50, 1e-3
        smap = SuperclassMap((1, 1, 2, 2))
        model = GramModel(case=GramCase.V, K=K, n=n, c=0.5, d=0.2, e=0.05,
                          superclass_map=smap)
        tc = theory_constants(model, lam)
        C = make_corruption("superclass", 0.2, 4, superclass_map=smap)
        la = realize_labels(C, n=n, seed=9)
        eig = analytic_eigensystem(model)
        traj = trajectory(one_hot_from(la), eig, lam, K, n, 3)
        for t in (1, 2, 3):
            for i in (0, 60, 120, 199):
                expected = extended_output(
                    (int(la.true_labels[i]), int(la.given_labels[i])), C, tc, t
                )
                np.testing.assert_allclose(traj[t].columns[:, i], expected, atol=1e-9)

    def test_unequal_sizes_with_coupling_rejected(self):
        smap = SuperclassMap((1, 2, 2, 2))
        model = GramModel(case=GramCase.V, K=4, n=10, c=0.5, d=0.2, e=0.05,
                          superclass_map=smap)
        tc = theory_constants(model, 1e-3)
        assert tc.case5 is None
        C = make_corruption("symmetric", 0.0, 4)
        with pytest.raises(ValidationError):
            extended_output((1, 1), C, tc, 1)


class TestPllRefine:
    def test_distinct_top_two(self):
        m = OutputMatrix(np.array([[0.5, 0.3, 0.15, 0.05]]).T, round=1)
        refined = pll_refine(m)
        np.testing.assert_array_equal(refined.columns[:, 0], [0.5, 0.5, 0.0, 0.0])

    def test_tie_breaks_to_lowest_index(self):
        m = OutputMatrix(np.array([[0.4, 0.4, 0.1, 0.1]]).T, round=1)
        np.testing.assert_array_equal(
            pll_refine(m).columns[:, 0], [0.5, 0.5, 0.0, 0.0]
        )

    def test_uniform_column_takes_first_two_classes(self):
        m = OutputMatrix(np.full((4, 1), 0.25), round=1)
        np.testing.assert_array_equal(
            pll_refine(m).columns[:, 0], [0.5, 0.5, 0.0, 0.0]
        )

    def test_idempotent_on_two_hot_shape(self):
        cols = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        m = OutputMatrix(cols, round=1)
        refined = pll_refine(m)
        np.testing.assert_array_equal(refined.columns, cols)

    def test_rejects_single_class(self):
        m = OutputMatrix(np.ones((1, 3)), round=1)
        with pytest.raises(ValidationError):
            pll_refine(m)

    @pytest.mark.parametrize(
        "column, expected",
        [
            # rounding-level differences at the top are ties
            ([0.4, 0.4 + 1e-15, 0.1, 0.1 - 1e-15], [0.5, 0.5, 0.0, 0.0]),
            ([0.3, 0.3 - 1e-15, 0.3 + 1e-15, 0.1], [0.5, 0.5, 0.0, 0.0]),
            # ... and for the second slot
            ([0.5, 0.2 - 1e-15, 0.2, 0.1], [0.5, 0.5, 0.0, 0.0]),
            ([0.1, 0.1 - 1e-15, 0.4 + 1e-15, 0.4], [0.0, 0.0, 0.5, 0.5]),
            # differences above the tie band still rank
            ([0.5, 0.2 - 1e-9, 0.2 + 1e-9, 0.1], [0.5, 0.0, 0.5, 0.0]),
        ],
    )
    def test_near_ties_break_to_lowest_index(self, column, expected):
        m = OutputMatrix(np.array([column]).T, round=1)
        np.testing.assert_array_equal(pll_refine(m).columns[:, 0], expected)

    @pytest.mark.parametrize(
        "case, K, n, eta, kind, sizes",
        [
            (GramCase.III, 4, 60, 0.0, "symmetric", None),
            (GramCase.III, 4, 60, 0.5, "symmetric", None),
            (GramCase.IV, 6, 40, 0.25, "superclass", (3, 3)),
            (GramCase.V, 6, 40, 0.0, "superclass", (3, 3)),
        ],
    )
    def test_targets_agree_between_analytic_and_dense_eigensystems(
        self, case, K, n, eta, kind, sizes
    ):
        # the two eigen paths differ only by rounding, which the tie band absorbs
        smap = SuperclassMap.from_sizes(sizes) if sizes else None
        model = GramModel(case=case, K=K, n=n, c=0.4, d=0.15,
                          e=0.05 if case is GramCase.V else 0.0, superclass_map=smap)
        C = make_corruption(kind, eta, K, superclass_map=smap)
        Y0 = one_hot_from(realize_labels(C, n, seed=0))
        targets = [
            pll_refine(trajectory(Y0, eig, SETUP_A_LAMBDA, K, n, 1)[1]).columns
            for eig in (analytic_eigensystem(model), numeric_eigensystem(build_gram(model)))
        ]
        np.testing.assert_array_equal(targets[0], targets[1])


class TestPllOutput:
    def test_identity_corruption_clean_component(self):
        tc = setup_a_constants()
        C = make_corruption("symmetric", 0.0, 4)
        res = pll_output((1, 1), C, tc)
        p, q = tc.p, tc.q
        assert res.vector[0] == pytest.approx(p / 2 + (q - p) / 2 + (1 - q) / 4, abs=1e-12)
        assert res.vector[0] == pytest.approx(0.496, abs=1e-3)
        assert res.premise_ok

    def test_noisy_sample_reference_values(self):
        tc = setup_a_constants()
        C = make_corruption("symmetric", 0.5, 4)
        res = pll_output((1, 2), C, tc)
        assert res.vector[0] == pytest.approx(0.496, abs=1e-3)
        assert res.vector[1] == pytest.approx(0.423, abs=1e-3)
        assert res.vector[0] > res.vector[1]
        assert res.premise_ok

    def test_flags_premise_violation(self):
        tc = setup_a_constants()
        C = make_corruption("symmetric", 0.76, 4)
        assert not pll_output((1, 2), C, tc).premise_ok

    def test_argmax_at_true_label_across_condition_grid(self):
        rng = np.random.default_rng(31)
        tc = setup_a_constants()
        count = 0
        for _ in range(100):
            C = random_doubly_stochastic(4, rng, diag_weight=float(rng.uniform(0.3, 0.9)))
            if not pll_accuracy_condition(C).achieves_100:
                continue
            count += 1
            for y in range(1, 5):
                for yhat in range(1, 5):
                    if C.entry(y, yhat) <= 0:
                        continue
                    vec = pll_output((y, yhat), C, tc).vector
                    assert int(np.argmax(vec)) == y - 1
                    assert (vec == vec.max()).sum() == 1
        assert count > 30

    def test_cell_argmax_agrees_with_predicted_accuracy(self):
        rng = np.random.default_rng(37)
        tc = setup_a_constants()
        for _ in range(40):
            C = random_doubly_stochastic(4, rng, diag_weight=float(rng.uniform(0.3, 0.95)))
            total = 0.0
            for y in range(1, 5):
                for yhat in range(1, 5):
                    mass = C.entry(y, yhat)
                    if mass <= 0:
                        continue
                    vec = pll_output((y, yhat), C, tc).vector
                    strict = (vec == vec.max()).sum() == 1 and int(np.argmax(vec)) == y - 1
                    total += mass * strict
            assert predicted_population_accuracy(C, tc, 1, "pll") == pytest.approx(
                total / 4, abs=1e-12
            )


class TestArgmaxAccuracy:
    def test_one_hot_exact(self):
        m = OutputMatrix.from_labels(np.array([1, 2, 3]), 3)
        assert argmax_accuracy(m, np.array([1, 2, 3])) == 1.0
        assert argmax_accuracy(m, np.array([1, 2, 2])) == pytest.approx(2 / 3)

    def test_uniform_outputs_are_all_ties(self):
        m = OutputMatrix(np.full((4, 5), 0.25), round=1)
        assert argmax_accuracy(m, np.array([1, 2, 3, 4, 1])) == 0.0

    def test_near_tie_for_the_maximum_is_incorrect(self):
        cols = np.array([[0.4, 0.4 + 1e-15, 0.1, 0.1 - 1e-15],
                         [0.4, 0.4 + 1e-9, 0.1, 0.1 - 1e-9]]).T
        m = OutputMatrix(cols, round=1)
        assert argmax_accuracy(m, np.array([1, 2])) == 0.5
        assert argmax_accuracy(m, np.array([2, 2])) == 0.5

    def test_closed_form_round3_reaches_full_accuracy(self):
        K, n = 4, 102
        model = GramModel(case=GramCase.III, K=K, n=n, c=0.4, d=0.1)
        tc = theory_constants(model, SETUP_A_LAMBDA)
        C = make_corruption("symmetric", 0.5, K)
        la = realize_labels(C, n=n, seed=8)
        cols = np.stack(
            [
                closed_form_output((int(y), int(g)), C, tc, 3)
                for y, g in zip(la.true_labels, la.given_labels)
            ],
            axis=1,
        )
        acc = argmax_accuracy(OutputMatrix(cols, round=3), la.true_labels)
        assert acc == 1.0
        assert acc == pytest.approx(predicted_population_accuracy(C, tc, 3, "sd"), abs=1e-12)


class TestOutputMatrixIO:
    def test_round_trip(self, tmp_path):
        C = make_corruption("symmetric", 0.5, 4)
        la = realize_labels(C, n=6, seed=0)
        m = one_hot_from(la)
        path = tmp_path / "outputs.csv"
        m.to_csv(path)
        loaded = OutputMatrix.from_csv(path)
        np.testing.assert_allclose(loaded.columns, m.columns, atol=1e-12)
        assert loaded.round == 0

    def test_round0_must_be_one_hot(self):
        with pytest.raises(ValidationError):
            OutputMatrix(np.full((4, 2), 0.25), round=0)

    def test_column_sum_enforced(self):
        with pytest.raises(ValidationError):
            OutputMatrix(np.array([[0.6], [0.6]]), round=1)

    def test_partial_label_matrix_validation(self):
        with pytest.raises(ValidationError):
            PartialLabelMatrix(np.array([[0.5], [0.25], [0.25]]))
