import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import (
    SETUP_A_LAMBDA,
    random_doubly_stochastic,
    setup_a_constants,
    setup_a_model,
)
from distillab import GramCase, GramModel, SuperclassMap, ValidationError
from distillab.noise_theory import (
    CorruptionMatrix,
    evolving_condition,
    make_corruption,
    minimal_rounds,
    pll_accuracy_condition,
    predicted_population_accuracy,
    realize_labels,
    sd_accuracy_condition,
    theory_constants,
)


class TestCorruptionMatrix:
    def test_symmetric_table_values(self):
        C = make_corruption("symmetric", 0.5, 4)
        assert np.all(np.diag(C.entries) == 0.5)
        off = C.entries[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 1 / 6)

    def test_zero_rate_is_identity_for_every_kind(self):
        smap = SuperclassMap((1, 1, 2, 2))
        for kind in ("symmetric", "asymmetric", "superclass"):
            C = make_corruption(kind, 0.0, 4, superclass_map=smap)
            np.testing.assert_array_equal(C.entries, np.eye(4))

    def test_asymmetric_puts_double_mass_on_cyclic_successor(self):
        C = make_corruption("asymmetric", 0.4, 4)
        assert C.entry(1, 1) == pytest.approx(0.6)
        assert C.entry(1, 2) == pytest.approx(0.2)
        assert C.entry(1, 3) == pytest.approx(0.1)
        assert C.entry(4, 1) == pytest.approx(0.2)  # successor of 4 wraps to 1
        np.testing.assert_allclose(C.entries.sum(axis=0), np.ones(4), atol=1e-15)
        np.testing.assert_allclose(C.entries.sum(axis=1), np.ones(4), atol=1e-15)

    def test_superclass_kind_confines_noise(self):
        smap = SuperclassMap((1, 1, 2, 2))
        C = make_corruption("superclass", 0.3, 4, superclass_map=smap)
        assert C.entry(1, 2) == pytest.approx(0.3)
        assert C.entry(1, 3) == 0.0
        assert C.is_block_confined(smap)

    def test_superclass_kind_rejects_singleton(self):
        smap = SuperclassMap((1, 2, 2))
        with pytest.raises(ValidationError, match="singleton"):
            make_corruption("superclass", 0.2, 3, superclass_map=smap)

    def test_explicit_validates_column_sums(self):
        bad = np.array([[0.7, 0.3], [0.4, 0.6]])
        with pytest.raises(ValidationError, match="column 1"):
            make_corruption("explicit", 0.0, 2, explicit_matrix=bad)

    def test_explicit_validates_row_sums(self):
        bad = np.array([[0.7, 0.2], [0.2, 0.7]])
        with pytest.raises(ValidationError, match="row 1"):
            make_corruption("explicit", 0.0, 2, explicit_matrix=bad)

    def test_csv_round_trip(self, tmp_path):
        C = make_corruption("asymmetric", 0.4, 4)
        path = tmp_path / "corruption.csv"
        C.to_csv(path)
        loaded = CorruptionMatrix.from_csv(path)
        np.testing.assert_allclose(loaded.entries, C.entries, atol=1e-12)


class TestRealizeLabels:
    def test_identity_reproduces_true_labels(self):
        C = make_corruption("symmetric", 0.0, 3)
        la = realize_labels(C, n=5, seed=1)
        np.testing.assert_array_equal(la.given_labels, la.true_labels)

    def test_symmetric_half_rate_n6_counts(self):
        C = make_corruption("symmetric", 0.5, 4)
        la = realize_labels(C, n=6, seed=3)
        emp = la.empirical_corruption()
        np.testing.assert_allclose(emp.entries, C.entries, atol=1e-15)
        for k in range(1, 5):
            block = la.given_labels[la.true_labels == k]
            assert np.count_nonzero(block == k) == 3
            for kp in range(1, 5):
                if kp != k:
                    assert np.count_nonzero(block == kp) == 1

    def test_non_integral_count_reports_entry_and_minimal_n(self):
        C = make_corruption("symmetric", 0.5, 4)
        with pytest.raises(ValidationError, match=r"\(1,2\)") as err:
            realize_labels(C, n=5)
        assert "6" in str(err.value)

    def test_seed_determinism_and_variation(self):
        C = make_corruption("symmetric", 0.5, 4)
        a = realize_labels(C, n=6, seed=9)
        b = realize_labels(C, n=6, seed=9)
        c = realize_labels(C, n=6, seed=10)
        np.testing.assert_array_equal(a.given_labels, b.given_labels)
        assert not np.array_equal(a.given_labels, c.given_labels)

    def test_csv_round_trip(self, tmp_path):
        C = make_corruption("asymmetric", 0.4, 5)
        la = realize_labels(C, n=25, seed=0)
        path = tmp_path / "labels.csv"
        la.to_csv(path)
        from distillab.noise_theory import LabelAssignment

        loaded = LabelAssignment.from_csv(path)
        np.testing.assert_array_equal(loaded.true_labels, la.true_labels)
        np.testing.assert_array_equal(loaded.given_labels, la.given_labels)


class TestNearestRealizable:
    def test_exact_matrix_unchanged(self):
        from distillab.noise_theory import nearest_realizable

        C = make_corruption("symmetric", 0.5, 4)
        np.testing.assert_array_equal(nearest_realizable(C, 6).entries, C.entries)

    def test_snapped_matrix_is_realizable_and_close(self):
        from distillab.noise_theory import nearest_realizable

        C = make_corruption("symmetric", 0.5, 4)
        snapped = nearest_realizable(C, 50)  # 50/6 is not integral
        la = realize_labels(snapped, 50, seed=0)
        np.testing.assert_allclose(
            la.empirical_corruption().entries, snapped.entries, atol=1e-12
        )
        assert np.abs(snapped.entries - C.entries).max() <= 2.0 / 50

    def test_random_matrices_snap_within_grid_spacing(self):
        from distillab.noise_theory import nearest_realizable

        rng = np.random.default_rng(17)
        for _ in range(25):
            K = int(rng.integers(2, 6))
            n = int(rng.integers(3, 40))
            C = random_doubly_stochastic(K, rng)
            snapped = nearest_realizable(C, n)
            realize_labels(snapped, n, seed=1)
            assert np.abs(snapped.entries - C.entries).max() <= (K + 1.0) / n


class TestTheoryConstants:
    def test_reference_setup_hand_arithmetic(self):
        tc = setup_a_constants()
        # K^2 n lam = 0.5; p = 0.6/1.1, q = 30.6/31.1, r = 70.6/71.1
        assert tc.p == pytest.approx(0.6 / 1.1, abs=1e-15)
        assert tc.q == pytest.approx(30.6 / 31.1, abs=1e-15)
        assert tc.r.shape == (1,)
        assert tc.r[0] == pytest.approx(70.6 / 71.1, abs=1e-15)
        assert tc.qp_ratio() == pytest.approx(1.803858, abs=1e-6)

    def test_zero_class_correlation_collapses_q_to_p(self):
        model = GramModel(case=GramCase.I, K=4, n=50, c=0.0)
        tc = theory_constants(model, 1e-3)
        assert tc.q == pytest.approx(tc.p, abs=1e-15)

    def test_case5_zero_coupling_recovers_superclass_ratios(self):
        smap = SuperclassMap((1, 1, 2, 2))
        m5 = GramModel(case=GramCase.V, K=4, n=50, c=0.5, d=0.2, e=0.0, superclass_map=smap)
        tc = theory_constants(m5, 1e-3)
        for t in (1, 2, 5):
            assert tc.nu(t) == 0.0
            for s in (1, 2):
                assert tc.mu(s, t) == pytest.approx(tc.r[s - 1] ** t - tc.q**t, abs=1e-15)

    def test_ordering_invariant(self):
        smap = SuperclassMap((1, 1, 2, 2))
        model = GramModel(case=GramCase.IV, K=4, n=30, c=0.5, d=0.2, superclass_map=smap)
        tc = theory_constants(model, 1e-3)
        assert 0 < tc.p < tc.q < tc.r.min() <= tc.r.max() < 1

    def test_per_class_model_has_vector_constants(self):
        model = GramModel(case=GramCase.II, K=3, n=10, c=(0.3, 0.5, 0.7))
        tc = theory_constants(model, 1e-3)
        assert tc.p is None
        assert tc.per_class_p.shape == (3,)
        with pytest.raises(ValidationError):
            tc.qp_ratio()

    def test_rejects_perturbed_model(self):
        model = GramModel(case=GramCase.III, K=2, n=4, c=0.5, d=0.1,
                          perturbation_amplitude=0.01)
        with pytest.raises(ValidationError):
            theory_constants(model, 1e-3)


class TestSdCondition:
    def test_identity_corruption_passes_at_every_round(self):
        C = make_corruption("symmetric", 0.0, 4)
        tc = setup_a_constants()
        for t in (1, 2, 5):
            assert sd_accuracy_condition(C, tc, t).achieves_100

    def test_half_symmetric_fails_at_one_passes_at_three(self):
        C = make_corruption("symmetric", 0.5, 4)
        tc = setup_a_constants()
        res1 = sd_accuracy_condition(C, tc, 1)
        assert not res1.achieves_100
        assert res1.threshold == pytest.approx(1.244, abs=1e-3)
        assert (1, 2) in res1.failing_pairs
        res3 = sd_accuracy_condition(C, tc, 3)
        assert res3.achieves_100
        assert res3.threshold == pytest.approx(0.2053, abs=2e-4)
        assert res3.threshold < 1 / 3

    def test_rejects_cross_superclass_noise(self):
        smap = SuperclassMap((1, 1, 2, 2))
        model = GramModel(case=GramCase.IV, K=4, n=60, c=0.4, d=0.1, superclass_map=smap)
        tc = theory_constants(model, 1e-3)
        C = make_corruption("symmetric", 0.3, 4)
        with pytest.raises(ValidationError, match="superclass"):
            sd_accuracy_condition(C, tc, 1)

    def test_block_confined_noise_accepted_with_superclasses(self):
        smap = SuperclassMap((1, 1, 2, 2))
        model = GramModel(case=GramCase.IV, K=4, n=60, c=0.4, d=0.1, superclass_map=smap)
        tc = theory_constants(model, 1e-3)
        C = make_corruption("superclass", 0.3, 4, superclass_map=smap)
        assert sd_accuracy_condition(C, tc, 4).achieves_100 in (True, False)

    @pytest.mark.parametrize("leak, confined", [(1e-13, True), (1e-6, False)])
    def test_cross_superclass_mass_within_stochastic_tolerance(self, leak, confined):
        smap = SuperclassMap((1, 1, 2, 2))
        model = GramModel(case=GramCase.IV, K=4, n=60, c=0.4, d=0.1, superclass_map=smap)
        tc = theory_constants(model, 1e-3)
        m = make_corruption("superclass", 0.3, 4, superclass_map=smap).entries.copy()
        # a doubly stochastic cycle moving `leak` across the superclasses
        m[0, 2] += leak
        m[0, 0] -= leak
        m[2, 0] += leak
        m[2, 2] -= leak
        C = CorruptionMatrix(m)
        assert C.is_block_confined(smap) is confined
        if confined:
            assert sd_accuracy_condition(C, tc, 4).achieves_100
        else:
            with pytest.raises(ValidationError, match="superclass"):
                sd_accuracy_condition(C, tc, 4)

    def test_monotone_in_rounds_for_positive_gaps(self):
        rng = np.random.default_rng(5)
        tc = setup_a_constants()
        for _ in range(25):
            C = random_doubly_stochastic(4, rng)
            prev = False
            for t in range(1, 9):
                cur = sd_accuracy_condition(C, tc, t).achieves_100
                assert cur or not prev
                prev = cur


class TestMinimalRounds:
    def test_half_symmetric_needs_three_rounds(self):
        C = make_corruption("symmetric", 0.5, 4)
        assert minimal_rounds(C, setup_a_constants()) == 3

    def test_identity_needs_one(self):
        C = make_corruption("symmetric", 0.0, 4)
        assert minimal_rounds(C, setup_a_constants()) == 1

    def test_zero_gap_unreachable(self):
        C = CorruptionMatrix(np.array(
            [[0.5, 0.5, 0.0],
             [0.0, 0.5, 0.5],
             [0.5, 0.0, 0.5]]))
        assert minimal_rounds(C, setup_a_constants()) is None

    def test_boundary_verification(self):
        rng = np.random.default_rng(11)
        tc = setup_a_constants()
        for _ in range(30):
            C = random_doubly_stochastic(4, rng)
            t_star = minimal_rounds(C, tc)
            assert t_star is not None
            assert sd_accuracy_condition(C, tc, t_star).achieves_100
            if t_star > 1:
                assert not sd_accuracy_condition(C, tc, t_star - 1).achieves_100


class TestPllCondition:
    def test_half_symmetric_passes(self):
        C = make_corruption("symmetric", 0.5, 4)
        assert pll_accuracy_condition(C).achieves_100

    def test_seventy_six_percent_fails(self):
        C = make_corruption("symmetric", 0.76, 4)
        res = pll_accuracy_condition(C)
        assert not res.achieves_100  # 0.24 < 0.76/3
        assert len(res.failing_pairs) == 12

    def test_identity_passes(self):
        assert pll_accuracy_condition(make_corruption("symmetric", 0.0, 4)).achieves_100

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_dominates_multi_round_condition(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 6))
        C = random_doubly_stochastic(K, rng, diag_weight=float(rng.uniform(0.2, 0.9)))
        tc = theory_constants(
            GramModel(case=GramCase.III, K=K, n=50, c=0.4, d=0.1), 1e-3
        )
        if not pll_accuracy_condition(C).achieves_100:
            for t in range(1, 11):
                assert not sd_accuracy_condition(C, tc, t).achieves_100


class TestEvolvingCondition:
    def test_constant_schedule_matches_fixed_condition(self):
        rng = np.random.default_rng(2)
        tc = setup_a_constants()
        schedule = [(0.4, 0.1)] * 6
        for _ in range(20):
            C = random_doubly_stochastic(4, rng, diag_weight=float(rng.uniform(0.3, 0.95)))
            for t in range(1, 7):
                assert evolving_condition(
                    C, schedule, SETUP_A_LAMBDA, 4, 100, t
                ) == sd_accuracy_condition(C, tc, t).achieves_100

    def test_growing_intra_class_correlation_helps(self):
        C = make_corruption("symmetric", 0.5, 4)
        lam, K, n = SETUP_A_LAMBDA, 4, 100
        flat = [(0.4, 0.1), (0.4, 0.1)]
        rising = [(0.4, 0.1), (0.5, 0.1)]

        def ratio_product(schedule):
            prod = 1.0
            for c_i, d_i in schedule:
                tc_i = theory_constants(
                    GramModel(case=GramCase.III, K=K, n=n, c=c_i, d=d_i), lam
                )
                prod *= tc_i.qp_ratio()
            return prod

        assert ratio_product(rising) > ratio_product(flat)
        # verdicts from the implementation agree with thresholds from the products
        thr_rising = 1.0 / (ratio_product(rising) - 1.0)
        expected = (1 / 3) > thr_rising
        assert evolving_condition(C, rising, lam, K, n, 2) == expected

    def test_single_round_schedule_equals_fixed_condition(self):
        C = make_corruption("symmetric", 0.5, 4)
        assert evolving_condition(
            C, [(0.4, 0.1)], SETUP_A_LAMBDA, 4, 100, 1
        ) == sd_accuracy_condition(C, setup_a_constants(), 1).achieves_100

    def test_short_schedule_rejected(self):
        C = make_corruption("symmetric", 0.5, 4)
        with pytest.raises(ValidationError, match="schedule"):
            evolving_condition(C, [(0.4, 0.1)], SETUP_A_LAMBDA, 4, 100, 2)


class TestPredictedAccuracy:
    def test_reference_phase_values(self):
        C = make_corruption("symmetric", 0.5, 4)
        tc = setup_a_constants()
        assert predicted_population_accuracy(C, tc, 1, "sd") == pytest.approx(0.5)
        assert predicted_population_accuracy(C, tc, 2, "sd") == pytest.approx(0.5)
        assert predicted_population_accuracy(C, tc, 3, "sd") == pytest.approx(1.0)
        assert predicted_population_accuracy(C, tc, 1, "pll") == pytest.approx(1.0)

    def test_non_decreasing_in_rounds_for_positive_gaps(self):
        rng = np.random.default_rng(7)
        tc = setup_a_constants()
        for _ in range(20):
            C = random_doubly_stochastic(4, rng)
            accs = [predicted_population_accuracy(C, tc, t, "sd") for t in range(1, 9)]
            assert all(b >= a - 1e-15 for a, b in zip(accs, accs[1:]))

    def test_sd_accuracy_one_iff_condition(self):
        rng = np.random.default_rng(13)
        tc = setup_a_constants()
        for _ in range(40):
            C = random_doubly_stochastic(4, rng, diag_weight=float(rng.uniform(0.3, 0.95)))
            for t in (1, 2, 4):
                acc = predicted_population_accuracy(C, tc, t, "sd")
                cond = sd_accuracy_condition(C, tc, t).achieves_100
                assert (acc == pytest.approx(1.0, abs=1e-12)) == cond
