import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import (CASE_MODELS, DENSE_STAGE_MODEL, embed_gram, full_draw_gram,
                      one_hot_cells, whole_panel_factor)
from distillab import (
    EigenSystem,
    FeatureMatrix,
    GramCase,
    GramModel,
    NumericalError,
    SuperclassMap,
    ValidationError,
    analytic_eigensystem,
    build_gram,
    cell_outputs,
    gram_statistics,
    load_superclass_map,
    make_corruption,
    numeric_eigensystem,
    sd_accuracy_condition,
    theory_constants,
)
from distillab.gram_models import (SOLVE_BLOCK, _head_columns, _shifted_factor,
                                   _shifted_rounds)


def model_case(case, K, n, c, d=0.0, e=0.0, sizes=None, amp=0.0, seed=0):
    smap = SuperclassMap.from_sizes(sizes) if sizes else None
    return GramModel(
        case=case, K=K, n=n, c=c, d=d, e=e, superclass_map=smap,
        perturbation_amplitude=amp, seed=seed,
    )


def sized_case_model(name, size, **changes):
    """``CASE_MODELS[name]`` at ``size`` samples, with a single class when
    its ``K`` does not divide ``size``."""
    model = CASE_MODELS[name]
    if size % model.K:
        model = dataclasses.replace(
            model, K=1, c=model.c[:1] if model.case is GramCase.II else model.c,
            superclass_map=model.superclass_map and SuperclassMap((1,)))
    return dataclasses.replace(model, n=size // model.K, **changes)


# the traj_dense_oracle model: N = 960
DENSE_MODEL = model_case(GramCase.IV, K=4, n=240, c=0.4, d=0.1, sizes=(2, 2), amp=0.01)


class TestSuperclassMap:
    def test_sizes_and_lookup(self):
        smap = SuperclassMap((1, 1, 2, 2, 2))
        assert smap.num_superclasses == 2
        assert smap.sizes == (2, 3)
        assert smap.superclass_of(3) == 2
        assert smap.classes_of(1) == (1, 2)

    def test_rejects_gap_in_indices(self):
        with pytest.raises(ValidationError):
            SuperclassMap((1, 1, 3, 3))

    def test_interleaved_superclasses_match_their_sorted_relabelling(self):
        # class k of the interleaved map (1, 2, 1, 2) is class perm[k] of the
        # sorted map (1, 1, 2, 2), 0-based
        perm = [0, 2, 1, 3]
        runs = []
        for assignments in ((1, 2, 1, 2), (1, 1, 2, 2)):
            smap = SuperclassMap(assignments)
            model = GramModel(case=GramCase.V, K=4, n=30, c=0.5, d=0.2, e=0.05,
                              superclass_map=smap)
            runs.append((make_corruption("superclass", 0.4, 4, superclass_map=smap),
                         theory_constants(model, 1e-3)))
        (C_i, tc_i), (C_s, tc_s) = runs
        for name in ("p", "q", "r"):
            np.testing.assert_array_equal(getattr(tc_i, name), getattr(tc_s, name))
        for t in range(1, 6):
            verdicts = [sd_accuracy_condition(C, tc, t) for C, tc in runs]
            assert verdicts[0].achieves_100 == verdicts[1].achieves_100
            np.testing.assert_array_equal(verdicts[0].threshold, verdicts[1].threshold)
            cells_i = cell_outputs(one_hot_cells(4), C_i, tc_i, t)
            cells_s = cell_outputs(one_hot_cells(4), C_s, tc_s, t)
            np.testing.assert_allclose(cells_i, cells_s[np.ix_(perm, perm, perm)],
                                       rtol=0, atol=1e-14)


class TestBuildGram:
    def test_case3_2x1_exact_entries(self):
        gram = build_gram(model_case(GramCase.III, K=2, n=1, c=0.4, d=0.1))
        expected = np.array(
            [[1.0, 0.4, 0.1, 0.1],
             [0.4, 1.0, 0.1, 0.1],
             [0.1, 0.1, 1.0, 0.4],
             [0.1, 0.1, 0.4, 1.0]]
        )
        # canonical order: two samples of class 1 then two of class 2
        gram22 = build_gram(model_case(GramCase.III, K=2, n=2, c=0.4, d=0.1))
        np.testing.assert_array_equal(gram22, expected)
        np.testing.assert_array_equal(
            gram, np.array([[1.0, 0.1], [0.1, 1.0]])
        )

    def test_case1_zero_correlation_is_identity(self):
        for K, n in [(2, 3), (5, 4)]:
            gram = build_gram(model_case(GramCase.I, K=K, n=n, c=0.0))
            np.testing.assert_array_equal(gram, np.eye(K * n))

    def test_case4_analytic_eigenvalues_by_hand(self):
        # K_s*n*d + n(c-d) + (1-c) = 2*100*0.1 + 100*0.3 + 0.6 = 50.6 (x2)
        # n(c-d) + (1-c) = 30.6 (x2); 1-c = 0.6 (x396)
        model = model_case(GramCase.IV, K=4, n=100, c=0.4, d=0.1, sizes=(2, 2))
        vals = numeric_eigensystem(build_gram(model)).values
        expected = np.concatenate([[50.6] * 2, [30.6] * 2, [0.6] * 396])
        np.testing.assert_allclose(vals, expected, atol=1e-8)

    def test_case2_uses_per_class_correlations(self):
        gram = build_gram(model_case(GramCase.II, K=2, n=2, c=(0.3, 0.7)))
        assert gram[0, 1] == 0.3
        assert gram[2, 3] == 0.7
        assert gram[0, 2] == 0.0

    def test_case5_cross_superclass_entries(self):
        gram = build_gram(
            model_case(GramCase.V, K=4, n=1, c=0.5, d=0.2, e=0.05, sizes=(2, 2))
        )
        assert gram[0, 1] == 0.2
        assert gram[0, 2] == 0.05
        assert np.all(np.diag(gram) == 1.0)

    def test_case4_requires_superclass_map(self):
        with pytest.raises(ValidationError):
            GramModel(case=GramCase.IV, K=4, n=2, c=0.4, d=0.1)

    def test_correlation_ordering_enforced(self):
        with pytest.raises(ValidationError):
            model_case(GramCase.III, K=2, n=2, c=0.1, d=0.4)
        with pytest.raises(ValidationError):
            model_case(GramCase.V, K=4, n=2, c=0.5, d=0.1, e=0.2, sizes=(2, 2))

    def test_perturbation_bounded_symmetric_and_reproducible(self):
        base = model_case(GramCase.III, K=3, n=4, c=0.5, d=0.2)
        pert = model_case(GramCase.III, K=3, n=4, c=0.5, d=0.2, amp=0.05, seed=7)
        g0, g1 = build_gram(base), build_gram(pert)
        dev = np.abs(g1 - g0)
        assert dev.max() <= 0.05
        assert np.array_equal(g1, g1.T)  # bit-exact symmetry
        np.testing.assert_array_equal(np.diag(g1), np.ones(12))
        np.testing.assert_array_equal(g1, build_gram(pert))
        g2 = build_gram(model_case(GramCase.III, K=3, n=4, c=0.5, d=0.2, amp=0.05, seed=8))
        assert not np.array_equal(g1, g2)
        # the seeded upper-triangular draw, mirrored: (G0 + U) + U^T
        upper = np.triu(np.random.default_rng(7).uniform(-0.05, 0.05, size=(12, 12)), k=1)
        assert np.array_equal(g1, g0 + upper + upper.T)

    def test_unperturbed_peak_memory_is_one_gram_matrix(self):
        model = model_case(GramCase.V, K=6, n=200, c=0.4, d=0.15, e=0.05, sizes=(3, 3))
        tracemalloc.start()
        try:
            build_gram(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * model.size**2 * 8

    def test_perturbed_peak_memory_is_one_gram_matrix_and_a_block(self):
        model = DENSE_MODEL
        np.random.default_rng()  # its first call imports modules
        tracemalloc.start()
        try:
            build_gram(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the Gram and one block of SOLVE_BLOCK rows of the draw and its mask
        assert peak < 1.2 * model.size**2 * 8

    @pytest.mark.parametrize("size", [1, 127, 128, 129, 300])
    @pytest.mark.parametrize("name", sorted(CASE_MODELS))
    def test_blocked_draw_is_bitwise_the_full_draw(self, name, size):
        model = sized_case_model(name, size, perturbation_amplitude=0.03, seed=size)
        assert model.size == size
        assert np.array_equal(build_gram(model), full_draw_gram(model))


class TestAnalyticEigensystem:
    def test_case3_setup_a_values_by_hand(self):
        # Knd + n(c-d) + (1-c) = 40 + 30 + 0.6 = 70.6; then 30.6 x3; 0.6 x396
        es = analytic_eigensystem(model_case(GramCase.III, K=4, n=100, c=0.4, d=0.1))
        expected = np.concatenate([[70.6], [30.6] * 3, [0.6] * 396])
        np.testing.assert_allclose(es.values, expected, rtol=0, atol=1e-12)

    def test_case1_zero_correlation_all_unit(self):
        es = analytic_eigensystem(model_case(GramCase.I, K=3, n=2, c=0.0))
        np.testing.assert_array_equal(es.values, np.ones(6))

    def test_case5_e_zero_matches_case4(self):
        m4 = model_case(GramCase.IV, K=4, n=10, c=0.4, d=0.1, sizes=(2, 2))
        m5 = model_case(GramCase.V, K=4, n=10, c=0.4, d=0.1, e=0.0, sizes=(2, 2))
        np.testing.assert_allclose(
            analytic_eigensystem(m5).values, analytic_eigensystem(m4).values, atol=1e-12
        )

    def test_case4_superclass_eigenvectors_are_normalized_indicators(self):
        model = model_case(GramCase.IV, K=4, n=3, c=0.5, d=0.2, sizes=(2, 2))
        es = analytic_eigensystem(model)
        indicators = []
        for block in (slice(0, 6), slice(6, 12)):
            v = np.zeros(12)
            v[block] = 1.0 / np.sqrt(6)
            indicators.append(v)
        # the superclass values 2 * 3 * 0.2 + 1.4 lead the spectrum
        got = [es.vectors[:, i] for i in range(2)]
        for expected in indicators:
            assert any(
                min(np.abs(v - expected).max(), np.abs(v + expected).max()) < 1e-12
                for v in got
            )

    def test_rejects_perturbed_model(self):
        with pytest.raises(ValidationError):
            analytic_eigensystem(
                model_case(GramCase.III, K=2, n=2, c=0.4, d=0.1, amp=0.01)
            )

    @pytest.mark.parametrize(
        "case,kwargs",
        [
            (GramCase.I, dict(c=0.5)),
            (GramCase.II, dict(c=(0.3, 0.5, 0.7, 0.6))),
            (GramCase.III, dict(c=0.5, d=0.2)),
            (GramCase.IV, dict(c=0.5, d=0.2, sizes=(2, 2))),
            (GramCase.IV, dict(c=0.5, d=0.2, sizes=(1, 3))),
            (GramCase.V, dict(c=0.5, d=0.2, e=0.05, sizes=(2, 2))),
            (GramCase.V, dict(c=0.5, d=0.2, e=0.05, sizes=(1, 3))),
        ],
    )
    def test_matches_dense_decomposition(self, case, kwargs):
        model = model_case(case, K=4, n=5, **kwargs)
        es = analytic_eigensystem(model)
        gram = build_gram(model)
        dense = numeric_eigensystem(gram)
        np.testing.assert_allclose(es.values, dense.values, atol=1e-8)
        np.testing.assert_allclose((es.vectors * es.values) @ es.vectors.T, gram, atol=1e-8)
        np.testing.assert_allclose(es.vectors.T @ es.vectors, np.eye(model.size), rtol=0, atol=1e-10)

    def test_case4_eigen_gap_is_exactly_n_times_c_minus_d(self):
        for n, c, d in [(5, 0.5, 0.2), (20, 0.4, 0.1)]:
            model = model_case(GramCase.IV, K=4, n=n, c=c, d=d, sizes=(2, 2))
            vals = analytic_eigensystem(model).values
            K = 4
            assert vals[K - 1] - vals[K] == pytest.approx(n * (c - d), abs=1e-12)


class TestNumericEigensystem:
    def test_two_by_two_closed_form(self):
        es = numeric_eigensystem(np.array([[1.0, 0.4], [0.4, 1.0]]))
        np.testing.assert_allclose(es.values, [1.4, 0.6], atol=1e-12)

    def test_diagonal_matrix(self):
        es = numeric_eigensystem(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(es.values, [3.0, 2.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(es.vectors), np.eye(3), atol=1e-14)

    def test_matches_analytic_on_case4(self):
        model = model_case(GramCase.IV, K=4, n=5, c=0.4, d=0.1, sizes=(2, 2))
        np.testing.assert_allclose(
            numeric_eigensystem(build_gram(model)).values,
            analytic_eigensystem(model).values,
            atol=1e-8,
        )

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValidationError):
            numeric_eigensystem(np.array([[1.0, 0.2], [0.1, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 200])
    def test_rejects_a_non_finite_entry(self, bad, row):
        # symmetric, so only the finiteness check can catch it; row 200
        # sits in the second block of rows
        a = np.eye(300)
        a[row, row + 1] = a[row + 1, row] = bad
        with pytest.raises(ValidationError, match=f"NaN or infinite entry in row {row}; "
                                                  "give a Gram whose every entry is finite"):
            numeric_eigensystem(a)

    def test_symmetry_check_reads_every_block_and_allocates_one_block(self):
        gram = build_gram(DENSE_MODEL)
        size = DENSE_MODEL.size
        # asymmetric only in the last block of rows and in the first block
        # of columns
        gram[size - 1, 0] += 3e-10
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"max \|A - A\^T\| = 3\.000e-10"):
                numeric_eigensystem(gram)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.3 * size**2 * 8

    def test_deterministic_output(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 8))
        a = (a + a.T) / 2
        e1, e2 = numeric_eigensystem(a), numeric_eigensystem(a)
        np.testing.assert_array_equal(e1.values, e2.values)
        np.testing.assert_array_equal(e1.vectors, e2.vectors)


def reference_class_gram(model):
    """The class-level Gram written entry by entry from the case rules:
    ``omega`` on the diagonal, ``d`` within a superclass, ``e`` across."""
    sup = model.effective_map().assignments
    B = np.zeros((model.K, model.K))
    for k in range(model.K):
        for kp in range(model.K):
            if k == kp:
                B[k, kp] = model.omega[k]
            elif model.case not in (GramCase.I, GramCase.II):
                B[k, kp] = model.d if sup[k] == sup[kp] else model.e
    return B


def loop_gram(model):
    """The unperturbed Gram matrix written entry by entry."""
    n, B = model.n, reference_class_gram(model)
    gram = np.empty((model.size, model.size))
    for i in range(model.size):
        for j in range(model.size):
            gram[i, j] = 1.0 if i == j else B[i // n, j // n]
    return gram


def put_then_sort_eigensystem(model):
    """Reference closed form: the class-constant pairs from ``eigh`` of
    ``n B + diag(1 - omega)`` (``B`` written entry by entry from the case
    rules), then class by class the within-class Helmert contrasts, every
    eigencolumn written into that order, then the whole eigenvector matrix
    reordered by a stable descending sort of the values."""
    K, n, size = model.K, model.n, model.size

    def helmert(m):
        out = np.zeros((m, m - 1))
        for j in range(1, m):
            norm = math.sqrt(j * (j + 1))
            out[:j, j - 1] = 1.0 / norm
            out[j, j - 1] = -j / norm
        return out

    omega = model.omega
    head_vals, head_vecs = np.linalg.eigh(n * reference_class_gram(model) + np.diag(1.0 - omega))
    values, columns = [], []
    for j in reversed(range(K)):
        values.append(head_vals[j])
        columns.append(np.repeat(head_vecs[:, j] / math.sqrt(n), n))
    vectors = np.zeros((size, size))
    vectors[:, :len(columns)] = np.array(columns).T
    col = len(columns)
    if n > 1:
        basis = helmert(n)
        for k in range(K):
            for jcol in range(n - 1):
                vectors[k * n:(k + 1) * n, col] = basis[:, jcol]
                values.append(1.0 - omega[k])
                col += 1
    values = np.array(values)
    order = np.argsort(-values, kind="stable")
    return values[order], vectors[:, order]


LAYOUT_MODELS = {
    "I": dict(case=GramCase.I, K=3, c=0.4),
    # class values sort by omega, not class order; the three bulk values
    # interleave by class
    "II": dict(case=GramCase.II, K=3, c=(0.3, 0.7, 0.5)),
    "III": dict(case=GramCase.III, K=4, c=0.4, d=0.1),
    # d = 0: the superclass value ties with the class family
    "III_d0": dict(case=GramCase.III, K=4, c=0.4, d=0.0),
    "IV": dict(case=GramCase.IV, K=4, c=0.5, d=0.2, sizes=(2, 2)),
    "V": dict(case=GramCase.V, K=6, c=0.5, d=0.2, e=0.05, sizes=(3, 3)),
    "V_131": dict(case=GramCase.V, K=5, c=0.5, d=0.2, e=0.05, sizes=(1, 3, 1)),
}


class TestEigensystemLayout:
    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("name", sorted(LAYOUT_MODELS))
    def test_bitwise_equal_to_put_then_sort(self, name, n):
        model = model_case(n=n, **LAYOUT_MODELS[name])
        values, vectors = put_then_sort_eigensystem(model)
        es = analytic_eigensystem(model)
        assert np.array_equal(es.values, values)
        assert np.array_equal(es.vectors, vectors)
        assert es.vectors.strides == vectors.strides  # same (column-major) layout

    @pytest.mark.parametrize("n", [8, 100])
    def test_numeric_bitwise_equal_to_column_loops(self, n):
        model = model_case(GramCase.III, K=3, n=n, c=0.4, d=0.1, amp=0.01, seed=5)
        gram = build_gram(model)
        es = numeric_eigensystem(gram)
        # the values are eigvalsh's; the vectors, built on first read, eigh's
        assert np.array_equal(es.values, np.linalg.eigvalsh(gram)[::-1])
        assert "vectors" not in es.__dict__
        assert np.array_equal(es.vectors, np.linalg.eigh(gram)[1][:, ::-1])

    def test_takes_exactly_one_layout(self):
        model = model_case(GramCase.I, K=2, n=3, c=0.4)
        gram = build_gram(model)
        with pytest.raises(ValidationError, match="exactly one layout"):
            EigenSystem(values=np.ones(6))
        with pytest.raises(ValidationError, match="exactly one layout"):
            EigenSystem(values=np.ones(6), model=model, gram=gram)
        # a dense system is given its values, a class-structured one builds them
        for bad in (dict(gram=gram), dict(values=np.ones(6), model=model)):
            with pytest.raises(ValidationError, match="exactly one layout"):
                EigenSystem(**bad)
        assert "values" not in analytic_eigensystem(model).__dict__
        assert not analytic_eigensystem(model).vectors.flags.writeable
        assert not numeric_eigensystem(gram).vectors.flags.writeable

    def test_dense_vectors_check_their_residual(self):
        gram = build_gram(model_case(GramCase.III, K=3, n=8, c=0.4, d=0.1, amp=0.01, seed=5))
        es = EigenSystem(values=np.linalg.eigvalsh(gram)[::-1] * (1 + 1e-6), gram=gram)
        with pytest.raises(NumericalError, match="eigendecomposition residual"):
            es.vectors

    # the phase_eta benchmark model
    PEAK_MODEL = model_case(GramCase.V, K=6, n=200, c=0.4, d=0.15, e=0.05, sizes=(3, 3))

    def test_construction_builds_no_eigenvector_matrix(self):
        model = self.PEAK_MODEL
        tracemalloc.start()
        try:
            analytic_eigensystem(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.size**2 * 8 / 16

    def test_first_vectors_read_builds_one_eigenvector_matrix(self):
        # a put-then-sort build holds two N x N matrices at once
        model = self.PEAK_MODEL
        es = analytic_eigensystem(model)
        tracemalloc.start()
        try:
            vectors = es.vectors
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * model.size**2 * 8
        assert es.vectors is vectors
        assert not vectors.flags.writeable


class TestShiftedFactor:
    # below one block, and a size that is not a multiple of the block
    @pytest.mark.parametrize("n", [20, 100])
    def test_is_the_read_only_lower_cholesky_factor(self, n):
        model = model_case(GramCase.III, K=3, n=n, c=0.4, d=0.1, amp=0.02, seed=n)
        assert model.size < SOLVE_BLOCK or model.size % SOLVE_BLOCK
        gram = build_gram(model)
        shift = model.K**2 * model.n * 1e-3
        factor = _shifted_factor(gram, shift)
        expected = np.linalg.cholesky(gram + shift * np.eye(model.size))
        np.testing.assert_allclose(factor, expected, rtol=0,
                                   atol=1e-13 * np.abs(expected).max())
        assert np.all(np.triu(factor, 1) == 0.0)
        assert not factor.flags.writeable
        np.testing.assert_array_equal(gram, build_gram(model))

    # every case below, at and above one block, and the traj_dense_oracle model
    CHUNKED_MODELS = {
        **{f"{name}-{size}": sized_case_model(name, size, perturbation_amplitude=0.01, seed=size)
           for name in sorted(CASE_MODELS) for size in (1, 127, 128, 129, 300)},
        "dense-stage": DENSE_STAGE_MODEL,
    }

    @pytest.mark.parametrize("key", list(CHUNKED_MODELS))
    def test_chunked_panels_are_bitwise_the_whole_panel_solve(self, key):
        model = self.CHUNKED_MODELS[key]
        gram = build_gram(model)
        for lam in (1e-4, 1e-3, 1e-2):
            shift = model.K**2 * model.n * lam
            assert np.array_equal(_shifted_factor(gram, shift), whole_panel_factor(gram, shift))

    def test_failure_in_a_later_block_names_the_amplitude(self):
        # the first block is the identity; rows 10 and 200 make the Gram
        # indefinite, which shows only once block 1 is updated
        gram = np.eye(300)
        gram[10, 200] = gram[200, 10] = 2.0
        np.linalg.cholesky(gram[:SOLVE_BLOCK, :SOLVE_BLOCK])
        with pytest.raises(NumericalError, match="gram.perturbation_amplitude"):
            _shifted_factor(gram, 1e-3)


class TestShiftedRounds:
    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_t_rounds_take_t_plus_one_gram_products(self, t):
        products = []

        class CountingGram(np.ndarray):
            def __rmatmul__(self, other):
                products.append(other.shape)
                return other @ self.view(np.ndarray)

        # N = 150 spans two blocks of the substitutions
        model = model_case(GramCase.III, K=3, n=50, c=0.4, d=0.1, amp=0.02, seed=1)
        gram = build_gram(model)
        shift = model.K**2 * model.n * 1e-3
        labels = np.random.default_rng(0).integers(0, model.K, size=model.size)
        rows = np.eye(model.K)[:, labels] - 1.0 / model.K
        factor = _shifted_factor(gram, shift)
        counted = list(_shifted_rounds(gram.view(CountingGram), factor, shift, rows, t))
        # one product for the first right-hand side, then one per round's
        # residual, which is the next round's right-hand side
        assert products == [rows.shape] * (t + 1)
        plain = list(_shifted_rounds(gram, factor, shift, rows, t))
        previous = rows
        for x, y in zip(counted, plain, strict=True):
            assert type(x) is np.ndarray and np.array_equal(x, y)
            # chaining round t reuses the product a fresh round t would form
            assert np.array_equal(x, next(_shifted_rounds(gram, factor, shift, previous, 1)))
            previous = x


@st.composite
def unperturbed_models(draw):
    """Any unperturbed model: every case, unequal superclass sizes, e > 0."""
    case = draw(st.sampled_from(list(GramCase)))
    n = draw(st.integers(1, 12))
    if case is GramCase.II:
        K = draw(st.integers(1, 6))
        omega = draw(st.lists(st.floats(0.01, 0.95), min_size=K, max_size=K))
        return GramModel(case=case, K=K, n=n, c=tuple(omega))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    c = draw(st.floats(0.0 if case is GramCase.I else 0.01, 0.95))
    d = 0.0 if case is GramCase.I else c * draw(st.floats(0.0, 0.99))
    e = d * draw(st.floats(0.0, 1.0)) if case is GramCase.V else 0.0
    if case in (GramCase.IV, GramCase.V):
        return model_case(case, K=sum(sizes), n=n, c=c, d=d, e=e, sizes=sizes)
    return model_case(case, K=sum(sizes), n=n, c=c, d=d)


def family_values(model):
    """The class-constant eigenvalues by the family formulas."""
    K, n, omega = model.K, model.n, model.omega
    if model.case in (GramCase.I, GramCase.II):
        return n * omega + 1.0 - omega
    c, d, e = float(model.c), model.d, model.e
    a_class = n * (c - d) + 1.0 - c
    sizes = np.asarray(model.effective_map().sizes, dtype=float)
    if model.case is GramCase.V:
        core = np.diag(a_class + n * (d - e) * sizes) + n * e * np.sqrt(np.outer(sizes, sizes))
        top = np.linalg.eigvalsh(core)
    else:
        top = sizes * n * d + a_class
    return np.concatenate([top, np.full(K - sizes.size, a_class)])


class TestClassGram:
    @given(model=unperturbed_models())
    @settings(max_examples=200, deadline=None)
    def test_head_columns_are_the_family_eigenpairs(self, model):
        values, coeffs = _head_columns(model)
        assert np.all(np.diff(values) <= 0.0)
        np.testing.assert_allclose(values, np.sort(family_values(model))[::-1],
                                   rtol=1e-12, atol=0)
        head = model.n * reference_class_gram(model) + np.diag(1.0 - model.omega)
        np.testing.assert_allclose((coeffs * values) @ coeffs.T, head,
                                   rtol=0, atol=1e-12 * np.abs(head).max())
        np.testing.assert_allclose(coeffs.T @ coeffs, np.eye(model.K), rtol=0, atol=1e-12)

    @given(model=unperturbed_models())
    @settings(max_examples=100, deadline=None)
    def test_build_gram_matches_the_entry_loop(self, model):
        assert np.array_equal(build_gram(model), loop_gram(model))
        assert np.array_equal(model.class_gram, reference_class_gram(model))


class TestGramStatistics:
    def test_identical_within_orthogonal_across(self):
        feats = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        stats = gram_statistics(FeatureMatrix(feats, np.array([1, 1, 2, 2])))
        assert stats["same_class"]["mean"] == pytest.approx(1.0)
        assert stats["same_class"]["std"] == pytest.approx(0.0)
        assert stats["cross_class_within_superclass"]["mean"] == pytest.approx(0.0)
        assert stats["cross_class_within_superclass"]["std"] == pytest.approx(0.0)
        assert stats["cross_superclass"] is None

    def test_single_sample_per_class_has_no_same_class_stats(self):
        feats = np.eye(3)
        stats = gram_statistics(FeatureMatrix(feats, np.array([1, 2, 3])))
        assert stats["same_class"] is None
        assert stats["cross_class_within_superclass"]["pairs"] == 3
        assert stats["cross_class_within_superclass"]["mean"] == pytest.approx(0.0)

    def test_planar_angles_by_hand_trigonometry(self):
        angles = np.deg2rad([0.0, 10.0, 90.0, 100.0])
        feats = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        stats = gram_statistics(FeatureMatrix(feats, np.array([1, 1, 2, 2])))
        # same-class pairs: (0,10) and (90,100) degrees -> cos 10 each
        assert stats["same_class"]["mean"] == pytest.approx(np.cos(np.deg2rad(10)), abs=1e-12)
        # cross pairs: cos90 + cos100 + cos80 + cos90 over 4 -> 0
        assert abs(stats["cross_class_within_superclass"]["mean"]) < 1e-12
        assert stats["same_class"]["pairs"] == 2
        assert stats["cross_class_within_superclass"]["pairs"] == 4

    def test_generative_model_is_its_own_statistic(self):
        model = model_case(GramCase.V, K=4, n=3, c=0.5, d=0.2, e=0.05, sizes=(2, 2))
        gram = build_gram(model)
        feats = embed_gram(gram)
        fm = FeatureMatrix(
            feats, model.class_of_sample(), superclass_map=model.superclass_map
        )
        stats = gram_statistics(fm)
        assert stats["same_class"]["mean"] == pytest.approx(0.5, abs=1e-9)
        assert stats["same_class"]["std"] == pytest.approx(0.0, abs=1e-9)
        assert stats["cross_class_within_superclass"]["mean"] == pytest.approx(0.2, abs=1e-9)
        assert stats["cross_superclass"]["mean"] == pytest.approx(0.05, abs=1e-9)
        assert stats["cross_superclass"]["std"] == pytest.approx(0.0, abs=1e-9)


class TestFeatureMatrixIO:
    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValidationError):
            FeatureMatrix(np.array([[1.0, 1.0]]), np.array([1]))

    def test_csv_round_trip(self, tmp_path):
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
        fm = FeatureMatrix(feats, np.array([1, 2, 2]))
        path = tmp_path / "features.csv"
        fm.to_csv(path)
        loaded = FeatureMatrix.from_csv(path)
        np.testing.assert_allclose(loaded.features, feats, atol=1e-12)
        np.testing.assert_array_equal(loaded.labels, fm.labels)

    def test_superclass_sidecar(self, tmp_path):
        path = tmp_path / "superclasses.csv"
        path.write_text("1,1\n2,1\n3,2\n")
        smap = load_superclass_map(path)
        assert smap.assignments == (1, 1, 2)

    @pytest.mark.parametrize("text", ["1,1\n1,1\n2,2\n", "1,1\n1,2\n2,1\n"],
                             ids=["same-superclass", "other-superclass"])
    def test_superclass_sidecar_lists_each_class_once(self, tmp_path, text):
        path = tmp_path / "superclasses.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match="class 1 is listed more than once"):
            load_superclass_map(path)

    def test_malformed_csv_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.6,0.8,1\nnot,a,number\n")
        with pytest.raises(ValidationError, match="2"):
            FeatureMatrix.from_csv(path)
