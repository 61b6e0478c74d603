import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import (
    CASE_MODELS,
    CASE_NOISE,
    DENSE_STAGE_MODEL,
    SETUP_A_LAMBDA,
    cell_accuracy,
    cell_pll_outputs,
    one_hot_cells,
    random_block_confined,
    random_doubly_stochastic,
    setup_a_constants,
    setup_a_model,
)
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
from distillab.distillation import (
    OutputMatrix,
    PartialLabelMatrix,
    _class_round,
    argmax_accuracy,
    averaging_operator,
    cell_outputs,
    closed_form_output,
    pll_refine,
    pll_student,
    trajectory,
)
from distillab import gram_models, oracle
from distillab.csvio import fmt
from distillab.oracle import SolverConfig, solve_round
from distillab.noise_theory import (
    CorruptionMatrix,
    make_corruption,
    predicted_population_accuracy,
    realize_labels,
    sd_accuracy_condition,
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


# the five Gram cases plus n=1, which has no within-class bulk family
STRUCTURED_MODELS = dict(
    CASE_MODELS, III_n1=GramModel(case=GramCase.III, K=4, n=1, c=0.4, d=0.1)
)
PERTURBED_MODEL = GramModel(case=GramCase.III, K=3, n=8, c=0.4, d=0.1,
                            perturbation_amplitude=0.01, seed=5)


# each structured model, and with "-dense" the same model whose reference
# eigensystem is the dense one of its realized Gram: the analytic .vectors
# share _head_columns with the class block, the dense ones share nothing
STRUCTURED_REFERENCES = sorted(STRUCTURED_MODELS) + [
    f"{name}-dense" for name in sorted(STRUCTURED_MODELS)]


def structured_reference(name):
    """The model of a :data:`STRUCTURED_REFERENCES` entry and its reference
    eigensystem."""
    model = STRUCTURED_MODELS[name.removesuffix("-dense")]
    if name.endswith("-dense"):
        return model, numeric_eigensystem(build_gram(model))
    return model, analytic_eigensystem(model)


def plain_operator(eig, lam, K, n, t):
    """The undeflated product ``(V rho^t) V^T``."""
    ratios = eig.values / (K * K * n * lam + eig.values)
    return (eig.vectors * ratios**t) @ eig.vectors.T


class TestDeflatedAveragingOperator:
    @pytest.mark.parametrize("t", [0, 1, 3])
    @pytest.mark.parametrize("name", STRUCTURED_REFERENCES)
    def test_matches_plain_product_on_analytic_eigensystems(self, name, t):
        model, reference = structured_reference(name)
        op = averaging_operator(analytic_eigensystem(model), 1e-3, model.K, model.n, t)
        np.testing.assert_allclose(
            op.matrix, plain_operator(reference, 1e-3, model.K, model.n, t), rtol=0, atol=1e-13
        )
        if t == 0:
            np.testing.assert_array_equal(op.matrix, np.eye(model.size))

    @pytest.mark.parametrize("t", [0, 1, 3])
    def test_dense_eigensystem_is_the_plain_product(self, t):
        model = PERTURBED_MODEL
        eig = numeric_eigensystem(build_gram(model))
        assert np.unique(eig.values).size == eig.size  # no bulk value
        op = averaging_operator(eig, 1e-3, model.K, model.n, t)
        np.testing.assert_allclose(
            op.matrix, plain_operator(eig, 1e-3, model.K, model.n, t), rtol=0, atol=1e-13
        )
        if t == 0:
            # every round-0 value is 1, and round 0 is exactly the identity
            np.testing.assert_array_equal(op.matrix, np.eye(model.size))

    @pytest.mark.parametrize("name", sorted(STRUCTURED_MODELS) + ["perturbed"])
    def test_pll_student_matches_eigen_form(self, name):
        model = STRUCTURED_MODELS.get(name, PERTURBED_MODEL)
        eig = (numeric_eigensystem(build_gram(model)) if name == "perturbed"
               else analytic_eigensystem(model))
        K, n, lam = model.K, model.n, 1e-3
        rng = np.random.default_rng(0)
        cols = np.zeros((K, model.size))
        for i in range(model.size):
            cols[rng.choice(K, size=2, replace=False), i] = 0.5
        targets = PartialLabelMatrix(columns=cols)
        ratios = eig.values / (K * K * n * lam + eig.values)
        expected = ((cols - 1.0 / K) @ eig.vectors * ratios) @ eig.vectors.T + 1.0 / K
        student = pll_student(targets, eig, lam, K, n)
        np.testing.assert_allclose(student.columns, expected, rtol=0, atol=1e-13)
        assert student.round == 2

    def test_matrix_is_built_once_read_only_and_is_the_plain_product(self):
        eig = analytic_eigensystem(STRUCTURED_MODELS["III"])
        op = averaging_operator(eig, 1e-3, 4, 6, 1)
        assert op.matrix is op.matrix
        assert not op.matrix.flags.writeable
        np.testing.assert_allclose(op.matrix, plain_operator(eig, 1e-3, 4, 6, 1),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("t", [0, 1, 3])
    @pytest.mark.parametrize("name", sorted(STRUCTURED_MODELS) + ["perturbed"])
    def test_apply_is_the_product_with_the_matrix(self, name, t):
        model = STRUCTURED_MODELS.get(name, PERTURBED_MODEL)
        eig = (numeric_eigensystem(build_gram(model)) if name == "perturbed"
               else analytic_eigensystem(model))
        op = averaging_operator(eig, 1e-3, model.K, model.n, t)
        rows = random_one_hot(model).columns - 1.0 / model.K
        np.testing.assert_allclose(op.apply(rows), rows @ op.matrix, rtol=0, atol=1e-13)


def _traced(fn):
    """``fn()`` and the peak bytes it allocated."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# one model per Gram case at N of about 2,000, where an N x N array takes 32 MB
ALLOCATION_MODELS = {
    "I": GramModel(case=GramCase.I, K=4, n=500, c=0.4),
    "II": GramModel(case=GramCase.II, K=3, n=667, c=(0.3, 0.7, 0.5)),
    "III": GramModel(case=GramCase.III, K=4, n=500, c=0.4, d=0.1),
    "IV": GramModel(case=GramCase.IV, K=4, n=500, c=0.5, d=0.2,
                    superclass_map=SuperclassMap((1, 1, 2, 2))),
    "V": GramModel(case=GramCase.V, K=6, n=333, c=0.5, d=0.2, e=0.05,
                   superclass_map=SuperclassMap.from_sizes([3, 3])),
}


class TestStructuredAllocations:
    @pytest.mark.parametrize("name", sorted(ALLOCATION_MODELS))
    def test_builds_no_n_by_n_array(self, name):
        # the eigensystem, the trajectory, the student and the eigenvalue
        # table of the trajectory command, all inside the traced region
        model = ALLOCATION_MODELS[name]
        K, n, lam = model.K, model.n, 1e-3
        Y0 = random_one_hot(model)

        def run():
            eig = analytic_eigensystem(model)
            traj = trajectory(Y0, eig, lam, K, n, 4)
            pll_student(pll_refine(traj[1]), eig, lam, K, n)
            for t in range(5):
                averaging_operator(eig, lam, K, n, t).eigenvalues

        assert _traced(run)[1] < model.size**2 * 8 / 16

    def test_case_iii_at_n_12000_matches_the_cell_engine(self):
        # an N x N eigenvector matrix would take 1.15 GB here
        model = GramModel(case=GramCase.III, K=4, n=3000, c=0.4, d=0.1)
        K, n, lam, t_max = model.K, model.n, SETUP_A_LAMBDA, 4
        C = make_corruption("symmetric", 0.5, K)

        def run():
            rounds = oracle.run_rounds(model, C, lam, t_max, ("closed_form", "pll"),
                                       SolverConfig(seed=3))
            spectra = [averaging_operator(rounds.eig, lam, K, n, t).eigenvalues
                       for t in range(t_max + 1)]
            return rounds, spectra

        (rounds, spectra), peak = _traced(run)
        assert peak < 32e6
        tc = theory_constants(model, lam)
        # the rounds hold one column per realised cell, which the samples read
        cell = tuple(rounds.gram.cells.T - 1)
        sample = (rounds.assignment.true_labels - 1, rounds.assignment.given_labels - 1)
        for t in range(t_max + 1):
            expected = cell_outputs(one_hot_cells(K), C, tc, t)
            np.testing.assert_allclose(rounds.closed[t].columns, expected[:, cell[0], cell[1]],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(rounds.closed[t].columns[:, rounds.gram.sample_cell],
                                       expected[:, sample[0], sample[1]], rtol=0, atol=1e-12)
            # superclass value, K - 1 class contrasts, then the bulk
            powers = np.concatenate([tc.r, np.repeat(tc.q[0], K - 1),
                                     np.repeat(tc.p[0], model.size - K)]) ** t
            np.testing.assert_allclose(np.sort(spectra[t])[::-1], powers, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rounds.student.columns,
                                   cell_pll_outputs(C, tc)[:, cell[0], cell[1]],
                                   rtol=0, atol=1e-12)


@st.composite
def perturbed_models(draw):
    """A small perturbed model of any case, positive definite by its margins:
    the bulk ``1 - c`` is at least 0.3, the perturbation's spectral radius
    below 0.2."""
    case = draw(st.sampled_from(list(GramCase)))
    sizes = None
    if case in (GramCase.IV, GramCase.V):
        sizes = draw(st.sampled_from([(2, 2), (1, 3), (2, 1, 2)]))
    K = sum(sizes) if sizes else draw(st.integers(2, 5))
    n = draw(st.integers(1, 6))
    c = draw(st.floats(0.2, 0.7))
    kwargs = dict(case=case, K=K, n=n, c=c,
                  perturbation_amplitude=draw(st.floats(1e-3, 0.02)),
                  seed=draw(st.integers(0, 10_000)))
    if case is GramCase.II:
        kwargs["c"] = tuple(draw(st.floats(0.1, 0.7)) for _ in range(K))
    elif case is not GramCase.I:
        kwargs["d"] = draw(st.floats(0.0, c - 0.05))
    if sizes:
        kwargs["superclass_map"] = SuperclassMap.from_sizes(sizes)
    if case is GramCase.V:
        kwargs["e"] = draw(st.floats(0.0, kwargs["d"]))
    return GramModel(**kwargs)


class TestFactoredDenseRounds:
    @given(perturbed_models(), st.floats(1e-4, 1e-2), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_trajectory_and_student_are_the_eigen_form(self, model, lam, seed):
        K, n = model.K, model.n
        eig = numeric_eigensystem(build_gram(model))
        Y0 = random_one_hot(model, seed)
        traj = trajectory(Y0, eig, lam, K, n, 4)
        np.testing.assert_array_equal(traj[0].columns, Y0.columns)
        for t in range(5):
            np.testing.assert_allclose(traj[t].columns, eigen_form(Y0, eig, lam, K, n, t),
                                       rtol=0, atol=1e-13)
        refined = pll_refine(traj[1])
        ratios = eig.values / (K * K * n * lam + eig.values)
        expected = ((refined.columns - 1.0 / K) @ eig.vectors * ratios) @ eig.vectors.T + 1.0 / K
        np.testing.assert_allclose(pll_student(refined, eig, lam, K, n).columns, expected,
                                   rtol=0, atol=1e-13)

    def test_perturbed_run_builds_no_eigenvectors(self):
        model = PERTURBED_MODEL
        C = make_corruption("symmetric", 0.25, model.K)
        run = oracle.run_rounds(model, C, 1e-3, 3, ("closed_form", "pll"), SolverConfig())
        assert "vectors" not in run.eig.__dict__
        # the rounds and the student share one factor
        assert list(run.eig._factors) == [model.K**2 * model.n * 1e-3]
        fresh = numeric_eigensystem(build_gram(model))
        for t in range(4):
            averaging_operator(fresh, 1e-3, model.K, model.n, t).eigenvalues
        assert not fresh._factors  # the eigenvalue table factors nothing
        rows = random_one_hot(model).columns - 1.0 / model.K
        identity = averaging_operator(fresh, 1e-3, model.K, model.n, 0).apply(rows)
        assert np.array_equal(identity, rows) and identity is not rows
        assert not fresh._factors  # neither does the round-0 operator

    def test_corrupted_factor_fails_the_solve_residual_check(self, monkeypatch):
        exact = gram_models._shifted_factor
        monkeypatch.setattr(gram_models, "_shifted_factor",
                            lambda gram, shift: exact(gram, shift) * (1.0 + 1e-6))
        model = PERTURBED_MODEL
        eig = numeric_eigensystem(build_gram(model))
        with pytest.raises(NumericalError, match="shifted Gram solve residual"):
            trajectory(random_one_hot(model), eig, 1e-3, model.K, model.n, 1)

    def test_failed_factorisation_names_the_amplitude(self):
        # -5e-9 passes the negative-eigenvalue guard, but G + cI with
        # c = 4e-10 is indefinite
        eig = numeric_eigensystem(np.diag([1.0, -5e-9]))
        op = averaging_operator(eig, 1e-10, 2, 1, 1)
        with pytest.raises(NumericalError, match="gram.perturbation_amplitude"):
            op.apply(np.array([[0.5, -0.5], [-0.5, 0.5]]))

    def test_dense_stage_holds_the_gram_and_one_working_array(self):
        # the Gram and the factor, formed in place from one shifted copy;
        # the eigensystem with vectors held four (eigh's vectors and the
        # residual beside the Gram)
        model = DENSE_STAGE_MODEL
        K, n, lam = model.K, model.n, 1e-3
        Y0 = random_one_hot(model)

        def run():
            eig = numeric_eigensystem(build_gram(model))
            traj = trajectory(Y0, eig, lam, K, n, 3)
            pll_student(pll_refine(traj[1]), eig, lam, K, n)
            for t in range(4):
                averaging_operator(eig, lam, K, n, t).eigenvalues

        assert _traced(run)[1] < 2.2 * model.size**2 * 8


def eigen_form(Y0, eig, lam, K, n, t):
    """Round-``t`` outputs ``((Y0 - 1/K) V rho^t) V^T + 1/K``, undeflated."""
    ratios = eig.values / (K * K * n * lam + eig.values)
    return ((Y0.columns - 1.0 / K) @ eig.vectors * ratios**t) @ eig.vectors.T + 1.0 / K


def random_one_hot(model, seed=0):
    labels = np.random.default_rng(seed).integers(1, model.K + 1, size=model.size)
    return OutputMatrix.from_labels(labels, model.K)


class TestDeflatedTrajectory:
    @pytest.mark.parametrize("name", sorted(STRUCTURED_MODELS))
    def test_matches_eigen_form_on_analytic_eigensystems(self, name):
        model = STRUCTURED_MODELS[name]
        eig = analytic_eigensystem(model)
        Y0 = random_one_hot(model)
        traj = trajectory(Y0, eig, 1e-3, model.K, model.n, 4)
        for t in range(1, 5):
            np.testing.assert_allclose(
                traj[t].columns, eigen_form(Y0, eig, 1e-3, model.K, model.n, t),
                rtol=0, atol=1e-13,
            )

    def test_dense_trajectory_is_the_eigen_form(self):
        model = PERTURBED_MODEL
        eig = numeric_eigensystem(build_gram(model))
        Y0 = random_one_hot(model)
        K, n = model.K, model.n
        traj = trajectory(Y0, eig, 1e-3, K, n, 3)
        np.testing.assert_array_equal(traj[0].columns, Y0.columns)
        for t in range(1, 4):
            np.testing.assert_allclose(traj[t].columns, eigen_form(Y0, eig, 1e-3, K, n, t),
                                       rtol=0, atol=1e-13)
            # round t chains round t - 1: the round-t operator on round 0
            rows = averaging_operator(eig, 1e-3, K, n, t).apply(Y0.columns - 1.0 / K)
            assert np.array_equal(traj[t].columns, rows + 1.0 / K)

    @pytest.mark.parametrize("name", ["perturbed", "unperturbed"])
    def test_linear_round_is_the_eigen_form(self, name):
        # the linearized reference of measure_approx_error: the dense round
        # on a perturbed Gram, the per-sample class round on an unperturbed one
        model = PERTURBED_MODEL if name == "perturbed" else STRUCTURED_MODELS["I"]
        K, n, lam = model.K, model.n, 1e-3
        gram = build_gram(model)
        rows = random_one_hot(model).columns - 1.0 / K
        eig = numeric_eigensystem(gram)
        ratios = eig.values / (K * K * n * lam + eig.values)
        eigen_form = rows @ eig.vectors * ratios @ eig.vectors.T
        shift = K * K * n * lam
        linear = (next(gram_models._shifted_rounds(
                      gram, gram_models._shifted_factor(gram, shift), shift, rows, 1))
                  if name == "perturbed" else
                  _class_round(rows, model.class_of_sample() - 1, 1.0, model, lam, 1))
        np.testing.assert_allclose(linear, eigen_form, rtol=0, atol=1e-12)


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

    @pytest.mark.parametrize("case", [GramCase.IV, GramCase.V])
    def test_cross_superclass_noise_matches_trajectory(self, case):
        # the cell form is exact for any realised C; only the phase
        # conditions need noise confined within superclasses
        model = GramModel(case=case, K=4, n=12, c=0.5, d=0.2,
                          e=0.1 if case is GramCase.V else 0.0,
                          superclass_map=SuperclassMap.from_sizes([2, 2]))
        C = make_corruption("symmetric", 0.25, 4)
        assert not C.is_block_confined(model.effective_map())
        la = realize_labels(C, n=model.n, seed=3)
        tc = theory_constants(model, 1e-3)
        traj = trajectory(one_hot_from(la), analytic_eigensystem(model), 1e-3, 4, model.n, 3)
        for t in (1, 2, 3):
            closed = np.stack([closed_form_output((int(y), int(g)), C, tc, t)
                               for y, g in zip(la.true_labels, la.given_labels)], axis=1)
            np.testing.assert_allclose(closed, traj[t].columns, rtol=0, atol=1e-12)
        with pytest.raises(ValidationError, match="confined within superclasses"):
            sd_accuracy_condition(C, tc, 1)

    def test_rejects_corruption_of_another_size(self):
        tc = setup_a_constants()
        with pytest.raises(ValidationError, match="size does not match"):
            closed_form_output((1, 2), make_corruption("symmetric", 0.4, 3), tc, 1)

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


class TestCoupledSuperclasses:
    def test_zero_coupling_equals_case_four(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            sizes = [(2, 2), (1, 3), (2, 2, 2)][int(rng.integers(0, 3))]
            K = int(sum(sizes))
            n = int(rng.integers(2, 30))
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
            yhat_choices = [k for k in smap.classes_of(smap.superclass_of(y))]
            yhat = int(rng.choice(yhat_choices))
            t = int(rng.integers(0, 6))
            np.testing.assert_allclose(
                closed_form_output((y, yhat), C, tc5, t),
                closed_form_output((y, yhat), C, tc4, t),
                atol=1e-12,
            )

    def test_round_zero_one_hot(self):
        smap = SuperclassMap((1, 1, 2, 2))
        model = GramModel(case=GramCase.V, K=4, n=10, c=0.5, d=0.2, e=0.05,
                          superclass_map=smap)
        tc = theory_constants(model, 1e-3)
        C = make_corruption("superclass", 0.2, 4, superclass_map=smap)
        out = closed_form_output((2, 1), C, tc, 0)
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
                expected = closed_form_output(
                    (int(la.true_labels[i]), int(la.given_labels[i])), C, tc, t
                )
                np.testing.assert_allclose(traj[t].columns[:, i], expected, atol=1e-9)

    def test_unequal_sizes_with_coupling_match_trajectory(self):
        K, n, lam = 7, 4, 1e-3
        smap = SuperclassMap.from_sizes([2, 3, 2])
        model = GramModel(case=GramCase.V, K=K, n=n, c=0.5, d=0.2, e=0.05,
                          superclass_map=smap)
        tc = theory_constants(model, lam)
        C = make_corruption("superclass", 0.5, K, superclass_map=smap)
        la = realize_labels(C, n=n, seed=3)
        traj = trajectory(one_hot_from(la), analytic_eigensystem(model), lam, K, n, 3)
        for t in (1, 2, 3):
            for i in range(model.size):
                expected = closed_form_output(
                    (int(la.true_labels[i]), int(la.given_labels[i])), C, tc, t
                )
                np.testing.assert_allclose(traj[t].columns[:, i], expected, rtol=0, atol=1e-12)


def _realizable_corruption(K, n, smap, confined, rng):
    """Counts of n random permutations, each within superclasses if confined."""
    counts = np.zeros((K, K))
    sup = np.asarray(smap.assignments)
    for _ in range(n):
        perm = rng.permutation(K)
        if confined:
            for s in range(1, smap.num_superclasses + 1):
                block = np.flatnonzero(sup == s)
                perm[block] = rng.permutation(block)
        counts[np.arange(K), perm] += 1.0
    return CorruptionMatrix(counts / n)


class TestCellOutputs:
    @given(st.sampled_from(list(GramCase)), st.booleans(), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_trajectory_on_every_case(self, case, confined, seed):
        rng = np.random.default_rng(seed)
        sizes = None
        if case in (GramCase.IV, GramCase.V):
            sizes = [(2, 2), (1, 3), (2, 3, 2), (3, 1, 2)][int(rng.integers(0, 4))]
        K = int(sum(sizes)) if sizes else int(rng.integers(2, 6))
        n = int(rng.integers(1, 7))
        c = float(rng.uniform(0.2, 0.8))
        d = float(rng.uniform(0.0, c))
        kwargs = dict(case=case, K=K, n=n, c=c)
        if case is GramCase.II:
            kwargs["c"] = tuple(rng.uniform(0.1, 0.9, size=K))
        elif case is not GramCase.I:
            kwargs["d"] = d
        if sizes:
            kwargs["superclass_map"] = SuperclassMap.from_sizes(sizes)
        if case is GramCase.V:
            kwargs["e"] = float(rng.uniform(0.0, d))
        model = GramModel(**kwargs)
        smap = model.effective_map()
        C = _realizable_corruption(K, n, smap, confined, rng)
        lam = float(rng.uniform(1e-4, 1e-2))
        tc = theory_constants(model, lam)
        la = realize_labels(C, n, seed=seed)
        cells = [(int(y), int(g)) for y, g in zip(la.true_labels, la.given_labels)]
        # the dense eigen form shares no code with the class block
        for eig in (analytic_eigensystem(model), numeric_eigensystem(build_gram(model))):
            traj = trajectory(one_hot_from(la), eig, lam, K, n, 3)
            for t in range(4):
                engine = cell_outputs(one_hot_cells(K), C, tc, t)
                per_sample = engine[:, la.true_labels - 1, la.given_labels - 1]
                np.testing.assert_allclose(per_sample, traj[t].columns, rtol=0, atol=1e-12)
                closed = np.stack([closed_form_output(cell, C, tc, t) for cell in cells],
                                  axis=1)
                np.testing.assert_allclose(closed, traj[t].columns, rtol=0, atol=1e-12)

    def test_round_zero_returns_targets(self):
        model = CASE_MODELS["V"]
        K = model.K
        C = make_corruption("superclass", 0.4, K, superclass_map=model.effective_map())
        targets = np.random.default_rng(0).uniform(size=(K, K, K))
        np.testing.assert_array_equal(
            cell_outputs(targets, C, theory_constants(model, 1e-3), 0), targets
        )

    def test_rejects_misshaped_targets(self):
        model = CASE_MODELS["III"]
        C = make_corruption("symmetric", 0.5, model.K)
        with pytest.raises(ValidationError):
            cell_outputs(np.eye(model.K), C, theory_constants(model, 1e-3), 1)

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("name", sorted(CASE_MODELS))
    def test_refined_teacher_cells_give_pll_student(self, name, noisy):
        model = CASE_MODELS[name]
        K, n, lam = model.K, model.n, 1e-3
        kind, eta = CASE_NOISE[name] if noisy else ("symmetric", 0.0)
        C = make_corruption(kind, eta, K, superclass_map=model.effective_map())
        cells = cell_pll_outputs(C, theory_constants(model, lam))
        la = realize_labels(C, n, seed=0)
        eig = analytic_eigensystem(model)
        refined = pll_refine(trajectory(one_hot_from(la), eig, lam, K, n, 1)[1])
        student = pll_student(refined, eig, lam, K, n)
        np.testing.assert_allclose(
            student.columns, cells[:, la.true_labels - 1, la.given_labels - 1],
            rtol=0, atol=1e-12,
        )


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


class TestCellPllStudent:
    @pytest.mark.parametrize("name", sorted(CASE_MODELS))
    def test_cell_student_is_the_sample_student_on_random_noise(self, name):
        model = CASE_MODELS[name]
        K, n, lam = model.K, model.n, 1e-3
        tc, eig = theory_constants(model, lam), analytic_eigensystem(model)
        rng = np.random.default_rng(17)
        for seed in range(10):
            C = _realizable_corruption(K, n, model.effective_map(), True, rng)
            la = realize_labels(C, n, seed=seed)
            refined = pll_refine(trajectory(one_hot_from(la), eig, lam, K, n, 1)[1])
            student = pll_student(refined, eig, lam, K, n)
            cells = cell_pll_outputs(C, tc)
            np.testing.assert_allclose(
                student.columns, cells[:, la.true_labels - 1, la.given_labels - 1],
                rtol=0, atol=1e-12,
            )
            assert cell_accuracy(cells, C) == pytest.approx(
                argmax_accuracy(student, la.true_labels), abs=1e-12
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

    @pytest.mark.parametrize("name", ["perturbed", "unperturbed"])
    def test_writes_the_bytes_of_a_per_value_writer(self, tmp_path, name):
        model = PERTURBED_MODEL if name == "perturbed" else STRUCTURED_MODELS["III"]
        eig = (numeric_eigensystem(build_gram(model)) if name == "perturbed"
               else analytic_eigensystem(model))
        m = trajectory(random_one_hot(model), eig, 1e-3, model.K, model.n, 2)[2]
        distinct = np.unique(m.columns).size
        # every value distinct when perturbed; repeated per cell otherwise
        assert (distinct == m.columns.size) == (name == "perturbed")
        path = tmp_path / "outputs.csv"
        m.to_csv(path)
        lines = ["round,sample_index,class_index,value"] + [
            f"2,{i},{k + 1},{fmt(float(m.columns[k, i]))}"
            for i in range(m.num_samples) for k in range(m.K)
        ]
        assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()

    @pytest.mark.parametrize("rows, problem", [
        ("0,0,1,1\n0,0,2,0\n0,1,1,0\n0,1,2,1\n0,1,2,1\n", "(sample 1, class 2) has 2 rows"),
        ("0,0,1,1\n0,0,2,0\n0,1,2,1\n", "(sample 1, class 1) has 0 rows"),
    ])
    def test_from_csv_names_a_repeated_or_missing_pair(self, tmp_path, rows, problem):
        path = tmp_path / "outputs.csv"
        path.write_text("round,sample_index,class_index,value\n" + rows)
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {problem}")):
            OutputMatrix.from_csv(path)

    def test_round0_must_be_one_hot(self):
        with pytest.raises(ValidationError):
            OutputMatrix(np.full((4, 2), 0.25), round=0)

    def test_column_sum_enforced(self):
        with pytest.raises(ValidationError):
            OutputMatrix(np.array([[0.6], [0.6]]), round=1)

    def test_partial_label_matrix_validation(self):
        with pytest.raises(ValidationError):
            PartialLabelMatrix(np.array([[0.5], [0.25], [0.25]]))
