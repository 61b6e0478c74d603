"""Shared helpers for the test suite."""

import csv
import math
import os

import numpy as np

from distillab import GramCase, GramModel, SuperclassMap, analytic_eigensystem
from distillab.cli import simplex_projection
from distillab.csvio import fmt
from distillab.distillation import (OutputMatrix, averaging_operator, cell_outputs, pll_refine,
                                    pll_student, trajectory)
from distillab.gram_models import SOLVE_BLOCK, CellGram
from distillab.noise_theory import (TIE_TOL, CorruptionMatrix, nearest_realizable,
                                    theory_constants)
from distillab.oracle import run_rounds


def setup_a_model():
    """K=4, n=100, c=0.4, d=0.1: the reference synthetic configuration."""
    return GramModel(case=GramCase.III, K=4, n=100, c=0.4, d=0.1)


SETUP_A_LAMBDA = 3.125e-4

# one small model per Gram case (II with distinct class correlations, V with
# coupled superclasses)
CASE_MODELS = {
    "I": GramModel(case=GramCase.I, K=3, n=8, c=0.4),
    "II": GramModel(case=GramCase.II, K=3, n=8, c=(0.3, 0.5, 0.7)),
    "III": GramModel(case=GramCase.III, K=4, n=6, c=0.4, d=0.1),
    "IV": GramModel(case=GramCase.IV, K=4, n=6, c=0.5, d=0.2,
                    superclass_map=SuperclassMap((1, 1, 2, 2))),
    "V": GramModel(case=GramCase.V, K=6, n=5, c=0.5, d=0.2, e=0.05,
                   superclass_map=SuperclassMap.from_sizes([3, 3])),
}

# the traj_dense_oracle model: N = 960
DENSE_STAGE_MODEL = GramModel(case=GramCase.IV, K=4, n=240, c=0.4, d=0.1,
                              superclass_map=SuperclassMap.from_sizes([2, 2]),
                              perturbation_amplitude=0.01, seed=3)

# one realisable eta > 0 per model of CASE_MODELS
CASE_NOISE = {
    "I": ("symmetric", 0.25),
    "II": ("symmetric", 0.25),
    "III": ("symmetric", 0.5),
    "IV": ("superclass", 1.0 / 3.0),
    "V": ("superclass", 0.4),
}


def sample_cells(gram):
    """``gram`` as the oracle's layout of one cell per sample, each of
    weight 1, in sample order.  The solver reads no cell's labels, so every
    pair is (1, 1)."""
    gram = np.asarray(gram, dtype=float)
    size = gram.shape[0]
    return CellGram(np.ones((size, 2), dtype=int), np.ones(size), gram, None)


U64 = 2**64 - 1


def splitmix_finaliser(z):
    """SplitMix64's finaliser on one Python int below 2**64."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & U64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & U64
    return z ^ (z >> 31)


def stream_bits(seed, stream, counter):
    """The 64 bits of the seeded stream at ``(seed, stream, counter)``, one
    element in Python ints modulo 2**64: the finaliser of ``counter *
    0x9E3779B97F4A7C15`` xor the key ``finaliser(finaliser(seed) ^
    stream)``."""
    key = splitmix_finaliser(splitmix_finaliser(seed) ^ stream)
    return splitmix_finaliser(counter * 0x9E3779B97F4A7C15 & U64 ^ key)


def perturbation_entry(model, i, j):
    """The perturbation ``-a + 2a u`` of Gram entry ``i < j``, ``u`` the top
    53 bits of stream 0 at counter ``i N + j`` over 2**53."""
    a = model.perturbation_amplitude
    u = (stream_bits(model.seed, 0, i * model.size + j) >> 11) * 2.0**-53
    return -a + 2 * a * u


def eager_labels(counts, seed):
    """The per-sample true and given labels of a ``K x K`` count matrix,
    drawn at once: class ``k``'s given labels, in label order, are sorted
    by the bits of stream ``k`` at counters ``0..n-1``, ties kept in
    order."""
    K, n = counts.shape[0], int(counts[0].sum())
    given = []
    for k in range(1, K + 1):
        block = [label for label in range(1, K + 1) for _ in range(int(counts[k - 1, label - 1]))]
        order = sorted(range(n), key=lambda i: stream_bits(seed, k, i))
        given += [block[i] for i in order]
    return np.repeat(np.arange(1, K + 1), n), np.array(given, dtype=int)


def per_sample_rounds(model, given, lam, t_max):
    """The closed-form rounds ``0..t_max``, the top-2 targets and the top-2
    student of an unperturbed ``model`` with one column per sample, as runs
    computed them before they ran on the cells."""
    eig = analytic_eigensystem(model)
    closed = trajectory(OutputMatrix.from_labels(given, model.K), eig, lam, t_max)
    refined = pll_refine(closed[1])
    return closed, refined, pll_student(refined, eig, lam)


def per_sample_trajectory(config, directory):
    """The per-sample files of ``cmd_trajectory(config)``, written to
    ``directory`` as the command wrote them before it wrote from the cells:
    every round, the top-2 targets and student and every oracle round
    gathered to one column per sample, the projection per sample, every
    round's full operator spectrum, each number formatted by ``fmt`` on its
    own and each file written by ``csv.writer``, sharing no code with the
    program's writers.  Returns the file names."""
    K = config.gram.K
    run = run_rounds(config.gram_model(), config.corruption_matrix(), config.lam, config.t_max,
                     ("closed_form", *config.modes), config.solver())
    sample_cell = run.gram.sample_cell
    true, given = run.assignment.true_labels.tolist(), run.assignment.given_labels.tolist()
    N = len(true)
    closed = [mat.columns[:, sample_cell] for mat in run.closed]
    names = []

    def write(name, header, rows):
        with open(os.path.join(directory, name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        names.append(name)

    def write_long(name, columns, round_idx):
        columns = columns[:, sample_cell].T.tolist()
        write(name, ("round", "sample_index", "class_index", "value"),
              ((round_idx, i, k, fmt(value)) for i in range(N)
               for k, value in enumerate(columns[i], start=1)))

    os.makedirs(directory, exist_ok=True)
    write("labels.csv", ("index", "true_label", "given_label"), zip(range(N), true, given))
    for mat in run.closed:
        write_long(f"outputs_round_{mat.round:03d}.csv", mat.columns, mat.round)

    def projection_rows():
        for t, gathered in enumerate(closed):
            xy, columns = simplex_projection(gathered).tolist(), gathered.T.tolist()
            for i in range(N):
                yield (t, i, true[i], given[i], *map(fmt, xy[i]), *map(fmt, columns[i]))

    write("projection.csv", ["round", "sample_index", "true_label", "given_label", "x", "y",
                             *(f"y_{k}" for k in range(1, K + 1))], projection_rows())
    spectra = [averaging_operator(run.eig, config.lam, t).eigenvalues.tolist()
               for t in range(config.t_max + 1)]
    write("eigenvalues.csv", ("round", "index", "eigenvalue"),
          ((t, i, fmt(value)) for t, spectrum in enumerate(spectra)
           for i, value in enumerate(spectrum)))
    if run.student is not None:
        write_long("pll_targets.csv", run.refined.columns, run.refined.source_round)
        write_long("pll_outputs.csv", run.student.columns, run.student.round)
    for result in run.oracle or ():
        write_long(f"oracle_round_{result.outputs.round:03d}.csv", result.outputs.columns,
                   result.outputs.round)
    return names


def full_draw_gram(model):
    """``build_gram`` drawn one entry at a time: the structured Gram plus
    :func:`perturbation_entry` at each ``i < j`` and its mirror."""
    labels = model.class_of_sample() - 1
    gram = model.class_gram[np.ix_(labels, labels)]
    np.fill_diagonal(gram, 1.0)
    if model.perturbation_amplitude > 0.0:
        for i in range(model.size):
            for j in range(i + 1, model.size):
                value = perturbation_entry(model, i, j)
                gram[i, j] += value
                gram[j, i] += value
    return gram


def whole_panel_factor(gram, shift):
    """``_shifted_factor`` with each panel solved in one call over all its
    rows: the blocked in-place Cholesky factor of ``gram + shift I``."""
    factor = np.array(gram, dtype=float)
    size = factor.shape[0]
    factor.flat[::size + 1] += shift
    for s in range(0, size, SOLVE_BLOCK):
        e = s + SOLVE_BLOCK
        block = np.linalg.cholesky(factor[s:e, s:e])
        factor[s:e, s:e] = block
        factor[s:e, e:] = 0.0
        panel = factor[e:, s:e]
        panel[...] = np.linalg.solve(block, panel.T).T
        trailing = factor[e:, e:]
        for r in range(0, size - e, SOLVE_BLOCK):
            end = r + SOLVE_BLOCK
            trailing[r:end, :end] -= panel[r:end] @ panel[:end].T
    return factor


def embed_gram(gram):
    """Feature rows ``F`` with ``F F^T = gram`` for a PSD Gram matrix, so a
    structured correlation model becomes an explicit unit-norm feature
    matrix (the diagonal of ``gram`` must be 1)."""
    vals, vecs = np.linalg.eigh(gram)
    assert vals.min() >= -1e-10 * max(abs(vals.max()), 1.0), "not positive semidefinite"
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def setup_a_constants():
    return theory_constants(setup_a_model(), SETUP_A_LAMBDA)


def random_doubly_stochastic(K, rng, diag_weight=None, num_perms=6):
    """Doubly stochastic matrix as a convex mix of permutation matrices
    plus a uniform component (so every entry is strictly positive).

    With ``diag_weight`` above 0.5 every diagonal entry strictly dominates
    its row, giving positive gaps.
    """
    alpha = diag_weight if diag_weight is not None else rng.uniform(0.55, 0.9)
    weights = rng.dirichlet(np.ones(num_perms + 1))
    mix = weights[0] * np.full((K, K), 1.0 / K)
    for w in weights[1:]:
        perm = rng.permutation(K)
        mix[np.arange(K), perm] += w
    return CorruptionMatrix(alpha * np.eye(K) + (1.0 - alpha) * mix)


def random_block_confined(K, sizes, rng, diag_weight=None):
    """Doubly stochastic with mislabeling confined to superclass blocks."""
    smap = SuperclassMap.from_sizes(sizes)
    m = np.zeros((K, K))
    for s in range(1, len(sizes) + 1):
        classes = np.asarray(smap.classes_of(s)) - 1
        block = random_doubly_stochastic(len(classes), rng, diag_weight).entries
        m[np.ix_(classes, classes)] = block
    return CorruptionMatrix(m), smap


def realizable_block_confined(model, rng):
    """A :func:`random_block_confined` matrix for ``model``'s superclasses,
    each block snapped to the ``n``-grid on its own (so the noise stays
    confined), with diagonal weights from 0.1 to 0.95."""
    smap = model.effective_map()
    C, _ = random_block_confined(model.K, smap.sizes, rng, float(rng.uniform(0.1, 0.95)))
    m = np.zeros((model.K, model.K))
    for s in range(1, smap.num_superclasses + 1):
        block = np.ix_(*[np.asarray(smap.classes_of(s)) - 1] * 2)
        m[block] = nearest_realizable(CorruptionMatrix(C.entries[block]), model.n).entries
    return CorruptionMatrix(m)


def one_hot_cells(K):
    """One-hot targets of every (true class, given label) cell: the given label."""
    return np.broadcast_to(np.eye(K)[:, None, :], (K, K, K))


def cell_pll_outputs(C, tc):
    """The top-2 student's output on every cell: the teacher's round-1 cells,
    ``pll_refine``'s top-2 rule on those ``K^2`` outputs, then one round of
    the cell engine on the two-hot targets."""
    K = tc.model.K
    teacher = cell_outputs(one_hot_cells(K), C, tc, 1).reshape(K, K * K)
    targets = pll_refine(OutputMatrix(teacher, round=1)).columns.reshape(K, K, K)
    return cell_outputs(targets, C, tc, 1)


def cell_accuracy(cells, C):
    """``C``-weighted accuracy of cell outputs, summed exactly: a cell counts
    when its true class is the only entry within ``TIE_TOL`` of the maximum,
    as in ``argmax_accuracy``."""
    K = C.K
    tied = cells >= cells.max(axis=0) - TIE_TOL
    correct = (tied.sum(axis=0) == 1) & tied[np.arange(K), np.arange(K)]
    return math.fsum(C.entries[correct]) / K
