"""The gap-matrix theory layer against the per-cell loops it replaced.

The ``ref_*`` functions below are the earlier loop implementations of
``noise_theory``, kept verbatim in logic: one double loop over the
``(k, k')`` cells per verdict, prediction and corruption builder.  The
array code must give the same verdicts and ``failing_pairs`` exactly, and
the same predicted accuracies to 1e-14 (they are now summed exactly).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import random_block_confined, random_doubly_stochastic
from distillab import GramCase, GramModel, SuperclassMap, ValidationError
from distillab.noise_theory import (
    TIE_TOL,
    CorruptionMatrix,
    _failing_cells,
    _minimal_feasible_n,
    make_corruption,
    minimal_rounds,
    nearest_realizable,
    pll_accuracy_condition,
    predicted_population_accuracy,
    realize_labels,
    sd_accuracy_condition,
    theory_constants,
)


def ref_strictly_exceeds(lhs, rhs):
    if math.isinf(rhs):
        return rhs < 0
    return lhs - rhs > TIE_TOL


def ref_failing_cells(C, thr):
    """``thr[k-1]`` is row ``k``'s threshold."""
    cells = [(k, kp) for k in range(1, C.K + 1) for kp in range(1, C.K + 1)
             if kp != k and C.entry(k, kp) > 0.0]
    return [(k, kp) for k, kp in cells
            if not ref_strictly_exceeds(C.entry(k, k) - C.entry(k, kp), thr[k - 1])]


def ref_pll_failing(C):
    failing = []
    for k in range(1, C.K + 1):
        for kp in range(1, C.K + 1):
            if kp != k and not ref_strictly_exceeds(C.entry(k, k) - C.entry(k, kp), 0.0):
                failing.append((k, kp))
    return failing


def ref_minimal_rounds(C, tc):
    cells = [
        (C.entry(k, k) - C.entry(k, kp), tc.q[k - 1] / tc.p[k - 1])
        for k in range(1, C.K + 1)
        for kp in range(1, C.K + 1)
        if kp != k and C.entry(k, kp) > 0.0
    ]
    if not cells:
        return 1
    if min(g for g, _ in cells) <= TIE_TOL or min(r for _, r in cells) <= 1.0:
        return None

    def ok(t):
        return not ref_failing_cells(C, tc.threshold(t))

    t = max(1, *(math.floor(math.log1p(1.0 / g) / math.log(r)) + 1 for g, r in cells))
    while not ok(t):
        t += 1
        if t > 10_000:
            raise ValidationError("minimal rounds search failed to terminate")
    while t > 1 and ok(t - 1):
        t -= 1
    return t


def ref_tilde_label(C, k):
    row = C.entries[k - 1].copy()
    row[k - 1] = -np.inf
    return int(np.argmax(row)) + 1


def ref_predicted(C, tc, t, mode):
    K = C.K
    total = 0.0
    if mode == "sd":
        thr = tc.threshold(t)
        for k in range(1, K + 1):
            clean_ok = all(
                ref_strictly_exceeds(C.entry(k, k) - C.entry(k, kp), -thr[k - 1])
                for kp in range(1, K + 1)
                if kp != k
            )
            if clean_ok:
                total += C.entry(k, k)
            for kp in range(1, K + 1):
                if kp == k or C.entry(k, kp) <= 0.0:
                    continue
                gap = C.entry(k, k) - C.entry(k, kp)
                noisy_ok = ref_strictly_exceeds(gap, thr[k - 1]) and all(
                    ref_strictly_exceeds(C.entry(k, k) - C.entry(k, kpp), 0.0)
                    for kpp in range(1, K + 1)
                    if kpp not in (k, kp)
                )
                if noisy_ok:
                    total += C.entry(k, kp)
    else:
        for k in range(1, K + 1):
            tilde = ref_tilde_label(C, k)
            two_hot_ok = ref_strictly_exceeds(1.0, C.entry(k, k) + C.entry(k, tilde))
            if two_hot_ok:
                total += C.entry(k, k)
            for kp in range(1, K + 1):
                if kp == k or C.entry(k, kp) <= 0.0:
                    continue
                if kp == tilde:
                    if two_hot_ok:
                        total += C.entry(k, kp)
                elif ref_strictly_exceeds(1.0, C.entry(k, kp)):
                    total += C.entry(k, kp)
    return total / K


def ref_asymmetric(eta, K):
    m = np.full((K, K), eta / K)
    np.fill_diagonal(m, 1.0 - eta)
    for k in range(1, K + 1):
        succ = (k % K) + 1
        m[k - 1, succ - 1] = 2.0 * eta / K
    return m


def ref_superclass(eta, smap):
    """The matrix, or the error message for a singleton superclass."""
    K = smap.num_classes
    m = np.zeros((K, K))
    for k in range(1, K + 1):
        omega_k = smap.classes_of(smap.superclass_of(k))
        if len(omega_k) < 2:
            return f"superclass of class {k} is a singleton; corruption rate {eta} has nowhere to go"
        m[k - 1, k - 1] = 1.0 - eta
        for kp in omega_k:
            if kp != k:
                m[k - 1, kp - 1] = eta / (len(omega_k) - 1)
    return m


def ref_realize_message(C, n):
    """The integrality error of ``realize_labels``, or None."""
    K = C.K
    counts = np.rint(C.entries * n).astype(int)
    err = np.abs(C.entries * n - counts)
    for k in range(K):
        for kp in range(K):
            if kp != k and err[k, kp] > 1e-9:
                return (f"cell ({k + 1},{kp + 1}) needs {C.entries[k, kp] * n:.6g} samples, "
                        f"which is not an integer; smallest feasible n is "
                        f"{_minimal_feasible_n(C.entries)}")
    if np.any(err[np.diag_indices(K)] > 1e-9):
        k = int(np.argmax(err[np.diag_indices(K)]))
        return (f"cell ({k + 1},{k + 1}) needs {C.entries[k, k] * n:.6g} samples, "
                f"which is not an integer; smallest feasible n is "
                f"{_minimal_feasible_n(C.entries)}")
    return None


def ref_nearest_realizable(C, n):
    K = C.K
    target = C.entries * n
    counts = np.floor(target).astype(int)
    for k in range(K):
        deficit = n - int(counts[k].sum())
        if deficit:
            remainders = target[k] - counts[k]
            for kp in np.argsort(-remainders, kind="stable")[:deficit]:
                counts[k, kp] += 1
    col = counts.sum(axis=0)
    while not np.all(col == n):
        hi = int(np.argmax(col))
        lo = int(np.argmin(col))
        donors = np.nonzero(counts[:, hi] > 0)[0]
        costs = [
            abs(counts[r, hi] - 1 - target[r, hi]) + abs(counts[r, lo] + 1 - target[r, lo])
            for r in donors
        ]
        r = int(donors[int(np.argmin(costs))])
        counts[r, hi] -= 1
        counts[r, lo] += 1
        col = counts.sum(axis=0)
    return counts / n


def unequal_sizes(K, rng):
    """Superclass sizes summing to ``K``: at least two, not all equal."""
    while True:
        cuts = np.sort(rng.choice(np.arange(1, K), size=int(rng.integers(1, K)), replace=False))
        sizes = np.diff(np.concatenate([[0], cuts, [K]])).tolist()
        if len(set(sizes)) > 1 or K == 2:
            return sizes


KINDS = ("random", "block", "symmetric", "superclass", "asymmetric", "permutation")


def draw_case(K, kind, seed, infinite):
    """A corruption matrix and matching constants.

    ``infinite`` takes ``lam`` small enough that ``q/p`` rounds to 1, so the
    threshold of every round and class is infinite.
    """
    rng = np.random.default_rng(seed)
    smap = SuperclassMap.trivial(K)
    if kind == "random":
        C = random_doubly_stochastic(K, rng, diag_weight=float(rng.uniform(0.1, 0.95)))
    elif kind == "block":
        C, smap = random_block_confined(K, unequal_sizes(K, rng), rng,
                                        diag_weight=float(rng.uniform(0.1, 0.95)))
    elif kind == "symmetric":
        # exact ties: equal off-diagonals, eta = 0, and a zero gap
        eta = [0.0, (K - 1) / K, 0.5, float(rng.uniform())][int(rng.integers(4))]
        C = make_corruption("symmetric", eta, K)
    elif kind == "superclass":
        smap = SuperclassMap.from_sizes(unequal_sizes(K, rng))
        if min(smap.sizes) < 2:
            smap = SuperclassMap.trivial(K)
        eta = [0.0, 0.5, float(rng.uniform())][int(rng.integers(3))]
        C = make_corruption("superclass", eta, K, superclass_map=smap)
    elif kind == "asymmetric":
        C = make_corruption("asymmetric", float(rng.uniform()), K)
    else:
        # zero cells, and ties at alpha = 1/2
        alpha = [0.0, 0.5, float(rng.uniform())][int(rng.integers(3))]
        perm = rng.permutation(K)
        m = alpha * np.eye(K) + (1.0 - alpha) * np.eye(K)[perm]
        # move 1e-13 around a 2 x 2 cycle: row and column sums stay, and a
        # zero cell goes negative within the stochasticity tolerance
        m[[0, 0, 1, 1], [perm[0], perm[1], perm[1], perm[0]]] += 1e-13 * np.array([1, -1, 1, -1])
        C = CorruptionMatrix(m)
    R = smap.num_superclasses
    if infinite:
        c, d, lam = 0.4, 0.399, 2e-15 / (K * K * 10)
    else:
        c, d, lam = 0.4, float(rng.uniform(0.0, 0.35)), float(10.0 ** rng.uniform(-6, 1))
    model = GramModel(case=GramCase.III if R == 1 else GramCase.IV, K=K, n=10, c=c, d=d,
                      superclass_map=smap if R > 1 else None)
    tc = theory_constants(model, lam)
    assert np.all(np.isinf(tc.threshold(1))) == infinite
    return C, tc


@given(K=st.integers(2, 7), kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1),
       infinite=st.booleans())
@settings(max_examples=300, deadline=None)
def test_verdicts_and_predictions_match_the_cell_loops(K, kind, seed, infinite):
    C, tc = draw_case(K, kind, seed, infinite)
    for thr in [tc.threshold(t) for t in range(1, 7)] + [np.zeros(K), np.full(K, math.inf)]:
        assert _failing_cells(C, thr) == tuple(ref_failing_cells(C, thr))
    for t in range(1, 7):
        res = sd_accuracy_condition(C, tc, t)
        ref = ref_failing_cells(C, tc.threshold(t))
        assert res.failing_pairs == tuple(ref)
        assert res.achieves_100 == (not ref)
        assert abs(predicted_population_accuracy(C, tc, t, "sd")
                   - ref_predicted(C, tc, t, "sd")) <= 1e-14
    pll = pll_accuracy_condition(C)
    assert pll.failing_pairs == tuple(ref_pll_failing(C))
    assert pll.achieves_100 == (not ref_pll_failing(C))
    assert abs(predicted_population_accuracy(C, tc, 1, "pll")
               - ref_predicted(C, tc, 1, "pll")) <= 1e-14
    # an infinite threshold: 1 with no mislabeled cell, else unreachable
    assert minimal_rounds(C, tc) == ref_minimal_rounds(C, tc)
    if infinite:
        assert minimal_rounds(C, tc) == (None if ref_failing_cells(C, tc.threshold(1)) else 1)


@given(K=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_corruption_builders_match_the_cell_loops(K, seed):
    rng = np.random.default_rng(seed)
    eta = float(rng.uniform())
    assert np.array_equal(make_corruption("asymmetric", eta, K).entries, ref_asymmetric(eta, K))
    # any composition of K, singleton superclasses included
    cuts = np.flatnonzero(rng.uniform(size=K - 1) < 0.5) + 1
    smap = SuperclassMap.from_sizes(np.diff(np.concatenate([[0], cuts, [K]])).tolist())
    ref = ref_superclass(eta, smap)
    if isinstance(ref, str):
        with pytest.raises(ValidationError) as exc:
            make_corruption("superclass", eta, K, superclass_map=smap)
        assert str(exc.value) == ref
    else:
        assert np.array_equal(
            make_corruption("superclass", eta, K, superclass_map=smap).entries, ref)


@given(K=st.integers(2, 7), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_nearest_realizable_rounds_like_the_row_loop(K, seed, n):
    C = random_doubly_stochastic(K, np.random.default_rng(seed))
    assert np.array_equal(nearest_realizable(C, n).entries, ref_nearest_realizable(C, n))


@given(K=st.integers(2, 7), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_realize_labels_names_the_same_cell(K, seed, n):
    rng = np.random.default_rng(seed)
    if rng.uniform() < 0.5:
        C = random_doubly_stochastic(K, rng)
    else:
        C = make_corruption("symmetric", float(rng.integers(0, 5)) / 4, K)
    ref = ref_realize_message(C, n)
    if ref is None:
        assert np.array_equal(realize_labels(C, n, seed=seed).empirical_corruption().entries,
                              np.rint(C.entries * n) / n)
    else:
        with pytest.raises(ValidationError) as exc:
            realize_labels(C, n)
        assert str(exc.value) == ref
