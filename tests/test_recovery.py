"""Edge/feature invertibility and full mixed-pair recovery."""

from __future__ import annotations

import dataclasses
import itertools
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

import ifmixup as m
import ifmixup.recovery
from ifmixup.graphs import RANK_TOL
from ifmixup.mixing import MAX_REDRAWS
from ifmixup.recovery import HALF_GUARD, RecoveryError, recovery_mode, sample_decodable_lambda

from conftest import graphs_equal, rand_one_hot_graph


def sym(entries: dict[tuple[int, int], float], n: int) -> np.ndarray:
    e = np.zeros((n, n))
    for (i, j), w in entries.items():
        e[i, j] = e[j, i] = w
    return e


class TestEdgeSolutions:
    def test_single_soft_entry(self):
        sols = m.edge_solutions(sym({(0, 1): 0.3}, 2))
        assert not sols.degenerate and len(sols.solutions) == 2
        lo, hi = sols.solutions  # ordered s < 0.5 first
        assert lo.s == pytest.approx(0.3) and hi.s == pytest.approx(0.7)
        assert lo.e[0, 1] == 1.0 and lo.e_prime[0, 1] == 0.0
        assert hi.e[0, 1] == 0.0 and hi.e_prime[0, 1] == 1.0

    def test_partition_under_s_07(self):
        e = sym({(0, 1): 0.3, (0, 2): 0.7, (1, 2): 1.0}, 4)  # (·,3) pairs stay 0
        sols = m.edge_solutions(e)
        hi = sols.solutions[1]
        assert hi.s == pytest.approx(0.7)
        assert (0, 3) in hi.partition["00"]
        assert (0, 1) in hi.partition["01"]  # value 1-s: absent in e, present in e'
        assert (0, 2) in hi.partition["10"]  # value s: present in e, absent in e'
        assert (1, 2) in hi.partition["11"]

    def test_partition_covers_all_offdiagonal_pairs(self):
        e = sym({(0, 1): 0.3, (1, 2): 1.0}, 3)
        for sol in m.edge_solutions(e).solutions:
            listed = sorted(p for part in sol.partition.values() for p in part)
            expected = sorted((i, j) for i in range(3) for j in range(3) if i != j)
            assert listed == expected

    def test_mirrored_pair_structure(self):
        e = sym({(0, 1): 0.3, (0, 2): 0.7}, 3)
        lo, hi = m.edge_solutions(e).solutions
        assert lo.s + hi.s == pytest.approx(1.0)
        assert np.array_equal(lo.e, hi.e_prime) and np.array_equal(lo.e_prime, hi.e)

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(2)
        a, b = rand_one_hot_graph(rng, 5, 3), rand_one_hot_graph(rng, 5, 3)
        mixed = m.mix_pair(a, b, 0.31)
        for sol in m.edge_solutions(mixed.e).solutions:
            recon = sol.s * sol.e + (1 - sol.s) * sol.e_prime
            assert np.max(np.abs(recon - mixed.e)) < 1e-9

    def test_binary_input_degenerate(self):
        sols = m.edge_solutions(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert sols.degenerate and len(sols.solutions) == 1
        sol = sols.solutions[0]
        assert sol.s is None
        assert np.array_equal(sol.e, sol.e_prime)
        assert sol.e[0, 1] == 1.0

    def test_too_many_values(self):
        e = sym({(0, 1): 0.2, (0, 2): 0.3, (1, 2): 0.4}, 3)
        with pytest.raises(RecoveryError, match="cannot all come from one mixing ratio"):
            m.edge_solutions(e)

    def test_unpaired_values(self):
        e = sym({(0, 1): 0.3, (0, 2): 0.4}, 3)
        with pytest.raises(RecoveryError, match="do not pair to a single mixing ratio"):
            m.edge_solutions(e)

    def test_half_indistinguishable(self):
        with pytest.raises(RecoveryError, match="indistinguishable from 0.5"):
            m.edge_solutions(sym({(0, 1): 0.5}, 2))

    def test_non_finite_rejected(self):
        with pytest.raises(RecoveryError, match=r"non-finite mixed edge weight at \(0, 2\): nan"):
            m.edge_solutions(sym({(0, 1): 0.3, (0, 2): np.nan}, 3))

    @pytest.mark.parametrize(
        "e, message",
        [
            ([[0.0, 0.3], [0.7, 0.0]], r"asymmetric at \(0,1\)"),
            ([[1.0, 1.0], [1.0, 0.0]], "nonzero diagonal at node 0"),
            ([[0.0, 0.3, 0.0]], "must be square"),
        ],
        ids=["asymmetric", "diagonal", "not-square"],
    )
    def test_malformed_matrix_rejected(self, e, message):
        with pytest.raises(RecoveryError, match=message):
            m.edge_solutions(np.array(e))

    @pytest.mark.parametrize("w", [2.0, -0.3], ids=["above-one", "negative"])
    def test_weight_outside_unit_interval_rejected(self, w):
        with pytest.raises(RecoveryError, match="cannot all come from one mixing ratio"):
            m.edge_solutions(sym({(0, 1): w}, 2))

    def test_mirror_is_the_swap(self):
        lo, hi = m.edge_solutions(sym({(0, 1): 0.3, (0, 2): 0.7, (1, 2): 1.0}, 3)).solutions
        assert hi.s == 1.0 - lo.s and hi.e is lo.e_prime and hi.e_prime is lo.e


ONE_HOTS_3 = np.eye(3)


def binary_vocabularies():
    """Every set of 1-4 distinct nonzero binary rows of dimension 1-4 (2,046 sets)."""
    for d in range(1, 5):
        rows = [np.array(bits, dtype=float) for bits in itertools.product((0, 1), repeat=d)][1:]
        for size in range(1, 5):
            yield from (np.array(c) for c in itertools.combinations(rows, size))


class TestRecoverFeaturesIndependent:
    def test_case3_two_sources(self):
        v, vp = m.recover_features_independent(np.array([[0.7, 0.3, 0.0]]), 0.7, ONE_HOTS_3)
        assert np.allclose(v, [[1, 0, 0]]) and np.allclose(vp, [[0, 1, 0]])

    def test_case1_zero_row(self):
        v, vp = m.recover_features_independent(np.zeros((1, 3)), 0.7, ONE_HOTS_3)
        assert np.array_equal(v, np.zeros((1, 3))) and np.array_equal(vp, np.zeros((1, 3)))

    def test_case2_s_branch(self):
        v, vp = m.recover_features_independent(np.array([[0.7, 0.0, 0.0]]), 0.7, ONE_HOTS_3)
        assert np.allclose(v, [[1, 0, 0]]) and np.array_equal(vp, np.zeros((1, 3)))

    def test_case2_one_minus_s_branch(self):
        v, vp = m.recover_features_independent(np.array([[0.3, 0.0, 0.0]]), 0.7, ONE_HOTS_3)
        assert np.array_equal(v, np.zeros((1, 3))) and np.allclose(vp, [[1, 0, 0]])

    def test_full_coefficient_both_sides(self):
        v, vp = m.recover_features_independent(np.array([[1.0, 0.0, 0.0]]), 0.7, ONE_HOTS_3)
        assert np.allclose(v, [[1, 0, 0]]) and np.allclose(vp, [[1, 0, 0]])

    def test_non_orthogonal_vocabulary(self):
        voc = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        mixed = 0.2 * voc[0] + 0.8 * voc[1]
        v, vp = m.recover_features_independent(mixed.reshape(1, -1), 0.2, voc)
        assert np.allclose(v, voc[:1]) and np.allclose(vp, voc[1:])

    def test_inconsistent_row_rejected(self):
        with pytest.raises(RecoveryError):
            m.recover_features_independent(np.array([[0.5, 0.0, 0.0]]), 0.7, ONE_HOTS_3)

    def test_rejected_row_is_named(self):
        # rows 0-1 decode; row 2 holds three components, row 3 (s, s)
        mixed = np.array(
            [[0.7, 0.3, 0.0], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5], [0.7, 0.7, 0.0]]
        )
        with pytest.raises(RecoveryError, match=r"^row 2: "):
            m.recover_features_independent(mixed, 0.7, ONE_HOTS_3)
        with pytest.raises(RecoveryError, match=r"^row 1: "):
            m.recover_features_independent(mixed[[0, 3]], 0.7, ONE_HOTS_3)

    def test_off_span_rejected(self):
        voc = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(RecoveryError):
            m.recover_features_independent(np.array([[0.0, 0.0, 0.7]]), 0.7, voc)

    def test_non_finite_rejected(self):
        # a NaN row fails every "residual > tol" test, so unchecked it reads as a dummy row
        mixed = np.array([[0.7, 0.3, 0.0], [np.nan, 0.0, 0.0]])
        with pytest.raises(RecoveryError, match=r"non-finite mixed node feature at \(1, 0\)"):
            m.recover_features_independent(mixed, 0.7, ONE_HOTS_3)

    @pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "feature-basis"])
    def test_feature_width_mismatch_named(self, wrapped):
        vocabulary = ONE_HOTS_3
        if wrapped:
            g = m.NodeFeaturedGraph(ONE_HOTS_3, np.zeros((3, 3)))
            vocabulary = m.feature_vocabulary(m.GraphDataset([(g, m.LabelDistribution.one_hot(0, 1))], 1, 3))
        with pytest.raises(RecoveryError, match="mixed node features have width 4, the feature vocabulary 3"):
            m.recover_features_independent(np.array([[0.7, 0.3, 0.0, 0.0]]), 0.7, vocabulary)

    def test_dependent_vocabulary_rejected_exhaustive(self):
        # the solve's own verdict agrees with check_linear_independence on every set
        sets = 0
        for voc in binary_vocabularies():
            sets += 1
            independent, _ = m.check_linear_independence(voc)
            if independent:
                v, vp = m.recover_features_independent(voc[:1], 0.3, voc)
                assert np.array_equal(v, voc[:1]) and np.array_equal(vp, voc[:1])
            else:
                with pytest.raises(RecoveryError, match="not linearly independent"):
                    m.recover_features_independent(voc[:1], 0.3, voc)
        assert sets == 2046

    @settings(max_examples=300)
    @given(
        k=st.integers(2, 4),
        extra=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        at_tol=st.booleans(),
    )
    def test_verdict_matches_decoder_near_singular(self, k, extra, seed, at_tol):
        """check_linear_independence accepts V exactly when the decoder's own
        solve does, on vocabularies whose smallest singular value straddles
        RANK_TOL or sits exactly on it."""
        v = near_singular_vocabulary(k, k + extra, np.random.default_rng(seed), at_tol)
        try:
            m.recover_features_independent(v[:1], 0.3, v)
            decodes = True
        except RecoveryError as exc:  # a near-singular V may also misread row 0
            decodes = "not linearly independent" not in str(exc)
        assert m.check_linear_independence(v)[0] == decodes

    @settings(max_examples=150)
    @given(
        k=st.integers(1, 4),
        extra=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        at_tol=st.booleans(),
        sum_row=st.booleans(),
    )
    def test_vocabulary_builds_what_the_rank_test_accepts(self, k, extra, seed, at_tol, sum_row):
        """feature_vocabulary solves with the rank test's own solver. On
        rows whose smallest singular value straddles RANK_TOL (one row is
        then that short itself), plus, with ``sum_row``, the sum of the
        first and last row (a dependent set like [1, 0], [1, 1e-7],
        [2, 1e-7]), one single-node graph per row, and the verdict on the
        rows in V's own order (on the tolerance itself, the order can tip
        the last bit of a singular value):

        * an independent set builds with every row in its basis, and its
          audit finds no collision;
        * a dependent set builds with the rank test's rank, or is refused
          by name when its greedy basis falls short of that rank or a row
          lies off the basis by more than RANK_TOL.
        """
        rng = np.random.default_rng(seed)
        v = near_singular_vocabulary(k, k + extra, rng, at_tol)
        if sum_row:
            v = np.vstack([v, v[0] + v[-1]])
        v = v[np.lexsort(v.T[::-1])]
        ok, rank = m.check_linear_independence(v)
        graphs = [m.NodeFeaturedGraph(row[None], np.zeros((1, 1))) for row in v]
        items = [(g, m.LabelDistribution.one_hot(i, len(v))) for i, g in enumerate(graphs)]
        ds = m.GraphDataset(items, len(v), v.shape[1], "NEAR")
        try:
            fb = m.feature_vocabulary(ds)
        except ValueError as exc:
            assert not ok and re.match(r"feature vocabulary of rank|basis reconstruction residual", str(exc))
            return
        assert fb.rank == rank and fb.vocabulary_independent() == ok
        if ok:
            report = m.intrusion_audit(ds, 50, m.BetaParams(2, 2), rng)
            assert report.mode == "independent" and report.collisions == 0, report.first_failure

    def test_greedy_basis_short_of_the_rank_named(self):
        # the three rows have rank 2 (second singular value 1.09e-9), but no
        # two of them with the first pass the rank test (6.8e-10, 7.0e-10),
        # so the greedy basis keeps one row, and every row lies within
        # 6.1e-10 of it, inside the residual check
        v = near_singular_vocabulary(2, 4, np.random.default_rng(2), False)
        v = np.vstack([v, v[0] + v[-1]])
        v = v[np.lexsort(v.T[::-1])]
        assert m.check_linear_independence(v) == (False, 2)
        assert m.independent_row_subset(v) == [0]
        ds = m.GraphDataset([(m.NodeFeaturedGraph(v, np.zeros((3, 3))), m.LabelDistribution.one_hot(0, 1))], 1, 4)
        with pytest.raises(ValueError, match=r"^feature vocabulary of rank 2 has a greedy basis of rank 1$"):
            m.feature_vocabulary(ds)


def near_singular_vocabulary(
    k: int, d: int, rng: np.random.Generator, at_tol: bool
) -> np.ndarray:
    """V = (u * s) @ w[:k] with orthonormal u (k x k) and w (d x d): k rows
    whose smallest singular value is log-uniform in [1e-9.5, 1e-8.5], or
    exactly RANK_TOL when ``at_tol``.

    That value comes from ``rng``, not from a Hypothesis float, so that the
    band around RANK_TOL is sampled evenly; ``at_tol`` pins the one value on
    which singular values from two LAPACK drivers fall on either side.
    """
    u = np.linalg.qr(rng.standard_normal((k, k)))[0]
    w = np.linalg.qr(rng.standard_normal((d, d)))[0]
    smallest = RANK_TOL if at_tol else 10.0 ** rng.uniform(-9.5, -8.5)
    s = np.append(rng.uniform(0.5, 2.0, k - 1), smallest)
    return (u * s) @ w[:k]


def count_solves(monkeypatch) -> list[tuple[int, ...]]:
    """The shapes of the rows of every ``graphs._solve_rows`` call from here on."""
    solves, solve = [], m.graphs._solve_rows
    monkeypatch.setattr(m.graphs, "_solve_rows", lambda rows, t: solves.append(rows.shape) or solve(rows, t))
    return solves


def hand_basis() -> m.FeatureBasis:
    """n=1 coefficient matrices over a 2-row basis of 3-dim features."""
    basis = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    t1 = np.array([[1.0, 0.0]])
    t2 = np.array([[0.0, 1.0]])
    return m.FeatureBasis(
        vocabulary=np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
        vocabulary_star=np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
        rank=2,
        basis=basis,
        coeffs=[t1, t2],
        t_set=[t1, t2],
    )


class TestRecoverFeaturesBasis:
    def test_non_finite_rejected(self):
        with pytest.raises(RecoveryError, match=r"non-finite mixed node feature at \(0, 2\): inf"):
            m.recover_features_basis(np.array([[0.7, 0.7, np.inf]]), 0.7, hand_basis())

    def test_feature_width_mismatch_named(self):
        with pytest.raises(RecoveryError, match="mixed node features have width 4, the feature vocabulary 3"):
            m.recover_features_basis(np.array([[0.7, 0.7, 0.3, 0.0]]), 0.7, hand_basis())

    def test_hand_example(self):
        fb = hand_basis()
        v, vp = m.recover_features_basis(np.array([[0.7, 0.7, 0.3]]), 0.7, fb)
        assert np.allclose(v, [[1, 1, 0]]) and np.allclose(vp, [[0, 0, 1]])

    def test_identical_sources(self):
        fb = hand_basis()
        for s in (0.2, 0.7, 0.9):
            v, vp = m.recover_features_basis(np.array([[1.0, 1.0, 0.0]]), s, fb)
            assert np.allclose(v, [[1, 1, 0]]) and np.allclose(vp, [[1, 1, 0]])

    def test_off_span_rejected(self):
        fb = hand_basis()
        with pytest.raises(RecoveryError):
            m.recover_features_basis(np.array([[0.7, 0.0, 0.3]]), 0.7, fb)

    def test_no_matching_pair_rejected(self):
        fb = hand_basis()
        # in span, but coefficients [0.4, 0.6] match no (T, T') pair at s=0.7
        bad = 0.4 * fb.basis[0] + 0.6 * fb.basis[1]
        with pytest.raises(RecoveryError):
            m.recover_features_basis(bad.reshape(1, -1), 0.7, fb)

    def test_dummy_side_rejected(self):
        # coefficients (0.7, 0): one side would be an all-dummy graph, which
        # is not a training graph
        fb = hand_basis()
        with pytest.raises(RecoveryError, match="no training coefficient pair"):
            m.recover_features_basis(0.7 * fb.basis[:1], 0.7, fb)

    def test_dependent_t_set_rejected(self):
        fb = hand_basis()
        fb.t_set = [np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]])]
        with pytest.raises(RecoveryError, match="independent"):
            m.recover_features_basis(np.array([[0.7, 0.7, 0.3]]), 0.7, fb)

    def test_members_solved_once_per_size(self, monkeypatch):
        # every projector is built by graphs._solve_rows, B's on the first decode
        fb = hand_basis()
        solves = count_solves(monkeypatch)
        one_row, two_rows = np.array([[0.7, 0.7, 0.3]]), np.array([[0.7, 0.7, 0.3], [0.0, 0.0, 0.0]])
        for v_mixed in (one_row, one_row, two_rows, two_rows):
            v, vp = m.recover_features_basis(v_mixed, 0.7, fb)
            assert np.array_equal(v[0], [1, 1, 0]) and np.array_equal(vp[0], [0, 0, 1])
        assert solves == [(2, 3), (2, 2), (2, 4)]  # B, then two members flattened at n = 1 and at n = 2

    def test_assigned_t_set_drops_decoded_members(self):
        fb = hand_basis()
        v_mixed = np.array([[0.7, 0.7, 0.3]])
        m.recover_features_basis(v_mixed, 0.7, fb)
        fb.t_set = [np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]])]
        with pytest.raises(RecoveryError, match="independent"):
            m.recover_features_basis(v_mixed, 0.7, fb)
        assert not fb.t_set_independent()

    def test_replaced_basis_solves_its_own_members(self):
        fb = hand_basis()
        v_mixed = np.array([[0.7, 0.7, 0.3]])
        m.recover_features_basis(v_mixed, 0.7, fb)
        dependent = dataclasses.replace(fb, t_set=[np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]])])
        with pytest.raises(RecoveryError, match="independent"):
            m.recover_features_basis(v_mixed, 0.7, dependent)
        v, vp = m.recover_features_basis(v_mixed, 0.7, fb)  # the original keeps its own
        assert np.array_equal(v, [[1, 1, 0]]) and np.array_equal(vp, [[0, 0, 1]])

    def test_only_members_that_fit_must_be_independent(self):
        # padded to two rows the third member equals the first, so the whole
        # collection is dependent; at one row only the first two fit
        t_set = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([[1.0, 0.0], [0.0, 0.0]])]
        fb = m.FeatureBasis(
            vocabulary=np.eye(2),
            vocabulary_star=np.vstack([np.eye(2), np.zeros((1, 2))]),
            rank=2,
            basis=np.eye(2),
            coeffs=t_set,
            t_set=t_set,
        )
        assert not fb.t_set_independent() and recovery_mode(fb) != "basis"
        v, vp = m.recover_features_basis(np.array([[0.3, 0.7]]), 0.3, fb)
        assert np.allclose(v, [[1, 0]]) and np.allclose(vp, [[0, 1]])
        with pytest.raises(RecoveryError, match="independent"):
            m.recover_features_basis(np.array([[0.3, 0.7], [0.0, 0.0]]), 0.3, fb)

    def test_different_row_counts_in_t_set(self):
        basis = np.eye(2)
        t1 = np.array([[1.0, 0.0]])
        t2 = np.array([[1.0, 0.0], [0.0, 1.0]])
        fb = m.FeatureBasis(
            vocabulary=np.eye(2),
            vocabulary_star=np.vstack([np.eye(2), np.zeros((1, 2))]),
            rank=2,
            basis=basis,
            coeffs=[t1, t2],
            t_set=[t1, t2],
        )
        # mixed features of (t2 source, t1 source padded with one dummy row)
        mixed = 0.7 * t2 @ basis
        mixed[0] += 0.3 * (t1 @ basis)[0]
        v, vp = m.recover_features_basis(mixed, 0.7, fb)
        assert np.allclose(v, t2 @ basis)
        assert np.allclose(vp, np.vstack([t1 @ basis, np.zeros((1, 2))]))


    def test_half_rejected(self):
        fb = hand_basis()
        mixed = 0.5 * fb.basis[0] + 0.5 * fb.basis[1]
        with pytest.raises(RecoveryError, match="0.5"):
            m.recover_features_basis(mixed.reshape(1, -1), 0.5, fb)


def conditioned_instance(rng: np.random.Generator) -> tuple[m.GraphDataset, list[float]]:
    """Eight graphs of 1-5 nodes over a random integer vocabulary of 2-4 rows
    with condition number below 20; half of the graphs are edgeless, so that
    mixes of two of them take their ratio from the features. Returns the set
    and the mixing ratios to try."""
    k = int(rng.integers(2, 5))
    d = k + int(rng.integers(0, 3))
    vocabulary = rng.integers(-2, 3, size=(k, d)).astype(float)
    while len(np.unique(vocabulary, axis=0)) < k or np.linalg.cond(vocabulary) > 20:
        vocabulary = rng.integers(-2, 3, size=(k, d)).astype(float)
    items = []
    for i in range(8):
        n = int(rng.integers(1, 6))
        e = rand_one_hot_graph(rng, n, d).e if i % 2 else np.zeros((n, n))
        g = m.NodeFeaturedGraph(vocabulary[rng.integers(k, size=n)], e)
        items.append((g, m.LabelDistribution.one_hot(i % 2, 2)))
    return m.GraphDataset(items, 2, d, "COND"), rng.uniform(0.05, 0.95, 6).tolist()


def lstsq_reference(g_mixed: m.NodeFeaturedGraph, vocabulary: np.ndarray):
    """The independent-mode decode with one least-squares solve per call:
    the ratio and both sources' feature rows, or None for identical sources."""
    sol = m.edge_solutions(g_mixed.e).solutions[0]
    coeff, rank = m.graphs._solve_rows(vocabulary, g_mixed.v)
    assert rank == len(vocabulary)
    s = sol.s if sol.s is not None else ifmixup.recovery._mixing_ratio(coeff.ravel(), "coefficient")
    if s is None:
        return None
    ia, ib = ifmixup.recovery._split_coefficients(coeff, s)
    vocabulary_star = np.vstack([vocabulary, np.zeros((1, vocabulary.shape[1]))])
    return s, vocabulary_star[ia], vocabulary_star[ib]


class TestProjectors:
    def test_vocabulary_solved_once_per_basis(self, monkeypatch):
        rng = np.random.default_rng(4)
        a, b = rand_one_hot_graph(rng, 3, 4), rand_one_hot_graph(rng, 5, 4)
        fb = two_graph_basis(a, b)
        solves = count_solves(monkeypatch)
        for lam in (0.2, 0.3, 0.8):
            assert m.recover_pair(m.mix_pair(a, b, lam), fb).matches(a, b, lam)
            m.recover_features_independent(np.eye(4)[:2], 1.0 - lam, fb)
        assert solves == [fb.vocabulary.shape]

    def test_bare_vocabulary_solved_per_call(self, monkeypatch):
        solves = count_solves(monkeypatch)
        for _ in range(3):
            m.recover_features_independent(np.array([[0.7, 0.3, 0.0]]), 0.7, ONE_HOTS_3)
        assert solves == [(3, 3)] * 3

    def test_assigned_vocabulary_drops_its_projector(self):
        fb = hand_basis()
        fb.vocabulary = np.eye(3)
        v, vp = m.recover_features_independent(np.array([[0.7, 0.3, 0.0]]), 0.7, fb)
        assert np.array_equal(v, [[1, 0, 0]]) and np.array_equal(vp, [[0, 1, 0]])
        fb.vocabulary = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(RecoveryError, match="feature vocabulary is not linearly independent"):
            m.recover_features_independent(np.array([[0.7, 0.0, 0.0]]), 0.7, fb)
        fb.vocabulary = np.eye(3)[:2]
        with pytest.raises(RecoveryError, match="leave SPAN"):
            m.recover_features_independent(np.array([[0.0, 0.3, 0.7]]), 0.7, fb)

    def test_assigned_basis_drops_its_projector(self):
        fb = hand_basis()
        mixed = np.array([[0.7, 0.7, 0.3]])
        m.recover_features_basis(mixed, 0.7, fb)
        fb.basis = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(RecoveryError, match="leave SPAN"):
            m.recover_features_basis(mixed, 0.7, fb)
        fb.basis = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
        with pytest.raises(RecoveryError, match="span basis is not linearly independent"):
            m.recover_features_basis(mixed, 0.7, fb)

    @pytest.mark.parametrize("field", ["vocabulary", "basis"])
    def test_replaced_basis_solves_its_own_projector(self, monkeypatch, field):
        fb = hand_basis()
        mixed = np.array([[0.7, 0.7, 0.3]])
        decode = m.recover_features_independent if field == "vocabulary" else m.recover_features_basis
        decode(mixed, 0.7, fb)
        solves = count_solves(monkeypatch)
        dependent = dataclasses.replace(fb, **{field: np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])})
        with pytest.raises(RecoveryError, match="not linearly independent"):
            decode(mixed, 0.7, dependent)
        assert solves == [(2, 3)]
        v, vp = decode(mixed, 0.7, fb)  # the original keeps its own
        assert np.allclose(v, [[1, 1, 0]]) and np.allclose(vp, [[0, 0, 1]]) and solves == [(2, 3)]

    @pytest.mark.parametrize("seed", range(12))
    def test_decodes_match_a_solve_per_call(self, seed):
        rng = np.random.default_rng(seed)
        ds, ratios = conditioned_instance(rng)
        fb = m.feature_vocabulary(ds)
        assert fb.vocabulary_independent()
        decoded = 0
        for (ga, _), (gb, _) in itertools.product(ds.items, repeat=2):
            for lam in ratios:
                mixed = m.mix_pair(ga, gb, lam)
                reference = lstsq_reference(mixed, fb.vocabulary)
                rec = m.recover_pair(mixed, fb)
                if reference is None:
                    assert rec.lam is None and rec.sources_identical
                    continue
                s, va, vb = reference
                assert abs(rec.lam - s) <= 1e-12
                got_a, got_b = m.recover_features_independent(mixed.v, s, fb)
                assert got_a.tobytes() == va.tobytes() and got_b.tobytes() == vb.tobytes()
                assert rec.graph_a.v.tobytes() == va[: rec.graph_a.n].tobytes()
                assert rec.graph_b.v.tobytes() == vb[: rec.graph_b.n].tobytes()
                decoded += 1
        assert decoded > 0


def pad_to(t: np.ndarray, n: int) -> np.ndarray:
    return np.vstack([t, np.zeros((n - t.shape[0], t.shape[1]))])


def search_pairs(v_mixed, s, fb, tol=1e-9):
    """Every ordered training pair (a, b) with s*T_a + (1-s)*T_b equal to the
    mixed coefficients, by exhaustive search: the reference for the decoder."""
    t_mixed = m.coefficients_in_basis(v_mixed, fb.basis)
    n = v_mixed.shape[0]
    fits = [(i, pad_to(t, n)) for i, t in enumerate(fb.t_set) if t.shape[0] <= n]
    return [
        (a, b)
        for a, ta in fits
        for b, tb in fits
        if np.max(np.abs(s * ta + (1.0 - s) * tb - t_mixed)) <= tol
    ]


def search_ratios(v_mixed, fb, tol=1e-9):
    """Every s in (tol, 1 - tol) for which some ordered training pair
    reproduces the mixed coefficients, by exhaustive search. Ratios within
    tol of 0 or 1 are rounding noise: s*T + (1-s)*T' equals T' there."""
    t_mixed = m.coefficients_in_basis(v_mixed, fb.basis)
    n = v_mixed.shape[0]
    fits = [pad_to(t, n) for t in fb.t_set if t.shape[0] <= n]
    found = []
    for ta in fits:
        for tb in fits:
            mask = np.abs(ta - tb) > tol
            if not mask.any():
                continue
            s = float((t_mixed[mask] - tb[mask]).flat[0] / (ta - tb)[mask].flat[0])
            if tol < s < 1.0 - tol and np.max(np.abs(s * ta + (1.0 - s) * tb - t_mixed)) <= tol:
                found.append(s)
    return found


def random_basis_instance(rng: np.random.Generator) -> m.FeatureBasis:
    """2-6 independent coefficient matrices of 1-4 rows over a random basis."""
    r = int(rng.integers(2, 4))
    d = r + int(rng.integers(0, 2))
    basis = rng.integers(-1, 2, size=(r, d)).astype(float)
    while not m.check_linear_independence(basis)[0]:
        basis = rng.integers(-1, 2, size=(r, d)).astype(float)
    count = int(rng.integers(2, 7))
    while True:
        t_set = []
        for _ in range(count):
            t = rng.integers(0, 3, size=(int(rng.integers(1, 5)), r)).astype(float)
            t[~t.any(axis=1), 0] = 1.0  # a zero feature row would read as a dummy node
            t_set.append(t)
        fb = m.FeatureBasis(
            vocabulary=basis,
            vocabulary_star=np.vstack([basis, np.zeros((1, d))]),
            rank=r,
            basis=basis,
            coeffs=t_set,
            t_set=t_set,
        )
        if fb.t_set_independent():
            return fb


def reference_basis_decode(v_mixed, s, fb):
    """The basis-mode decode as one solve per call: every member that fits,
    padded and stacked, solved for the mixed coefficients. Returns the split
    (ia, ib) and the two sources' features; the reference for the decoder's
    per-size projector."""
    t_mixed = m.coefficients_in_basis(v_mixed, fb.basis)
    n = v_mixed.shape[0]
    members = np.stack([pad_to(t, n) for t in fb.t_set if t.shape[0] <= n])
    coeff, _ = m.graphs._solve_rows(members.reshape(len(members), -1), t_mixed.reshape(1, -1))
    ia, ib = ifmixup.recovery._split_coefficients(coeff, s)
    return (ia[0], ib[0]), members[ia[0]] @ fb.basis, members[ib[0]] @ fb.basis


class TestBasisModeAgainstSearch:
    RATIOS = (0.13, 0.3, 0.62, 0.85)

    @pytest.mark.parametrize("seed", range(12))
    def test_decoder_matches_per_call_solve(self, seed):
        fb = random_basis_instance(np.random.default_rng(seed))
        for ta, tb in itertools.product(fb.t_set, repeat=2):
            n = max(ta.shape[0], tb.shape[0])
            for s in self.RATIOS:
                v_mixed = (s * pad_to(ta, n) + (1.0 - s) * pad_to(tb, n)) @ fb.basis
                pair, va, vb = reference_basis_decode(v_mixed, s, fb)
                coeff, _ = ifmixup.recovery._feature_coefficients(v_mixed, fb, independent=False)
                ia, ib = ifmixup.recovery._split_coefficients(coeff, s)
                assert (ia[0], ib[0]) == pair
                got_a, got_b = m.recover_features_basis(v_mixed, s, fb)
                assert got_a.tobytes() == va.tobytes() and got_b.tobytes() == vb.tobytes()

    @pytest.mark.parametrize("seed", range(12))
    def test_decoder_matches_search(self, seed):
        fb = random_basis_instance(np.random.default_rng(seed))
        for a, ta in enumerate(fb.t_set):
            for b, tb in enumerate(fb.t_set):
                n = max(ta.shape[0], tb.shape[0])
                for s in self.RATIOS:
                    v_mixed = (s * pad_to(ta, n) + (1.0 - s) * pad_to(tb, n)) @ fb.basis
                    assert search_pairs(v_mixed, s, fb) == [(a, b)]
                    va, vb = m.recover_features_basis(v_mixed, s, fb)
                    assert np.abs(va - pad_to(ta, n) @ fb.basis).max() <= 1e-9
                    assert np.abs(vb - pad_to(tb, n) @ fb.basis).max() <= 1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_identical_edge_ratio_matches_search(self, seed):
        # edgeless sources: the edge step is degenerate and the ratio must
        # come from the feature coefficients alone
        fb = random_basis_instance(np.random.default_rng(seed))
        for a, ta in enumerate(fb.t_set):
            for b, tb in enumerate(fb.t_set):
                n = max(ta.shape[0], tb.shape[0])
                for s in self.RATIOS:
                    v_mixed = (s * pad_to(ta, n) + (1.0 - s) * pad_to(tb, n)) @ fb.basis
                    ratios = search_ratios(v_mixed, fb)
                    rec = m.recover_pair(m.NodeFeaturedGraph(v_mixed, np.zeros((n, n))), fb, "basis")
                    if a == b:
                        assert ratios == [] and rec.lam is None and rec.sources_identical
                        continue
                    assert ratios
                    assert all(min(abs(r - s), abs(r - (1.0 - s))) <= 1e-9 for r in ratios)
                    assert rec.lam == pytest.approx(min(ratios), abs=1e-9)
                    sources = [pad_to(ta, n) @ fb.basis, pad_to(tb, n) @ fb.basis]
                    if rec.lam != pytest.approx(s, abs=1e-9):
                        sources.reverse()
                    assert np.abs(pad_to(rec.graph_a.v, n) - sources[0]).max() <= 1e-9
                    assert np.abs(pad_to(rec.graph_b.v, n) - sources[1]).max() <= 1e-9


def two_graph_basis(a: m.NodeFeaturedGraph, b: m.NodeFeaturedGraph) -> m.FeatureBasis:
    ds = m.GraphDataset(
        [(a, m.LabelDistribution.one_hot(0, 2)), (b, m.LabelDistribution.one_hot(1, 2))],
        2,
        a.d,
        "PAIR",
    )
    return m.feature_vocabulary(ds)


class TestRecoverPair:
    def test_round_trip_with_padding(self):
        rng = np.random.default_rng(9)
        a, b = rand_one_hot_graph(rng, 3, 4), rand_one_hot_graph(rng, 5, 4)
        mixed = m.mix_pair(a, b, 0.73)
        # the canonical report has s < 0.5, so mixing with 0.73 comes back mirrored
        rec = m.recover_pair(mixed, two_graph_basis(a, b))
        assert rec.lam == pytest.approx(0.27, abs=1e-9)
        assert rec.graph_a.n == 5 and rec.graph_b.n == 3  # dummies stripped
        assert graphs_equal(rec.graph_a, b) and graphs_equal(rec.graph_b, a)

    def test_round_trip_below_half_is_direct(self):
        rng = np.random.default_rng(9)
        a, b = rand_one_hot_graph(rng, 3, 4), rand_one_hot_graph(rng, 5, 4)
        mixed = m.mix_pair(a, b, 0.27)
        rec = m.recover_pair(mixed, two_graph_basis(a, b))
        assert rec.lam == pytest.approx(0.27, abs=1e-9)
        assert graphs_equal(rec.graph_a, a) and graphs_equal(rec.graph_b, b)

    def test_round_trip_basis_mode(self):
        rng = np.random.default_rng(10)
        a, b = rand_one_hot_graph(rng, 4, 3), rand_one_hot_graph(rng, 4, 3)
        mixed = m.mix_pair(a, b, 0.27)
        rec = m.recover_pair(mixed, two_graph_basis(a, b), mode="basis")
        ok_direct = graphs_equal(rec.graph_a, a) and graphs_equal(rec.graph_b, b)
        ok_mirror = graphs_equal(rec.graph_a, b) and graphs_equal(rec.graph_b, a)
        assert ok_direct or ok_mirror
        lam = rec.lam if ok_direct else 1.0 - rec.lam
        assert lam == pytest.approx(0.27, abs=1e-9)

    def test_half_rejected(self):
        rng = np.random.default_rng(11)
        a, b = rand_one_hot_graph(rng, 4, 3), rand_one_hot_graph(rng, 4, 3)
        while np.array_equal(a.e, b.e):
            b = rand_one_hot_graph(rng, 4, 3)
        mixed = m.mix_pair(a, b, 0.5)
        with pytest.raises(RecoveryError, match="0.5"):
            m.recover_pair(mixed, two_graph_basis(a, b))

    def test_identical_sources_flagged(self):
        rng = np.random.default_rng(12)
        g = rand_one_hot_graph(rng, 4, 3)
        mixed = m.mix_pair(g, g, 0.3)
        rec = m.recover_pair(mixed, two_graph_basis(g, g))
        assert rec.sources_identical and rec.lam is None
        assert graphs_equal(rec.graph_a, g) and graphs_equal(rec.graph_b, g)

    def test_degenerate_edges_lambda_from_features(self):
        # same adjacency, different features: edge step is degenerate, the
        # feature step must still pin the ratio
        e = sym({(0, 1): 1.0}, 2)
        a = m.NodeFeaturedGraph(np.eye(3)[:2], e)
        b = m.NodeFeaturedGraph(np.eye(3)[1:], e)
        mixed = m.mix_pair(a, b, 0.7)
        rec = m.recover_pair(mixed, two_graph_basis(a, b))
        assert rec.lam == pytest.approx(0.3, abs=1e-9)  # canonical mirror of 0.7
        assert graphs_equal(rec.graph_a, b) and graphs_equal(rec.graph_b, a)

    @pytest.mark.parametrize("mode,solves", [("independent", 1), ("basis", 1)])
    def test_binary_edge_mix_solves_features_once(self, monkeypatch, mode, solves):
        # binary mixed edges leave the ratio to the features: the one solve
        # that reads it also gives the split (basis mode: the projection onto
        # B; the members' projector at this size was built by recovery_mode)
        e = sym({(0, 1): 1.0}, 3)
        v = np.eye(3) if mode == "independent" else np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        a, b = m.NodeFeaturedGraph(v, e), m.NodeFeaturedGraph(v[::-1].copy(), e)
        basis = two_graph_basis(a, b)
        assert recovery_mode(basis) == mode
        calls, lstsq = [], np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: calls.append(1) or lstsq(*args, **kw))
        rec = m.recover_pair(m.mix_pair(a, b, 0.3), basis, mode)
        assert rec.matches(a, b, 0.3) and len(calls) == solves

    @pytest.mark.parametrize("edges", [{(0, 1): 1.0}, {(0, 1): 0.3}], ids=["degenerate", "soft"])
    def test_non_finite_features_rejected(self, edges):
        a = m.NodeFeaturedGraph(np.eye(3)[:2], sym({(0, 1): 1.0}, 2))
        mixed = m.NodeFeaturedGraph(np.array([[0.3, 0.7, 0.0], [np.nan, 0.0, 0.0]]), sym(edges, 2))
        with pytest.raises(RecoveryError, match="non-finite mixed node feature"):
            m.recover_pair(mixed, two_graph_basis(a, a))

    @pytest.mark.parametrize("mode", ["independent", "basis"])
    @pytest.mark.parametrize("edges", [{(0, 1): 1.0}, {(0, 1): 0.3}], ids=["degenerate", "soft"])
    def test_feature_width_mismatch_named(self, edges, mode):
        a = m.NodeFeaturedGraph(np.eye(3)[:2], sym({(0, 1): 1.0}, 2))
        mixed = m.NodeFeaturedGraph(np.array([[0.3, 0.7, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]), sym(edges, 2))
        with pytest.raises(RecoveryError, match="mixed node features have width 4, the feature vocabulary 3"):
            m.recover_pair(mixed, two_graph_basis(a, a), mode)

    def test_strip_dummy_nodes(self):
        g = rand_one_hot_graph(np.random.default_rng(13), 4, 3)
        padded = m.pad_graph(g, 7)
        assert graphs_equal(m.strip_dummy_nodes(padded), g)
        # a graph with no dummies is returned intact
        assert graphs_equal(m.strip_dummy_nodes(g), g)

    def test_dummy_features_are_exactly_zero(self):
        # a trailing isolated node with features within DEFAULT_TOL of zero is live
        g = rand_one_hot_graph(np.random.default_rng(13), 4, 3)
        tail = m.pad_graph(g, 5)
        tail.v[4, 0] = 1e-12
        assert m.strip_dummy_nodes(tail).n == 5

    def test_feature_coefficient_above_one_rejected(self):
        # binary edges leave the ratio to the features, whose coefficient 2
        # no mix of two members makes
        e = sym({(0, 1): 1.0}, 2)
        a = m.NodeFeaturedGraph(np.eye(2), e)
        mixed = m.NodeFeaturedGraph(np.array([[2.0, 0.0], [0.0, 1.0]]), e)
        with pytest.raises(RecoveryError, match="cannot all come from one mixing ratio"):
            m.recover_pair(mixed, two_graph_basis(a, a))


class TestMatches:
    def pair(self, lam=0.27):
        rng = np.random.default_rng(14)
        a, b = rand_one_hot_graph(rng, 3, 4), rand_one_hot_graph(rng, 5, 4)
        return a, b, m.recover_pair(m.mix_pair(a, b, lam), two_graph_basis(a, b))

    def test_direct_and_mirrored(self):
        a, b, rec = self.pair()
        assert rec.matches(a, b, 0.27) and rec.matches(b, a, 0.73)
        assert not rec.matches(b, a, 0.27) and not rec.matches(a, b, 0.73)

    def test_ratio_must_agree(self):
        a, b, rec = self.pair()
        assert not rec.matches(a, b, 0.27 + 1e-8)

    def test_feature_drift_rejected(self):
        a, b, rec = self.pair()
        drifted = m.NodeFeaturedGraph(a.v * (1.0 + 1e-6), a.e)
        # allclose's default rtol=1e-5 accepts this drift even at atol=1e-9
        assert np.allclose(drifted.v, a.v, atol=1e-9)
        assert not rec.matches(drifted, b, 0.27)

    def test_identical_sources(self):
        g = rand_one_hot_graph(np.random.default_rng(12), 4, 3)
        rec = m.recover_pair(m.mix_pair(g, g, 0.3), two_graph_basis(g, g))
        assert rec.matches(g, g, 0.3) and rec.matches(g, g, 0.9)
        other = rand_one_hot_graph(np.random.default_rng(15), 4, 3)
        assert not rec.matches(g, other, 0.3)


TOL = ifmixup.recovery.DEFAULT_TOL


@st.composite
def one_hot_graphs(draw, d: int, max_n: int = 6) -> m.NodeFeaturedGraph:
    """1-``max_n`` nodes with one-hot or zero features over ``d`` columns;
    edgeless about a quarter of the time."""
    n = draw(st.integers(1, max_n))
    v = np.zeros((n, d))
    cols = draw(st.lists(st.integers(-1, d - 1), min_size=n, max_size=n))
    v[[i for i, c in enumerate(cols) if c >= 0], [c for c in cols if c >= 0]] = 1.0
    e = np.zeros((n, n))
    if draw(st.integers(0, 3)):
        pairs = n * (n - 1) // 2
        e[np.triu_indices(n, 1)] = draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs))
    return m.NodeFeaturedGraph(v, e + e.T)


@st.composite
def source_pairs(draw) -> tuple[m.NodeFeaturedGraph, m.NodeFeaturedGraph]:
    """Two graphs over one feature width, of equal or unequal sizes; the
    same graph twice about a quarter of the time."""
    d = draw(st.integers(1, 4))
    a = draw(one_hot_graphs(d))
    return a, (a if not draw(st.integers(0, 3)) else draw(one_hot_graphs(d)))


def ratios():
    """Mixing ratios well inside (0, 1), just outside HALF_GUARD of 0.5, and
    a few DEFAULT_TOL from 0 or 1, where the clusters barely separate."""
    low = st.one_of(
        st.floats(0.01, 0.5 - HALF_GUARD),
        st.floats(HALF_GUARD, 10 * HALF_GUARD).map(lambda x: 0.5 - x),
        st.floats(1.5 * TOL, 10 * TOL),
    )
    return st.tuples(low, st.booleans()).map(lambda t: 1.0 - t[0] if t[1] else t[0])


class TestRoundTripProperties:
    """Random mixes decode back to their sources, edge cases included."""

    @settings(max_examples=400)
    @given(pair=source_pairs(), lam=ratios())
    def test_decode_matches_sources(self, pair, lam):
        a, b = pair
        rec = m.recover_pair(m.mix_pair(a, b, lam), two_graph_basis(a, b))
        assert rec.matches(a, b, lam)

    @settings(max_examples=100)
    @given(pair=source_pairs(), lam=ratios(), data=st.data())
    def test_malformed_edges_rejected(self, pair, lam, data):
        a, b = pair
        mixed = m.mix_pair(a, b, lam)
        n = mixed.n
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        w = data.draw(st.floats(0.0, 1.0).filter(lambda w: w != mixed.e[i, j]))
        mixed.e[i, j] = w
        message = "nonzero diagonal" if i == j else "asymmetric"
        with pytest.raises(RecoveryError, match=message):
            m.recover_pair(mixed, two_graph_basis(a, b))



def dependent_vocabulary_dataset() -> m.GraphDataset:
    """V dependent, coefficient collection independent: basis mode."""
    v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    g = m.NodeFeaturedGraph(v, np.zeros((3, 3)))
    h = m.NodeFeaturedGraph(v[::-1].copy(), sym({(0, 1): 1.0}, 3))
    return m.GraphDataset(
        [(g, m.LabelDistribution.one_hot(0, 2)), (h, m.LabelDistribution.one_hot(1, 2))],
        2,
        2,
        "DEP-V",
    )


def dependent_collection_dataset() -> m.GraphDataset:
    """V and the coefficient collection both dependent: no decoder applies."""
    g = m.NodeFeaturedGraph(np.array([[1.0, 0.0]]), np.zeros((1, 1)))
    h = m.NodeFeaturedGraph(np.array([[2.0, 0.0]]), np.zeros((1, 1)))
    return m.GraphDataset(
        [(g, m.LabelDistribution.one_hot(0, 2)), (h, m.LabelDistribution.one_hot(1, 2))],
        2,
        2,
        "DEP-T",
    )


def zero_feature_dataset(same_edges: bool) -> m.GraphDataset:
    """Two graphs whose features are all zero: V is empty and V* = {0}."""
    a = m.NodeFeaturedGraph(np.zeros((3, 2)), sym({(1, 2): 1.0}, 3))
    b = m.NodeFeaturedGraph(np.zeros((3, 2)), sym({(1, 2) if same_edges else (0, 2): 1.0}, 3))
    return m.GraphDataset([(g, m.LabelDistribution.one_hot(0, 2)) for g in (a, b)], 2, 2, "ZERO")


class TestEmptyVocabulary:
    @pytest.mark.parametrize("same_edges", [False, True], ids=["different-edges", "same-edges"])
    def test_zero_rows_decode_uniquely(self, same_edges):
        ds = zero_feature_dataset(same_edges)
        (a, _), (b, _) = ds.items
        basis = m.feature_vocabulary(ds)
        assert basis.vocabulary.shape == (0, 2) and recovery_mode(basis) == "independent"
        rec = m.recover_pair(m.mix_pair(a, b, 0.3), basis)
        assert rec.matches(a, b, 0.3)
        assert rec.sources_identical == same_edges
        report = m.intrusion_audit(ds, 20, m.BetaParams(2, 2), np.random.default_rng(0))
        assert report.ok(), report.first_failure


class TestRecoveryMode:
    def test_independent(self):
        rng = np.random.default_rng(9)
        basis = two_graph_basis(rand_one_hot_graph(rng, 3, 4), rand_one_hot_graph(rng, 5, 4))
        assert recovery_mode(basis) == "independent"

    def test_basis(self):
        assert recovery_mode(m.feature_vocabulary(dependent_vocabulary_dataset())) == "basis"

    def test_none(self):
        assert recovery_mode(m.feature_vocabulary(dependent_collection_dataset())) is None

    def test_near_singular_vocabulary_not_independent(self):
        # smallest singular value 8.5e-10: the decoders reject this V, so
        # recovery_mode must not offer them
        v = np.array([[1.0, 0.0], [1.0, 1.2e-9]])
        idx = m.independent_row_subset(v)
        fb = m.FeatureBasis(v, np.vstack([v, np.zeros((1, 2))]), len(idx), v[idx], [], [])
        assert recovery_mode(fb) != "independent"
        with pytest.raises(RecoveryError, match="not linearly independent"):
            m.recover_features_independent(v[:1], 0.3, v)


class TestDecodableLambda:
    def test_redraws_within_guard(self, monkeypatch):
        draws = iter([0.5, 0.5 - 0.5 * HALF_GUARD, 0.5 + 2 * HALF_GUARD, 0.3])
        monkeypatch.setattr(ifmixup.recovery, "sample_lambda", lambda params, rng: next(draws))
        assert sample_decodable_lambda(m.BetaParams(2, 2), None) == 0.5 + 2 * HALF_GUARD
        assert next(draws) == 0.3  # exactly three draws taken

    def test_same_stream_away_from_half(self):
        params = m.BetaParams(2, 2)
        guarded, plain = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(50):
            assert sample_decodable_lambda(params, guarded) == m.sample_lambda(params, plain)


    def test_gives_up_on_a_beta_concentrated_at_half(self):
        # Beta(1e16, 1e16) draws within 1e-8 of 0.5, always inside the guard
        params = m.BetaParams(1e16, 1e16)
        message = re.escape(f"{params} drew {MAX_REDRAWS} ratios in a row within {HALF_GUARD} of 0.5")
        with pytest.raises(ValueError, match=message):
            sample_decodable_lambda(params, np.random.default_rng(0))

    def test_gives_up_after_max_redraws(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ifmixup.recovery, "sample_lambda", lambda params, rng: calls.append(1) or 0.5)
        with pytest.raises(ValueError, match="ratios in a row"):
            sample_decodable_lambda(m.BetaParams(2, 2), None)
        assert len(calls) == MAX_REDRAWS


class TestIntrusionAudit:
    def build_ds(self, n_graphs: int = 10) -> m.GraphDataset:
        rng = np.random.default_rng(20)
        items = [
            (rand_one_hot_graph(rng, int(rng.integers(3, 7)), 4), m.LabelDistribution.one_hot(i % 2, 2))
            for i in range(n_graphs)
        ]
        return m.GraphDataset(items, 2, 4, "AUDIT-TOY")

    def test_clean_dataset(self):
        ds = self.build_ds()
        report = m.intrusion_audit(ds, 50, m.BetaParams(2, 2), np.random.default_rng(0))
        assert report.assumption_ok and report.ok()
        assert report.collisions == 0 and report.recovery_failures == 0
        assert report.trials == 50

    def test_report_text(self):
        ds = self.build_ds()
        report = m.intrusion_audit(ds, 20, m.BetaParams(2, 2), np.random.default_rng(1))
        text = report.to_text()
        assert re.search(r"label collisions:\s+0", text)
        assert re.search(r"recovery failures:\s+0", text)
        assert re.search(r"verdict:\s+intrusion-free", text)

    def test_dependent_vocabulary_uses_basis_mode(self):
        # V dependent but the coefficient collection independent: the audit
        # falls back to basis-mode recovery instead of giving up
        ds = dependent_vocabulary_dataset()
        report = m.intrusion_audit(ds, 10, m.BetaParams(2, 2), np.random.default_rng(2))
        assert report.assumption_ok and report.mode == "basis"
        assert report.ok()

    def test_assumption_violated_gate(self):
        # V dependent and the T collection dependent too: audit is skipped
        ds = dependent_collection_dataset()
        report = m.intrusion_audit(ds, 10, m.BetaParams(2, 2), np.random.default_rng(2))
        assert not report.assumption_ok
        assert report.mode is None
        assert not report.ok()
        assert "VIOLATED" in report.to_text()

    def test_determinism(self):
        ds = self.build_ds()
        r1 = m.intrusion_audit(ds, 30, m.BetaParams(2, 2), np.random.default_rng(3))
        r2 = m.intrusion_audit(ds, 30, m.BetaParams(2, 2), np.random.default_rng(3))
        assert r1.to_text() == r2.to_text()

    def test_independent_audit_gathers_no_coefficients(self):
        """An independent-mode audit reads neither ``coeffs`` nor ``t_set``,
        so it never holds the per-node coefficient gather (rows x rank
        doubles) that ``coeffs`` would take."""
        parsed = m.make_synthetic_molecules(10000, seed=5)
        ds = m.encode_node_features(parsed, "one_hot_degree")
        gather = sum(g.n for g in ds.graphs()) * m.feature_vocabulary(ds).rank * 8
        assert gather >= 10_000_000
        tracemalloc.start()
        try:
            report = m.intrusion_audit(ds, 5, m.BetaParams(20, 1), np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.mode == "independent" and report.ok()
        assert peak < gather, f"peak {peak} bytes, gather {gather} bytes"

    @pytest.mark.parametrize("trials", [0, -5])
    def test_trials_below_one_rejected(self, trials):
        with pytest.raises(ValueError, match=rf"trials must be at least 1, got {trials}"):
            m.intrusion_audit(self.build_ds(), trials, m.BetaParams(2, 2), np.random.default_rng(0))

    @pytest.mark.parametrize("trials", [True, False, 2.5, 3.0, np.float64(3.0), "3", None])
    def test_trials_not_an_integer_rejected(self, trials):
        with pytest.raises(ValueError, match=rf"^trials must be an integer, got {re.escape(repr(trials))}$"):
            m.intrusion_audit(self.build_ds(), trials, m.BetaParams(2, 2), np.random.default_rng(0))

    def test_numpy_integer_trials_accepted(self):
        ds, params = self.build_ds(), m.BetaParams(2, 2)
        report = m.intrusion_audit(ds, np.int64(7), params, np.random.default_rng(0))
        assert report.to_text() == m.intrusion_audit(ds, 7, params, np.random.default_rng(0)).to_text()


def scan_audit(ds: m.GraphDataset, trials: int, params: m.BetaParams, rng: np.random.Generator):
    """``intrusion_audit`` with the collision check as a scan over every
    training graph, padded to the mix's size: the oracle for the V* filter."""
    basis = m.feature_vocabulary(ds)
    mode = recovery_mode(basis)
    report = m.IntrusionAuditReport(ds.name, trials, mode, assumption_ok=mode is not None)
    if mode is None:
        return report
    items = ds.items
    for trial in range(trials):
        ia, ib = int(rng.integers(len(items))), int(rng.integers(len(items)))
        lam = sample_decodable_lambda(params, rng)
        (ga, ya), (gb, yb) = items[ia], items[ib]
        mixed, mixed_label = m.mix_pair(ga, gb, lam), m.mix_labels(ya, yb, lam)
        for g_train, y_train in items:
            if g_train.n > mixed.n:
                continue
            padded = m.pad_graph(g_train, mixed.n)
            if np.array_equal(padded.e, mixed.e) and np.array_equal(padded.v, mixed.v):
                if not np.array_equal(y_train.p, mixed_label.p):
                    report.collisions += 1
                    if report.first_failure is None:
                        report.first_failure = (
                            f"trial {trial}: mix({ia}, {ib}, lam={lam}) collides with a "
                            f"training graph of a different label"
                        )
                    break
        try:
            rec = m.recover_pair(mixed, basis, mode)
        except RecoveryError as exc:
            report.recovery_failures += 1
            if report.first_failure is None:
                report.first_failure = f"trial {trial}: pair ({ia}, {ib}), lam={lam}: {exc}"
            continue
        if not rec.matches(ga, gb, lam):
            report.recovery_failures += 1
            if report.first_failure is None:
                report.first_failure = (
                    f"trial {trial}: pair ({ia}, {ib}), lam={lam}: recovered pair differs"
                )
    return report


def with_dummies(g: m.NodeFeaturedGraph, k: int) -> m.NodeFeaturedGraph:
    return m.pad_graph(g, g.n + k)


def negative_zeros(g: m.NodeFeaturedGraph) -> m.NodeFeaturedGraph:
    """The same graph with every zero feature and weight stored as -0.0."""
    return m.NodeFeaturedGraph(np.where(g.v == 0.0, -0.0, g.v), np.where(g.e == 0.0, -0.0, g.e))


def planted_collision_set(seed: int) -> m.GraphDataset:
    """Few distinct graphs, each planted again: with trailing zero-feature
    isolated nodes under another label, as a same-label duplicate, and with
    -0.0 for its zeros under another label."""
    rng = np.random.default_rng(seed)
    base = [rand_one_hot_graph(rng, int(rng.integers(2, 6)), 4) for _ in range(4)]
    y = [m.LabelDistribution.one_hot(k, 2) for k in (0, 1)]
    items = []
    for k, g in enumerate(base):
        items.append((g, y[k % 2]))
        items.append((with_dummies(g, int(rng.integers(1, 3))), y[1 - k % 2]))
        items.append((g, y[k % 2]))
        items.append((negative_zeros(g), y[1 - k % 2]))
    order = rng.permutation(len(items))
    return m.GraphDataset([items[i] for i in order], 2, 4, f"PLANTED-{seed}")


def report_fields(r: m.IntrusionAuditReport) -> tuple:
    return r.mode, r.assumption_ok, r.collisions, r.recovery_failures, r.first_failure


class TestCollisionIndex:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scan_on_planted_collisions(self, seed):
        ds, params = planted_collision_set(seed), m.BetaParams(2, 2)
        oracle = scan_audit(ds, 200, params, np.random.default_rng(seed))
        report = m.intrusion_audit(ds, 200, params, np.random.default_rng(seed))
        assert oracle.collisions > 0
        assert report_fields(report) == report_fields(oracle)

    def test_same_label_duplicates_not_counted(self):
        g = rand_one_hot_graph(np.random.default_rng(30), 4, 3)
        y = m.LabelDistribution.one_hot(0, 2)
        ds = m.GraphDataset([(g, y), (g, y), (with_dummies(g, 2), y)], 2, 3, "SAME")
        oracle = scan_audit(ds, 100, m.BetaParams(2, 2), np.random.default_rng(0))
        report = m.intrusion_audit(ds, 100, m.BetaParams(2, 2), np.random.default_rng(0))
        assert report_fields(report) == report_fields(oracle)
        assert report.collisions == 0 and report.ok()  # every mix equals each graph, padded

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scan_without_collisions(self, seed):
        rng = np.random.default_rng(40 + seed)
        items = [
            (rand_one_hot_graph(rng, int(rng.integers(2, 8)), 5), m.LabelDistribution.one_hot(i % 3, 3))
            for i in range(30)
        ]
        ds = m.GraphDataset(items, 3, 5, "CLEAN")
        oracle = scan_audit(ds, 100, m.BetaParams(1, 1), np.random.default_rng(seed))
        report = m.intrusion_audit(ds, 100, m.BetaParams(1, 1), np.random.default_rng(seed))
        assert report_fields(report) == report_fields(oracle)

    def test_basis_mode_matches_scan(self):
        ds = dependent_vocabulary_dataset()
        oracle = scan_audit(ds, 60, m.BetaParams(2, 2), np.random.default_rng(4))
        report = m.intrusion_audit(ds, 60, m.BetaParams(2, 2), np.random.default_rng(4))
        assert report.mode == "basis" and report_fields(report) == report_fields(oracle)


def audit_draws(ds: m.GraphDataset, trials: int, params: m.BetaParams, rng: np.random.Generator):
    """The source pairs ``intrusion_audit`` draws from ``rng``, in its order."""
    pairs = []
    for _ in range(trials):
        pairs.append((int(rng.integers(len(ds))), int(rng.integers(len(ds)))))
        sample_decodable_lambda(params, rng)
    return pairs


def record_callers(monkeypatch, owner, name: str) -> list[str]:
    """Wrap ``owner.name`` so that every call appends the calling function's name to the returned list."""
    callers, fn = [], getattr(owner, name)

    def recorded(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return fn(*args)

    monkeypatch.setattr(owner, name, recorded)
    return callers


def constant_feature_set() -> m.GraphDataset:
    """Every live node carries the feature row [1], so every mix of two
    graphs of one size without dummy nodes has all its rows in V*; each
    edge pattern is planted under both labels, and once more with a dummy
    node."""
    rng = np.random.default_rng(50)
    y = [m.LabelDistribution.one_hot(k, 2) for k in (0, 1)]
    items = []
    for _ in range(5):
        g = rand_one_hot_graph(rng, int(rng.integers(2, 5)), 1, edge_prob=0.5)
        items += [(g, y[0]), (g, y[1]), (with_dummies(g, 1), y[int(rng.integers(2))])]
    return m.GraphDataset(items, 2, 1, "CONSTANT")


def mirrored(g: m.NodeFeaturedGraph) -> m.NodeFeaturedGraph:
    """The graph with each feature row added to its column-reversed self:
    a one-hot row becomes [1, 1] over two columns and [2] over one."""
    return m.NodeFeaturedGraph(g.v + g.v[:, ::-1], g.e)


@st.composite
def small_sets(draw) -> m.GraphDataset:
    """2-6 graphs of 1-4 nodes with one-hot or zero features over 1-2
    columns under two labels; about a third of the graphs repeat an
    earlier one, sometimes with a dummy node or -0.0 zeros, and a fifth of
    the others are ``mirrored``, so V can be dependent (basis mode or no
    mode)."""
    d = draw(st.integers(1, 2))
    items = []
    for _ in range(draw(st.integers(2, 6))):
        if items and not draw(st.integers(0, 2)):
            g = draw(st.sampled_from(items))[0]
            g = draw(st.sampled_from([g, with_dummies(g, 1), negative_zeros(g)]))
        else:
            g = draw(one_hot_graphs(d, max_n=4))
            g = g if draw(st.integers(0, 4)) else mirrored(g)
        items.append((g, m.LabelDistribution.one_hot(draw(st.integers(0, 1)), 2)))
    return m.GraphDataset(items, 2, d, "SMALL")


class TestVocabularyStarFilter:
    """Only a mix whose rows all lie in V* reaches the exact check."""

    def test_constant_features_match_scan(self):
        ds, params = constant_feature_set(), m.BetaParams(2, 2)
        oracle = scan_audit(ds, 200, params, np.random.default_rng(6))
        report = m.intrusion_audit(ds, 200, params, np.random.default_rng(6))
        assert oracle.collisions > 0
        assert report_fields(report) == report_fields(oracle)

    def test_soft_mixes_never_reach_the_exact_check(self, monkeypatch):
        """Graph i's nodes all carry the one-hot row e_i, so a mix of two
        different graphs has no row in V*."""
        rng = np.random.default_rng(51)
        d = 30
        items = []
        for i in range(d):
            g = rand_one_hot_graph(rng, int(rng.integers(2, 6)), 1)
            g = m.NodeFeaturedGraph(np.outer(g.v[:, 0], np.eye(d)[i]), g.e)
            items.append((g, m.LabelDistribution.one_hot(i % 2, 2)))
        ds, params = m.GraphDataset(items, 2, d, "SOFT"), m.BetaParams(2, 2)
        assert all(ia != ib for ia, ib in audit_draws(ds, 20, params, np.random.default_rng(1)))
        callers = record_callers(monkeypatch, ifmixup.graphs, "pad_graph")
        report = m.intrusion_audit(ds, 20, params, np.random.default_rng(1))
        assert report.ok() and "pad_pair" in callers  # mix_pair pads through the wrapper
        assert "intrusion_audit" not in callers

    @settings(max_examples=80)
    @given(ds=small_sets(), seed=st.integers(0, 2**16))
    def test_small_sets_match_scan(self, ds, seed):
        """Twice in a row on one dataset, each report equal to the scan's."""
        params = m.BetaParams(2, 2)
        oracle = scan_audit(ds, 20, params, np.random.default_rng(seed))
        for _ in range(2):
            report = m.intrusion_audit(ds, 20, params, np.random.default_rng(seed))
            assert report_fields(report) == report_fields(oracle)

    @pytest.mark.parametrize("mode", ["independent", "basis", "None"])
    def test_small_sets_reach_every_mode(self, mode):
        def reached(ds: m.GraphDataset) -> bool:
            return str(recovery_mode(m.feature_vocabulary(ds))) == mode

        find(small_sets(), reached, settings=settings(database=None))


class TestSourceTailDummies:
    """A source whose last node has zero features and no edges decodes
    without that node, which the mix cannot tell from padding."""

    @staticmethod
    def tailed() -> m.NodeFeaturedGraph:
        return m.NodeFeaturedGraph(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), sym({(0, 1): 1.0}, 3))

    def test_decode_matches_up_to_tail(self):
        a = self.tailed()
        b = m.NodeFeaturedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2)))
        ds = m.GraphDataset([(x, m.LabelDistribution.one_hot(k, 2)) for k, x in enumerate((a, b))], 2, 2)
        rec = m.recover_pair(m.mix_pair(a, b, 0.3), m.feature_vocabulary(ds))
        assert rec.graph_a.n == 2 and rec.matches(a, b, 0.3) and rec.matches(b, a, 0.7)
        report = m.intrusion_audit(ds, 50, m.BetaParams(2, 2), np.random.default_rng(0))
        assert report.recovery_failures == 0 and report.ok(), report.first_failure

    def test_stripped_twin_under_other_label_collides(self):
        a = self.tailed()
        twin = m.strip_dummy_nodes(a)
        assert twin.n == 2
        ds = m.GraphDataset([(x, m.LabelDistribution.one_hot(k, 2)) for k, x in enumerate((a, twin))], 2, 2)
        report = m.intrusion_audit(ds, 50, m.BetaParams(2, 2), np.random.default_rng(0))
        oracle = scan_audit(ds, 50, m.BetaParams(2, 2), np.random.default_rng(0))
        assert report.collisions > 0 and report.recovery_failures == 0
        assert report_fields(report) == report_fields(oracle)


def index_set(extra: bool) -> m.GraphDataset:
    """Ten one-hot graphs over 4 columns (independent mode), and with
    ``extra`` an eleventh, ``odd_item``'s, which makes V dependent."""
    items = TestIntrusionAudit().build_ds().items
    return m.GraphDataset(items + [odd_item()] if extra else items, 2, 4, "INDEX")


def odd_item() -> tuple[m.NodeFeaturedGraph, m.LabelDistribution]:
    v = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    return m.NodeFeaturedGraph(v, sym({(0, 1): 1.0}, 2)), m.LabelDistribution.one_hot(1, 2)


def audit_text(ds: m.GraphDataset, seed: int = 0) -> str:
    return m.intrusion_audit(ds, 30, m.BetaParams(2, 2), np.random.default_rng(seed)).to_text()


def fresh_text(ds: m.GraphDataset, seed: int = 0) -> str:
    """The audit report of a new dataset object holding the items of ``ds``."""
    return audit_text(m.GraphDataset(list(ds.items), ds.num_classes, ds.feature_dim, ds.name), seed)


def edit_in_place(ds: m.GraphDataset) -> None:
    ds.items[0][0].v[0] = [1.0, 1.0, 0.0, 0.0]


class TestAuditSeesTheDatasetAsItStands:
    """Each ``intrusion_audit`` reads the dataset as it is at the call: a
    later audit on the same object reports what a new object with the same
    items reports, whatever changed in between, in-place array edits too."""

    @pytest.mark.parametrize(
        "extra, change",
        [
            (False, lambda ds: ds.items.append(odd_item())),
            (False, lambda ds: ds.items.__setitem__(3, odd_item())),
            (True, lambda ds: ds.items.pop()),
            (False, lambda ds: setattr(ds, "items", ds.items + [odd_item()])),
            (False, edit_in_place),
        ],
        ids=["append", "replace", "pop", "assign", "in-place-edit"],
    )
    def test_change_between_audits_is_seen(self, extra, change):
        ds = index_set(extra)
        before = audit_text(ds)
        change(ds)
        after = audit_text(ds)
        assert after == fresh_text(ds)
        assert after != before  # the mode changed with V, so a stale verdict would show

    def test_in_place_edit_seen_by_feature_vocabulary(self):
        ds = index_set(False)
        audit_text(ds)
        edit_in_place(ds)
        fb = m.feature_vocabulary(ds)
        assert len(fb.vocabulary) == 5 and not fb.vocabulary_independent()

    def test_feature_dim_assignment_seen(self):
        ds = index_set(False)
        before = audit_text(ds)
        ds.feature_dim = 5
        with pytest.raises(ValueError, match="graph 0: feature width 4, but the dataset declares 5"):
            audit_text(ds)
        ds.feature_dim = 4
        assert audit_text(ds) == before
