"""Graph types, validation, padding, and the feature-vocabulary machinery."""

from __future__ import annotations

import dataclasses
import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

import ifmixup as m
import ifmixup.graphs
from ifmixup.recovery import recovery_mode

from conftest import graphs_equal, rand_one_hot_graph


def g2(e01: float = 1.0) -> m.NodeFeaturedGraph:
    return m.NodeFeaturedGraph(np.eye(2), np.array([[0.0, e01], [e01, 0.0]]))


class TestNodeFeaturedGraph:
    def test_shapes(self):
        g = g2()
        assert g.n == 2 and g.d == 2

    def test_constructor_rejects_mismatched_edges(self):
        with pytest.raises(ValueError, match="does not match node count"):
            m.NodeFeaturedGraph(np.eye(2), np.zeros((3, 3)))

    def test_constructor_rejects_1d_features(self):
        with pytest.raises(ValueError, match="2-D"):
            m.NodeFeaturedGraph(np.ones(2), np.zeros((2, 2)))

    def test_is_binary(self):
        assert m.is_binary(g2(1.0))
        assert m.is_binary(g2(0.0))
        assert not m.is_binary(g2(0.5))


class TestValidateGraph:
    def test_ok_graph(self):
        assert m.validate_graph(g2()) == []

    def test_asymmetric(self):
        g = g2()
        g.e = np.array([[0.0, 1.0], [0.0, 0.0]])
        (msg,) = m.validate_graph(g)
        assert "asymmetric at (0,1)" in msg

    def test_weight_out_of_range(self):
        msgs = m.validate_graph(g2(1.5))
        assert any("weight out of [0,1]" in s for s in msgs)

    def test_nonzero_diagonal(self):
        g = g2(0.0)
        g.e = np.array([[0.5, 0.0], [0.0, 0.0]])
        # a nonzero diagonal is reported on its own; the matrix stays symmetric
        msgs = m.validate_graph(g)
        assert any("nonzero diagonal at node 0" in s for s in msgs)

    def test_dimension_mismatch_reported_first(self):
        g = g2()
        g.v = np.eye(3)
        msgs = m.validate_graph(g)
        assert len(msgs) == 1 and "dimension mismatch" in msgs[0]

    def test_non_finite_feature(self):
        g = g2()
        g.v[1, 0] = np.nan
        assert m.validate_graph(g) == ["non-finite feature at (1,0): nan (1 entries total)"]

    def test_non_finite_weight_reported_alone(self):
        # NaN also compares unequal to its mirror and lies outside [0, 1]
        msgs = m.validate_graph(g2(np.inf)) + m.validate_graph(g2(np.nan))
        assert msgs == [
            "non-finite weight at (0,1): inf (2 entries total)",
            "non-finite weight at (0,1): nan (2 entries total)",
        ]


class TestPadding:
    def test_equal_sizes_unchanged(self):
        a, b = g2(), g2(0.0)
        pa, pb = m.pad_pair(a, b)
        assert pa is a and pb is b

    def test_smaller_graph_gains_dummies(self):
        a = m.NodeFeaturedGraph(np.eye(3), np.zeros((3, 3)))
        b = m.NodeFeaturedGraph(np.zeros((5, 3)), np.zeros((5, 5)))
        pa, pb = m.pad_pair(a, b)
        assert pa.n == 5 and pb is b
        assert np.array_equal(pa.v[3:], np.zeros((2, 3)))
        assert np.array_equal(pa.e[3:], np.zeros((2, 5)))
        assert np.array_equal(pa.e[:, 3:], np.zeros((5, 2)))

    def test_padding_preserves_original_block(self):
        rng = np.random.default_rng(0)
        a = rand_one_hot_graph(rng, 3, 4)
        pa = m.pad_graph(a, 7)
        assert np.array_equal(pa.v[:3], a.v)
        assert np.array_equal(pa.e[:3, :3], a.e)

    def test_pad_down_rejected(self):
        with pytest.raises(ValueError, match="cannot pad"):
            m.pad_graph(g2(), 1)

    def test_dimension_mismatch(self):
        a = m.NodeFeaturedGraph(np.eye(2), np.zeros((2, 2)))
        b = m.NodeFeaturedGraph(np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="feature dimension mismatch: 2 vs 3"):
            m.pad_pair(a, b)


class TestPermuteNodes:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        g = rand_one_hot_graph(rng, 6, 4)
        perm = rng.permutation(6)
        inv = np.argsort(perm)
        assert graphs_equal(m.permute_nodes(m.permute_nodes(g, perm), inv), g)

    def test_rows_follow_perm(self):
        g = m.NodeFeaturedGraph(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros((2, 2)))
        out = m.permute_nodes(g, np.array([1, 0]))
        assert np.array_equal(out.v, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_invalid_perm(self):
        with pytest.raises(ValueError, match="permutation"):
            m.permute_nodes(g2(), np.array([0, 0]))


class TestLabelDistribution:
    def test_one_hot(self):
        y = m.LabelDistribution.one_hot(1, 3)
        assert y.is_one_hot() and y.argmax() == 1 and y.num_classes == 3

    def test_soft_label_not_one_hot(self):
        assert not m.LabelDistribution(np.array([0.7, 0.3])).is_one_hot()

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            m.LabelDistribution(np.array([1.2, -0.2]))

    def test_sum_enforced(self):
        with pytest.raises(ValueError, match="sums to"):
            m.LabelDistribution(np.array([0.5, 0.6]))
        # within tolerance is fine
        m.LabelDistribution(np.array([0.5, 0.5 + 5e-10]))

    def test_non_finite_rejected(self):
        # NaN fails both the sign test and the sum test, so neither catches it
        with pytest.raises(ValueError, match=r"non-finite entries: \[nan, 1.0\]"):
            m.LabelDistribution(np.array([np.nan, 1.0]))


class TestLinearIndependence:
    def test_identity_rows_independent(self):
        ok, rank = m.check_linear_independence(np.eye(3))
        assert ok and rank == 3

    def test_sum_row_dependent(self):
        ok, rank = m.check_linear_independence(
            np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        )
        assert not ok and rank == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            m.check_linear_independence(np.zeros((0, 3)))

    @staticmethod
    def _exact_rank(rows: list[tuple[int, ...]]) -> int:
        """Rank over the rationals by fraction-arithmetic Gaussian elimination."""
        mat = [[Fraction(x) for x in row] for row in rows]
        rank = 0
        cols = len(mat[0]) if mat else 0
        for col in range(cols):
            pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
            if pivot is None:
                continue
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            inv = mat[rank][col]
            mat[rank] = [x / inv for x in mat[rank]]
            for r in range(len(mat)):
                if r != rank and mat[r][col] != 0:
                    f = mat[r][col]
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
            rank += 1
        return rank

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_exhaustive_binary_subsets(self, d):
        """Verdict matches exact rational rank on every subset of <=5 binary vectors."""
        vectors = list(itertools.product((0, 1), repeat=d))
        for size in range(1, 6):
            for subset in itertools.combinations(vectors, size):
                ok, rank = m.check_linear_independence(np.array(subset, dtype=float))
                exact = self._exact_rank(list(subset))
                assert rank == exact
                assert ok == (exact == size)

    def test_sampled_binary_subsets_d5(self):
        rng = np.random.default_rng(5)
        vectors = list(itertools.product((0, 1), repeat=5))
        for _ in range(1500):
            size = int(rng.integers(1, 6))
            idx = rng.choice(len(vectors), size=size, replace=False)
            subset = [vectors[i] for i in idx]
            ok, rank = m.check_linear_independence(np.array(subset, dtype=float))
            exact = self._exact_rank(subset)
            assert rank == exact and ok == (exact == size)

    def test_near_singular_pair_is_dependent(self):
        # the rows differ by 1.2e-9, yet the smallest singular value, 8.5e-10,
        # is under RANK_TOL
        v = np.array([[1.0, 0.0], [1.0, 1.2e-9]])
        assert m.check_linear_independence(v) == (False, 1)
        assert m.independent_row_subset(v) == [0]

    def test_independent_row_subset_greedy(self):
        rows = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert m.independent_row_subset(rows) == [0, 2]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_independent_row_subset_is_exact_greedy(self, d):
        """Row i is kept exactly when it raises the exact rank of rows 0..i."""
        vectors = list(itertools.product((0, 1), repeat=d))
        exact_rank = functools.cache(lambda rows: self._exact_rank(list(rows)))
        for size in range(1, 6):
            for subset in itertools.combinations(vectors, size):
                ranks = [exact_rank(subset[:k]) for k in range(size + 1)]
                greedy = [i for i in range(size) if ranks[i + 1] > ranks[i]]
                assert m.independent_row_subset(np.array(subset, dtype=float)) == greedy

    def test_coefficients_exact_on_span(self):
        basis = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        v = np.array([[0.7, 0.7, 0.3], [1.0, 1.0, 0.0]])
        t = m.coefficients_in_basis(v, basis)
        assert np.max(np.abs(t @ basis - v)) < 1e-12
        assert np.allclose(t, [[0.7, 0.3], [1.0, 0.0]])


class TestFeatureVocabulary:
    def test_one_hot_dataset(self):
        items = [
            (m.NodeFeaturedGraph(np.eye(3), np.zeros((3, 3))), m.LabelDistribution.one_hot(0, 2)),
            (
                m.NodeFeaturedGraph(np.eye(3)[::-1].copy(), np.zeros((3, 3))),
                m.LabelDistribution.one_hot(1, 2),
            ),
        ]
        fb = m.feature_vocabulary(m.GraphDataset(items, 2, 3, "T"))
        assert fb.vocabulary.shape == (3, 3)
        assert fb.rank == 3
        assert fb.vocabulary_independent()
        # basis rows are the one-hots themselves (independent subset of V)
        assert sorted(map(tuple, fb.basis.tolist())) == [
            (0.0, 0.0, 1.0),
            (0.0, 1.0, 0.0),
            (1.0, 0.0, 0.0),
        ]

    def test_zero_row_lives_in_v_star_only(self):
        g = m.NodeFeaturedGraph(np.zeros((1, 2)), np.zeros((1, 1)))
        h = m.NodeFeaturedGraph(np.array([[1.0, 0.0]]), np.zeros((1, 1)))
        ds = m.GraphDataset(
            [(g, m.LabelDistribution.one_hot(0, 1)), (h, m.LabelDistribution.one_hot(0, 1))],
            1,
            2,
            "Z",
        )
        fb = m.feature_vocabulary(ds)
        assert fb.vocabulary.shape == (1, 2)  # zero row excluded from V
        assert fb.vocabulary_star.shape == (2, 2)
        assert np.array_equal(fb.vocabulary_star[-1], np.zeros(2))

    def test_dependent_vocabulary_still_reconstructs(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        ds = m.GraphDataset(
            [(m.NodeFeaturedGraph(v, np.zeros((3, 3))), m.LabelDistribution.one_hot(0, 1))],
            1,
            2,
            "DEP",
        )
        fb = m.feature_vocabulary(ds)
        assert fb.rank == 2 and not fb.vocabulary_independent()
        for t, g in zip(fb.coeffs, ds.graphs()):
            assert np.max(np.abs(t @ fb.basis - g.v)) < 1e-9

    def test_vocabulary_independent_matches_elimination(self):
        rng = np.random.default_rng(11)
        verdicts = set()
        for _ in range(200):
            d = int(rng.integers(1, 6))
            v = rng.integers(0, 3, size=(int(rng.integers(1, 8)), d)).astype(float)
            n = v.shape[0]
            ds = m.GraphDataset(
                [(m.NodeFeaturedGraph(v, np.zeros((n, n))), m.LabelDistribution.one_hot(0, 1))],
                1,
                d,
            )
            fb = m.feature_vocabulary(ds)
            if len(fb.vocabulary):
                ok, _ = m.check_linear_independence(fb.vocabulary)
                assert fb.vocabulary_independent() == ok
                verdicts.add(ok)
        assert verdicts == {True, False}

    def test_t_set_deduplicates(self):
        v = np.eye(2)
        g = m.NodeFeaturedGraph(v, np.zeros((2, 2)))
        h = m.NodeFeaturedGraph(v.copy(), np.array([[0.0, 1.0], [1.0, 0.0]]))
        ds = m.GraphDataset(
            [(g, m.LabelDistribution.one_hot(0, 1)), (h, m.LabelDistribution.one_hot(0, 1))],
            1,
            2,
            "D",
        )
        fb = m.feature_vocabulary(ds)
        assert len(fb.coeffs) == 2 and len(fb.t_set) == 1

    def test_t_set_deduplicates_distinct_rows_with_equal_coefficients(self):
        # [1, 1e-17] is its own feature row, but its coefficient over the
        # basis [[1, 0]] is the same 1.0 as that of [1, 0]
        graphs = [m.NodeFeaturedGraph(np.array([[1.0, x]]), np.zeros((1, 1))) for x in (0.0, 1e-17)]
        items = [(g, m.LabelDistribution.one_hot(i, 2)) for i, g in enumerate(graphs)]
        fb = m.feature_vocabulary(m.GraphDataset(items, 2, 2, "EQ"))
        assert len(fb.vocabulary) == 2 and fb.rank == 1
        assert np.array_equal(fb.coeffs[0], fb.coeffs[1])
        assert len(fb.t_set) == 1

    @staticmethod
    def _one_graph_set(rows: list[list[float]]) -> m.GraphDataset:
        n = len(rows)
        g = m.NodeFeaturedGraph(np.array(rows), np.zeros((n, n)))
        return m.GraphDataset([(g, m.LabelDistribution.one_hot(0, 1))], 1, 2, "NEAR")

    @pytest.mark.parametrize(
        "rows, graphs, mode",
        [
            (
                [[1.0, 0.0], [1.0, 1e-8]],
                [([0, 1], [(0, 1)]), ([1, 0], []), ([1], []), ([0], []), ([0, 0, 1], [(0, 1), (1, 2)])],
                "independent",
            ),
            (
                [[1.0, 0.0], [1.0, 1e-7], [2.0, 1e-7]],
                [([0, 1, 2], [(0, 1)]), ([2, 0], [(0, 1)]), ([1], [])],
                "basis",
            ),
        ],
        ids=["independent", "dependent"],
    )
    def test_near_singular_sets_build_and_audit(self, rows, graphs, mode):
        """Sets near RANK_TOL that the rank test accepts build, and their
        mixes decode: the vocabulary is solved by the rank test's own solver.
        A Gram-matrix solve refused both, the first as singular, the second
        with a reconstruction residual of 2.2e-9."""
        rows = np.array(rows)
        items = []
        for k, (nodes, edges) in enumerate(graphs):
            e = np.zeros((len(nodes), len(nodes)))
            for i, j in edges:
                e[i, j] = e[j, i] = 1.0
            items.append((m.NodeFeaturedGraph(rows[nodes], e), m.LabelDistribution.one_hot(k % 2, 2)))
        ds = m.GraphDataset(items, 2, 2, "NEAR")
        fb = m.feature_vocabulary(ds)
        assert fb.rank == 2 and recovery_mode(fb) == mode
        assert fb.vocabulary_independent() == m.check_linear_independence(rows)[0]
        for seed in range(3):
            report = m.intrusion_audit(ds, 50, m.BetaParams(2, 2), np.random.default_rng(seed))
            assert report.mode == mode and report.ok(), report.first_failure

    def test_replace_keeps_the_other_fields(self):
        """``dataclasses.replace`` on a solved basis swaps the one field and
        keeps every other as read, ``coeffs`` included."""
        ds = vocabulary_set(3, negative_zeros=False, exact=True)
        fb = m.feature_vocabulary(ds)
        assert "coeffs" not in vars(fb) and "t_set" not in vars(fb)  # still built on first read
        new = dataclasses.replace(fb, t_set=[])
        assert new.t_set == [] and fb.t_set != []
        assert new.rank == fb.rank and new.coeffs is fb.coeffs
        for name in ("vocabulary", "vocabulary_star", "basis"):
            assert getattr(new, name) is getattr(fb, name)

    def test_near_singular_vocabulary_named(self):
        # rank 1 by singular values, so [1, 1.2e-9] is left off the basis
        ds = self._one_graph_set([[1.0, 0.0], [1.0, 1.2e-9]])
        with pytest.raises(ValueError, match=r"basis reconstruction residual 1\.200e-09") as exc:
            m.feature_vocabulary(ds)
        assert not isinstance(exc.value, np.linalg.LinAlgError)

    def test_t_set_independence_check(self):
        a = m.NodeFeaturedGraph(np.array([[1.0, 0.0]]), np.zeros((1, 1)))
        b = m.NodeFeaturedGraph(np.array([[0.0, 1.0]]), np.zeros((1, 1)))
        ds = m.GraphDataset(
            [(a, m.LabelDistribution.one_hot(0, 1)), (b, m.LabelDistribution.one_hot(0, 1))],
            1,
            2,
            "TI",
        )
        fb = m.feature_vocabulary(ds)
        assert fb.t_set_independent()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            m.feature_vocabulary(m.GraphDataset([], 1, 2, "E"))

    def test_non_finite_feature_rejected(self):
        # NaN passes the reconstruction check, so unchecked [1, nan] joins V
        g = m.NodeFeaturedGraph(np.array([[1.0, np.nan]]), np.zeros((1, 1)))
        h = m.NodeFeaturedGraph(np.array([[0.0, 1.0]]), np.zeros((1, 1)))
        ds = m.GraphDataset([(x, m.LabelDistribution.one_hot(0, 1)) for x in (h, g)], 1, 2, "NAN")
        with pytest.raises(ValueError, match=r"graph 1: non-finite node feature at \(0, 1\): nan"):
            m.feature_vocabulary(ds)

    @pytest.mark.parametrize(
        "rows, declared, message",
        [
            ([[1.0, 0.0], [1.0, 0.0, 0.0, 1.0]], 3, "graph 0: feature width 2, but the dataset declares 3"),
            ([[1.0, 0.0], [1.0, 0.0, 0.0]], 2, "graph 1: feature width 3, but the dataset declares 2"),
        ],
        ids=["widths-sum-to-declared", "one-width-off"],
    )
    def test_mixed_feature_widths_named(self, rows, declared, message):
        # the first pair's six entries once read as two rows of width 3
        graphs = [m.NodeFeaturedGraph(np.array([r]), np.zeros((1, 1))) for r in rows]
        items = [(g, m.LabelDistribution.one_hot(0, 1)) for g in graphs]
        with pytest.raises(ValueError, match=message):
            m.feature_vocabulary(m.GraphDataset(items, 1, declared, "WIDTHS"))

    def test_sign_twins_stay_apart_and_zero_twins_merge(self):
        rows = np.array([[-1.0, 1.0], [1.0, -1.0], [0.0, 1.0], [-0.0, 1.0]])
        fb = m.feature_vocabulary(self._one_graph_set(rows.tolist()))
        assert fb.vocabulary.tolist() == [[-1.0, 1.0], [0.0, 1.0], [1.0, -1.0]]
        assert not np.signbit(fb.vocabulary).any(where=fb.vocabulary == 0.0)
        assert fb.coeffs[0][2].tobytes() == fb.coeffs[0][3].tobytes()

    def test_row_hash_folds_sign_bits(self):
        bits = np.array([[-1.0, 1.0], [1.0, -1.0]]).view(np.uint64)
        weights = np.array([1, 3], dtype=np.uint64)
        plain = bits @ weights
        assert plain[0] == plain[1]  # a plain weighted sum of the bits gives one hash
        hashes = ifmixup.graphs._row_hashes(bits, weights)
        assert hashes[0] != hashes[1]


def reference_vocabulary(ds: m.GraphDataset):
    """The vocabulary by ``np.unique(axis=0)`` and one coefficient solve per
    graph: the straightforward path that ``feature_vocabulary`` must equal."""
    graphs = ds.graphs()
    all_rows = np.concatenate([g.v for g in graphs], axis=0)
    if not np.isfinite(all_rows).all():
        i, g = next((i, g) for i, g in enumerate(graphs) if not np.isfinite(g.v).all())
        at = tuple(int(k) for k in np.argwhere(~np.isfinite(g.v))[0])
        raise ValueError(f"graph {i}: non-finite node feature at {at}: {g.v[at]}")
    # rows as the package stores them, -0.0 as 0.0 (``same_bits`` checks the sign)
    distinct = np.unique(all_rows + 0.0, axis=0)
    vocabulary = distinct[np.any(distinct != 0.0, axis=1)]
    basis = vocabulary[m.independent_row_subset(vocabulary)]
    coeffs = [m.coefficients_in_basis(g.v + 0.0, basis) for g in graphs]
    t_set, seen = [], set()
    for t in coeffs:
        key = t.shape[0].to_bytes(4, "little") + t.tobytes()
        if key not in seen:
            seen.add(key)
            t_set.append(t)
    return vocabulary, basis, len(basis), coeffs, t_set


def vocabulary_set(seed: int, negative_zeros: bool, exact: bool) -> m.GraphDataset:
    """Graphs whose rows repeat a small pool: duplicate rows, the zero row,
    often dependent rows, and optionally -0.0 entries.

    ``exact`` pools hold one-hot rows and sums of two, as the benchmark sets
    do, so every coefficient solve is exact in floating point. The other
    pools hold general rows, whose coefficients carry rounding error.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    size = (int(rng.integers(2, 2 * d + 1)), d)
    if exact:
        eye = np.eye(d)
        second = rng.integers(2, size=(size[0], 1)) * eye[rng.integers(d, size=size[0])]
        pool = np.minimum(eye[rng.integers(d, size=size[0])] + second, 1.0)
    else:
        pool = rng.choice([-1.0, 0.0, 0.0, 0.1, 1.0, 1.0, 2.5], size=size)
    pool = np.vstack([pool, np.zeros((1, d))])
    items = []
    for _ in range(int(rng.integers(1, 8))):
        n = int(rng.integers(1, 7))
        v = pool[rng.integers(len(pool), size=n)]
        if negative_zeros:
            v[(v == 0.0) & (rng.random(v.shape) < 0.5)] = -0.0
        items.append((m.NodeFeaturedGraph(v, np.zeros((n, n))), m.LabelDistribution.one_hot(0, 1)))
    return m.GraphDataset(items, 1, d, f"VOCAB-{seed}")


def one_hash_for_all(bits: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """A stand-in for ``graphs._row_hashes`` under which every row clashes."""
    return np.zeros(len(bits), dtype=np.uint64)


class TestFeatureVocabularyAgainstReference:
    @staticmethod
    def same_bits(new: np.ndarray, ref: np.ndarray, negative_zeros: bool) -> bool:
        if negative_zeros:  # the one intended difference: which sign a zero keeps
            new, ref = new + 0.0, ref + 0.0
        return new.shape == ref.shape and new.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "read_order", [("coeffs", "t_set"), ("t_set", "coeffs")], ids=["coeffs-first", "t_set-first"]
    )
    @pytest.mark.parametrize("negative_zeros", [False, True], ids=["plain", "negative-zeros"])
    @pytest.mark.parametrize("seed", range(40))
    def test_equal_bit_for_bit(self, seed, negative_zeros, read_order):
        """``coeffs`` and ``t_set`` are built on first read; whichever is
        read first, both equal the reference's."""
        ds = vocabulary_set(seed, negative_zeros, exact=True)
        vocabulary, basis, rank, coeffs, t_set = reference_vocabulary(ds)
        fb = m.feature_vocabulary(ds)
        built = {name: getattr(fb, name) for name in read_order}
        assert fb.rank == rank
        assert self.same_bits(fb.vocabulary, vocabulary, negative_zeros)
        assert self.same_bits(fb.basis, basis, negative_zeros)
        assert len(built["coeffs"]) == len(coeffs) and len(built["t_set"]) == len(t_set)
        for new, ref in zip(built["coeffs"] + built["t_set"], coeffs + t_set):
            assert self.same_bits(new, ref, negative_zeros)
        assert fb.coeffs is built["coeffs"] and fb.t_set is built["t_set"]  # kept once built
        # -0.0 and 0.0 are one row, stored as 0.0
        assert not np.signbit(fb.vocabulary_star[fb.vocabulary_star == 0.0]).any()

    @pytest.mark.parametrize(
        "hashes, block_rows",
        [("constant", 4), ("constant", None), ("real", 4)],
        ids=["clashing-small-blocks", "clashing-one-block", "small-blocks"],
    )
    @pytest.mark.parametrize("negative_zeros", [False, True], ids=["plain", "negative-zeros"])
    @pytest.mark.parametrize("seed", range(40))
    def test_equal_whatever_the_hash(self, seed, negative_zeros, hashes, block_rows, monkeypatch):
        """test_equal_bit_for_bit with every row under one hash, so that
        equality alone tells rows apart, and with blocks of a few rows, so
        that rows meet the distinct rows of earlier blocks."""
        if hashes == "constant":
            monkeypatch.setattr(ifmixup.graphs, "_row_hashes", one_hash_for_all)
        if block_rows is not None:
            monkeypatch.setattr(ifmixup.graphs, "_DEDUP_BLOCK_ROWS", block_rows)
        self.test_equal_bit_for_bit(seed, negative_zeros, ("coeffs", "t_set"))

    @pytest.mark.parametrize("negative_zeros", [False, True], ids=["plain", "negative-zeros"])
    @pytest.mark.parametrize("seed", range(40))
    def test_general_rows(self, seed, negative_zeros):
        """V, basis and rank stay bit for bit. The coefficients agree to
        rounding only: the per-graph reference gives one row last bits that
        depend on its graph's node count, which one solve cannot reproduce."""
        ds = vocabulary_set(seed, negative_zeros, exact=False)
        vocabulary, basis, rank, coeffs, t_set = reference_vocabulary(ds)
        fb = m.feature_vocabulary(ds)
        assert fb.rank == rank
        assert self.same_bits(fb.vocabulary, vocabulary, negative_zeros)
        assert self.same_bits(fb.basis, basis, negative_zeros)
        assert len(fb.coeffs) == len(coeffs) and len(fb.t_set) == len(t_set)
        for new, ref in zip(fb.coeffs + fb.t_set, coeffs + t_set):
            assert new.shape == ref.shape and np.max(np.abs(new - ref), initial=0.0) <= 1e-12
        # one coefficient row per distinct feature row, whatever graph it is in
        by_row: dict[bytes, bytes] = {}
        for g, t in zip(ds.graphs(), fb.coeffs):
            for row, c in zip(g.v + 0.0, t):
                assert by_row.setdefault(row.tobytes(), c.tobytes()) == c.tobytes()

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "general"])
    def test_sets_cover_the_cases(self, exact):
        """The seeded sets hold duplicate rows, zero rows, -0.0 entries and
        both independent and dependent vocabularies."""
        dependent, duplicates, zeros, negative = set(), False, False, False
        for seed in range(40):
            ds = vocabulary_set(seed, True, exact)
            rows = np.concatenate([g.v for g in ds.graphs()])
            dependent.add(not m.feature_vocabulary(ds).vocabulary_independent())
            duplicates |= len(np.unique(rows, axis=0)) < len(rows)
            zeros |= bool((~rows.any(axis=1)).any())
            negative |= bool(np.signbit(rows[rows == 0.0]).any())
        assert dependent == {True, False} and duplicates and zeros and negative

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("seed", range(5))
    def test_non_finite_message_unchanged(self, seed, bad):
        ds = vocabulary_set(seed, negative_zeros=True, exact=False)
        rng = np.random.default_rng(seed)
        g = ds.items[int(rng.integers(len(ds)))][0]
        g.v[int(rng.integers(g.n)), int(rng.integers(g.d))] = bad
        with pytest.raises(ValueError) as ref:
            reference_vocabulary(ds)
        with pytest.raises(ValueError) as new:
            m.feature_vocabulary(ds)
        assert str(new.value) == str(ref.value)
        assert "non-finite node feature" in str(new.value)


class TestTSetIndependent:
    def test_more_members_than_columns_computes_no_rank(self, monkeypatch):
        # three one-node graphs over a rank-1 basis: 3 members, 1 padded column
        graphs = [m.NodeFeaturedGraph(np.array([[x, 0.0]]), np.zeros((1, 1))) for x in (1.0, 2.0, 3.0)]
        items = [(g, m.LabelDistribution.one_hot(0, 1)) for g in graphs]
        fb = m.feature_vocabulary(m.GraphDataset(items, 1, 2, "WIDE"))
        assert len(fb.t_set) == 3 and fb.rank == 1

        def forbidden(rows, target):
            raise AssertionError("rank computed")

        monkeypatch.setattr(m.graphs, "_solve_rows", forbidden)
        assert fb.t_set_independent() is False

    def test_agrees_with_check_linear_independence(self):
        seen = set()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            rank = int(rng.integers(1, 3))
            t_set = [
                rng.integers(0, 2, size=(int(rng.integers(1, 3)), rank)).astype(float)
                for _ in range(int(rng.integers(1, 7)))
            ]
            basis = np.eye(rank)
            star = np.vstack([basis, np.zeros((1, rank))])
            fb = m.FeatureBasis(basis, star, rank, basis, t_set, t_set)
            n_max = max(t.shape[0] for t in t_set)
            flat = np.stack([np.vstack([t, np.zeros((n_max - len(t), rank))]).ravel() for t in t_set])
            verdict = fb.t_set_independent()
            assert verdict == m.check_linear_independence(flat)[0]
            seen.add((len(t_set) > flat.shape[1], verdict))
        # both verdicts by rank, and the count shortcut
        assert seen == {(False, True), (False, False), (True, False)}


class TestDatasetStats:
    def test_single_edge_graph(self):
        ds = m.GraphDataset([(g2(), m.LabelDistribution.one_hot(0, 1))], 1, 2, "S")
        st = m.dataset_stats(ds)
        assert st.num_graphs == 1
        assert st.mean_nodes == 2.0
        assert st.mean_edges == 1.0  # one undirected edge counted once
        assert st.feature_dim == 2 and st.num_classes == 1

    def test_mean_over_graphs(self):
        tri = m.NodeFeaturedGraph(np.ones((3, 2)), 1.0 - np.eye(3))
        ds = m.GraphDataset(
            [(g2(), m.LabelDistribution.one_hot(0, 1)), (tri, m.LabelDistribution.one_hot(0, 1))],
            1,
            2,
            "M",
        )
        st = m.dataset_stats(ds)
        assert st.mean_nodes == 2.5 and st.mean_edges == 2.0
