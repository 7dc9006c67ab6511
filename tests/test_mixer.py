"""Lambda sampling, Beta densities, and pairwise graph/label mixing."""

from __future__ import annotations

import re

import numpy as np
import pytest

import ifmixup as m
from ifmixup.mixing import MAX_REDRAWS

from conftest import graphs_equal, rand_one_hot_graph


class TestBetaParams:
    def test_mean(self):
        assert m.BetaParams(20, 1).mean == pytest.approx(20 / 21)

    @pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (-2, 2)])
    def test_nonpositive_rejected(self, a, b):
        with pytest.raises(ValueError, match=r"must be a number in \(0, inf\), got"):
            m.BetaParams(a, b)

    def test_sweep_grid(self):
        assert [(p.alpha, p.beta) for p in m.SWEEP_BETAS] == [
            (1.0, 1.0),
            (2.0, 2.0),
            (5.0, 1.0),
            (10.0, 1.0),
            (20.0, 1.0),
        ]


class TestSampleLambda:
    def test_uniform_mean(self):
        rng = np.random.default_rng(0)
        draws = [m.sample_lambda(m.BetaParams(1, 1), rng) for _ in range(100_000)]
        assert abs(np.mean(draws) - 0.5) < 0.005

    def test_beta_20_1_mean(self):
        rng = np.random.default_rng(0)
        draws = [m.sample_lambda(m.BetaParams(20, 1), rng) for _ in range(100_000)]
        assert abs(np.mean(draws) - 20 / 21) < 0.003

    def test_determinism(self):
        a = [m.sample_lambda(m.BetaParams(2, 2), np.random.default_rng(7)) for _ in range(1)]
        b = [m.sample_lambda(m.BetaParams(2, 2), np.random.default_rng(7)) for _ in range(1)]
        seq1 = np.random.default_rng(7)
        seq2 = np.random.default_rng(7)
        assert a == b
        assert [m.sample_lambda(m.BetaParams(2, 2), seq1) for _ in range(10)] == [
            m.sample_lambda(m.BetaParams(2, 2), seq2) for _ in range(10)
        ]

    def test_open_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            lam = m.sample_lambda(m.BetaParams(20, 1), rng)
            assert 0.0 < lam < 1.0


    @pytest.mark.parametrize("alpha", [1e20, 1e300])
    def test_gives_up_on_a_beta_at_an_endpoint(self, alpha):
        # float64 rounds every Beta(alpha, 1) draw to exactly 1
        params = m.BetaParams(alpha, 1.0)
        message = re.escape(f"{params} drew {MAX_REDRAWS} ratios in a row at exactly 0 or 1")
        with pytest.raises(ValueError, match=message):
            m.sample_lambda(params, np.random.default_rng(0))

    def test_endpoint_draws_redrawn_in_order(self):
        class Draws:
            def __init__(self, values):
                self.values = iter(values)

            def beta(self, a, b):
                return next(self.values)

        draws = Draws([0.0, 1.0, 0.25, 0.75])
        assert m.sample_lambda(m.BetaParams(2, 2), draws) == 0.25
        assert next(draws.values) == 0.75  # exactly three draws taken


class TestBetaPdf:
    def test_uniform_is_one(self):
        for x in (0.0, 0.25, 1.0):
            assert m.beta_pdf(m.BetaParams(1, 1), x) == pytest.approx(1.0)

    def test_beta22_at_half(self):
        assert m.beta_pdf(m.BetaParams(2, 2), 0.5) == pytest.approx(1.5)

    def test_beta201_at_one(self):
        assert m.beta_pdf(m.BetaParams(20, 1), 1.0) == pytest.approx(20.0)

    def test_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            m.beta_pdf(m.BetaParams(2, 2), 1.5)
        with pytest.raises(ValueError, match="outside"):
            m.beta_pdf(m.BetaParams(2, 2), -0.1)

    @pytest.mark.parametrize("params", m.SWEEP_BETAS, ids=lambda p: f"B({p.alpha},{p.beta})")
    def test_integrates_to_one(self, params):
        # composite Simpson quadrature on a fine grid; the Beta(20,1) spike at 1
        # is polynomial, so this converges well below 1e-6
        n = 20_000
        xs = np.linspace(0.0, 1.0, n + 1)
        ys = np.array([m.beta_pdf(params, float(x)) for x in xs])
        h = 1.0 / n
        integral = h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())
        assert abs(integral - 1.0) < 1e-6


def path_graph(n: int, d: int = 3) -> m.NodeFeaturedGraph:
    v = np.zeros((n, d))
    v[:, 0] = 1.0
    e = np.zeros((n, n))
    for i in range(n - 1):
        e[i, i + 1] = e[i + 1, i] = 1.0
    return m.NodeFeaturedGraph(v, e)


class TestMixPair:
    def test_edge_interpolation(self):
        a = m.NodeFeaturedGraph(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        b = m.NodeFeaturedGraph(np.eye(2), np.zeros((2, 2)))
        mixed = m.mix_pair(a, b, 0.7)
        assert mixed.e[0, 1] == pytest.approx(0.7)

    def test_dummy_node_feature_mixing(self):
        a = path_graph(3)
        b = path_graph(4)
        b.v[3] = [0.0, 1.0, 0.0]
        mixed = m.mix_pair(a, b, 0.7)
        # node 3 is a dummy on the padded A side, so only B's feature survives, scaled
        assert np.allclose(mixed.v[3], [0.0, 0.3, 0.0])

    def test_self_mix_fixed_point(self):
        rng = np.random.default_rng(3)
        g = rand_one_hot_graph(rng, 6, 4)
        for lam in (0.1, 0.5, 0.93):
            assert graphs_equal(m.mix_pair(g, g, lam), g, tol=0.0)

    def test_convexity_and_symmetry(self):
        rng = np.random.default_rng(4)
        a, b = rand_one_hot_graph(rng, 5, 3), rand_one_hot_graph(rng, 8, 3)
        mixed = m.mix_pair(a, b, 0.37)
        assert m.validate_graph(mixed) == []
        pa, pb = m.pad_pair(a, b)
        assert np.all(mixed.e <= np.maximum(pa.e, pb.e) + 1e-15)
        assert np.all(mixed.e >= np.minimum(pa.e, pb.e) - 1e-15)

    def test_endpoint_linear_in_one_minus_lam(self):
        rng = np.random.default_rng(5)
        a, b = rand_one_hot_graph(rng, 5, 3), rand_one_hot_graph(rng, 5, 3)
        pa, _ = m.pad_pair(a, b)
        gaps = []
        for lam in (0.9, 0.99, 0.999):
            mixed = m.mix_pair(a, b, lam)
            gaps.append(np.max(np.abs(mixed.e - pa.e)) / (1.0 - lam))
        assert max(gaps) - min(gaps) < 1e-6  # gap/(1-lam) is constant

    def test_lambda_range_enforced(self):
        a = path_graph(2)
        for lam in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError, match="mixing ratio"):
                m.mix_pair(a, a, lam)

    def test_requires_binary_sources(self):
        soft = m.NodeFeaturedGraph(np.eye(2), np.array([[0.0, 0.5], [0.5, 0.0]]))
        with pytest.raises(ValueError, match="binary"):
            m.mix_pair(soft, path_graph(2, 2), 0.3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="feature dimension mismatch"):
            m.mix_pair(path_graph(2, 3), path_graph(2, 4), 0.3)


class TestMixLabels:
    def test_direct(self):
        ya = m.LabelDistribution(np.array([1.0, 0.0]))
        yb = m.LabelDistribution(np.array([0.0, 1.0]))
        assert np.allclose(m.mix_labels(ya, yb, 0.7).p, [0.7, 0.3])

    def test_lambda_one_is_identity(self):
        ya = m.LabelDistribution(np.array([1.0, 0.0]))
        yb = m.LabelDistribution(np.array([0.0, 1.0]))
        assert np.array_equal(m.mix_labels(ya, yb, 1.0).p, ya.p)

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            pa = rng.dirichlet(np.ones(4))
            pb = rng.dirichlet(np.ones(4))
            lam = float(rng.random())
            mixed = m.mix_labels(m.LabelDistribution(pa), m.LabelDistribution(pb), lam)
            assert abs(mixed.p.sum() - 1.0) < 1e-9

    def test_class_count_mismatch(self):
        with pytest.raises(ValueError, match="class count mismatch"):
            m.mix_labels(m.LabelDistribution.one_hot(0, 2), m.LabelDistribution.one_hot(0, 3), 0.5)


class TestMixItems:
    def test_fields_recorded(self):
        a = (path_graph(3), m.LabelDistribution.one_hot(0, 2))
        b = (path_graph(5), m.LabelDistribution.one_hot(1, 2))
        s = m.mix_items(a, b, 0.25, source_ids=(4, 9))
        assert s.lam == 0.25
        assert s.source_ids == (4, 9)
        assert s.graph.n == 5
        assert np.allclose(s.label.p, [0.25, 0.75])
