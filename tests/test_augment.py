"""DropEdge, DropNode, and the readout/hidden mixing baselines.

The mixing baselines interpolate model representations, so their tests
drive ``batch_gradients`` on deferred-pair samples, the path training uses.
"""

from __future__ import annotations

import numpy as np
import pytest

import ifmixup as m
from ifmixup.training import EpochSample, batch_gradients

from conftest import graphs_equal, rand_one_hot_graph


def path5() -> m.NodeFeaturedGraph:
    e = np.zeros((5, 5))
    for i in range(4):
        e[i, i + 1] = e[i + 1, i] = 1.0
    return m.NodeFeaturedGraph(np.eye(5), e)


def edge_count(g: m.NodeFeaturedGraph) -> int:
    return int(np.count_nonzero(np.triu(g.e, k=1)))


class TestAugmentSpec:
    def test_defaults(self):
        spec = m.AugmentSpec()
        assert spec.kind == "none" and spec.ratio == 0.0

    def test_kinds_catalog(self):
        assert m.AUGMENT_KINDS == (
            "none",
            "if_mixup",
            "drop_edge",
            "drop_node",
            "mixup_graph",
            "manifold_mixup",
            "if_mixup_shuffled",
        )
        for kind in m.AUGMENT_KINDS:
            m.AugmentSpec(kind=kind)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            m.AugmentSpec(kind="graph_mix")

    @pytest.mark.parametrize("ratio", [-0.1, 1.0, 1.5])
    def test_ratio_range(self, ratio):
        with pytest.raises(ValueError, match="ratio"):
            m.AugmentSpec(kind="drop_edge", ratio=ratio)


class TestDropEdge:
    def test_ratio_zero_identity(self):
        g = path5()
        out = m.drop_edge(g, 0.0, np.random.default_rng(0))
        assert graphs_equal(out, g)

    def test_floor_count(self):
        # 10 undirected edges at ratio 0.2 -> exactly 8 remain
        rng = np.random.default_rng(1)
        g = rand_one_hot_graph(rng, 8, 3, edge_prob=1.0)  # complete: 28 edges
        e = np.zeros((6, 6))
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5), (2, 4)]
        for i, j in pairs:
            e[i, j] = e[j, i] = 1.0
        g10 = m.NodeFeaturedGraph(np.eye(6), e)
        assert edge_count(g10) == 10
        out = m.drop_edge(g10, 0.2, np.random.default_rng(2))
        assert edge_count(out) == 8

    def test_output_symmetric_and_valid(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = rand_one_hot_graph(rng, 7, 3, edge_prob=0.5)
            out = m.drop_edge(g, 0.4, rng)
            assert m.validate_graph(out) == []
            assert np.array_equal(out.e, out.e.T)
            assert np.array_equal(out.v, g.v)

    def test_surviving_fraction(self):
        # floor(0.3 * 10) = 3 dropped per trial, deterministically
        e = np.zeros((6, 6))
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5), (2, 4)]
        for i, j in pairs:
            e[i, j] = e[j, i] = 1.0
        g = m.NodeFeaturedGraph(np.eye(6), e)
        rng = np.random.default_rng(4)
        survived = [edge_count(m.drop_edge(g, 0.3, rng)) for _ in range(10_000)]
        frac = np.mean(survived) / 10
        assert abs(frac - 0.7) < 0.02

    def test_each_edge_equally_likely_to_drop(self):
        e = np.zeros((4, 4))
        for i, j in [(0, 1), (1, 2), (2, 3)]:
            e[i, j] = e[j, i] = 1.0
        g = m.NodeFeaturedGraph(np.eye(4), e)
        rng = np.random.default_rng(5)
        gone = np.zeros(3)
        for _ in range(9000):
            out = m.drop_edge(g, 1 / 3, rng)  # drops exactly one of three
            for idx, (i, j) in enumerate([(0, 1), (1, 2), (2, 3)]):
                if out.e[i, j] == 0.0:
                    gone[idx] += 1
        assert np.all(np.abs(gone / 9000 - 1 / 3) < 0.02)

    def test_requires_binary(self):
        soft = m.NodeFeaturedGraph(np.eye(2), np.array([[0.0, 0.5], [0.5, 0.0]]))
        with pytest.raises(ValueError, match="binary"):
            m.drop_edge(soft, 0.2, np.random.default_rng(0))


class TestDropNode:
    def test_ratio_zero_identity(self):
        g = path5()
        assert graphs_equal(m.drop_node(g, 0.0, np.random.default_rng(0)), g)

    def test_path_drop_middle(self):
        # forcing node 2 out of the 5-path leaves edges {0-1, 3-4} re-indexed
        g = path5()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            out = m.drop_node(g, 0.2, rng)  # drops exactly one node
            if out.v[:, 2].sum() == 0.0:  # node 2 (one-hot feature 2) is gone
                assert out.n == 4
                assert edge_count(out) == 2
                assert out.e[0, 1] == 1.0 and out.e[2, 3] == 1.0
                return
        pytest.fail("node 2 never selected across 100 seeds")

    def test_floor_count(self):
        g = path5()
        out = m.drop_node(g, 0.4, np.random.default_rng(1))  # floor(0.4*5)=2 dropped
        assert out.n == 3

    def test_relative_order_preserved(self):
        g = path5()
        out = m.drop_node(g, 0.4, np.random.default_rng(2))
        kept = [int(np.argmax(row)) for row in out.v]  # one-hot ids
        assert kept == sorted(kept)

    def test_all_dropped_rejected(self):
        g = path5()
        with pytest.raises(ValueError, match="empty graph"):
            m.drop_node(g, 1.0, np.random.default_rng(0))

    def test_outputs_validate(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = rand_one_hot_graph(rng, 9, 4, edge_prob=0.4)
            out = m.drop_node(g, 0.4, rng)
            assert m.validate_graph(out) == []
            assert m.is_binary(out)


YA = m.LabelDistribution.one_hot(0, 2)
YB = m.LabelDistribution.one_hot(1, 2)


def mix_setup(arch="gin", k=3, hidden=4, d=3):
    """Parameters plus two source graphs of different sizes."""
    cfg = m.ModelConfig(arch=arch, k=k, hidden=hidden)
    params = m.init_params(cfg, d, 2, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    return params, rand_one_hot_graph(rng, 5, d), rand_one_hot_graph(rng, 6, d)


def pair_loss(params, ga, gb, lam, layer=None, y=None):
    """Loss and gradients of one deferred-mix sample (layer None = readout mix)."""
    y = m.mix_labels(YA, YB, lam) if y is None else y
    sample = EpochSample(y=y, pair=(ga, gb), lam=lam, layer=layer)
    return batch_gradients([sample], params, np.random.default_rng(0))


def assert_same_gradients(ga, gb, atol=1e-12):
    assert ga.keys() == gb.keys()
    for name in ga:
        assert np.allclose(ga[name], gb[name], rtol=0.0, atol=atol), name


class TestMixReadout:
    def test_identity_at_one(self):
        params, ga, gb = mix_setup()
        loss, grads = pair_loss(params, ga, gb, 1.0)
        plain = [EpochSample(y=YA, g=ga)]
        plain_loss, plain_grads = batch_gradients(plain, params, np.random.default_rng(0))
        assert loss == pytest.approx(plain_loss, abs=1e-12)
        assert_same_gradients(grads, plain_grads)

    def test_midpoint(self):
        # at lambda 1/2 the mix is symmetric in its two sources
        params, ga, gb = mix_setup()
        y = m.mix_labels(YA, YB, 0.5)
        loss_ab, grads_ab = pair_loss(params, ga, gb, 0.5, y=y)
        loss_ba, grads_ba = pair_loss(params, gb, ga, 0.5, y=y)
        assert loss_ab == pytest.approx(loss_ba, abs=1e-12)
        assert_same_gradients(grads_ab, grads_ba)

    def test_convexity(self):
        # the head is affine, so the mixed logits interpolate the sources'
        # logits and the loss for a fixed target is convex in lambda
        params, ga, gb = mix_setup()
        y = m.mix_labels(YA, YB, 0.3)
        end_a, _ = pair_loss(params, ga, gb, 1.0, y=y)
        end_b, _ = pair_loss(params, ga, gb, 0.0, y=y)
        for lam in np.linspace(0.05, 0.95, 7):
            loss, _ = pair_loss(params, ga, gb, float(lam), y=y)
            assert loss <= lam * end_a + (1.0 - lam) * end_b + 1e-12

    def test_shape_mismatch(self):
        params, ga, _ = mix_setup(d=3)
        other = rand_one_hot_graph(np.random.default_rng(9), 4, 2)
        with pytest.raises(ValueError, match="feature dim"):
            pair_loss(params, ga, other, 0.5)


class TestMixHidden:
    def test_fixed_layer(self):
        # a layer-2 mix reads the pooled embeddings of layer 2, so the layers
        # above it never reach the loss
        params, ga, gb = mix_setup(arch="gin", k=3)
        _, grads = pair_loss(params, ga, gb, 0.25, layer=2)
        for name, g in grads.items():
            if name.startswith("layer2."):
                assert not np.any(g), name
        assert np.any(grads["layer1.mlp0.W"])

    def test_lambda_one_uses_a_side(self):
        params, ga, gb = mix_setup()
        other = rand_one_hot_graph(np.random.default_rng(10), 7, 3)
        loss, grads = pair_loss(params, ga, gb, 1.0, layer=1)
        loss_other, grads_other = pair_loss(params, ga, other, 1.0, layer=1)
        assert loss == pytest.approx(loss_other, abs=1e-12)
        assert_same_gradients(grads, grads_other)

    def test_gin_probs_use_layer_block(self):
        params, ga, gb = mix_setup(arch="gin", k=2, hidden=4)
        loss, grads = pair_loss(params, ga, gb, 0.4, layer=2)
        assert not np.any(grads["head.W"][:4])  # first layer's row block unused
        assert np.any(grads["head.W"][4:8])
        params.tensors["head.W"][:4] += 1.0
        assert pair_loss(params, ga, gb, 0.4, layer=2)[0] == loss

    def test_gcn_final_layer_matches_readout_mix(self):
        params, ga, gb = mix_setup(arch="gcn", k=3, hidden=4)
        hidden_loss, hidden_grads = pair_loss(params, ga, gb, 0.3, layer=3)
        readout_loss, readout_grads = pair_loss(params, ga, gb, 0.3)
        assert hidden_loss == readout_loss
        assert_same_gradients(hidden_grads, readout_grads, atol=0.0)
