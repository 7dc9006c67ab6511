"""Weighted GCN/GIN layers, readout, loss, gradients, and checkpoints."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

import ifmixup as m
from ifmixup.autodiff import constant, parameter
from ifmixup.models import (
    cross_entropy_t,
    embed_batch,
    forward_trace,
    gcn_layer_t,
    gin_layer_t,
    head_logits,
    head_logits_layer_block,
    pack_graphs,
    readout_rows,
    wrap_params,
)

from conftest import rand_one_hot_graph


class TestModelConfig:
    def test_defaults_valid(self):
        cfg = m.ModelConfig()
        assert cfg.arch == "gcn" and cfg.k == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arch": "gat"},
            {"k": 0},
            {"hidden": 0},
            {"dropout": 1.0},
            {"dropout": -0.1},
            {"readout": "max"},
            {"gin_mlp_depth": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            m.ModelConfig(**kwargs)

    def test_readout_dim(self):
        assert m.ModelConfig(arch="gin", k=2, hidden=7).readout_dim() == 14
        assert m.ModelConfig(arch="gcn", k=5, hidden=7).readout_dim() == 7


def pack_one(v, e, arch, readout="sum"):
    """One graph packed as a batch of one, with its features as a tensor."""
    packed = pack_graphs([m.NodeFeaturedGraph(v, e)], m.ModelConfig(arch=arch, readout=readout))
    return constant(packed.v), packed


class TestGcnLayer:
    @staticmethod
    def layer(v, e, w, skip):
        h, packed = pack_one(v, e, "gcn")
        return gcn_layer_t(h, packed, constant(w), None, skip=skip).value

    def test_hand_example(self):
        # h = [1, 2], one edge of weight 0.5, W = 1: d-hat = 1.5 on both nodes
        e = np.array([[0.0, 0.5], [0.5, 0.0]])
        out = self.layer([[1.0], [2.0]], e, [[1.0]], skip=False)
        assert out[0, 0] == pytest.approx(4 / 3)
        assert out[1, 0] == pytest.approx(5 / 3)

    def test_zero_edges_self_term_only(self):
        out = self.layer([[1.0], [2.0]], np.zeros((2, 2)), [[3.0]], skip=False)
        assert np.allclose(out, [[3.0], [6.0]])

    def test_negative_preactivation_clipped(self):
        out = self.layer([[1.0], [2.0]], np.zeros((2, 2)), [[-1.0]], skip=False)
        assert np.array_equal(out, np.zeros((2, 1)))

    def test_skip_adds_input_after_activation(self):
        e = np.array([[0.0, 0.5], [0.5, 0.0]])
        out = self.layer([[1.0], [2.0]], e, [[1.0]], skip=True)
        assert out[0, 0] == pytest.approx(4 / 3 + 1.0)
        assert out[1, 0] == pytest.approx(5 / 3 + 2.0)

    def test_skip_projection_used_when_dims_differ(self):
        cfg = m.ModelConfig(arch="gcn", k=1, hidden=4, gcn_skip=True)
        params = m.init_params(cfg, 3, 2, np.random.default_rng(0))
        assert "layer0.P" in params.tensors  # 3 -> 4 needs a projection
        g = rand_one_hot_graph(np.random.default_rng(1), 5, 3)
        m.forward_classify(g, params)  # shapes must line up

    def test_no_projection_when_dims_match(self):
        cfg = m.ModelConfig(arch="gcn", k=1, hidden=3, gcn_skip=True)
        params = m.init_params(cfg, 3, 2, np.random.default_rng(0))
        assert "layer0.P" not in params.tensors


class TestGinLayer:
    @staticmethod
    def layer(v, e, eps):
        h, packed = pack_one(v, e, "gin")
        identity_mlp = [(constant(np.array([[1.0]])), None)]
        return gin_layer_t(h, packed, constant(np.array([eps])), identity_mlp).value

    def test_eps_zero(self):
        e = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = self.layer([[1.0], [2.0]], e, 0.0)
        assert out[0, 0] == pytest.approx(3.0)  # 1 + 2

    def test_eps_one(self):
        e = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = self.layer([[1.0], [2.0]], e, 1.0)
        assert out[0, 0] == pytest.approx(4.0)  # 2*1 + 2

    def test_zero_feature_neighbor_contributes_nothing(self):
        e = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = self.layer([[1.0], [0.0]], e, 0.0)
        assert out[0, 0] == pytest.approx(1.0)

    def test_soft_edge_scales_neighbor(self):
        e = np.array([[0.0, 0.25], [0.25, 0.0]])
        out = self.layer([[1.0], [2.0]], e, 0.0)
        assert out[0, 0] == pytest.approx(1.5)


class TestPackGraphs:
    @staticmethod
    def graphs():
        rng = np.random.default_rng(30)
        return [rand_one_hot_graph(rng, n, 3) for n in (3, 1, 4)]

    def test_layout(self):
        packed = pack_graphs(self.graphs(), m.ModelConfig(arch="gin", readout="mean"))
        assert packed.v.shape == (8, 3)
        # the graphs of 4 and 3 nodes share a stack padded to 4 rows; the 1-node graph has its own
        assert [stack.shape for stack in packed.edges] == [(2, 4, 4), (1, 1, 1)]
        assert packed.rows.tolist() == [4, 5, 6, 8, 0, 1, 2, 3]
        assert np.allclose(packed.pool, [[1 / 3] * 3 + [0] * 5, [0] * 3 + [1] + [0] * 4, [0] * 4 + [1 / 4] * 4])

    def test_padding_at_most_quadruples_aggregation_size(self):
        rng = np.random.default_rng(32)
        sizes = [1, 2, 3, 5, 8, 13, 21, 40, 2, 100, 7]
        packed = pack_graphs([rand_one_hot_graph(rng, n, 3, 0.1) for n in sizes], m.ModelConfig())
        assert sum(stack.size for stack in packed.edges) <= 4 * sum(n * n for n in sizes)
        assert [stack.shape[:2] for stack in packed.edges] == [(1, 100), (2, 40), (3, 13), (2, 5), (3, 2)]

    @pytest.mark.parametrize("arch", ["gcn", "gin"])
    def test_batch_rows_match_graphs_alone(self, arch):
        cfg = m.ModelConfig(arch=arch, k=2, hidden=5, readout="mean", gcn_skip=True)
        params = m.init_params(cfg, 3, 2, np.random.default_rng(31))
        wrapped = wrap_params(params, requires_grad=False)
        graphs = self.graphs()
        embeddings, pooled = embed_batch(graphs, wrapped, params)
        h_graph = readout_rows(pooled, params.config)
        logits = head_logits(h_graph, wrapped)
        start = 0
        for i, g in enumerate(graphs):
            alone = forward_trace(g, wrapped, params)
            for packed_h, alone_h in zip(embeddings, alone.embeddings):
                assert np.max(np.abs(packed_h.value[start : start + g.n] - alone_h.value)) < 1e-12
            assert np.max(np.abs(logits.value[i] - alone.logits.value[0])) < 1e-12
            start += g.n


class TestReadout:
    def test_sum_pool(self):
        h, packed = pack_one([[1.0, 2.0], [3.0, 4.0]], np.zeros((2, 2)), "gin", "sum")
        assert np.allclose(packed.readout(h).value, [[4.0, 6.0]])

    def test_mean_pool(self):
        h, packed = pack_one([[1.0, 2.0], [3.0, 4.0]], np.zeros((2, 2)), "gin", "mean")
        assert np.allclose(packed.readout(h).value, [[2.0, 3.0]])

    def test_gin_concat_dimension(self):
        cfg = m.ModelConfig(arch="gin", k=3, hidden=5)
        params = m.init_params(cfg, 4, 2, np.random.default_rng(0))
        g = rand_one_hot_graph(np.random.default_rng(1), 6, 4)
        trace = m.forward_classify(g, params)
        assert trace.h_graph.shape == (15,)
        assert len(trace.pooled) == 3

    def test_gcn_uses_final_layer_only(self):
        cfg = m.ModelConfig(arch="gcn", k=3, hidden=5)
        params = m.init_params(cfg, 4, 2, np.random.default_rng(0))
        g = rand_one_hot_graph(np.random.default_rng(1), 6, 4)
        trace = m.forward_classify(g, params)
        assert trace.h_graph.shape == (5,)
        assert np.array_equal(trace.h_graph, trace.pooled[-1])

    def test_empty_graph_rejected(self):
        cfg = m.ModelConfig(arch="gcn", k=1, hidden=2)
        params = m.init_params(cfg, 3, 2, np.random.default_rng(0))
        empty = m.NodeFeaturedGraph(np.zeros((0, 3)), np.zeros((0, 0)))
        with pytest.raises(ValueError, match="empty graph"):
            m.forward_classify(empty, params)


class TestForwardClassify:
    @pytest.mark.parametrize("arch", ["gcn", "gin"])
    def test_probs_sum_to_one(self, arch):
        cfg = m.ModelConfig(arch=arch, k=2, hidden=6)
        params = m.init_params(cfg, 4, 3, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = rand_one_hot_graph(rng, int(rng.integers(2, 9)), 4)
            probs = m.forward_classify(g, params).probs
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("scale", [1.0, 1e3], ids=["plain", "saturated"])
    def test_probs_are_exp_of_log_softmax(self, scale):
        params = m.init_params(m.ModelConfig(arch="gin", k=2, hidden=6), 4, 3, np.random.default_rng(9))
        params.tensors["head.W"] *= scale
        g = rand_one_hot_graph(np.random.default_rng(10), 6, 4)
        trace = m.forward_classify(g, params)
        shifted = trace.logits - trace.logits.max()
        log_softmax = shifted - np.log(np.exp(shifted).sum())
        assert np.max(np.abs(trace.probs - np.exp(log_softmax))) < 1e-12
        assert abs(trace.probs.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("arch", ["gcn", "gin"])
    def test_permutation_invariance_spot(self, arch):
        cfg = m.ModelConfig(arch=arch, k=2, hidden=6, gcn_skip=True)
        params = m.init_params(cfg, 4, 3, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        g = rand_one_hot_graph(rng, 7, 4)
        base = m.forward_classify(g, params).probs
        for _ in range(3):
            perm = rng.permutation(7)
            probs = m.forward_classify(m.permute_nodes(g, perm), params).probs
            assert np.max(np.abs(probs - base)) < 1e-9

    def test_single_node_graph(self):
        cfg = m.ModelConfig(arch="gin", k=1, hidden=4)
        params = m.init_params(cfg, 3, 2, np.random.default_rng(6))
        g = m.NodeFeaturedGraph(np.array([[0.0, 1.0, 0.0]]), np.zeros((1, 1)))
        probs = m.forward_classify(g, params).probs
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_feature_dim_mismatch(self):
        cfg = m.ModelConfig(arch="gcn", k=1, hidden=4)
        params = m.init_params(cfg, 3, 2, np.random.default_rng(0))
        g = rand_one_hot_graph(np.random.default_rng(0), 4, 5)
        with pytest.raises(ValueError, match="feature dim"):
            m.forward_classify(g, params)

    def test_dummy_node_neutral_without_mlp_bias(self):
        cfg = m.ModelConfig(arch="gin", k=2, hidden=6, gin_mlp_bias=False)
        params = m.init_params(cfg, 4, 2, np.random.default_rng(7))
        g = rand_one_hot_graph(np.random.default_rng(8), 5, 4)
        base = m.forward_classify(g, params).probs
        padded = m.pad_graph(g, 6)
        assert np.max(np.abs(m.forward_classify(padded, params).probs - base)) < 1e-9

    def test_dummy_node_shifts_output_with_mlp_bias(self):
        cfg = m.ModelConfig(arch="gin", k=2, hidden=6, gin_mlp_bias=True)
        params = m.init_params(cfg, 4, 2, np.random.default_rng(7))
        g = rand_one_hot_graph(np.random.default_rng(8), 5, 4)
        base = m.forward_classify(g, params).logits
        padded = m.pad_graph(g, 6)
        assert np.max(np.abs(m.forward_classify(padded, params).logits - base)) > 1e-9


class TestDropout:
    def make(self, dropout: float):
        cfg = m.ModelConfig(arch="gcn", k=1, hidden=4, dropout=dropout)
        params = m.init_params(cfg, 3, 2, np.random.default_rng(9))
        g = rand_one_hot_graph(np.random.default_rng(10), 5, 3)
        return params, g

    def test_inference_ignores_dropout(self):
        params, g = self.make(0.5)
        a = m.forward_classify(g, params).logits
        b = m.forward_classify(g, params).logits
        assert np.array_equal(a, b)

    def test_training_masks_logits(self):
        params, g = self.make(0.5)
        clean = m.forward_classify(g, params).logits
        dropped = m.forward_classify(g, params, training=True, rng=np.random.default_rng(0)).logits
        # inverted dropout: each logit is 0 or clean/(1-rate)
        for c, d in zip(clean, dropped):
            assert d == pytest.approx(0.0) or d == pytest.approx(2 * c)

    def test_training_requires_rng(self):
        params, g = self.make(0.5)
        with pytest.raises(ValueError, match="rng"):
            m.forward_classify(g, params, training=True)

    def test_zero_rate_is_identity_in_training(self):
        params, g = self.make(0.0)
        a = m.forward_classify(g, params).logits
        b = m.forward_classify(g, params, training=True, rng=np.random.default_rng(0)).logits
        assert np.array_equal(a, b)


class TestSoftCrossEntropy:
    def test_perfect_prediction(self):
        y = m.LabelDistribution(np.array([1.0, 0.0]))
        assert m.soft_cross_entropy(y, np.array([1.0, 0.0])) == pytest.approx(0.0)

    def test_hand_value(self):
        y = m.LabelDistribution(np.array([0.7, 0.3]))
        val = m.soft_cross_entropy(y, np.array([0.7, 0.3]))
        assert val == pytest.approx(0.6108643020548936, abs=1e-15)

    def test_linearity_in_target(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ya = m.LabelDistribution(rng.dirichlet(np.ones(3)))
            yb = m.LabelDistribution(rng.dirichlet(np.ones(3)))
            p = rng.dirichlet(np.ones(3))
            lam = float(rng.random())
            mixed = m.mix_labels(ya, yb, lam)
            lhs = m.soft_cross_entropy(mixed, p)
            rhs = lam * m.soft_cross_entropy(ya, p) + (1 - lam) * m.soft_cross_entropy(yb, p)
            assert abs(lhs - rhs) < 1e-12

    def test_dimension_mismatch(self):
        y = m.LabelDistribution(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            m.soft_cross_entropy(y, np.array([0.5, 0.3, 0.2]))

    def test_clamp_keeps_loss_finite(self):
        y = m.LabelDistribution(np.array([0.0, 1.0]))
        val = m.soft_cross_entropy(y, np.array([1.0, 0.0]))
        assert np.isfinite(val)
        assert val == pytest.approx(-np.log(1e-12))

    def test_tape_loss_matches_numpy_value(self):
        y = m.LabelDistribution(np.array([0.2, 0.5, 0.3]))
        logits = np.array([[0.4, -1.2, 2.0]])
        probs = (np.exp(logits) / np.exp(logits).sum()).ravel()
        tape_val = float(cross_entropy_t(y, constant(logits)).value)
        assert tape_val == pytest.approx(m.soft_cross_entropy(y, probs), abs=1e-12)

    def test_tape_loss_gradient_is_p_minus_y(self):
        y = m.LabelDistribution(np.array([0.2, 0.5, 0.3]))
        logits = parameter(np.array([[0.4, -1.2, 2.0]]))
        cross_entropy_t(y, logits).backward()
        probs = np.exp(logits.value) / np.exp(logits.value).sum()
        assert np.max(np.abs(logits.grad - (probs - y.p))) < 1e-12


class TestModelGradients:
    def batch(self, rng, d=4, c=2, size=3):
        return [
            (rand_one_hot_graph(rng, int(rng.integers(3, 7)), d), m.LabelDistribution.one_hot(int(rng.integers(c)), c))
            for _ in range(size)
        ]

    def test_deterministic(self):
        cfg = m.ModelConfig(arch="gin", k=2, hidden=5)
        params = m.init_params(cfg, 4, 2, np.random.default_rng(12))
        batch = self.batch(np.random.default_rng(13))
        l1, g1 = m.model_gradients(batch, params)
        l2, g2 = m.model_gradients(batch, params)
        assert l1 == l2
        assert g1.keys() == g2.keys()
        for k in g1:
            assert np.array_equal(g1[k], g2[k])

    def test_dead_path_zero_gradient(self):
        cfg = m.ModelConfig(arch="gcn", k=1, hidden=2)
        params = m.init_params(cfg, 3, 2, np.random.default_rng(14))
        params.tensors["layer0.W"] = np.full((3, 2), -5.0)  # every ReLU unit dead
        batch = self.batch(np.random.default_rng(15), d=3)
        _, grads = m.model_gradients(batch, params)
        assert np.array_equal(grads["layer0.W"], np.zeros((3, 2)))
        assert np.array_equal(grads["head.W"], np.zeros_like(grads["head.W"]))
        assert np.any(grads["head.b"] != 0.0)  # the bias still reaches the loss

    def test_empty_batch_rejected(self):
        cfg = m.ModelConfig()
        params = m.init_params(cfg, 3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="nonempty"):
            m.model_gradients([], params)

    def test_finite_difference_spot(self):
        cfg = m.ModelConfig(arch="gin", k=2, hidden=4)
        params = m.init_params(cfg, 3, 2, np.random.default_rng(16))
        batch = self.batch(np.random.default_rng(17), d=3, size=2)
        _, grads = m.model_gradients(batch, params)
        rng = np.random.default_rng(18)
        names = sorted(params.tensors)
        for _ in range(20):
            name = names[int(rng.integers(len(names)))]
            idx = tuple(int(rng.integers(s)) for s in params.tensors[name].shape)
            step = 1e-5
            for sign in (+1, -1):
                probe = params.copy()
                probe.tensors[name][idx] += sign * step
                loss, _ = m.model_gradients(batch, probe)
                if sign > 0:
                    up = loss
                else:
                    down = loss
            fd = (up - down) / (2 * step)
            analytic = grads[name][idx]
            assert abs(fd - analytic) < 1e-5 * max(1.0, abs(fd))

    def test_monotone_loss_small_step(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            arch = "gcn" if rng.random() < 0.5 else "gin"
            cfg = m.ModelConfig(
                arch=arch,
                k=int(rng.integers(1, 3)),
                hidden=int(rng.integers(2, 7)),
                gcn_skip=bool(rng.random() < 0.5),
            )
            d = int(rng.integers(2, 5))
            params = m.init_params(cfg, d, 2, rng)
            batch = [
                (rand_one_hot_graph(rng, int(rng.integers(2, 7)), d), m.LabelDistribution.one_hot(int(rng.integers(2)), 2))
                for _ in range(int(rng.integers(1, 4)))
            ]
            loss0, grads = m.model_gradients(batch, params)
            stepped = params.copy()
            for name, g in grads.items():
                stepped.tensors[name] -= 1e-4 * g
            loss1, _ = m.model_gradients(batch, stepped)
            assert loss1 <= loss0 + 1e-8


class TestHeadRouting:
    def test_layer_blocks_compose_the_full_head(self):
        cfg = m.ModelConfig(arch="gin", k=2, hidden=3)
        params = m.init_params(cfg, 3, 2, np.random.default_rng(20))
        g = rand_one_hot_graph(np.random.default_rng(21), 4, 3)
        wrapped = wrap_params(params, requires_grad=False)
        t = forward_trace(g, wrapped, params)
        full = head_logits(t.h_graph, wrapped).value
        b0 = head_logits_layer_block(t.pooled[0], wrapped, 0, 3).value
        b1 = head_logits_layer_block(t.pooled[1], wrapped, 1, 3).value
        bias = wrapped["head.b"].value
        assert np.max(np.abs((b0 + b1 - bias) - full)) < 1e-9


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        cfg = m.ModelConfig(arch="gin", k=3, hidden=8, dropout=0.5, gin_mlp_bias=False)
        params = m.init_params(cfg, 7, 2, np.random.default_rng(22))
        path = str(tmp_path / "model.json")
        m.save_checkpoint(params, path)
        loaded = m.load_checkpoint(path)
        assert loaded.config == cfg
        assert loaded.feature_dim == 7 and loaded.num_classes == 2
        assert loaded.tensors.keys() == params.tensors.keys()
        for k in params.tensors:
            assert np.array_equal(loaded.tensors[k], params.tensors[k])

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d.pop("tensors"), "tensors must be an object"),
            (lambda d: d.update(feature_dim="x"), "feature_dim must be an integer, got 'x'"),
            (lambda d: d.pop("num_classes"), "num_classes is missing"),
            (lambda d: d["tensors"]["head.b"].update(shape=[999]), "tensors.head.b.shape must be [2], got [999]"),
            (lambda d: d["tensors"]["head.b"].update(data=[1.0]), "tensors.head.b.data must be a list of 2 numbers"),
            (lambda d: d["tensors"]["head.b"].update(data=["1", "2"]), "tensors.head.b.data must be a list of 2"),
            (lambda d: d["tensors"].pop("head.b"), "missing ['head.b'], unknown []"),
            (lambda d: d["tensors"].update(extra={}), "missing [], unknown ['extra']"),
            (lambda d: d.update(feature_dim=8), "tensors.layer0.mlp0.W.shape must be [8, 4], got [7, 4]"),
            (lambda d: d["config"].update(k=3), "missing ['layer2.eps'"),
        ],
        ids=[
            "no-tensors", "text-feature-dim", "no-num-classes", "shape", "short-data",
            "text-data", "missing-tensor", "extra-tensor", "other-feature-dim", "other-k",
        ],
    )
    def test_bad_key_is_named(self, tmp_path, edit, message):
        path = tmp_path / "model.json"
        cfg = m.ModelConfig(arch="gin", k=2, hidden=4)
        m.save_checkpoint(m.init_params(cfg, 7, 2, np.random.default_rng(0)), str(path))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            m.load_checkpoint(str(path))
        assert str(info.value).startswith(f"{path}: ") and message in str(info.value)

    def test_large_declared_size_rejected_without_allocating_it(self, tmp_path):
        """The tensors are checked against the header's layout before any
        array of the header's sizes exists: at feature_dim 200000 the first
        weight alone would be 102 MB."""
        path = tmp_path / "model.json"
        cfg = m.ModelConfig(arch="gin", k=5, hidden=64)
        m.save_checkpoint(m.init_params(cfg, 7, 2, np.random.default_rng(0)), str(path))
        doc = json.loads(path.read_text())
        doc["feature_dim"] = 200000
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"tensors\.layer0\.mlp0\.W\.shape must be \[200000, 64\]"):
                m.load_checkpoint(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000, f"peak {peak} bytes"

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not an ifmixup checkpoint"):
            m.load_checkpoint(str(path))

    def test_loaded_params_predict_identically(self, tmp_path):
        cfg = m.ModelConfig(arch="gcn", k=2, hidden=5, gcn_skip=True)
        params = m.init_params(cfg, 4, 3, np.random.default_rng(23))
        g = rand_one_hot_graph(np.random.default_rng(24), 6, 4)
        path = str(tmp_path / "model.json")
        m.save_checkpoint(params, path)
        loaded = m.load_checkpoint(path)
        assert np.array_equal(
            m.forward_classify(g, params).probs, m.forward_classify(g, loaded).probs
        )
