"""Optimizer, schedules, epoch construction, cross-validation, serialization."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ifmixup as m
import ifmixup.models
import ifmixup.training
from ifmixup.autodiff import Tensor, concat, constant
from ifmixup.models import (
    _gcn_norm,
    apply_dropout,
    cross_entropy_t,
    embed_batch,
    head_logits,
    head_logits_layer_block,
    readout_rows,
    wrap_params,
)
from ifmixup.training import EVAL_ROWS, EpochSample, batch_gradients, build_epoch_stream

from conftest import rand_one_hot_graph

KINDS = ("none", "drop_edge", "drop_node", "if_mixup", "if_mixup_shuffled", "mixup_graph", "manifold_mixup")


# -- per-graph reference ----------------------------------------------------------
# The oracle for the packed path: every graph builds its own tape and every
# sample its own loss, summed in batch order, each drawing its own (1 x C)
# dropout mask.


def reference_forward(g, wrapped, params):
    """(pooled, h_graph) of one graph, on its own tape."""
    cfg = params.config
    if g.n == 0:
        raise ValueError("cannot classify an empty graph")
    if g.d != params.feature_dim:
        raise ValueError(f"feature dim {g.d} does not match params ({params.feature_dim})")
    h = constant(g.v)
    pooled = []
    for layer in range(cfg.k):
        if cfg.arch == "gcn":
            out = (constant(_gcn_norm(g.e)) @ h @ wrapped[f"layer{layer}.W"]).relu()
            if cfg.gcn_skip:
                proj = wrapped.get(f"layer{layer}.P")
                out = out + (h @ proj if proj is not None else h)
        else:
            out = h * (constant(np.ones(1)) + wrapped[f"layer{layer}.eps"]) + constant(g.e) @ h
            for j in range(cfg.gin_mlp_depth):
                out = out @ wrapped[f"layer{layer}.mlp{j}.W"]
                bias = wrapped.get(f"layer{layer}.mlp{j}.b")
                if bias is not None:
                    out = out + bias
                if j + 1 < cfg.gin_mlp_depth:
                    out = out.relu()
        h = out
        p = constant(np.ones((1, g.n))) @ h
        pooled.append(p.scale(1.0 / g.n) if cfg.readout == "mean" else p)
    return pooled, concat(pooled, axis=1) if cfg.arch == "gin" else pooled[-1]


def reference_sample_loss(sample, wrapped, params, rng):
    cfg = params.config
    if sample.pair is None:
        logits = head_logits(reference_forward(sample.g, wrapped, params)[1], wrapped)
    else:
        if sample.layer is not None and not 1 <= sample.layer <= cfg.k:
            raise ValueError(f"manifold-mix layer {sample.layer} outside 1..{cfg.k}")
        (pa, ha), (pb, hb) = (reference_forward(g, wrapped, params) for g in sample.pair)
        lam = float(sample.lam)
        if sample.layer is None:
            logits = head_logits(ha.scale(lam) + hb.scale(1.0 - lam), wrapped)
        else:
            k = sample.layer
            h = pa[k - 1].scale(lam) + pb[k - 1].scale(1.0 - lam)
            if cfg.arch == "gin":
                logits = head_logits_layer_block(h, wrapped, k - 1, cfg.hidden)
            else:
                logits = head_logits(h, wrapped)
    logits = apply_dropout(logits, cfg.dropout, training=True, rng=rng)
    return cross_entropy_t(sample.y, logits)


def reference_gradients(batch, params, rng):
    if not batch:
        raise ValueError("gradients need a nonempty batch")
    wrapped = wrap_params(params, requires_grad=True)
    total = None
    for sample in batch:
        ce = reference_sample_loss(sample, wrapped, params, rng)
        total = ce if total is None else total + ce
    loss = total.scale(1.0 / len(batch))
    loss.backward()
    grads = {
        name: (w.grad if w.grad is not None else np.zeros_like(w.value))
        for name, w in wrapped.items()
    }
    return float(loss.value), grads


def readout_gradients(batch, params, rng):
    """The step of an all-plain batch read straight off the readout: the
    packed forward's ``h_graph``, then head, dropout and cross-entropy."""
    wrapped = wrap_params(params, requires_grad=True)
    h_graph = readout_rows(embed_batch([s.g for s in batch], wrapped, params)[1], params.config)
    logits = apply_dropout(head_logits(h_graph, wrapped), params.config.dropout, training=True, rng=rng)
    loss = cross_entropy_t([s.y for s in batch], logits).scale(1.0 / len(batch))
    loss.backward()
    grads = {
        name: (w.grad if w.grad is not None else np.zeros_like(w.value))
        for name, w in wrapped.items()
    }
    return float(loss.value), grads


def uneven_items(d=4, c=3):
    """Graphs of unequal sizes, among them a single node and an edgeless graph."""
    rng = np.random.default_rng(40)
    graphs = [rand_one_hot_graph(rng, n, d) for n in (1, 5, 2, 7, 3, 6)]
    graphs.append(rand_one_hot_graph(rng, 4, d, edge_prob=0.0))
    graphs.append(rand_one_hot_graph(rng, 9, d, edge_prob=0.5))
    return [(g, m.LabelDistribution.one_hot(i % c, c)) for i, g in enumerate(graphs)]


def assert_matches_reference(batch, params, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    loss, grads = batch_gradients(batch, params, rng)
    ref_loss, ref_grads = reference_gradients(batch, params, ref_rng)
    assert abs(loss - ref_loss) <= 1e-12
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert np.max(np.abs(g - ref_grads[name])) <= 1e-12, name
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestLrSchedule:
    def test_no_halving_before_50(self):
        assert m.lr_at_epoch(0.01, 0) == 0.01
        assert m.lr_at_epoch(0.01, 49) == 0.01

    def test_two_halvings_at_120(self):
        assert m.lr_at_epoch(0.01, 120) == pytest.approx(0.0025)

    def test_exact_power_of_two_ratios(self):
        for epoch in range(0, 400, 7):
            ratio = m.lr_at_epoch(0.01, epoch) / 0.01
            assert ratio == 0.5 ** (epoch // 50)

    def test_monotone_nonincreasing(self):
        lrs = [m.lr_at_epoch(0.01, e) for e in range(300)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            m.lr_at_epoch(0.01, -1)


def fresh_state(tensors):
    return m.AdamWState(
        m={k: np.zeros_like(v) for k, v in tensors.items()},
        v={k: np.zeros_like(v) for k, v in tensors.items()},
    )


class TestAdamW:
    def test_first_step_hand_value(self):
        tensors = {"w": np.array([1.0])}
        state = fresh_state(tensors)
        m.adamw_step(tensors, {"w": np.array([1.0])}, state, lr=0.1, weight_decay=0.01)
        # w - lr * mhat/(sqrt(vhat)+1e-8) - lr * wd * w with bias-corrected
        # first-step moments mhat = vhat = 1
        assert tensors["w"][0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8) - 0.001, abs=1e-15)
        assert state.t == 1

    def test_zero_grad_zero_decay_is_identity(self):
        tensors = {"w": np.array([[0.3, -0.7]])}
        state = fresh_state(tensors)
        m.adamw_step(tensors, {"w": np.zeros((1, 2))}, state, lr=0.1, weight_decay=0.0)
        assert np.array_equal(tensors["w"], [[0.3, -0.7]])

    def test_decay_alone_shrinks(self):
        tensors = {"w": np.array([2.0])}
        state = fresh_state(tensors)
        m.adamw_step(tensors, {"w": np.zeros(1)}, state, lr=0.1, weight_decay=0.5)
        assert tensors["w"][0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_deterministic(self):
        def run():
            tensors = {"w": np.array([1.0, -2.0])}
            state = fresh_state(tensors)
            for step in range(5):
                g = np.array([0.1 * (step + 1), -0.2])
                m.adamw_step(tensors, {"w": g}, state, lr=0.01, weight_decay=0.01)
            return tensors["w"]

        assert np.array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        tensors = {"w": np.zeros((2, 2))}
        state = fresh_state(tensors)
        with pytest.raises(ValueError, match="shape"):
            m.adamw_step(tensors, {"w": np.zeros(3)}, state, lr=0.1, weight_decay=0.0)

    def test_state_from_params(self):
        params = m.init_params(m.ModelConfig(arch="gin", k=2, hidden=4), 3, 2, np.random.default_rng(0))
        state = m.AdamWState.for_params(params)
        assert state.m.keys() == params.tensors.keys()
        for k in state.m:
            assert state.m[k].shape == params.tensors[k].shape
            assert not state.m[k].any()


class TestTrainConfig:
    def test_defaults(self):
        cfg = m.TrainConfig()
        assert cfg.epochs == 350 and cfg.folds == 10 and cfg.runs == 3
        assert cfg.lr0 == 0.01 and cfg.weight_decay == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [{"epochs": 0}, {"folds": 0}, {"runs": 0}, {"batch_size": 0}, {"lr0": 0.0}, {"weight_decay": -1.0}],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            m.TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "config,name",
        [(m.TrainConfig, name) for name in ("epochs", "folds", "runs", "batch_size", "seed")]
        + [(m.ModelConfig, name) for name in ("k", "hidden", "gin_mlp_depth")],
    )
    @pytest.mark.parametrize("value", [2.0, True], ids=["float", "bool"])
    def test_non_integer_count_rejected(self, config, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            config(**{name: value})

    def test_numpy_integer_counts_accepted(self):
        model = m.ModelConfig(k=np.int64(3), hidden=np.int32(4), gin_mlp_depth=np.int64(1))
        cfg = m.TrainConfig(model=model, epochs=np.int64(2), batch_size=np.int32(8), seed=np.int64(5))
        assert (cfg.epochs, cfg.batch_size, cfg.seed, model.k) == (2, 8, 5, 3)

    def test_grid_matches_protocol(self):
        grid = m.HYPERPARAMETER_GRID
        assert grid["lr0"] == (0.01, 0.0005)
        assert grid["hidden"] == (64, 128)
        assert grid["batch_size"] == (32, 128)
        assert grid["dropout"] == (0.0, 0.5)
        assert grid["drop_ratio"] == (0.2, 0.4)
        assert grid["k"] == (5, 8)
        assert tuple((b.alpha, b.beta) for b in grid["beta"]) == ((1.0, 1.0), (2.0, 2.0), (20.0, 1.0))
        assert m.DEPTH_SWEEP == (2, 3, 5, 8)


class TestDerivedRng:
    def test_same_cell_same_stream(self):
        a = m.derive_rng(3, 1, 4).random(5)
        b = m.derive_rng(3, 1, 4).random(5)
        assert np.array_equal(a, b)

    def test_cells_differ(self):
        draws = {
            tuple(m.derive_rng(0, run, fold).random(3).round(12))
            for run in range(3)
            for fold in range(4)
        }
        assert len(draws) == 12


class TestStratifiedFolds:
    def test_188_into_10(self):
        labels = [i % 2 for i in range(188)]
        folds = m.stratified_folds(labels, 10, np.random.default_rng(0))
        sizes = sorted(len(f) for f in folds)
        assert sizes == [18, 18, 19, 19, 19, 19, 19, 19, 19, 19]
        everything = sorted(i for f in folds for i in f)
        assert everything == list(range(188))

    def test_class_balance_per_fold(self):
        labels = [i % 2 for i in range(188)]  # 94 of each class
        folds = m.stratified_folds(labels, 10, np.random.default_rng(1))
        for fold in folds:
            ones = sum(labels[i] for i in fold)
            zeros = len(fold) - ones
            assert abs(ones - zeros) <= 1

    def test_deterministic_given_rng(self):
        labels = [i % 3 for i in range(50)]
        a = m.stratified_folds(labels, 5, np.random.default_rng(2))
        b = m.stratified_folds(labels, 5, np.random.default_rng(2))
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="cannot make"):
            m.stratified_folds([0, 1], 3, np.random.default_rng(0))

    @pytest.mark.parametrize("k", [0, -2])
    def test_fold_count_below_one_named(self, k):
        with pytest.raises(ValueError, match=f"need at least one fold, got k={k}"):
            m.stratified_folds([0, 1, 0, 1], k, np.random.default_rng(0))


class TestEpochStream:
    def spec(self, kind, **kw):
        return m.TrainConfig(
            model=m.ModelConfig(arch="gin", k=2, hidden=4),
            augment=m.AugmentSpec(kind=kind, **kw),
            epochs=1,
            **{},
        )

    def test_none_is_a_permutation_of_items(self, tiny_dataset):
        cfg = self.spec("none")
        stream = build_epoch_stream(tiny_dataset.items, cfg, np.random.default_rng(0))
        assert len(stream) == len(tiny_dataset)
        ids = sorted(id(s.g) for s in stream)
        assert ids == sorted(id(g) for g, _ in tiny_dataset.items)

    def test_drop_edge_fresh_and_valid(self, tiny_dataset):
        cfg = self.spec("drop_edge", ratio=0.4)
        rng = np.random.default_rng(1)
        stream = build_epoch_stream(tiny_dataset.items, cfg, rng)
        originals = {id(g): g for g, _ in tiny_dataset.items}
        for s in stream:
            assert s.g is not None and s.pair is None
            assert m.validate_graph(s.g) == []
            assert id(s.g) not in originals  # fresh copy, source untouched
        # at least one graph actually lost an edge at this ratio
        total_before = sum(np.count_nonzero(g.e) for g, _ in tiny_dataset.items)
        total_after = sum(np.count_nonzero(s.g.e) for s in stream)
        assert total_after < total_before

    def test_drop_node_shrinks(self, tiny_dataset):
        cfg = self.spec("drop_node", ratio=0.4)
        stream = build_epoch_stream(tiny_dataset.items, cfg, np.random.default_rng(2))
        sizes_before = sorted(g.n for g, _ in tiny_dataset.items)
        sizes_after = sorted(s.g.n for s in stream)
        assert sum(sizes_after) < sum(sizes_before)

    def test_if_mixup_labels_soft_and_graphs_valid(self, tiny_dataset):
        cfg = self.spec("if_mixup", beta=m.BetaParams(2, 2))
        stream = build_epoch_stream(tiny_dataset.items, cfg, np.random.default_rng(3))
        assert len(stream) == len(tiny_dataset)
        soft_seen = False
        for s in stream:
            assert m.validate_graph(s.g) == []
            assert abs(float(s.y.p.sum()) - 1.0) < 1e-9
            if not s.y.is_one_hot():
                soft_seen = True
        assert soft_seen

    def test_if_mixup_audit_guard(self, tiny_dataset):
        cfg = m.TrainConfig(
            model=m.ModelConfig(arch="gin", k=2, hidden=4),
            augment=m.AugmentSpec(kind="if_mixup", beta=m.BetaParams(1, 1)),
            audit_mixes=True,
        )
        rng = np.random.default_rng(4)
        for _ in range(20):
            stream = build_epoch_stream(tiny_dataset.items, cfg, rng)
            for s in stream:
                # the mixed label's distance from a 50/50 split reflects lambda
                lam_gap = abs(float(s.y.p.max()) - 0.5)
                if not s.y.is_one_hot() and float(s.y.p.max()) < 1.0:
                    assert lam_gap >= 1e-6 - 1e-15

    def test_if_mixup_shuffled_still_valid(self, tiny_dataset):
        cfg = self.spec("if_mixup_shuffled", beta=m.BetaParams(2, 2))
        stream = build_epoch_stream(tiny_dataset.items, cfg, np.random.default_rng(5))
        for s in stream:
            assert m.validate_graph(s.g) == []

    def test_mixup_graph_defers_pairs(self, tiny_dataset):
        cfg = self.spec("mixup_graph", beta=m.BetaParams(2, 2))
        stream = build_epoch_stream(tiny_dataset.items, cfg, np.random.default_rng(6))
        for s in stream:
            assert s.g is None and s.pair is not None
            assert 0.0 < s.lam < 1.0
            assert s.layer is None

    def test_manifold_mixup_draws_layer(self, tiny_dataset):
        cfg = self.spec("manifold_mixup", beta=m.BetaParams(2, 2))
        layers = set()
        rng = np.random.default_rng(7)
        for _ in range(10):
            stream = build_epoch_stream(tiny_dataset.items, cfg, rng)
            layers.update(s.layer for s in stream)
        assert layers == {1, 2}  # uniform over 1..K for K=2

    LAMS = [
        0.19622144535374386, 0.15217144138763453, 0.5321326210586242, 0.24868947298582558,
        0.8117725957684974, 0.5381248286712684, 0.6057981666220023, 0.28995382537227443,
    ]
    PINNED = {  # lam per pair, manifold layer per pair, the rng's next draw after the stream
        "if_mixup": (LAMS, [None] * 8, 0.26055566450452683),
        "mixup_graph": (LAMS, [None] * 8, 0.26055566450452683),
        "if_mixup_shuffled": (
            [
                0.19622144535374386, 0.15217144138763453, 0.43051119436024343, 0.4081190875965962,
                0.09640210992256688, 0.28995382537227443, 0.6241913106308195, 0.4203535885277735,
            ],
            [None] * 8,
            0.9409059641483916,
        ),
        "manifold_mixup": (
            [
                0.19622144535374386, 0.15217144138763453, 0.43051119436024343, 0.39147491709417814,
                0.2357118404786896, 0.7018476046090528, 0.10862613242703671, 0.5030177409279029,
            ],
            [3, 1, 1, 3, 2, 3, 1, 2],
            0.7019654599218196,
        ),
    }

    @pytest.mark.parametrize("kind", list(PINNED))
    def test_pair_draws_are_pinned(self, monkeypatch, kind):
        # per pair: lam, then the shuffle permutation or the manifold layer
        items = uneven_items()
        index = {id(g): i for i, (g, _) in enumerate(items)}
        draws = []
        mix, permute = ifmixup.training.mix_items, ifmixup.training.permute_nodes

        def permute_recorded(g, perm):
            out = permute(g, perm)
            index[id(out)] = index[id(g)]
            return out

        def mix_recorded(a, b, lam):
            draws.append((index[id(a[0])], index[id(b[0])], lam, None))
            return mix(a, b, lam)

        monkeypatch.setattr(ifmixup.training, "permute_nodes", permute_recorded)
        monkeypatch.setattr(ifmixup.training, "mix_items", mix_recorded)
        cfg = m.TrainConfig(
            model=m.ModelConfig(arch="gin", k=3, hidden=4), augment=m.AugmentSpec(kind=kind, beta=m.BetaParams(2, 2))
        )
        rng = np.random.default_rng(70)
        stream = build_epoch_stream(items, cfg, rng)
        draws += [(index[id(s.pair[0])], index[id(s.pair[1])], s.lam, s.layer) for s in stream if s.pair]
        lams, layers, next_draw = self.PINNED[kind]
        assert [(a, b) for a, b, _, _ in draws] == [(3, 0), (0, 6), (6, 1), (1, 5), (5, 2), (2, 4), (4, 7), (7, 3)]
        assert [lam for _, _, lam, _ in draws] == lams
        assert [layer for *_, layer in draws] == layers
        assert rng.random() == next_draw

    PLAIN_PINNED = {  # A side per sample, (nodes, edges) per sample graph, the rng's next draw
        ("none", 3): (
            [6, 7, 2, 1, 4, 5, 3, 0],
            [(4, 0), (9, 12), (2, 0), (5, 3), (3, 2), (6, 5), (7, 7), (1, 0)],
            0.4331269402364738,
        ),
        ("none", 7): (
            [0, 6, 7, 2, 4, 5, 1, 3],
            [(1, 0), (4, 0), (9, 12), (2, 0), (3, 2), (6, 5), (5, 3), (7, 7)],
            0.30016628491122543,
        ),
        ("drop_edge", 3): (
            [6, 7, 2, 1, 4, 5, 3, 0],
            [(4, 0), (9, 8), (2, 0), (5, 2), (3, 2), (6, 3), (7, 5), (1, 0)],
            0.4306280204141778,
        ),
        ("drop_edge", 7): (
            [0, 6, 7, 2, 4, 5, 1, 3],
            [(1, 0), (4, 0), (9, 8), (2, 0), (3, 2), (6, 3), (5, 2), (7, 5)],
            0.2784256121007733,
        ),
        ("drop_node", 3): (
            [6, 7, 2, 1, 4, 5, 3, 0],
            [(3, 0), (6, 4), (2, 0), (3, 1), (2, 1), (4, 1), (5, 7), (1, 0)],
            0.5867985714381407,
        ),
        ("drop_node", 7): (
            [0, 6, 7, 2, 4, 5, 1, 3],
            [(1, 0), (3, 0), (6, 5), (2, 0), (2, 1), (4, 3), (3, 1), (5, 4)],
            0.2548695876541246,
        ),
    }

    @pytest.mark.parametrize("kind,seed", list(PLAIN_PINNED))
    def test_plain_draws_are_pinned(self, monkeypatch, kind, seed):
        # the plain kinds keep each pair's A side, in the order of the pair draw
        items = uneven_items()
        index = {id(g): i for i, (g, _) in enumerate(items)}
        sides = []
        for name in ("drop_edge", "drop_node"):
            drop = getattr(ifmixup.training, name)

            def drop_recorded(g, ratio, rng, drop=drop):
                sides.append(index[id(g)])
                return drop(g, ratio, rng)

            monkeypatch.setattr(ifmixup.training, name, drop_recorded)
        cfg = m.TrainConfig(augment=m.AugmentSpec(kind=kind, ratio=0.4))
        rng = np.random.default_rng(seed)
        stream = build_epoch_stream(items, cfg, rng)
        if kind == "none":
            sides = [index[id(s.g)] for s in stream]
        assert all(s.pair is None and s.y is items[a][1] for s, a in zip(stream, sides))
        assert (sides, [(s.g.n, int(np.count_nonzero(s.g.e)) // 2) for s in stream], rng.random()) == (
            self.PLAIN_PINNED[kind, seed]
        )

    def test_deterministic_given_rng(self, tiny_dataset):
        cfg = self.spec("if_mixup", beta=m.BetaParams(2, 2))
        s1 = build_epoch_stream(tiny_dataset.items, cfg, np.random.default_rng(8))
        s2 = build_epoch_stream(tiny_dataset.items, cfg, np.random.default_rng(8))
        for a, b in zip(s1, s2):
            assert np.array_equal(a.g.v, b.g.v) and np.array_equal(a.g.e, b.g.e)
            assert np.array_equal(a.y.p, b.y.p)


@pytest.fixture
def embed_calls(monkeypatch):
    """The graph lists of every ``embed_batch`` call made through ``training``."""
    calls = []
    packed_forward = ifmixup.training.embed_batch

    def recording(graphs, wrapped, params):
        calls.append(list(graphs))
        return packed_forward(graphs, wrapped, params)

    monkeypatch.setattr(ifmixup.training, "embed_batch", recording)
    return calls


class TestBatchGradients:
    def test_deferred_pair_batches(self, tiny_dataset):
        cfg = m.TrainConfig(
            model=m.ModelConfig(arch="gin", k=2, hidden=4),
            augment=m.AugmentSpec(kind="manifold_mixup", beta=m.BetaParams(2, 2)),
        )
        params = m.init_params(cfg.model, tiny_dataset.feature_dim, 2, np.random.default_rng(9))
        stream = build_epoch_stream(tiny_dataset.items, cfg, np.random.default_rng(10))
        loss, grads = batch_gradients(stream[:4], params, np.random.default_rng(11))
        assert np.isfinite(loss)
        assert grads.keys() == params.tensors.keys()
        assert any(np.any(g != 0) for g in grads.values())

    def test_empty_batch_rejected(self):
        params = m.init_params(m.ModelConfig(), 3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty"):
            batch_gradients([], params, np.random.default_rng(0))

    @staticmethod
    def reference_loss(y, h, w, b):
        """-sum y log_softmax(h @ w + b), in numpy."""
        z = h @ w + b
        z = z - z.max()
        return float(-(y.p * (z - np.log(np.exp(z).sum()))).sum())

    def mixed_pair(self, tiny_dataset, arch, k, hidden):
        params = m.init_params(
            m.ModelConfig(arch=arch, k=k, hidden=hidden),
            tiny_dataset.feature_dim,
            2,
            np.random.default_rng(20),
        )
        (ga, ya), (gb, yb) = tiny_dataset.items[0], tiny_dataset.items[1]
        lam = 0.35
        return params, ga, gb, lam, m.mix_labels(ya, yb, lam)

    def test_manifold_loss_matches_numpy_reference(self, tiny_dataset):
        hidden, k = 4, 2
        params, ga, gb, lam, y = self.mixed_pair(tiny_dataset, "gin", 3, hidden)
        sample = EpochSample(y=y, pair=(ga, gb), lam=lam, layer=k)
        loss, _ = batch_gradients([sample], params, np.random.default_rng(0))
        ta, tb = m.forward_classify(ga, params), m.forward_classify(gb, params)
        h = lam * ta.pooled[k - 1] + (1.0 - lam) * tb.pooled[k - 1]
        w = params.tensors["head.W"][(k - 1) * hidden : k * hidden]
        reference = self.reference_loss(y, h, w, params.tensors["head.b"])
        assert loss == pytest.approx(reference, abs=1e-12)

    def test_readout_loss_matches_numpy_reference(self, tiny_dataset):
        params, ga, gb, lam, y = self.mixed_pair(tiny_dataset, "gcn", 2, 4)
        sample = EpochSample(y=y, pair=(ga, gb), lam=lam)
        loss, _ = batch_gradients([sample], params, np.random.default_rng(0))
        ta, tb = m.forward_classify(ga, params), m.forward_classify(gb, params)
        h = lam * ta.h_graph + (1.0 - lam) * tb.h_graph
        reference = self.reference_loss(y, h, params.tensors["head.W"], params.tensors["head.b"])
        assert loss == pytest.approx(reference, abs=1e-12)

    @pytest.mark.parametrize("arch", ["gcn", "gin"])
    @pytest.mark.parametrize("layer", [0, 4])
    def test_manifold_layer_out_of_range_rejected(self, tiny_dataset, arch, layer):
        params, ga, gb, lam, y = self.mixed_pair(tiny_dataset, arch, 3, 4)
        sample = EpochSample(y=y, pair=(ga, gb), lam=lam, layer=layer)
        with pytest.raises(ValueError, match=rf"layer {layer} outside 1\.\.3"):
            batch_gradients([sample], params, np.random.default_rng(0))

    @pytest.mark.parametrize("arch", ["gcn", "gin"])
    @pytest.mark.parametrize("with_pair", [False, True], ids=["all-plain", "with-pair"])
    def test_plain_sample_with_layer_rejected(self, tiny_dataset, arch, with_pair):
        params, ga, gb, lam, y = self.mixed_pair(tiny_dataset, arch, 3, 4)
        batch = [EpochSample(y=y, pair=(ga, gb), lam=lam)] if with_pair else []
        batch.append(EpochSample(y=y, g=ga, layer=2))
        index = len(batch) - 1
        with pytest.raises(ValueError, match=rf"sample {index} is a plain graph but carries manifold-mix layer 2"):
            batch_gradients(batch, params, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "case, message",
        [
            ("lam_none", r"sample 1: a pair needs lam in \[0, 1\], got None"),
            ("lam_above_one", r"sample 1: a pair needs lam in \[0, 1\], got 1\.5"),
            ("lam_below_zero", r"sample 1: a pair needs lam in \[0, 1\], got -0\.25"),
            ("lam_nan", r"sample 1: a pair needs lam in \[0, 1\], got nan"),
            ("neither", "sample 1 must hold exactly one of a graph and a pair, it holds neither"),
            ("both", "sample 1 must hold exactly one of a graph and a pair, it holds both"),
            ("three_classes", "sample 1: label has 3 classes, the model 2"),
        ],
    )
    def test_malformed_sample_named(self, tiny_dataset, case, message):
        params, ga, gb, lam, y = self.mixed_pair(tiny_dataset, "gin", 3, 4)
        bad = {
            "lam_none": EpochSample(y=y, pair=(ga, gb)),
            "lam_above_one": EpochSample(y=y, pair=(ga, gb), lam=1.5),
            "lam_below_zero": EpochSample(y=y, pair=(ga, gb), lam=-0.25),
            "lam_nan": EpochSample(y=y, pair=(ga, gb), lam=float("nan")),
            "neither": EpochSample(y=y),
            "both": EpochSample(y=y, g=ga, pair=(ga, gb), lam=lam),
            "three_classes": EpochSample(y=m.LabelDistribution.one_hot(2, 3), g=gb),
        }[case]
        with pytest.raises(ValueError, match=message):
            batch_gradients([EpochSample(y=y, g=ga), bad], params, np.random.default_rng(0))

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_lam_bounds_accepted(self, tiny_dataset, lam):
        params, ga, gb, _, y = self.mixed_pair(tiny_dataset, "gcn", 2, 4)
        mixed, _ = batch_gradients([EpochSample(y=y, pair=(ga, gb), lam=lam)], params, np.random.default_rng(0))
        alone, _ = batch_gradients([EpochSample(y=y, g=ga if lam else gb)], params, np.random.default_rng(0))
        assert mixed == pytest.approx(alone, abs=1e-12)

    @settings(max_examples=40)
    @given(arch=st.sampled_from(["gcn", "gin"]), k=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_batch_loss_is_sum_of_singleton_losses(self, arch, k, seed):
        # plain, readout and manifold samples at every layer, in one batch
        rng = np.random.default_rng(seed)
        items = uneven_items()
        params = m.init_params(m.ModelConfig(arch=arch, k=k, hidden=5), 4, 3, rng)
        kinds = ["plain", None, *range(1, k + 1)]
        kinds += [kinds[int(i)] for i in rng.integers(len(kinds), size=3)]
        batch = []
        for kind in (kinds[int(i)] for i in rng.permutation(len(kinds))):
            (ga, ya), (gb, yb) = (items[int(i)] for i in rng.integers(len(items), size=2))
            if kind == "plain":
                batch.append(EpochSample(y=ya, g=ga))
            else:
                lam = float(rng.random())
                batch.append(EpochSample(y=m.mix_labels(ya, yb, lam), pair=(ga, gb), lam=lam, layer=kind))
        loss, _ = batch_gradients(batch, params, rng)
        alone = sum(batch_gradients([sample], params, rng)[0] for sample in batch)
        assert abs(len(batch) * loss - alone) <= 1e-12

    @pytest.mark.parametrize("kind,arch", [("mixup_graph", "gcn"), ("manifold_mixup", "gin")])
    def test_deferred_pair_gradients_match_finite_differences(self, tiny_dataset, kind, arch):
        # dropout on: each call gets the same seeded rng, so the masks are fixed
        cfg = m.TrainConfig(
            model=m.ModelConfig(arch=arch, k=2, hidden=4, dropout=0.5),
            augment=m.AugmentSpec(kind=kind, beta=m.BetaParams(2, 2)),
        )
        params = m.init_params(cfg.model, tiny_dataset.feature_dim, 2, np.random.default_rng(21))
        batch = build_epoch_stream(tiny_dataset.items, cfg, np.random.default_rng(22))[:4]
        _, grads = batch_gradients(batch, params, np.random.default_rng(23))
        step = 1e-6
        for name, w in params.tensors.items():
            for idx in np.ndindex(w.shape):
                losses = []
                for sign in (+1, -1):
                    probe = params.copy()
                    probe.tensors[name][idx] += sign * step
                    losses.append(batch_gradients(batch, probe, np.random.default_rng(23))[0])
                fd = (losses[0] - losses[1]) / (2 * step)
                assert abs(fd - grads[name][idx]) < 1e-6 * max(1.0, abs(fd)), (name, idx)


class TestPackedMatchesPerGraph:
    MODELS = [
        pytest.param(dict(arch=arch, readout=readout), id=f"{arch}-{readout}")
        for arch in ("gcn", "gin")
        for readout in ("sum", "mean")
    ] + [
        pytest.param(dict(arch="gcn", gcn_skip=True), id="gcn-skip"),
        pytest.param(dict(arch="gin", gin_mlp_bias=False), id="gin-nobias"),
    ]

    @staticmethod
    def params(model, d=4, c=3):
        cfg = m.ModelConfig(k=3, hidden=5, dropout=0.5, **model)  # hidden != d: skip projects
        return m.init_params(cfg, d, c, np.random.default_rng(41))

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_epoch_stream(self, kind, model):
        params = self.params(model)
        cfg = m.TrainConfig(
            model=params.config, augment=m.AugmentSpec(kind=kind, beta=m.BetaParams(2, 2), ratio=0.4)
        )
        batch = build_epoch_stream(uneven_items(), cfg, np.random.default_rng(42))
        assert_matches_reference(batch, params, seed=43)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("kind", [k for k in KINDS if k not in ("mixup_graph", "manifold_mixup")])
    def test_all_plain_batch_is_byte_equal_to_the_readout(self, kind, model):
        # identity rows in the mixing matrices add only exact zeros
        params = self.params(model)
        cfg = m.TrainConfig(
            model=params.config, augment=m.AugmentSpec(kind=kind, beta=m.BetaParams(2, 2), ratio=0.4)
        )
        batch = build_epoch_stream(uneven_items(), cfg, np.random.default_rng(48))
        rng, ref_rng = np.random.default_rng(49), np.random.default_rng(49)
        loss, grads = batch_gradients(batch, params, rng)
        ref_loss, ref_grads = readout_gradients(batch, params, ref_rng)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert g.tobytes() == ref_grads[name].tobytes(), name
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("model", MODELS)
    def test_heterogeneous_batch(self, model):
        params = self.params(model)
        items = uneven_items()
        batch = []
        for i, layer in enumerate([None, None, 1, 2, 3, None, 2, 1]):
            (ga, ya), (gb, yb) = items[i], items[(i + 3) % len(items)]
            if i % 3 == 0:
                batch.append(EpochSample(y=ya, g=ga))
            else:
                lam = 0.15 + 0.1 * i
                batch.append(EpochSample(y=m.mix_labels(ya, yb, lam), pair=(ga, gb), lam=lam, layer=layer))
        assert_matches_reference(batch, params, seed=44)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("case", ["same_object_pair", "plain_is_pair_side", "equal_copies"])
    def test_shared_graphs(self, embed_calls, model, case):
        # graphs are taken once per object, never merged by value
        params = self.params(model)
        items = uneven_items()
        (g, y), (h, z), (f, x) = items[1], items[3], items[5]
        copy = m.NodeFeaturedGraph(g.v.copy(), g.e.copy())
        mix = m.mix_labels(y, z, 0.4)
        batch, distinct = {
            "same_object_pair": (
                [
                    EpochSample(y=y, pair=(g, g), lam=0.3),
                    EpochSample(y=mix, pair=(g, h), lam=0.4, layer=2),
                    EpochSample(y=y, pair=(g, g), lam=0.8, layer=1),
                ],
                [g, h],
            ),
            "plain_is_pair_side": (
                [EpochSample(y=mix, pair=(g, h), lam=0.4, layer=1), EpochSample(y=x, g=f), EpochSample(y=z, g=h)],
                [g, h, f],
            ),
            "equal_copies": (
                [EpochSample(y=y, pair=(g, copy), lam=0.7), EpochSample(y=y, g=copy), EpochSample(y=y, g=g)],
                [g, copy],
            ),
        }[case]
        assert_matches_reference(batch, params, seed=47)
        assert [[id(graph) for graph in call] for call in embed_calls] == [[id(graph) for graph in distinct]]

    @pytest.mark.parametrize("side", ["plain", "pair_a", "pair_b"])
    def test_empty_graph_rejected(self, side):
        params = self.params(dict(arch="gin"))
        (g, y), empty = uneven_items()[1], m.NodeFeaturedGraph(np.zeros((0, 4)), np.zeros((0, 0)))
        sample = {
            "plain": EpochSample(y=y, g=empty),
            "pair_a": EpochSample(y=y, pair=(empty, g), lam=0.3),
            "pair_b": EpochSample(y=y, pair=(g, empty), lam=0.3),
        }[side]
        for gradients in (batch_gradients, reference_gradients):
            with pytest.raises(ValueError, match="cannot classify an empty graph"):
                gradients([EpochSample(y=y, g=g), sample], params, np.random.default_rng(0))

    def test_feature_dim_mismatch_rejected(self):
        params = self.params(dict(arch="gcn"))
        wide = rand_one_hot_graph(np.random.default_rng(45), 3, 5)
        batch = [EpochSample(y=m.LabelDistribution.one_hot(0, 3), g=wide)]
        for gradients in (batch_gradients, reference_gradients):
            with pytest.raises(ValueError, match=r"feature dim 5 does not match params \(4\)"):
                gradients(batch, params, np.random.default_rng(0))

    def test_empty_batch_message(self):
        params = self.params(dict(arch="gcn"))
        for gradients in (batch_gradients, reference_gradients):
            with pytest.raises(ValueError, match="gradients need a nonempty batch"):
                gradients([], params, np.random.default_rng(0))


class TestOneForwardPerBatch:
    """A batch embeds its distinct graph objects in one packed forward."""

    @pytest.mark.parametrize("kind", ["mixup_graph", "manifold_mixup", "none"])
    def test_each_full_batch_makes_one_call(self, embed_calls, tiny_dataset, kind):
        batch_size = 4
        cfg = m.TrainConfig(
            model=m.ModelConfig(arch="gcn", k=3, hidden=4),
            augment=m.AugmentSpec(kind=kind, beta=m.BetaParams(2, 2)),
            batch_size=batch_size,
        )
        params = m.init_params(cfg.model, tiny_dataset.feature_dim, 2, np.random.default_rng(60))
        stream = build_epoch_stream(tiny_dataset.items, cfg, np.random.default_rng(61))
        assert len(stream) % batch_size == 0 and len(stream) > batch_size
        for start in range(0, len(stream), batch_size):
            batch = stream[start : start + batch_size]
            batch_gradients(batch, params, np.random.default_rng(62))
            if kind == "none":
                expected = [s.g for s in batch]
            else:
                # partners are shifted by one: B pairs hold B + 1 graphs
                expected = [batch[0].pair[0]] + [s.pair[1] for s in batch]
            assert len({id(g) for g in expected}) == len(batch) + (kind != "none")
            assert [id(g) for g in embed_calls[-1]] == [id(g) for g in expected]
        assert len(embed_calls) == len(stream) // batch_size

    @pytest.mark.parametrize("kind", ["none", "mixup_graph", "manifold_mixup"])
    def test_gin_step_builds_no_readout_concat(self, monkeypatch, tiny_dataset, kind):
        # the step mixes the pooled rows itself, so a GIN readout concat would be a dead tape node
        calls = []
        concat = ifmixup.models.concat
        monkeypatch.setattr(ifmixup.models, "concat", lambda *a, **kw: calls.append(a) or concat(*a, **kw))
        cfg = m.TrainConfig(
            model=m.ModelConfig(arch="gin", k=3, hidden=4),
            augment=m.AugmentSpec(kind=kind, beta=m.BetaParams(2, 2)),
        )
        params = m.init_params(cfg.model, tiny_dataset.feature_dim, 2, np.random.default_rng(63))
        stream = build_epoch_stream(tiny_dataset.items, cfg, np.random.default_rng(64))
        batch_gradients(stream[:4], params, np.random.default_rng(65))
        assert calls == []
        m.evaluate(params, tiny_dataset.items[:4])  # the readout still concatenates
        assert len(calls) == 1


@pytest.fixture
def frozen_gradients(monkeypatch):
    """Every array the tape receives or stores as a gradient is made read-only,
    so an in-place write to one, by the tape or by ``adamw_step``, raises."""
    accumulate = Tensor._accumulate

    def frozen(self, g):
        g.setflags(write=False)
        accumulate(self, g)
        if self.grad is not None:
            self.grad.setflags(write=False)

    monkeypatch.setattr(Tensor, "_accumulate", frozen)


class TestNoInPlaceGradientWrites:
    @pytest.mark.parametrize(
        "arch,kind,dropout",
        [
            ("gin", "if_mixup", 0.0),
            ("gin", "manifold_mixup", 0.0),
            ("gcn", "manifold_mixup", 0.0),
            ("gin", "mixup_graph", 0.0),
            ("gin", "none", 0.5),
        ],
    )
    def test_tape_and_adamw_write_no_gradient(self, frozen_gradients, tiny_dataset, arch, kind, dropout):
        model = m.ModelConfig(arch=arch, k=3, hidden=5, dropout=dropout)
        cfg = m.TrainConfig(model=model, augment=m.AugmentSpec(kind=kind, beta=m.BetaParams(2, 2)))
        params = m.init_params(model, tiny_dataset.feature_dim, tiny_dataset.num_classes, np.random.default_rng(50))
        batch = build_epoch_stream(tiny_dataset.items, cfg, np.random.default_rng(51))
        _, grads = batch_gradients(batch, params, np.random.default_rng(52))
        m.adamw_step(params.tensors, grads, m.AdamWState.for_params(params), 0.01, 0.01)
        frozen = [g for g in grads.values() if not g.flags.writeable]
        assert frozen
        with pytest.raises(ValueError, match="read-only"):
            frozen[0] += 1.0  # the fixture is live


class TestEvaluate:
    def test_chunks_match_per_graph_predictions(self):
        params = m.init_params(m.ModelConfig(arch="gin", k=2, hidden=6), 4, 3, np.random.default_rng(46))
        rng = np.random.default_rng(47)
        sizes = [int(rng.integers(1, 12)) for _ in range(EVAL_ROWS // 3)]
        assert sum(sizes) > EVAL_ROWS
        items = [
            (rand_one_hot_graph(rng, n, 4), m.LabelDistribution.one_hot(int(rng.integers(3)), 3))
            for n in sizes
        ]
        hits = sum(int(np.argmax(m.forward_classify(g, params).probs)) == y.argmax() for g, y in items)
        assert 0 < hits < len(items)
        assert m.evaluate(params, items) == hits / len(items)

    def test_chunks_hold_graphs_of_similar_size(self, embed_calls):
        params = m.init_params(m.ModelConfig(arch="gcn", k=1, hidden=3), 4, 2, np.random.default_rng(48))
        rng = np.random.default_rng(49)
        sizes = [EVAL_ROWS + 1, 60] + [int(rng.integers(1, 8)) for _ in range(EVAL_ROWS // 3)]
        items = [(rand_one_hot_graph(rng, n, 4, 0.01), m.LabelDistribution.one_hot(0, 2)) for n in sizes]
        m.evaluate(params, items)
        chunks = [[g.n for g in call] for call in embed_calls]
        assert [n for chunk in chunks for n in chunk] == sorted(sizes)
        assert all(sum(chunk) <= EVAL_ROWS for chunk in chunks[:-1])
        assert chunks[-1] == [EVAL_ROWS + 1]  # a graph over the budget runs alone

    def test_predicts_first_maximum_of_logits(self, tiny_dataset):
        params = m.init_params(m.ModelConfig(arch="gcn", k=1, hidden=2), 5, 2, np.random.default_rng(12))
        params.tensors["head.W"][:] = 0.0
        params.tensors["head.b"][:] = [0.0, 1e-17]  # both probabilities round to 0.5
        items = [(g, m.LabelDistribution.one_hot(1, 2)) for g, _ in tiny_dataset.items]
        traces = [m.forward_classify(g, params) for g, _ in items]
        assert all(np.array_equal(t.probs, [0.5, 0.5]) for t in traces)
        hits = sum(int(np.argmax(t.logits)) == y.argmax() for t, (_, y) in zip(traces, items))
        assert m.evaluate(params, items) == hits / len(items) == 1.0

    def test_ties_break_to_lower_class(self, tiny_dataset):
        params = m.init_params(m.ModelConfig(arch="gcn", k=1, hidden=2), 5, 2, np.random.default_rng(12))
        params.tensors["head.W"][:] = 0.0
        params.tensors["head.b"][:] = 0.0  # logits [0, 0] for every graph
        class0 = [(g, y) for g, y in tiny_dataset.items if y.argmax() == 0]
        class1 = [(g, y) for g, y in tiny_dataset.items if y.argmax() == 1]
        assert m.evaluate(params, class0) == 1.0
        assert m.evaluate(params, class1) == 0.0

    def test_empty_rejected(self):
        params = m.init_params(m.ModelConfig(), 3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty"):
            m.evaluate(params, [])


class TestTrainSingle:
    def config(self, **kw):
        base = dict(
            model=m.ModelConfig(arch="gin", k=1, hidden=4),
            augment=m.AugmentSpec(),
            epochs=3,
            batch_size=4,
        )
        base.update(kw)
        return m.TrainConfig(**base)

    def test_logs_one_entry_per_epoch(self, tiny_dataset):
        params, log = m.train_single(
            tiny_dataset.items[:8], tiny_dataset.items[8:], self.config(), m.derive_rng(0, 0, 0)
        )
        assert len(log.train_loss) == 3 and len(log.val_acc) == 3
        assert all(np.isfinite(x) for x in log.train_loss)
        assert all(0.0 <= a <= 1.0 for a in log.val_acc)

    def test_deterministic(self, tiny_dataset):
        runs = []
        for _ in range(2):
            _, log = m.train_single(
                tiny_dataset.items[:8], tiny_dataset.items[8:], self.config(), m.derive_rng(1, 0, 0)
            )
            runs.append((tuple(log.train_loss), tuple(log.val_acc)))
        assert runs[0] == runs[1]

    def test_empty_split_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match="nonempty"):
            m.train_single([], tiny_dataset.items, self.config(), m.derive_rng(0, 0, 0))

    def test_non_finite_loss_names_epoch_and_batch(self, tiny_dataset, monkeypatch):
        real = ifmixup.training.batch_gradients
        calls = []

        def nan_on_fourth_call(batch, params, rng):
            loss, grads = real(batch, params, rng)
            calls.append(len(calls))
            return (float("nan") if len(calls) == 4 else loss), grads

        monkeypatch.setattr(ifmixup.training, "batch_gradients", nan_on_fourth_call)
        # 8 items in batches of 4: the fourth step is epoch 1, batch 1
        with pytest.raises(m.NonFiniteLossError, match="epoch 1, batch 1") as info:
            m.train_single(tiny_dataset.items[:8], tiny_dataset.items[8:], self.config(), m.derive_rng(0, 0, 0))
        assert (info.value.epoch, info.value.batch) == (1, 1)
        assert len(calls) == 4

    def test_overflowing_features_stop_the_first_step(self, tiny_dataset):
        items = [(m.NodeFeaturedGraph(g.v * 1e308, g.e), y) for g, y in tiny_dataset.items[:8]]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            m.NonFiniteLossError, match="epoch 0, batch 0"
        ):
            m.train_single(items, tiny_dataset.items[8:], self.config(), m.derive_rng(0, 0, 0))

    @pytest.mark.parametrize("split, at, index", [("train", 3, 3), ("validation", 9, 1)])
    def test_non_finite_item_rejected_by_index(self, tiny_dataset, split, at, index):
        # NaN features pass the ReLU as zeros and leave the loss finite
        items = list(tiny_dataset.items)
        g, y = items[at]
        items[at] = (m.NodeFeaturedGraph(g.v * np.nan, g.e), y)
        with pytest.raises(ValueError, match=f"{split} item {index} has non-finite"):
            m.train_single(items[:8], items[8:], self.config(), m.derive_rng(0, 0, 0))

    @pytest.mark.parametrize("split, at, index", [("train", 5, 5), ("validation", 10, 2)])
    def test_class_count_mismatch_named(self, tiny_dataset, split, at, index):
        items = list(tiny_dataset.items)
        items[at] = (items[at][0], m.LabelDistribution.one_hot(0, 3))
        with pytest.raises(ValueError, match=f"{split} item {index} has 3 classes, train item 0 has 2"):
            m.train_single(items[:8], items[8:], self.config(), m.derive_rng(0, 0, 0))

    @pytest.mark.parametrize("split, at, index", [("train", 6, 6), ("validation", 8, 0)])
    def test_feature_width_mismatch_named(self, tiny_dataset, split, at, index):
        items = list(tiny_dataset.items)
        g, y = items[at]
        items[at] = (m.NodeFeaturedGraph(np.hstack([g.v, np.zeros((g.n, 1))]), g.e), y)
        d = tiny_dataset.feature_dim
        with pytest.raises(ValueError, match=f"{split} item {index} has {d + 1} feature columns, train item 0 has {d}"):
            m.train_single(items[:8], items[8:], self.config(), m.derive_rng(0, 0, 0))

    def test_audit_mixes_reproduces_recorded_run(self, tiny_dataset):
        """The guarded draw takes the same rng stream as the unguarded one.

        No draw of this run falls within HALF_GUARD of 0.5. The losses and
        accuracies are pinned, so any change in how the guard draws shows.
        """
        logs = []
        for audit in (True, False):
            cfg = self.config(
                model=m.ModelConfig(arch="gin", k=2, hidden=8),
                augment=m.AugmentSpec(kind="if_mixup", beta=m.BetaParams(1, 1)),
                epochs=4,
                audit_mixes=audit,
            )
            _, log = m.train_single(
                tiny_dataset.items[:8], tiny_dataset.items[8:], cfg, m.derive_rng(3, 0, 0)
            )
            logs.append((log.train_loss, log.val_acc))
        assert logs[0] == logs[1] == (
            [2.8343456484975755, 3.0522462296285795, 1.596752665066047, 1.212907658562321],
            [0.5, 0.5, 0.75, 0.5],
        )

    def test_log_fn_called_per_epoch(self, tiny_dataset):
        calls = []
        m.train_single(
            tiny_dataset.items[:8],
            tiny_dataset.items[8:],
            self.config(),
            m.derive_rng(2, 0, 0),
            log_fn=lambda *a: calls.append(a),
        )
        assert len(calls) == 3
        epochs = [c[0] for c in calls]
        assert epochs == [0, 1, 2]


class TestCrossValidate:
    def config(self):
        return m.TrainConfig(
            model=m.ModelConfig(arch="gin", k=1, hidden=4),
            augment=m.AugmentSpec(),
            epochs=2,
            batch_size=4,
            folds=3,
            runs=2,
            seed=5,
        )

    def test_aggregation(self, tiny_dataset):
        log = m.cross_validate(tiny_dataset, self.config())
        assert len(log.fold_acc) == 6  # runs x folds
        run_means = [np.mean(log.fold_acc[:3]), np.mean(log.fold_acc[3:])]
        assert log.mean == pytest.approx(float(np.mean(run_means)))
        assert log.std == pytest.approx(float(np.std(run_means)))  # population std

    def test_too_few_samples(self, tiny_dataset):
        cfg = self.config()
        cfg.folds = 13
        with pytest.raises(ValueError, match="cannot fill"):
            m.cross_validate(tiny_dataset, cfg)

    def test_deterministic(self, tiny_dataset):
        a = m.cross_validate(tiny_dataset, self.config())
        b = m.cross_validate(tiny_dataset, self.config())
        assert a.fold_acc == b.fold_acc and a.mean == b.mean

    PINNED = {  # fold_acc, mean, std
        "none": ([0.5, 1.0, 0.5, 1.0, 0.75, 0.75], 0.75, 0.08333333333333337),
        "drop_node": ([0.5, 0.75, 0.5, 1.0, 0.75, 1.0], 0.75, 0.16666666666666663),
        "if_mixup": ([0.5, 0.25, 0.75, 0.25, 1.0, 0.5], 0.5416666666666667, 0.041666666666666685),
        "manifold_mixup": ([0.5, 1.0, 0.5, 1.0, 0.75, 0.5], 0.7083333333333333, 0.041666666666666685),
    }

    @pytest.mark.parametrize("kind", list(PINNED))
    def test_summaries_are_pinned(self, tiny_dataset, kind):
        cfg = m.TrainConfig(
            model=m.ModelConfig(arch="gin", k=2, hidden=8),
            augment=m.AugmentSpec(kind=kind, ratio=0.2, beta=m.BetaParams(2, 2)),
            lr0=0.05,
            epochs=4,
            batch_size=4,
            folds=3,
            runs=2,
            seed=5,
        )
        log = m.cross_validate(tiny_dataset, cfg)
        assert (log.fold_acc, log.mean, log.std) == self.PINNED[kind]

    def test_each_fold_validates_alone_and_trains_on_the_rest(self, tiny_dataset):
        splits = ifmixup.training.fold_splits(tiny_dataset, self.config())
        folds = m.stratified_folds([y.argmax() for y in tiny_dataset.labels()], 3, np.random.default_rng(5))
        for f, (train_items, val_items) in enumerate(splits):
            assert val_items == [tiny_dataset.items[i] for i in folds[f]]
            assert train_items == [tiny_dataset.items[i] for j, fold in enumerate(folds) if j != f for i in fold]


class TestSweep:
    def base(self):
        return m.TrainConfig(
            model=m.ModelConfig(arch="gin", k=1, hidden=4),
            augment=m.AugmentSpec(),
            epochs=1,
            batch_size=4,
            folds=3,
            runs=1,
        )

    def test_beta_axis(self, tiny_dataset):
        cells = m.sweep(tiny_dataset, self.base(), "beta", values=(m.BetaParams(2, 2),))
        assert len(cells) == 1
        cell = cells[0]
        assert cell.label == "beta(2,2)"
        assert cell.config.augment.kind == "if_mixup"
        assert cell.metrics.mean is not None

    def test_layers_axis(self, tiny_dataset):
        cells = m.sweep(tiny_dataset, self.base(), "layers", values=(1, 2))
        assert [c.label for c in cells] == ["K=1", "K=2"]
        assert [c.config.model.k for c in cells] == [1, 2]

    @pytest.mark.parametrize("k", [2.5, True], ids=["float", "bool"])
    def test_layers_axis_refuses_a_depth_it_cannot_train(self, tiny_dataset, k):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {k!r}$"):
            m.sweep(tiny_dataset, self.base(), "layers", values=(k,))

    def test_bad_grid_refused_before_any_cv(self, tiny_dataset, monkeypatch):
        calls = []
        monkeypatch.setattr(ifmixup.training, "cross_validate", lambda ds, cfg, log_fn: calls.append(cfg))
        with pytest.raises(ValueError, match=r"^k must be an integer, got 2\.5$"):
            m.sweep(tiny_dataset, self.base(), "layers", values=(2, 3, 2.5))
        assert calls == []

    def test_layers_axis_takes_numpy_integers(self, tiny_dataset):
        cells = m.sweep(tiny_dataset, self.base(), "layers", values=(np.int64(2),))
        assert [(c.label, c.config.model.k) for c in cells] == [("K=2", 2)]

    def test_default_beta_values_are_the_sweep_grid(self, tiny_dataset, monkeypatch):
        # only check the labels; running 5 cells x CV is acceptance-scale
        monkeypatch.setattr(ifmixup.training, "cross_validate", lambda ds, cfg, log_fn: None)
        cells = m.sweep(tiny_dataset, self.base(), "beta")
        assert [c.label for c in cells] == [
            "beta(1,1)", "beta(2,2)", "beta(5,1)", "beta(10,1)", "beta(20,1)"
        ]
        assert [c.config.augment.beta for c in cells] == list(m.SWEEP_BETAS)

    def test_unknown_axis(self, tiny_dataset):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            m.sweep(tiny_dataset, self.base(), "dropout")


class TestSerialization:
    def test_metrics_csv_round_trip(self, tmp_path):
        log = m.MetricsLog(train_loss=[1.5, 0.25, 1 / 3], val_acc=[0.5, 0.75, 0.8])
        path = str(tmp_path / "metrics.csv")
        m.metrics_to_csv(log, path)
        back = m.load_metrics_csv(path)
        assert back.train_loss == log.train_loss  # repr round trip is exact
        assert back.val_acc == log.val_acc
        header = Path(path).read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_acc"

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2).map(
                lambda pair: pair if pair[0] > 0 else tuple(map(np.float64, pair))
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_metrics_csv_round_trip_bit_for_bit(self, epochs):
        """Finite values, Python or numpy floats, read back with every bit."""
        log = m.MetricsLog(train_loss=[a for a, _ in epochs], val_acc=[b for _, b in epochs])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "metrics.csv")
            m.metrics_to_csv(log, path)
            back = m.load_metrics_csv(path)
        assert [float(v).hex() for v in log.train_loss] == [v.hex() for v in back.train_loss]
        assert [float(v).hex() for v in log.val_acc] == [v.hex() for v in back.val_acc]

    def test_load_rejects_wrong_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="expected columns"):
            m.load_metrics_csv(str(path))

    def test_summary_json(self, tmp_path):
        log = m.MetricsLog(fold_acc=[0.5, 0.6], mean=0.55, std=0.05)
        cfg = m.TrainConfig(epochs=1)
        path = str(tmp_path / "summary.json")
        m.summary_to_json(log, cfg, path)
        doc = json.loads(Path(path).read_text())
        assert doc["fold_acc"] == [0.5, 0.6]
        assert doc["mean"] == 0.55 and doc["std"] == 0.05
        assert doc["config"]["epochs"] == 1

    def test_config_dict_round_trip(self):
        cfg = m.TrainConfig(
            model=m.ModelConfig(arch="gin", k=3, hidden=32, dropout=0.5),
            augment=m.AugmentSpec(kind="if_mixup_shuffled", beta=m.BetaParams(20, 1)),
            epochs=7,
            seed=11,
        )
        back = m.train_config_from_dict(m.train_config_to_dict(cfg))
        assert back == cfg

    def test_config_from_dict_accepts_beta_list(self):
        cfg = m.train_config_from_dict(
            {"augment": {"kind": "if_mixup", "beta": [2, 2]}, "epochs": 1}
        )
        assert cfg.augment.beta == m.BetaParams(2.0, 2.0)

    def test_config_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="bad training config"):
            m.train_config_from_dict({"momentum": 0.9})

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"model": 5}, "bad training config: model must be an object, got 5"),
            ({"augment": [1]}, r"bad training config: augment must be an object, got \[1\]"),
            ({"epochs": 1.5}, r"epochs must be an integer, got 1\.5"),
            ({"batch_size": 2.5}, r"batch_size must be an integer, got 2\.5"),
            ({"model": {"k": 2.0}}, r"k must be an integer, got 2\.0"),
        ],
        ids=["model-number", "augment-list", "float-epochs", "float-batch-size", "float-k"],
    )
    def test_config_from_dict_rejects_malformed_fields(self, doc, message):
        with pytest.raises(ValueError, match=message):
            m.train_config_from_dict(doc)

    @pytest.mark.parametrize("beta", [[20], 5, {"alpha": 1}], ids=["one-entry", "number", "no-beta-key"])
    def test_config_from_dict_rejects_malformed_beta(self, beta):
        with pytest.raises(ValueError, match="bad training config: augment.beta"):
            m.train_config_from_dict({"augment": {"kind": "if_mixup", "beta": beta}})
