"""Optimizer, schedules, epoch construction, cross-validation, serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

import ifmixup as m
from ifmixup.training import EpochSample, batch_gradients, build_epoch_stream

from conftest import rand_one_hot_graph


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

    def test_deterministic_given_rng(self, tiny_dataset):
        cfg = self.spec("if_mixup", beta=m.BetaParams(2, 2))
        s1 = build_epoch_stream(tiny_dataset.items, cfg, np.random.default_rng(8))
        s2 = build_epoch_stream(tiny_dataset.items, cfg, np.random.default_rng(8))
        for a, b in zip(s1, s2):
            assert np.array_equal(a.g.v, b.g.v) and np.array_equal(a.g.e, b.g.e)
            assert np.array_equal(a.y.p, b.y.p)


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


class TestEvaluate:
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

    def test_default_beta_values_are_the_sweep_grid(self, tiny_dataset):
        # only check the labels; running 5 cells x CV is acceptance-scale
        from ifmixup.training import _default_beta_values

        assert _default_beta_values() == m.SWEEP_BETAS

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
        header = open(path).readline().strip()
        assert header == "epoch,train_loss,val_acc"

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
        doc = json.loads(open(path).read())
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
