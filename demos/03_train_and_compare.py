#!/usr/bin/env python3
# Train the same GIN twice on the bundled synthetic benchmark - once plain,
# once on mixed samples - and watch the regularization effect: the mixed
# run keeps a higher train loss without giving up validation accuracy.
# Takes about 13 s.

import os

import numpy as np

import ifmixup as m

parsed = m.make_synthetic_molecules(num_graphs=120, seed=7)
ds = m.encode_node_features(parsed, "one_hot_labels")
print(m.dataset_stats(ds).to_text())

# hold out one stratified fold for validation, train on the rest
class_indices = [y.argmax() for y in ds.labels()]
folds = m.stratified_folds(class_indices, 10, np.random.default_rng(0))
val_items = [ds.items[i] for i in folds[0]]
train_items = [ds.items[i] for fold in folds[1:] for i in fold]
print(f"\ntrain {len(train_items)} / validate {len(val_items)}")

EPOCHS = 60
logs = {}
for kind, augment in (
    ("baseline", m.AugmentSpec(kind="none")),
    ("if_mixup", m.AugmentSpec(kind="if_mixup", beta=m.BetaParams(20, 1))),
):
    cfg = m.TrainConfig(
        model=m.ModelConfig(arch="gin", k=5, hidden=64),
        augment=augment,
        epochs=EPOCHS,
        batch_size=32,
        lr0=0.01,
        seed=0,
    )
    # identical derived rng, so the two runs differ only in the augmentation
    _, log = m.train_single(train_items, val_items, cfg, m.derive_rng(0, 0, 0))
    logs[kind] = log
    print(f"{kind:<9} final loss {log.train_loss[-1]:.4f}  val acc {log.val_acc[-1]:.3f}")

print(
    f"\nbaseline loss collapses to {logs['baseline'].train_loss[-1]:.2e} (memorized)"
    f" while the mixed run holds at {logs['if_mixup'].train_loss[-1]:.2e}:"
)
print("interpolated samples cannot be memorized, so the loss stays up")

out_base = os.path.join(os.path.dirname(__file__), "out", "loss_curves")
os.makedirs(os.path.dirname(out_base), exist_ok=True)
csv_path, svg_path = m.emit_plot_data("loss_curve", logs, out_base)
print("\nwrote", csv_path)
print("wrote", svg_path)
