"""Training harness: AdamW, halving LR schedule, augmented epoch streams,
stratified 10-fold cross-validation with repeated runs, and sweeps.

Each epoch rebuilds its training stream according to the configured
augmentation: ifMixup pairs a fresh random permutation of the training set
against itself shifted by one, draws one lambda per pair, and the mixed
samples replace the originals for that epoch; the drop variants perturb
every graph freshly; the readout/manifold mixing variants defer the actual
interpolation to the forward pass so gradients flow through both sources.
One rule builds every sample's head input: a 0/1 selector over the K layers
(the manifold-mix layer, or what the readout keeps) masks the mix of the two
sides' pooled rows at each layer.

Each training step is one packed forward and backward over the whole batch
(two forwards when it holds deferred pairs: all A sides, then all B sides),
and evaluation packs the graphs in chunks of at most ``EVAL_ROWS`` node
rows.

Everything is deterministic given the config seed. Folds and runs use
derived rng substreams seeded by (seed, run, fold), so they can be computed
in any order (or in parallel) with identical results.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ._schema import check_fields, from_dict, rule
from .augment import AugmentSpec
from .autodiff import Tensor, concat, constant
from .graphs import (
    GraphDataset,
    LabelDistribution,
    NodeFeaturedGraph,
    permute_nodes,
    validate_graph,
)
from .mixing import SWEEP_BETAS, BetaParams, mix_items, mix_labels, sample_lambda
from .models import (
    ModelConfig,
    ModelParams,
    apply_dropout,
    cross_entropy_t,
    embed_batch,
    head_logits,
    init_params,
    wrap_params,
)
from .augment import drop_edge, drop_node
from .recovery import sample_decodable_lambda

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LR_HALVING_PERIOD = 50
# Node rows per packed forward in evaluate: bounds the activations on its tape.
EVAL_ROWS = 2048

# The benchmark search grid, exposed for sweep tooling.
HYPERPARAMETER_GRID: dict[str, tuple] = {
    "lr0": (0.01, 0.0005),
    "hidden": (64, 128),
    "batch_size": (32, 128),
    "dropout": (0.0, 0.5),
    "drop_ratio": (0.2, 0.4),
    "k": (5, 8),
    "beta": (BetaParams(1.0, 1.0), BetaParams(2.0, 2.0), BetaParams(20.0, 1.0)),
}

DEPTH_SWEEP = (2, 3, 5, 8)


@dataclass
class TrainConfig:
    """One experiment: architecture, augmentation, and optimization knobs."""

    model: ModelConfig = rule(ModelConfig, ModelConfig)
    augment: AugmentSpec = rule(AugmentSpec, AugmentSpec)
    lr0: float = rule(0.01, float, "(0, inf)")
    batch_size: int = rule(32, int, "[1, inf)")
    epochs: int = rule(350, int, "[1, inf)")
    folds: int = rule(10, int, "[1, inf)")
    runs: int = rule(3, int, "[1, inf)")
    seed: int = rule(0, int, "[0, inf)")
    weight_decay: float = rule(0.01, float, "[0, inf)")
    audit_mixes: bool = rule(False, bool)  # resample-guard lambda and validate each mix

    __post_init__ = check_fields


@dataclass
class MetricsLog:
    """Per-epoch curves for one training, or aggregates for a full CV."""

    train_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    fold_acc: list[float] = field(default_factory=list)  # run-major, runs x folds
    mean: float | None = None
    std: float | None = None


def derive_rng(seed: int, run: int, fold: int) -> np.random.Generator:
    """Independent substream for one (run, fold) cell."""
    return np.random.default_rng([seed, run, fold])


def lr_at_epoch(lr0: float, epoch: int) -> float:
    """Learning rate halved every 50 epochs: lr0 * 0.5^floor(epoch/50)."""
    if epoch < 0:
        raise ValueError(f"epoch must be nonnegative, got {epoch}")
    return lr0 * 0.5 ** (epoch // LR_HALVING_PERIOD)


@dataclass(eq=False)
class AdamWState:
    """First/second moment accumulators and the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamWState":
        return cls(
            m={k: np.zeros_like(a) for k, a in params.tensors.items()},
            v={k: np.zeros_like(a) for k, a in params.tensors.items()},
        )


def adamw_step(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamWState,
    lr: float,
    weight_decay: float,
) -> tuple[dict[str, np.ndarray], AdamWState]:
    """One decoupled-weight-decay Adam update, in place.

    w <- w - lr * m_hat / (sqrt(v_hat) + 1e-8) - lr * wd * w, with
    bias-corrected moments and beta1=0.9, beta2=0.999.
    """
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name, w in tensors.items():
        g = grads[name]
        if g.shape != w.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {w.shape} for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        # both terms read the pre-update value: one simultaneous update
        w -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS) + lr * weight_decay * w
    return tensors, state


# -- epoch construction ----------------------------------------------------------


@dataclass(eq=False)
class EpochSample:
    """One training item: either a graph or a deferred-mix pair."""

    y: LabelDistribution
    g: NodeFeaturedGraph | None = None
    pair: tuple[NodeFeaturedGraph, NodeFeaturedGraph] | None = None
    lam: float | None = None
    layer: int | None = None  # manifold-mix layer (1-based); None = readout


def _draw_pairs(
    n: int, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """Every index once as the A side, partner shifted by one in a fresh permutation."""
    p = rng.permutation(n)
    return [(int(p[i]), int(p[(i + 1) % n])) for i in range(n)]


def build_epoch_stream(
    items: list[tuple[NodeFeaturedGraph, LabelDistribution]],
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> list[EpochSample]:
    """The epoch's training samples under the configured augmentation."""
    kind = cfg.augment.kind
    n = len(items)

    if kind in ("none", "drop_edge", "drop_node"):
        order = rng.permutation(n)
        out = []
        for i in order:
            g, y = items[int(i)]
            if kind == "drop_edge":
                g = drop_edge(g, cfg.augment.ratio, rng)
            elif kind == "drop_node":
                g = drop_node(g, cfg.augment.ratio, rng)
            out.append(EpochSample(y=y, g=g))
        return out

    if kind in ("if_mixup", "if_mixup_shuffled"):
        draw = sample_decodable_lambda if cfg.audit_mixes else sample_lambda
        out = []
        for ia, ib in _draw_pairs(n, rng):
            ga, ya = items[ia]
            gb, yb = items[ib]
            lam = draw(cfg.augment.beta, rng)
            if kind == "if_mixup_shuffled":
                gb = permute_nodes(gb, rng.permutation(gb.n))
            mixed = mix_items((ga, ya), (gb, yb), lam)
            if cfg.audit_mixes:
                problems = validate_graph(mixed.graph)
                if problems:
                    raise RuntimeError(f"mixed sample failed validation: {problems[0]}")
            out.append(EpochSample(y=mixed.label, g=mixed.graph))
        return out

    if kind in ("mixup_graph", "manifold_mixup"):
        out = []
        for ia, ib in _draw_pairs(n, rng):
            ga, ya = items[ia]
            gb, yb = items[ib]
            lam = sample_lambda(cfg.augment.beta, rng)
            layer = None
            if kind == "manifold_mixup":
                layer = 1 + int(rng.integers(cfg.model.k))
            out.append(
                EpochSample(
                    y=mix_labels(ya, yb, lam), pair=(ga, gb), lam=lam, layer=layer
                )
            )
        return out

    raise ValueError(f"unknown augmentation kind {kind!r}")


# -- gradients over heterogeneous batches ------------------------------------------


def _mixed_rows(
    batch: list[EpochSample], pooled_a: list[Tensor], pooled_b: list[Tensor], cfg: ModelConfig
) -> Tensor:
    """Each sample's head input, from one 0/1 selector over the K layers.

    A manifold mix at layer k selects layer k. A readout mix selects what
    the readout keeps: every layer for GIN, the last for GCN; a plain sample
    is the pair (g, g) at lam = 1. Layer l gives
    ``lam * pooled_a[l] + (1 - lam) * pooled_b[l]`` masked by selector column
    l. GIN concatenates the masked parts into their blocks, as
    ``embed_batch`` builds ``h_graph``; GCN sums them over the layers that
    any sample selects. The pooled lists come from ``embed_batch``, row i
    for sample i.
    """
    lam = np.array([[1.0 if s.pair is None else float(s.lam)] for s in batch])
    select = np.zeros((len(batch), cfg.k))
    readout = slice(None) if cfg.arch == "gin" else slice(cfg.k - 1, None)
    for row, s in zip(select, batch):
        row[readout if s.layer is None else s.layer - 1] = 1.0
    parts = [
        (pooled_a[i] * constant(lam) + pooled_b[i] * constant(1.0 - lam))
        * constant(select[:, i : i + 1])
        for i in range(cfg.k)
        if cfg.arch == "gin" or select[:, i].any()
    ]
    return concat(parts, axis=1) if cfg.arch == "gin" else sum(parts[1:], parts[0])


def batch_gradients(
    batch: list[EpochSample],
    params: ModelParams,
    rng: np.random.Generator,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean loss over a heterogeneous batch and its exact gradients.

    The batch runs on one tape: one packed forward over the samples' graphs
    (the A sides of deferred pairs), plus one over the B sides when any
    sample is a deferred pair (a plain sample in such a batch runs again as
    its own B side). ``_mixed_rows`` then builds every sample's head input
    by one rule, so each sample's loss is the one it has alone. The source
    passes run without dropout; one dropout draw of shape (B x C) masks the
    logits after the dense layer, row i for sample i, as B draws of (1 x C)
    would. Only a deferred pair may carry a manifold-mix layer.
    """
    if not batch:
        raise ValueError("gradients need a nonempty batch")
    cfg = params.config
    for i, sample in enumerate(batch):
        if sample.layer is None:
            continue
        if sample.pair is None:
            raise ValueError(f"sample {i} is a plain graph but carries manifold-mix layer {sample.layer}")
        if not 1 <= sample.layer <= cfg.k:
            raise ValueError(f"sample {i}: manifold-mix layer {sample.layer} outside 1..{cfg.k}")
    wrapped = wrap_params(params, requires_grad=True)
    side_a = embed_batch([s.g if s.pair is None else s.pair[0] for s in batch], wrapped, params)
    if all(s.pair is None for s in batch):
        h = side_a[2]
    else:
        side_b = embed_batch([s.g if s.pair is None else s.pair[1] for s in batch], wrapped, params)
        h = _mixed_rows(batch, side_a[1], side_b[1], cfg)
    logits = apply_dropout(head_logits(h, wrapped), cfg.dropout, training=True, rng=rng)
    loss = cross_entropy_t([s.y for s in batch], logits).scale(1.0 / len(batch))
    loss.backward()
    grads = {
        name: (w.grad if w.grad is not None else np.zeros_like(w.value))
        for name, w in wrapped.items()
    }
    return float(loss.value), grads


def model_gradients(
    batch: list[tuple[NodeFeaturedGraph, LabelDistribution]],
    params: ModelParams,
    rng: np.random.Generator | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean soft-CE loss over plain (graph, label) pairs and its exact gradient.

    The batch runs as one packed forward and backward (see
    ``batch_gradients``), so results are bit-reproducible for a fixed rng
    state. Parameters that never touch the loss (dead ReLU paths) get zero
    arrays.
    """
    return batch_gradients([EpochSample(y=y, g=g) for g, y in batch], params, rng)


# -- training and evaluation --------------------------------------------------------


class NonFiniteLossError(FloatingPointError):
    """A training step produced a loss that is NaN or infinite."""

    def __init__(self, loss: float, epoch: int, batch: int) -> None:
        super().__init__(f"non-finite training loss {loss} at epoch {epoch}, batch {batch}")
        self.loss, self.epoch, self.batch = loss, epoch, batch


def evaluate(
    params: ModelParams, items: list[tuple[NodeFeaturedGraph, LabelDistribution]]
) -> float:
    """Fraction of items whose predicted class matches the argmax label.

    The prediction is the first maximum of the head's logits, which is the
    class of highest probability without computing any probability. Graphs
    run through ``embed_batch`` in chunks of at most ``EVAL_ROWS`` node rows
    (a larger graph runs alone), taken in order of node count so that each
    chunk holds graphs of similar size. Ties break toward the lower class
    index on both sides (first maximum).
    """
    if not items:
        raise ValueError("cannot evaluate on an empty set")
    wrapped = wrap_params(params, requires_grad=False)
    chunks, rows = [[]], 0
    for item in sorted(items, key=lambda item: item[0].n):
        if chunks[-1] and rows + item[0].n > EVAL_ROWS:
            chunks.append([])
            rows = 0
        chunks[-1].append(item)
        rows += item[0].n
    hits = 0
    for chunk in chunks:
        h_graph = embed_batch([g for g, _ in chunk], wrapped, params)[2]
        logits = head_logits(h_graph, wrapped).value
        hits += sum(int(np.argmax(row)) == y.argmax() for row, (_, y) in zip(logits, chunk))
    return hits / len(items)


def train_single(
    train_items: list[tuple[NodeFeaturedGraph, LabelDistribution]],
    val_items: list[tuple[NodeFeaturedGraph, LabelDistribution]],
    cfg: TrainConfig,
    rng: np.random.Generator,
    log_fn=None,
) -> tuple[ModelParams, MetricsLog]:
    """Train on one split; logs mean train loss and val accuracy per epoch."""
    if not train_items or not val_items:
        raise ValueError("train and validation splits must be nonempty")
    for split, items in (("train", train_items), ("validation", val_items)):
        for i, (g, _) in enumerate(items):
            if not (np.isfinite(g.v).all() and np.isfinite(g.e).all()):
                raise ValueError(f"{split} item {i} has non-finite features or edge weights")
    d = train_items[0][0].d
    c = len(train_items[0][1].p)
    params = init_params(cfg.model, d, c, rng)
    state = AdamWState.for_params(params)
    log = MetricsLog()
    for epoch in range(cfg.epochs):
        stream = build_epoch_stream(train_items, cfg, rng)
        lr = lr_at_epoch(cfg.lr0, epoch)
        loss_sum = 0.0
        for start in range(0, len(stream), cfg.batch_size):
            batch = stream[start : start + cfg.batch_size]
            loss, grads = batch_gradients(batch, params, rng)
            if not np.isfinite(loss):
                raise NonFiniteLossError(loss, epoch, start // cfg.batch_size)
            adamw_step(params.tensors, grads, state, lr, cfg.weight_decay)
            loss_sum += loss * len(batch)
        train_loss = loss_sum / len(stream)
        val_acc = evaluate(params, val_items)
        log.train_loss.append(train_loss)
        log.val_acc.append(val_acc)
        if log_fn is not None:
            log_fn(epoch, lr, train_loss, val_acc)
    return params, log


def stratified_folds(
    class_indices: list[int], k: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Class-proportional partition into k folds, sizes differing by at most 1.

    Indices of each class are shuffled and dealt round-robin with a counter
    that runs on across classes, so both the per-class and the overall fold
    sizes stay balanced.
    """
    if k < 1:
        raise ValueError(f"need at least one fold, got k={k}")
    labels = np.asarray(class_indices)
    if labels.size < k:
        raise ValueError(f"cannot make {k} folds from {labels.size} samples")
    folds: list[list[int]] = [[] for _ in range(k)]
    counter = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        for i in idx:
            folds[counter % k].append(int(i))
            counter += 1
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def cross_validate(ds: GraphDataset, cfg: TrainConfig, log_fn=None) -> MetricsLog:
    """Benchmark protocol: `runs` repeats of k-fold CV, mean +- std over runs.

    Fold assignment is stratified and fixed by the config seed; each
    (run, fold) cell trains from its own derived rng substream. The reported
    mean and standard deviation (population) are over the runs' fold-averaged
    accuracies.
    """
    if len(ds) < cfg.folds:
        raise ValueError(f"dataset of {len(ds)} graphs cannot fill {cfg.folds} folds")
    class_indices = [y.argmax() for y in ds.labels()]
    folds = stratified_folds(class_indices, cfg.folds, np.random.default_rng(cfg.seed))
    log = MetricsLog()
    run_means = []
    for run in range(cfg.runs):
        accs = []
        for fold_idx, fold in enumerate(folds):
            val_items = [ds.items[i] for i in fold]
            train_items = [
                ds.items[i] for other in folds if other is not fold for i in other
            ]
            rng = derive_rng(cfg.seed, run, fold_idx)
            _, fold_log = train_single(train_items, val_items, cfg, rng)
            acc = fold_log.val_acc[-1]
            accs.append(acc)
            log.fold_acc.append(acc)
            if log_fn is not None:
                log_fn(run, fold_idx, acc)
        run_means.append(float(np.mean(accs)))
    log.mean = float(np.mean(run_means))
    log.std = float(np.std(run_means))
    return log


# -- sweeps -----------------------------------------------------------------------


@dataclass(eq=False)
class SweepCell:
    """One setting of a sweep with its cross-validation aggregate."""

    label: str
    config: TrainConfig
    metrics: MetricsLog


def sweep(
    ds: GraphDataset,
    base: TrainConfig,
    axis: str,
    values: tuple | None = None,
    log_fn=None,
) -> list[SweepCell]:
    """Cross-validate along one axis: Beta parameters or model depth."""
    cells = []
    if axis == "beta":
        for params in values if values is not None else SWEEP_BETAS:
            cfg = replace(
                base, augment=replace(base.augment, kind="if_mixup", beta=params)
            )
            label = f"beta({params.alpha:g},{params.beta:g})"
            cells.append(SweepCell(label, cfg, cross_validate(ds, cfg, log_fn)))
    elif axis == "layers":
        for k in values if values is not None else DEPTH_SWEEP:
            cfg = replace(base, model=replace(base.model, k=int(k)))
            cells.append(SweepCell(f"K={k}", cfg, cross_validate(ds, cfg, log_fn)))
    else:
        raise ValueError(f"unknown sweep axis {axis!r}; expected 'beta' or 'layers'")
    return cells


# -- serialization -------------------------------------------------------------------


def metrics_to_csv(log: MetricsLog, path: str) -> None:
    """Per-epoch rows: epoch, train_loss, val_acc."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_acc"])
        for epoch, (loss, acc) in enumerate(zip(log.train_loss, log.val_acc)):
            writer.writerow([epoch, repr(loss), repr(acc)])


def load_metrics_csv(path: str) -> MetricsLog:
    log = MetricsLog()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {
            "epoch",
            "train_loss",
            "val_acc",
        } <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected columns epoch, train_loss, val_acc")
        for row in reader:
            log.train_loss.append(float(row["train_loss"]))
            log.val_acc.append(float(row["val_acc"]))
    return log


def summary_to_json(log: MetricsLog, cfg: TrainConfig, path: str) -> None:
    """Aggregate document: per-fold accuracies, mean, std, config echo."""
    doc = {
        "fold_acc": log.fold_acc,
        "mean": log.mean,
        "std": log.std,
        "config": train_config_to_dict(cfg),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def train_config_to_dict(cfg: TrainConfig) -> dict:
    return asdict(cfg)


def train_config_from_dict(doc: dict) -> TrainConfig:
    """Build a TrainConfig from a parsed JSON document; unknown keys rejected."""
    try:
        return from_dict(TrainConfig, doc)
    except ValueError as exc:
        raise ValueError(f"bad training config: {exc}") from None
