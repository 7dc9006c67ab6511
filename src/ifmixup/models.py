"""Weighted-edge GCN and GIN classifiers with exact reverse-mode gradients.

Both layer types consume the dense edge-weight matrix directly, so mixed
graphs with fractional edges flow through unchanged:

    GCN   h_i' = ReLU( W . sum_{j in N(i) u {i}} [e(i,j) / sqrt(dh_j dh_i)] h_j )
          with dh_i = 1 + sum_j e(i,j) and the self-term weight e(i,i) taken
          as 1; optional residual connection added after the activation
          (linear projection when the widths differ).

    GIN   h_i' = MLP( (1 + eps) h_i + sum_j e(i,j) h_j )
          with a trainable eps per layer and a plain Linear/ReLU/.../Linear
          MLP (no activation after the last linear).

Readout is the pooled (sum or mean) final layer for GCN and the
concatenation of every layer's pooled embedding for GIN; a dense head with
dropout on its logits produces class logits. The loss is soft-label
cross-entropy on their log-softmax, linear in the target, so mixed labels
plug in directly; ``forward_classify`` reports probabilities as its exp.

Forward passes are built on the :mod:`.autodiff` tape and always run on a
packed batch (``pack_graphs``), the disjoint union of its graphs: one
matrix of node rows, so the dense maps are one GEMM per batch, plus each
graph's aggregation matrix zero-padded into a stack of graphs of similar
size for ``autodiff.segment_matmul``. Readout is a constant (B x N) matrix
on the node rows. ``embed_batch`` is that forward, the one every caller
runs: ``forward_trace`` on a batch of one, and ``batch_gradients`` and
``evaluate`` in :mod:`.training` on whole batches, each followed by
``head_logits``. The exact gradient of the batch-mean loss for every
parameter, including the GIN eps scalars, comes from ``batch_gradients``
and ``model_gradients``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from ._schema import check_fields, from_dict, rule
from .autodiff import Tensor, concat, constant, parameter, segment_matmul
from .graphs import LabelDistribution, NodeFeaturedGraph

LOG_CLAMP = 1e-12

CHECKPOINT_FORMAT = "ifmixup-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    """Architecture hyperparameters shared by init, forward and training."""

    arch: str = rule("gcn", str, ("gcn", "gin"))
    k: int = rule(2, int, "[1, inf)")  # message-passing layers
    hidden: int = rule(16, int, "[1, inf)")
    dropout: float = rule(0.0, float, "[0, 1)")  # applied to the dense head's logits, training only
    readout: str = rule("sum", str, ("sum", "mean"))
    gcn_skip: bool = rule(False, bool)
    gin_mlp_depth: int = rule(2, int, "[1, inf)")
    gin_mlp_bias: bool = rule(True, bool)

    __post_init__ = check_fields

    def readout_dim(self) -> int:
        """Width of the graph representation fed to the classifier head."""
        return self.k * self.hidden if self.arch == "gin" else self.hidden


@dataclass(eq=False)
class ModelParams:
    """All trainable arrays, keyed by name, plus the shapes they assume."""

    config: ModelConfig
    feature_dim: int
    num_classes: int
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.config,
            self.feature_dim,
            self.num_classes,
            {k: v.copy() for k, v in self.tensors.items()},
        )


@dataclass(eq=False)
class ForwardTrace:
    """Everything a forward pass produces, as plain arrays."""

    layer_embeddings: list[np.ndarray]  # h^1 .. h^K, each n x hidden
    pooled: list[np.ndarray]  # per-layer pooled vectors
    h_graph: np.ndarray  # graph representation fed to the head
    logits: np.ndarray
    probs: np.ndarray


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _bias(rng: np.random.Generator, fan_in: int, size: int) -> np.ndarray:
    # Uniform(-1/sqrt(fan_in), +): exact zeros would park dead ReLU rows
    # precisely on the next layer's kink, making gradients one-sided there.
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=size)


def init_params(
    config: ModelConfig,
    feature_dim: int,
    num_classes: int,
    rng: np.random.Generator,
) -> ModelParams:
    """Glorot-uniform weights, fan-in-scaled uniform biases, zero GIN eps."""
    if feature_dim < 1 or num_classes < 1:
        raise ValueError("feature_dim and num_classes must be positive")
    t: dict[str, np.ndarray] = {}
    f_in = feature_dim
    for layer in range(config.k):
        if config.arch == "gcn":
            t[f"layer{layer}.W"] = _glorot(rng, f_in, config.hidden)
            if config.gcn_skip and f_in != config.hidden:
                t[f"layer{layer}.P"] = _glorot(rng, f_in, config.hidden)
        else:
            t[f"layer{layer}.eps"] = np.zeros(1)
            m_in = f_in
            for m in range(config.gin_mlp_depth):
                t[f"layer{layer}.mlp{m}.W"] = _glorot(rng, m_in, config.hidden)
                if config.gin_mlp_bias:
                    t[f"layer{layer}.mlp{m}.b"] = _bias(rng, m_in, config.hidden)
                m_in = config.hidden
        f_in = config.hidden
    t["head.W"] = _glorot(rng, config.readout_dim(), num_classes)
    t["head.b"] = _bias(rng, config.readout_dim(), num_classes)
    return ModelParams(config, feature_dim, num_classes, t)


def wrap_params(params: ModelParams, requires_grad: bool = True) -> dict[str, Tensor]:
    """Put every parameter array on the tape (or off it, for inference)."""
    make = parameter if requires_grad else constant
    return {name: make(arr) for name, arr in params.tensors.items()}


# -- packed batches -----------------------------------------------------------


@dataclass(eq=False)
class PackedGraphs:
    """A batch of graphs as one disjoint union.

    The node rows of all graphs are stacked graph after graph, so each dense
    map (GCN ``W``, the GIN MLP) is one GEMM over the whole batch, and there
    are no padding rows for a bias to leak into. Only aggregation over
    neighbours keeps the graphs apart: each graph's aggregation matrix (its
    GCN normalization, or the raw edge weights for GIN) sits zero-padded in
    one of the ``edges`` stacks. A stack holds the largest graph not yet
    placed and every remaining graph at least half its size, padded to the
    largest, so padding at most quadruples a graph's aggregation work and
    memory however widely the graph sizes spread.
    """

    v: np.ndarray  # (N, d) node features, N the sum of the graph sizes
    edges: list[np.ndarray]  # (B_k, n_k, n_k) aggregation matrices, n_k falling
    rows: np.ndarray  # (N,) position of each node row among the stacks' padded rows
    pool: np.ndarray  # (B, N) readout weights: 1 for sum, 1/n_b for mean

    def aggregate(self, h: Tensor) -> Tensor:
        """Each graph's aggregation matrix applied to its own node rows."""
        return segment_matmul(self.edges, h, self.rows)

    def readout(self, h: Tensor) -> Tensor:
        """Per-graph sum or mean of the node rows: one (B x width) row each."""
        return constant(self.pool) @ h


def _gcn_norm(e: np.ndarray) -> np.ndarray:
    """The symmetric normalization matrix (e + I) / sqrt(dh_i dh_j)."""
    d_hat = 1.0 + e.sum(axis=1)
    a_hat = e + np.eye(e.shape[0])
    inv_sqrt = 1.0 / np.sqrt(d_hat)
    return a_hat * np.outer(inv_sqrt, inv_sqrt)


def pack_graphs(graphs: list[NodeFeaturedGraph], config: ModelConfig) -> PackedGraphs:
    """Pack nonempty graphs of one feature width for ``config``'s layers and readout."""
    sizes = np.array([g.n for g in graphs])
    count, total = len(graphs), int(sizes.sum())
    starts = np.cumsum(sizes) - sizes
    rows = np.empty(total, dtype=np.intp)
    edges, padded_start = [], 0
    order = np.argsort(-sizes, kind="stable")
    while order.size:
        n = int(sizes[order[0]])
        group, order = np.split(order, [np.count_nonzero(2 * sizes[order] >= n)])
        stack = np.zeros((len(group), n, n))
        for slot, b in enumerate(group):
            g = graphs[b]
            stack[slot, : g.n, : g.n] = _gcn_norm(g.e) if config.arch == "gcn" else g.e
            rows[starts[b] : starts[b] + g.n] = padded_start + slot * n + np.arange(g.n)
        edges.append(stack)
        padded_start += len(group) * n
    graph_of_row = np.repeat(np.arange(count), sizes)
    weights = 1.0 / sizes if config.readout == "mean" else np.ones(count)
    pool = np.zeros((count, total))
    pool[graph_of_row, np.arange(total)] = weights[graph_of_row]
    return PackedGraphs(np.concatenate([g.v for g in graphs]), edges, rows, pool)


# -- layers (tensor level) ---------------------------------------------------


def gcn_layer_t(
    h: Tensor, packed: PackedGraphs, w: Tensor, skip_proj: Tensor | None, skip: bool
) -> Tensor:
    out = (packed.aggregate(h) @ w).relu()
    if skip:
        out = out + (h @ skip_proj if skip_proj is not None else h)
    return out


def gin_layer_t(
    h: Tensor, packed: PackedGraphs, eps: Tensor, mlp: list[tuple[Tensor, Tensor | None]]
) -> Tensor:
    one_plus_eps = constant(np.ones(1)) + eps
    agg = h * one_plus_eps + packed.aggregate(h)
    out = agg
    for m, (w, b) in enumerate(mlp):
        out = out @ w
        if b is not None:
            out = out + b
        if m + 1 < len(mlp):
            out = out.relu()
    return out


@dataclass(eq=False)
class TensorTrace:
    """Forward intermediates kept on the tape, for losses built downstream.

    Rows follow the graphs of the batch: ``embeddings`` holds the packed
    node rows of each layer, the rest one row per graph.
    """

    embeddings: list[Tensor]
    pooled: list[Tensor]
    h_graph: Tensor
    logits: Tensor


def embed_batch(
    graphs: list[NodeFeaturedGraph], wrapped: dict[str, Tensor], params: ModelParams
) -> tuple[list[Tensor], list[Tensor], Tensor]:
    """The layer stack on a packed batch: (embeddings, pooled, h_graph)."""
    cfg = params.config
    if not graphs:
        raise ValueError("cannot embed an empty batch of graphs")
    for g in graphs:
        if g.n == 0:
            raise ValueError("cannot classify an empty graph")
        if g.d != params.feature_dim:
            raise ValueError(f"feature dim {g.d} does not match params ({params.feature_dim})")
    packed = pack_graphs(graphs, cfg)

    h = constant(packed.v)
    embeddings: list[Tensor] = []
    for layer in range(cfg.k):
        if cfg.arch == "gcn":
            h = gcn_layer_t(
                h,
                packed,
                wrapped[f"layer{layer}.W"],
                wrapped.get(f"layer{layer}.P"),
                cfg.gcn_skip,
            )
        else:
            mlp = [
                (
                    wrapped[f"layer{layer}.mlp{m}.W"],
                    wrapped.get(f"layer{layer}.mlp{m}.b"),
                )
                for m in range(cfg.gin_mlp_depth)
            ]
            h = gin_layer_t(h, packed, wrapped[f"layer{layer}.eps"], mlp)
        embeddings.append(h)

    pooled = [packed.readout(e) for e in embeddings]
    h_graph = concat(pooled, axis=1) if cfg.arch == "gin" else pooled[-1]
    return embeddings, pooled, h_graph


def forward_trace(
    g: NodeFeaturedGraph,
    wrapped: dict[str, Tensor],
    params: ModelParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> TensorTrace:
    """Run the configured stack on one graph: the packed forward on a batch of one."""
    embeddings, pooled, h_graph = embed_batch([g], wrapped, params)
    logits = apply_dropout(head_logits(h_graph, wrapped), params.config.dropout, training, rng)
    return TensorTrace(embeddings, pooled, h_graph, logits)


def head_logits(h_graph: Tensor, wrapped: dict[str, Tensor]) -> Tensor:
    """The dense classifier layer on (B x readout_dim) representations."""
    return h_graph @ wrapped["head.W"] + wrapped["head.b"]


def head_logits_layer_block(
    h_pooled: Tensor, wrapped: dict[str, Tensor], layer: int, hidden: int
) -> Tensor:
    """Classifier restricted to one layer's block of head rows.

    For the GIN concatenated readout the head weight splits into K row
    blocks, one per layer; routing a single layer's pooled vector through
    its block is exactly the head's response to that layer's representation.
    """
    block = wrapped["head.W"].slice_rows(layer * hidden, (layer + 1) * hidden)
    return h_pooled @ block + wrapped["head.b"]


def apply_dropout(
    logits: Tensor, rate: float, training: bool, rng: np.random.Generator | None
) -> Tensor:
    """Inverted dropout on the head's logits; identity outside training."""
    if not training or rate == 0.0:
        return logits
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    mask = (rng.random(logits.value.shape) >= rate) / (1.0 - rate)
    return logits * constant(mask)


def forward_classify(
    g: NodeFeaturedGraph,
    params: ModelParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> ForwardTrace:
    """Classify one graph; returns the full trace as plain arrays."""
    wrapped = wrap_params(params, requires_grad=False)
    t = forward_trace(g, wrapped, params, training, rng)
    return ForwardTrace(
        layer_embeddings=[e.value for e in t.embeddings],
        pooled=[p.value.ravel() for p in t.pooled],
        h_graph=t.h_graph.value.ravel(),
        logits=t.logits.value.ravel(),
        probs=np.exp(t.logits.log_softmax().value).ravel(),
    )


# -- loss ---------------------------------------------------------------------


def soft_cross_entropy(y_target: LabelDistribution, p: np.ndarray) -> float:
    """-sum_c y(c) log p(c), with p clamped at 1e-12. Linear in y."""
    p = np.asarray(p, dtype=np.float64).ravel()
    if p.shape != y_target.p.shape:
        raise ValueError(f"dimension mismatch: target {y_target.p.shape}, p {p.shape}")
    return float(-(y_target.p * np.log(np.maximum(p, LOG_CLAMP))).sum())


def cross_entropy_t(
    y_target: LabelDistribution | list[LabelDistribution], logits: Tensor
) -> Tensor:
    """Tape version of soft_cross_entropy, summed over the rows of (B x C) logits.

    ``y_target`` gives one target per row; a single target stands for B = 1.
    Built from log-softmax rather than log(softmax): the same value wherever
    probabilities stay above the clamp, but with the exact gradient p - y,
    which a saturated softmax feeding a clamped log would zero out.
    """
    targets = [y_target] if isinstance(y_target, LabelDistribution) else y_target
    y = constant(np.stack([t.p for t in targets]))
    return (y * logits.log_softmax()).sum().scale(-1.0)


# -- checkpoints ----------------------------------------------------------------


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Self-describing JSON checkpoint: config, shapes, row-major values."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "feature_dim": params.feature_dim,
        "num_classes": params.num_classes,
        "tensors": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in params.tensors.items()
        },
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> ModelParams:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not an ifmixup checkpoint: {path}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')}")
    config = from_dict(ModelConfig, doc.get("config"), "config")
    tensors = {
        name: np.asarray(rec["data"], dtype=np.float64).reshape(rec["shape"])
        for name, rec in doc["tensors"].items()
    }
    return ModelParams(config, int(doc["feature_dim"]), int(doc["num_classes"]), tensors)
