"""Seeded input generators for the benchmark workloads.

The inputs are synthetic stand-ins for the paper's datasets, shaped after
the TUDataset statistics in ``ifmixup.tudataset.TABLE5``:

* ``mutag_shaped`` - the package's own molecule generator, 188 graphs of
  10-20 nodes with 7 node types.
* ``nci1_shaped`` - 4110 graphs of 20-40 nodes with 37 node types whose
  node and edge totals are fixed so that the set matches the NCI1 row of
  Table 5 (mean nodes 29.9, mean undirected edges 32.3) exactly, for every
  seed.
* ``basis_shaped`` - a set whose feature vocabulary is linearly dependent
  (the one-hot rows e1..e7 plus e1+e2) while its per-graph coefficient
  collection stays independent, so recovery must run in basis mode. Node
  label 7 stands for the row e1+e2; ``merge_basis_label`` applies that
  mapping after the set has been read back from its files.

Every generator draws from its own substream of the workload seed, so the
same seed gives the same files.
"""

from __future__ import annotations

import numpy as np

from ifmixup.graphs import GraphDataset, NodeFeaturedGraph
from ifmixup.tudataset import TABLE5, ParsedDataset, ParsedGraph, make_synthetic_molecules

NCI1_NODE_RANGE = (20, 40)
NCI1_RING_RANGE = (0, 6)  # cycle-closing edges per graph on top of a spanning tree
NCI1_TYPES = 37

BASIS_NODE_RANGE = (10, 18)
BASIS_DIM = 7
BOTH_LABEL = BASIS_DIM  # node label standing for the feature row e1 + e2


def mutag_shaped(seed: int) -> ParsedDataset:
    """188 molecule-shaped graphs in two classes, from the package generator."""
    return make_synthetic_molecules(188, seed=seed, name="MUTAG_SHAPED")


def _fix_total(values: np.ndarray, total: int, lo: int, hi: int, rng: np.random.Generator) -> None:
    """Nudge entries by one, within [lo, hi], until they sum to ``total``."""
    while (diff := total - int(values.sum())) != 0:
        step = 1 if diff > 0 else -1
        movable = np.flatnonzero(values < hi if step > 0 else values > lo)
        if movable.size == 0:
            raise ValueError(f"cannot reach total {total} within [{lo}, {hi}]")
        pick = rng.choice(movable, size=min(abs(diff), movable.size), replace=False)
        values[pick] += step


def _type_distributions() -> tuple[np.ndarray, np.ndarray]:
    """Zipf-like node-type frequencies; class 1 reverses the six most common."""
    p0 = 1.0 / np.arange(1, NCI1_TYPES + 1) ** 1.3
    p1 = p0.copy()
    p1[:6] = p1[:6][::-1]
    return p0 / p0.sum(), p1 / p1.sum()


def nci1_shaped(seed: int) -> ParsedDataset:
    """Molecule-like graphs with NCI1's node and edge means, two balanced classes.

    Each graph is a chain-like spanning tree (node i attaches to one of the
    three nodes before it) plus a few cycle-closing edges. Node types follow
    class-dependent distributions, so a classifier has signal to learn.
    """
    ref = TABLE5["NCI1"]
    num_graphs = ref.graphs
    rng = np.random.default_rng([seed, 11])
    total_nodes = round(ref.mean_nodes * num_graphs)
    total_edges = round(ref.mean_edges_directed / 2.0 * num_graphs)
    sizes = rng.integers(NCI1_NODE_RANGE[0], NCI1_NODE_RANGE[1] + 1, size=num_graphs)
    _fix_total(sizes, total_nodes, *NCI1_NODE_RANGE, rng)
    rings = rng.integers(NCI1_RING_RANGE[0], NCI1_RING_RANGE[1] + 1, size=num_graphs)
    _fix_total(rings, total_edges - (total_nodes - num_graphs), *NCI1_RING_RANGE, rng)
    classes = rng.permutation(np.arange(num_graphs) % 2)
    p_types = _type_distributions()

    graphs = []
    for n, r, cls in zip(sizes.tolist(), rings.tolist(), classes.tolist()):
        e = np.zeros((n, n))
        child = np.arange(1, n)
        low = np.maximum(0, child - 3)
        parent = low + (rng.random(n - 1) * (child - low)).astype(np.int64)
        e[child, parent] = e[parent, child] = 1.0
        added = 0
        while added < r:
            i, j = (int(x) for x in rng.integers(n, size=2))
            if i != j and e[i, j] == 0.0:
                e[i, j] = e[j, i] = 1.0
                added += 1
        types = rng.choice(NCI1_TYPES, size=n, p=p_types[cls]).astype(np.int64)
        graphs.append(ParsedGraph(e, types))
    if len({int(t) for g in graphs for t in g.node_labels}) != NCI1_TYPES:
        raise ValueError(f"seed {seed}: not every one of the {NCI1_TYPES} node types was drawn")
    return ParsedDataset("NCI1", graphs, classes.tolist(), 2, [0, 1])


def _padded_features(labels: np.ndarray) -> np.ndarray:
    """Flattened 7-dim feature matrix of one graph, zero-padded to the largest size."""
    v = np.zeros((BASIS_NODE_RANGE[1], BASIS_DIM))
    rows = np.arange(labels.size)
    single = labels < BOTH_LABEL
    v[rows[single], labels[single]] = 1.0
    v[rows[~single], 0] = v[rows[~single], 1] = 1.0
    return v.ravel()


def basis_shaped(seed: int, num_graphs: int = 100) -> ParsedDataset:
    """Small rings (class 0) and trees (class 1) with a dependent vocabulary.

    Graph i has ``10 + i % 9`` nodes whatever the seed, so the cost of the
    basis-mode pair search, which grows with the mixed graph's size, does
    not drift with the seed.
    A graph whose flattened features would fall in the span of those already
    drawn gets fresh node labels, so the coefficient collection is
    independent by construction.
    """
    rng = np.random.default_rng([seed, 13])
    p_cls = (
        np.array([0.10, 0.10, 0.25, 0.20, 0.15, 0.05, 0.05, 0.10]),
        np.array([0.10, 0.10, 0.05, 0.05, 0.15, 0.20, 0.25, 0.10]),
    )
    lo, hi = BASIS_NODE_RANGE
    sizes = lo + np.arange(num_graphs) % (hi - lo + 1)
    graphs, classes, rows = [], [], []
    for idx, n in enumerate(sizes.tolist()):
        cls = idx % 2
        e = np.zeros((n, n))
        if cls == 0:
            ring = np.arange(n)
            e[ring, (ring + 1) % n] = e[(ring + 1) % n, ring] = 1.0
        else:
            child = np.arange(1, n)
            parent = (rng.random(n - 1) * child).astype(np.int64)
            e[child, parent] = e[parent, child] = 1.0
        while True:
            labels = rng.choice(BASIS_DIM + 1, size=n, p=p_cls[cls]).astype(np.int64)
            candidate = rows + [_padded_features(labels)]
            if np.linalg.matrix_rank(np.stack(candidate)) == len(candidate):
                rows = candidate
                break
        graphs.append(ParsedGraph(e, labels))
        classes.append(cls)
    if len({int(t) for g in graphs for t in g.node_labels}) != BASIS_DIM + 1:
        raise ValueError(f"seed {seed}: every feature row, e1+e2 included, must occur")
    return ParsedDataset("BASIS_SHAPED", graphs, classes, 2, [0, 1])


def merge_basis_label(ds: GraphDataset) -> GraphDataset:
    """Map the one-hot column of ``BOTH_LABEL`` onto the row e1 + e2."""
    if ds.feature_dim != BASIS_DIM + 1:
        raise ValueError(f"expected {BASIS_DIM + 1} one-hot columns, got {ds.feature_dim}")
    items = []
    for g, y in ds.items:
        v = g.v[:, :BASIS_DIM].copy()
        v[:, :2] += g.v[:, BASIS_DIM:]
        items.append((NodeFeaturedGraph(v, g.e), y))
    return GraphDataset(items, ds.num_classes, BASIS_DIM, ds.name)
