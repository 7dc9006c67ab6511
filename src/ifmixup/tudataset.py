"""TUDataset-format ingestion, node-feature encoding, and dataset statistics.

The plain-text format (one directory per dataset, files prefixed with the
dataset name):

    NAME_A.txt                directed edge pairs "i, j", node ids 1-based
    NAME_graph_indicator.txt  line k: 1-based graph id of node k
    NAME_graph_labels.txt     one class label per graph
    NAME_node_labels.txt      optional: one integer label per node

Parsing produces symmetric binary adjacency matrices (the usual duplicated
directed pairs collapse; a single direction also yields the edge) and
contiguous class indices. Node labels stay integers until
``encode_node_features`` turns them into one-hot rows, or - for datasets
shipped without node labels - degrees are one-hot encoded instead.

``dataset_stats`` summarizes an encoded dataset and, for the eight
benchmark names with published statistics, compares against the reference
table. The reference edge figures count directed entries, so the
comparison checks mean undirected edges against half the published value.

A deterministic synthetic molecule generator (`make_synthetic_molecules`)
ships for tests and demos that must run without downloaded data.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .graphs import (
    GraphDataset,
    LabelDistribution,
    NodeFeaturedGraph,
)

STATS_TOL = 0.1


class ParseError(ValueError):
    """Malformed TUDataset input; the message names the file and line."""


@dataclass(frozen=True)
class TUDatasetFiles:
    """Locations of one dataset's files under ``directory``."""

    directory: str
    name: str

    def path(self, suffix: str) -> str:
        return os.path.join(self.directory, f"{self.name}_{suffix}.txt")

    @property
    def a_path(self) -> str:
        return self.path("A")

    @property
    def indicator_path(self) -> str:
        return self.path("graph_indicator")

    @property
    def graph_labels_path(self) -> str:
        return self.path("graph_labels")

    @property
    def node_labels_path(self) -> str:
        return self.path("node_labels")

    def has_node_labels(self) -> bool:
        return os.path.exists(self.node_labels_path)

    def require(self) -> None:
        for p in (self.a_path, self.indicator_path, self.graph_labels_path):
            if not os.path.exists(p):
                raise ParseError(f"missing required file: {p}")


@dataclass(eq=False)
class ParsedGraph:
    """One graph straight from the files: binary edges, raw node labels."""

    e: np.ndarray
    node_labels: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.e.shape[0]


@dataclass(eq=False)
class ParsedDataset:
    """A parsed dataset before feature encoding."""

    name: str
    graphs: list[ParsedGraph]
    labels: list[int]  # contiguous class indices 0..C-1
    num_classes: int
    label_values: list[int]  # original label value for each class index

    def __len__(self) -> int:
        return len(self.graphs)

    def has_node_labels(self) -> bool:
        return all(g.node_labels is not None for g in self.graphs)


def _read_rows(path: str, n_cols: int) -> list[tuple[int, list[int]]]:
    """(line number, integer tokens) per nonempty line; commas or spaces."""
    name = os.path.basename(path)
    rows: list[tuple[int, list[int]]] = []
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != n_cols:
                raise ParseError(f"{name} line {ln}: expected {n_cols} values, got {len(parts)}")
            try:
                vals = [int(p) for p in parts]
            except ValueError:
                raise ParseError(f"{name} line {ln}: non-integer token in {line!r}") from None
            rows.append((ln, vals))
    return rows


def parse_tudataset(files: TUDatasetFiles) -> ParsedDataset:
    """Read a dataset directory into symmetric binary adjacency matrices.

    Node ids convert from 1-based to 0-based; duplicated directed edge pairs
    collapse into one undirected edge; graph labels map to contiguous class
    indices in sorted order of their original values.
    """
    files.require()

    indicator = _read_rows(files.indicator_path, 1)
    node_graph = np.array([v[0] for _, v in indicator], dtype=np.int64)
    n_nodes = node_graph.size
    if n_nodes == 0:
        raise ParseError(f"{os.path.basename(files.indicator_path)}: no nodes listed")
    n_graphs = int(node_graph.max())
    if node_graph.min() < 1 or set(node_graph.tolist()) != set(range(1, n_graphs + 1)):
        raise ParseError(
            f"{os.path.basename(files.indicator_path)}: graph ids must be consecutive from 1"
        )

    # Local (within-graph) index of each node, preserving file order.
    local = np.zeros(n_nodes, dtype=np.int64)
    sizes = np.zeros(n_graphs, dtype=np.int64)
    for node, gid in enumerate(node_graph):
        local[node] = sizes[gid - 1]
        sizes[gid - 1] += 1

    mats = [np.zeros((int(s), int(s))) for s in sizes]
    a_name = os.path.basename(files.a_path)
    for ln, (i, j) in _read_rows(files.a_path, 2):
        if not (1 <= i <= n_nodes and 1 <= j <= n_nodes):
            raise ParseError(
                f"{a_name} line {ln}: node id out of range 1..{n_nodes}: ({i}, {j})"
            )
        gi, gj = node_graph[i - 1], node_graph[j - 1]
        if gi != gj:
            raise ParseError(
                f"{a_name} line {ln}: edge ({i}, {j}) crosses graphs {gi} and {gj}"
            )
        if i == j:
            raise ParseError(f"{a_name} line {ln}: self-loop on node {i}")
        e = mats[gi - 1]
        e[local[i - 1], local[j - 1]] = 1.0
        e[local[j - 1], local[i - 1]] = 1.0

    label_rows = _read_rows(files.graph_labels_path, 1)
    if len(label_rows) != n_graphs:
        raise ParseError(
            f"{os.path.basename(files.graph_labels_path)}: {len(label_rows)} labels "
            f"for {n_graphs} graphs"
        )
    raw_labels = [v[0] for _, v in label_rows]
    label_values = sorted(set(raw_labels))
    class_of = {v: c for c, v in enumerate(label_values)}
    labels = [class_of[v] for v in raw_labels]

    node_labels: list[np.ndarray] | None = None
    if files.has_node_labels():
        nl_rows = _read_rows(files.node_labels_path, 1)
        if len(nl_rows) != n_nodes:
            raise ParseError(
                f"{os.path.basename(files.node_labels_path)}: {len(nl_rows)} labels "
                f"for {n_nodes} nodes"
            )
        node_labels = [np.zeros(int(s), dtype=np.int64) for s in sizes]
        for node, (_, v) in enumerate(nl_rows):
            node_labels[node_graph[node] - 1][local[node]] = v[0]

    graphs = [
        ParsedGraph(mats[g], node_labels[g] if node_labels is not None else None)
        for g in range(n_graphs)
    ]
    return ParsedDataset(files.name, graphs, labels, len(label_values), label_values)


def encode_node_features(ds: ParsedDataset, mode: str = "one_hot_labels") -> GraphDataset:
    """Turn a parsed dataset into real feature matrices.

    one_hot_labels: d = number of distinct node labels in the dataset, each
    row has a single 1 at its label's (sorted) index. one_hot_degree: d =
    max degree + 1, each row a one-hot of the node's degree. Both produce a
    linearly independent feature vocabulary by construction.
    """
    if mode == "one_hot_labels":
        if not ds.has_node_labels():
            raise ValueError(f"{ds.name}: node labels required for one_hot_labels encoding")
        values = sorted({int(v) for g in ds.graphs for v in g.node_labels})
        index = {v: i for i, v in enumerate(values)}
        d = len(values)

        def feats(g: ParsedGraph) -> np.ndarray:
            v = np.zeros((g.n, d))
            for row, lab in enumerate(g.node_labels):
                v[row, index[int(lab)]] = 1.0
            return v

    elif mode == "one_hot_degree":
        max_deg = max(int(g.e.sum(axis=1).max()) if g.n else 0 for g in ds.graphs)
        d = max_deg + 1

        def feats(g: ParsedGraph) -> np.ndarray:
            v = np.zeros((g.n, d))
            for row, deg in enumerate(g.e.sum(axis=1).astype(np.int64)):
                v[row, int(deg)] = 1.0
            return v

    else:
        raise ValueError(f"unknown encoding mode {mode!r}")

    items = [
        (
            NodeFeaturedGraph(feats(g), g.e.copy()),
            LabelDistribution.one_hot(c, ds.num_classes),
        )
        for g, c in zip(ds.graphs, ds.labels)
    ]
    return GraphDataset(items, ds.num_classes, d, ds.name)


def load_dataset(directory: str, name: str, mode: str | None = None) -> GraphDataset:
    """Parse + encode in one step; mode defaults to labels when present."""
    files = TUDatasetFiles(directory, name)
    parsed = parse_tudataset(files)
    if mode is None:
        mode = "one_hot_labels" if parsed.has_node_labels() else "one_hot_degree"
    return encode_node_features(parsed, mode)


# -- statistics ----------------------------------------------------------------


@dataclass(frozen=True)
class Table5Row:
    graphs: int
    mean_nodes: float
    mean_edges_directed: float  # published figures count each edge twice
    node_label_count: int | None
    classes: int


# Published benchmark statistics (directed edge counts).
TABLE5: dict[str, Table5Row] = {
    "MUTAG": Table5Row(188, 17.9, 39.6, 7, 2),
    "PTC_MR": Table5Row(334, 14.3, 29.4, 18, 2),
    "NCI109": Table5Row(4127, 29.7, 64.3, 38, 2),
    "NCI1": Table5Row(4110, 29.9, 64.6, 37, 2),
    "ENZYMES": Table5Row(600, 32.6, 124.3, 3, 6),
    "PROTEINS": Table5Row(1113, 39.1, 145.6, 3, 2),
    "IMDB-M": Table5Row(1500, 13.0, 65.9, None, 3),
    "IMDB-B": Table5Row(1000, 19.8, 96.5, None, 2),
}

_NAME_ALIASES = {"IMDB-MULTI": "IMDB-M", "IMDB-BINARY": "IMDB-B"}


@dataclass
class DatasetStats:
    """Summary of an encoded dataset, plus a reference check when known."""

    name: str
    num_graphs: int
    mean_nodes: float
    mean_edges: float  # undirected, each edge counted once
    feature_dim: int
    num_classes: int

    def to_text(self) -> str:
        return "\n".join(
            [
                f"dataset:     {self.name}",
                f"graphs:      {self.num_graphs}",
                f"mean nodes:  {self.mean_nodes:.4f}",
                f"mean edges:  {self.mean_edges:.4f} (undirected)",
                f"feature dim: {self.feature_dim}",
                f"classes:     {self.num_classes}",
            ]
        )

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2)


@dataclass
class Table5Check:
    """Field-by-field comparison against the published statistics."""

    name: str
    rows: list[tuple[str, float, float, bool]]  # field, expected, actual, ok

    @property
    def passed(self) -> bool:
        return all(ok for *_, ok in self.rows)

    def to_text(self) -> str:
        lines = [f"reference comparison: {self.name} (edge figure halved: table counts directed)"]
        for fieldname, expected, actual, ok in self.rows:
            lines.append(
                f"  {fieldname:<12} expected {expected:<10.4g} actual {actual:<10.4g} "
                f"{'ok' if ok else 'FAIL'}"
            )
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def dataset_stats(ds: GraphDataset) -> DatasetStats:
    """Mean node and undirected-edge counts over the dataset (an edge counted once)."""
    graphs = ds.graphs()
    return DatasetStats(
        name=ds.name,
        num_graphs=len(ds),
        mean_nodes=float(np.mean([g.n for g in graphs])),
        mean_edges=float(np.mean([float(np.count_nonzero(np.triu(g.e, k=1))) for g in graphs])),
        feature_dim=ds.feature_dim,
        num_classes=ds.num_classes,
    )


def compare_table5(stats: DatasetStats) -> Table5Check | None:
    """Check stats against the published table; None for unknown names."""
    key = _NAME_ALIASES.get(stats.name, stats.name)
    ref = TABLE5.get(key)
    if ref is None:
        return None
    rows = [
        ("graphs", float(ref.graphs), float(stats.num_graphs), ref.graphs == stats.num_graphs),
        (
            "mean nodes",
            ref.mean_nodes,
            stats.mean_nodes,
            abs(ref.mean_nodes - stats.mean_nodes) <= STATS_TOL,
        ),
        (
            "mean edges",
            ref.mean_edges_directed / 2.0,
            stats.mean_edges,
            abs(ref.mean_edges_directed / 2.0 - stats.mean_edges) <= STATS_TOL,
        ),
        ("classes", float(ref.classes), float(stats.num_classes), ref.classes == stats.num_classes),
    ]
    if ref.node_label_count is not None:
        rows.append(
            (
                "feature dim",
                float(ref.node_label_count),
                float(stats.feature_dim),
                ref.node_label_count == stats.feature_dim,
            )
        )
    return Table5Check(key, rows)


# -- serialization ---------------------------------------------------------------


def write_tudataset(ds: ParsedDataset, directory: str, name: str | None = None) -> TUDatasetFiles:
    """Write a parsed dataset back out; re-parsing restores it exactly."""
    name = name or ds.name
    os.makedirs(directory, exist_ok=True)
    files = TUDatasetFiles(directory, name)

    offsets = np.cumsum([0] + [g.n for g in ds.graphs])
    with open(files.a_path, "w", encoding="utf-8") as fh:
        for gidx, g in enumerate(ds.graphs):
            base = int(offsets[gidx])
            iu, ju = np.nonzero(np.triu(g.e, k=1))
            for i, j in zip(iu.tolist(), ju.tolist()):
                fh.write(f"{base + i + 1}, {base + j + 1}\n")
                fh.write(f"{base + j + 1}, {base + i + 1}\n")
    with open(files.indicator_path, "w", encoding="utf-8") as fh:
        for gidx, g in enumerate(ds.graphs):
            fh.writelines([f"{gidx + 1}\n"] * g.n)
    with open(files.graph_labels_path, "w", encoding="utf-8") as fh:
        for c in ds.labels:
            fh.write(f"{ds.label_values[c]}\n")
    if ds.has_node_labels():
        with open(files.node_labels_path, "w", encoding="utf-8") as fh:
            for g in ds.graphs:
                for v in g.node_labels:
                    fh.write(f"{int(v)}\n")
    return files


def write_weighted_graph(g: NodeFeaturedGraph, directory: str, name: str) -> None:
    """Serialize one weighted-edge graph (e.g. a mixed sample).

    The base format has no edge weights or real features, so two extra files
    join the TUDataset-style topology: NAME_edge_weights.txt (one weight per
    NAME_A.txt line) and NAME_node_features.txt (one comma-separated feature
    row per node).
    """
    os.makedirs(directory, exist_ok=True)
    files = TUDatasetFiles(directory, name)
    iu, ju = np.nonzero(np.triu(g.e, k=1))
    with open(files.a_path, "w", encoding="utf-8") as fa, open(
        files.path("edge_weights"), "w", encoding="utf-8"
    ) as fw:
        for i, j in zip(iu.tolist(), ju.tolist()):
            w = repr(float(g.e[i, j]))
            fa.write(f"{i + 1}, {j + 1}\n{j + 1}, {i + 1}\n")
            fw.write(f"{w}\n{w}\n")
    with open(files.indicator_path, "w", encoding="utf-8") as fh:
        fh.writelines(["1\n"] * g.n)
    with open(files.path("node_features"), "w", encoding="utf-8") as fh:
        for row in g.v:
            fh.write(", ".join(repr(float(x)) for x in row) + "\n")


def read_weighted_graph(directory: str, name: str) -> NodeFeaturedGraph:
    """Inverse of write_weighted_graph (bit-exact: values use repr round trip)."""
    files = TUDatasetFiles(directory, name)
    feat_path = files.path("node_features")
    if not os.path.exists(feat_path):
        raise ParseError(f"missing required file: {feat_path}")
    v_rows = []
    with open(feat_path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                v_rows.append([float(x) for x in line.replace(",", " ").split()])
            except ValueError:
                raise ParseError(
                    f"{os.path.basename(feat_path)} line {ln}: non-numeric token"
                ) from None
    v = np.asarray(v_rows)
    n = v.shape[0]
    e = np.zeros((n, n))
    edges = _read_rows(files.a_path, 2)
    weights = []
    w_path = files.path("edge_weights")
    with open(w_path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                weights.append(float(line))
            except ValueError:
                raise ParseError(
                    f"{os.path.basename(w_path)} line {ln}: non-numeric token {line!r}"
                ) from None
    if len(weights) != len(edges):
        raise ParseError(
            f"{os.path.basename(w_path)}: {len(weights)} weights for {len(edges)} edges"
        )
    for (ln, (i, j)), w in zip(edges, weights):
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(
                f"{os.path.basename(files.a_path)} line {ln}: node id out of range 1..{n}"
            )
        e[i - 1, j - 1] = w
        e[j - 1, i - 1] = w
    return NodeFeaturedGraph(v, e)


# -- fixtures --------------------------------------------------------------------


def make_fixture_dataset(directory: str) -> TUDatasetFiles:
    """Write the minimal documented fixture: one 2-node, 1-edge graph."""
    graph = ParsedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return write_tudataset(ParsedDataset("FIXTURE", [graph], [0], 1, [1]), directory)


def make_synthetic_molecules(
    num_graphs: int = 188, seed: int = 7, name: str = "SYNTHETIC"
) -> ParsedDataset:
    """A deterministic molecule-shaped stand-in for tests and demos.

    Two balanced classes with a structural signal a small GIN can learn:
    class 0 graphs are rings (all degrees 2) with occasional chords, class 1
    graphs are random trees (leaves and hubs). Node labels 0..6 are drawn
    from class-dependent distributions, so both the topology and the one-hot
    features carry signal. Sizes match small-molecule benchmarks (10-20
    nodes).
    """
    rng = np.random.default_rng(seed)
    p0 = np.array([0.30, 0.25, 0.15, 0.10, 0.10, 0.05, 0.05])
    p1 = np.array([0.05, 0.05, 0.10, 0.10, 0.15, 0.25, 0.30])
    graphs: list[ParsedGraph] = []
    labels: list[int] = []
    for idx in range(num_graphs):
        cls = idx % 2
        n = int(rng.integers(10, 21))
        e = np.zeros((n, n))
        if cls == 0:
            for i in range(n):
                j = (i + 1) % n
                e[i, j] = e[j, i] = 1.0
            for _ in range(int(rng.integers(0, 3))):
                i = int(rng.integers(n))
                j = (i + n // 2) % n
                if i != j:
                    e[i, j] = e[j, i] = 1.0
        else:
            for i in range(1, n):
                j = int(rng.integers(0, i))
                e[i, j] = e[j, i] = 1.0
        node_labels = rng.choice(7, size=n, p=p0 if cls == 0 else p1)
        graphs.append(ParsedGraph(e, node_labels.astype(np.int64)))
        labels.append(cls)
    return ParsedDataset(name, graphs, labels, 2, [0, 1])
