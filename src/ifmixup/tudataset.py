"""TUDataset-format ingestion, node-feature encoding, and dataset statistics.

The plain-text format (one directory per dataset, files prefixed with the
dataset name):

    NAME_A.txt                directed edge pairs "i, j", node ids 1-based
    NAME_graph_indicator.txt  line k: 1-based graph id of node k
    NAME_graph_labels.txt     one class label per graph
    NAME_node_labels.txt      optional: one integer label per node

Each nonempty line holds tokens separated by commas or whitespace: signed
ASCII decimal int64 integers (float64 numbers in the weighted-graph files),
with no comment lines. Every ParseError names the file, and the line where
there is one, counting every line of the file, blank ones included.

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

import io
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


def _token_lines(path: str) -> dict[int, str]:
    """Each stripped line of ``path`` that holds a token, keyed by its 1-based
    number among all lines, blank ones included, split as ``_read_rows`` splits."""
    with open(path, encoding="utf-8") as fh:
        return {ln: s.strip() for ln, s in enumerate(fh, 1) if s.replace(",", " ").strip()}


def _row_error(path: str, row: int, message: str) -> ParseError:
    """A ParseError naming the line of ``path`` that holds values row ``row``."""
    ln = list(_token_lines(path))[row]
    return ParseError(f"{os.path.basename(path)} line {ln}: {message}")


def _read_rows(path: str, n_cols: int | None, dtype: type = np.int64) -> np.ndarray:
    """The ``(rows, n_cols)`` values of a numeric text file, one row per
    nonempty line; ``n_cols=None`` takes the first row's width. One
    ``np.loadtxt`` call reads the whole text, commas turned into spaces, and
    walks no line in Python. Only if it fails, or the width is wrong, does
    ``_token_lines`` walk the lines, each parsed alone by the same call, to
    name the first bad one. Both read in universal-newline mode."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().replace(",", " ")
    except FileNotFoundError:
        raise ParseError(f"missing required file: {path}") from None
    if not text.strip():
        return np.zeros((0, n_cols or 0), dtype=dtype)

    def parse(block: str) -> np.ndarray:
        return np.loadtxt(io.StringIO(block), dtype=dtype, comments=None, ndmin=2)

    try:
        values = parse(text)
        if values.shape[1] == (n_cols or values.shape[1]):
            return values
    except ValueError:
        pass
    kind = "non-integer" if np.issubdtype(dtype, np.integer) else "non-numeric"
    for k, line in enumerate(_token_lines(path).values()):
        got = len(line.replace(",", " ").split())
        n_cols = n_cols or got
        if got != n_cols:
            raise _row_error(path, k, f"expected {n_cols} values, got {got}")
        try:
            parse(line.replace(",", " "))
        except ValueError:
            message = f"{kind} token in {line!r}, expected {np.dtype(dtype).name}"
            raise _row_error(path, k, message) from None
    raise ParseError(f"{os.path.basename(path)}: unreadable numeric text")


def _read_labels(path: str, count: int, owners: str) -> np.ndarray:
    """The one integer label on each nonempty line; there must be ``count``."""
    labels = _read_rows(path, 1)[:, 0]
    if labels.size != count:
        raise ParseError(f"{os.path.basename(path)}: {labels.size} labels for {count} {owners}")
    return labels


def parse_tudataset(files: TUDatasetFiles) -> ParsedDataset:
    """Read a dataset directory into symmetric binary adjacency matrices.

    Node ids convert from 1-based to 0-based; duplicated directed edge pairs
    collapse into one undirected edge; graph labels map to contiguous class
    indices in sorted order of their original values.
    """
    ind_name = os.path.basename(files.indicator_path)
    node_graph = _read_rows(files.indicator_path, 1)[:, 0]
    graph_ids, sizes = np.unique(node_graph, return_counts=True)
    n_nodes, n_graphs = node_graph.size, graph_ids.size
    if n_nodes == 0:
        raise ParseError(f"{ind_name}: no nodes listed")
    if graph_ids[0] != 1 or graph_ids[-1] != n_graphs:
        raise ParseError(f"{ind_name}: graph ids must be consecutive from 1")

    # Local (within-graph) index of each node, preserving file order.
    order = np.argsort(node_graph, kind="stable")
    local = np.empty(n_nodes, dtype=np.int64)
    local[order] = np.arange(n_nodes) - np.repeat(np.cumsum(sizes) - sizes, sizes)

    edges = _read_rows(files.a_path, 2)
    out_of_range = ((edges < 1) | (edges > n_nodes)).any(axis=1)
    ends = np.where(out_of_range[:, None], 1, edges) - 1
    gids = node_graph[ends]
    bad = out_of_range | (gids[:, 0] != gids[:, 1]) | (ends[:, 0] == ends[:, 1])
    if bad.any():
        k = int(np.argmax(bad))
        (i, j), (gi, gj) = edges[k].tolist(), gids[k].tolist()
        if out_of_range[k]:
            raise _row_error(files.a_path, k, f"node id out of range 1..{n_nodes}: ({i}, {j})")
        if gi != gj:
            raise _row_error(files.a_path, k, f"edge ({i}, {j}) crosses graphs {gi} and {gj}")
        raise _row_error(files.a_path, k, f"self-loop on node {i}")
    # Every graph's matrix is a block of one buffer, where node u's row starts
    # at row_start[u]; each edge sets (i, j) and (j, i).
    area = sizes * sizes
    row_start = (np.cumsum(area) - area)[node_graph - 1] + local * sizes[node_graph - 1]
    flat = np.zeros(int(area.sum()))
    flat[row_start[ends] + local[ends[:, ::-1]]] = 1.0
    blocks = np.split(flat, np.cumsum(area)[:-1])
    mats = [block.reshape(n, n) for block, n in zip(blocks, sizes.tolist())]

    raw_labels = _read_labels(files.graph_labels_path, n_graphs, "graphs")
    label_values, labels = np.unique(raw_labels, return_inverse=True)
    node_labels: list[np.ndarray] | list[None] = [None] * n_graphs
    if files.has_node_labels():
        values = _read_labels(files.node_labels_path, n_nodes, "nodes")
        node_labels = np.split(values[order], np.cumsum(sizes)[:-1])

    graphs = [ParsedGraph(e, nl) for e, nl in zip(mats, node_labels)]
    return ParsedDataset(
        files.name, graphs, labels.tolist(), label_values.size, label_values.tolist()
    )


def encode_node_features(ds: ParsedDataset, mode: str = "one_hot_labels") -> GraphDataset:
    """Turn a parsed dataset into real feature matrices.

    one_hot_labels: d = number of distinct node labels in the dataset, each
    row has a single 1 at its label's (sorted) index. one_hot_degree: d =
    max degree + 1, each row a one-hot of the node's degree. Both produce a
    linearly independent feature vocabulary by construction. Each encoded
    graph shares its edge array with the parsed graph it came from.
    """
    if mode == "one_hot_labels":
        if not ds.has_node_labels():
            raise ValueError(f"{ds.name}: node labels required for one_hot_labels encoding")
        labels = [g.node_labels for g in ds.graphs]
        values = np.unique(np.concatenate([np.zeros(0, np.int64), *labels]))
        cols = [np.searchsorted(values, x) for x in labels]
        d = values.size
    elif mode == "one_hot_degree":
        cols = [g.e.sum(axis=1).astype(np.int64) for g in ds.graphs]
        d = max((int(c.max()) for c in cols if c.size), default=0) + 1
    else:
        raise ValueError(f"unknown encoding mode {mode!r}")

    eye = np.eye(d)
    one_hots = [LabelDistribution.one_hot(c, ds.num_classes) for c in range(ds.num_classes)]
    items = [
        (NodeFeaturedGraph(eye[col], g.e), one_hots[c])
        for g, col, c in zip(ds.graphs, cols, ds.labels)
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
    fields = [
        ("graphs", ref.graphs, stats.num_graphs, 0),
        ("mean nodes", ref.mean_nodes, stats.mean_nodes, STATS_TOL),
        ("mean edges", ref.mean_edges_directed / 2.0, stats.mean_edges, STATS_TOL),
        ("classes", ref.classes, stats.num_classes, 0),
    ]
    if ref.node_label_count is not None:
        fields.append(("feature dim", ref.node_label_count, stats.feature_dim, 0))
    rows = [(name, float(ref), float(got), abs(ref - got) <= tol) for name, ref, got, tol in fields]
    return Table5Check(key, rows)


# -- serialization ---------------------------------------------------------------


def write_tudataset(ds: ParsedDataset, directory: str, name: str | None = None) -> TUDatasetFiles:
    """Write a parsed dataset back out; re-parsing restores it exactly."""
    name = name or ds.name
    os.makedirs(directory, exist_ok=True)
    files = TUDatasetFiles(directory, name)

    sizes = [g.n for g in ds.graphs]
    pairs = [np.zeros((0, 2), dtype=np.int64)]
    for base, g in zip(np.cumsum([1] + sizes), ds.graphs):
        iu, ju = np.nonzero(np.triu(g.e, k=1))
        pairs.append(np.stack([iu, ju, ju, iu], axis=1).reshape(-1, 2) + base)
    np.savetxt(files.a_path, np.concatenate(pairs), fmt="%d, %d")
    np.savetxt(files.indicator_path, np.repeat(np.arange(1, len(sizes) + 1), sizes), fmt="%d")
    np.savetxt(files.graph_labels_path, np.asarray(ds.label_values)[ds.labels], fmt="%d")
    if ds.has_node_labels():
        node_labels = [np.zeros(0, dtype=np.int64), *(g.node_labels for g in ds.graphs)]
        np.savetxt(files.node_labels_path, np.concatenate(node_labels), fmt="%d")
    return files


def write_weighted_graph(g: NodeFeaturedGraph, directory: str, name: str) -> None:
    """Serialize one weighted-edge graph (e.g. a mixed sample).

    The base format has no edge weights or real features, so two extra files
    join the TUDataset-style topology: NAME_edge_weights.txt (one weight per
    NAME_A.txt line) and NAME_node_features.txt (one comma-separated feature
    row per node), so the graph needs at least one node and one feature column.
    """
    if g.n == 0 or g.d == 0:
        raise ValueError(f"{name}: cannot write {g.n} nodes with {g.d} feature columns")
    os.makedirs(directory, exist_ok=True)
    files = TUDatasetFiles(directory, name)
    iu, ju = np.nonzero(np.triu(g.e, k=1))
    np.savetxt(files.a_path, np.stack([iu, ju, ju, iu], axis=1).reshape(-1, 2) + 1, fmt="%d, %d")
    np.savetxt(files.indicator_path, np.ones(g.n, dtype=np.int64), fmt="%d")
    with open(files.path("edge_weights"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{w!r}\n" for w in np.repeat(g.e[iu, ju], 2).tolist())
    with open(files.path("node_features"), "w", encoding="utf-8") as fh:
        fh.writelines(", ".join(map(repr, row)) + "\n" for row in g.v.tolist())


def read_weighted_graph(directory: str, name: str) -> NodeFeaturedGraph:
    """Inverse of write_weighted_graph (bit-exact: values use repr round trip)."""
    files = TUDatasetFiles(directory, name)
    feat_path, w_path = files.path("node_features"), files.path("edge_weights")
    v = _read_rows(feat_path, None, np.float64)
    n = v.shape[0]
    if n == 0:
        raise ParseError(f"{os.path.basename(feat_path)}: no feature rows")
    edges = _read_rows(files.a_path, 2)
    weights = _read_rows(w_path, 1, np.float64)[:, 0]
    if weights.size != len(edges):
        raise ParseError(
            f"{os.path.basename(w_path)}: {weights.size} weights for {len(edges)} edges"
        )
    out_of_range = ((edges < 1) | (edges > n)).any(axis=1)
    if out_of_range.any():
        k = int(np.argmax(out_of_range))
        raise _row_error(files.a_path, k, f"node id out of range 1..{n}")
    # A pair, in either direction, takes its first line's weight; later lines repeat it bit for bit.
    lo, hi = np.sort(edges - 1, axis=1).T
    first = np.unique(lo * n + hi, return_index=True)[1]
    e = np.zeros((n, n))
    e[lo[first], hi[first]] = e[hi[first], lo[first]] = weights[first]
    differs = e[lo, hi].view(np.int64) != weights.view(np.int64)
    if differs.any():
        k = int(np.argmax(differs))
        w, w0 = weights[k].item(), e[lo[k], hi[k]].item()
        raise _row_error(w_path, k, f"weight {w!r} differs from {w0!r} on an earlier line")
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
