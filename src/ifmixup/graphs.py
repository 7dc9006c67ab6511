"""Dense node-featured graphs and the feature-vocabulary machinery.

A graph is stored as the pair ``(v, e)``: an ``n x d`` node-feature matrix
and a symmetric ``n x n`` edge-weight matrix with zero diagonal and entries
in ``[0, 1]``. Source datasets are binary (weights in ``{0, 1}``); soft
weights only ever arise from mixing two binary graphs.

The feature-vocabulary half of this module extracts the finite set ``V`` of
distinct node-feature rows of a dataset, a basis of ``SPAN(V)``, and the
per-graph coefficient matrices expressing every feature matrix in that
basis. Linear independence of ``V`` (or of the coefficient collection) is
what makes mixed graphs uniquely decodable; see :mod:`ifmixup.recovery`.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# The floor on singular values in every rank decision, all read off the one
# ``lstsq`` in ``_solve_rows``, and the tolerance of basis reconstruction.
# Benchmark feature sets are one-hot dominated, so double precision is
# effectively exact at this threshold.
RANK_TOL = 1e-9

LABEL_SUM_TOL = 1e-9


@dataclass(eq=False)
class NodeFeaturedGraph:
    """A graph given by node features ``v`` (n x d) and edge weights ``e`` (n x n)."""

    v: np.ndarray
    e: np.ndarray

    def __post_init__(self) -> None:
        self.v = np.asarray(self.v, dtype=np.float64)
        self.e = np.asarray(self.e, dtype=np.float64)
        if self.v.ndim != 2:
            raise ValueError(f"node features must be 2-D, got shape {self.v.shape}")
        if self.e.shape != (self.v.shape[0], self.v.shape[0]):
            raise ValueError(
                f"edge matrix shape {self.e.shape} does not match node count {self.v.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.v.shape[0]

    @property
    def d(self) -> int:
        return self.v.shape[1]


def is_binary(g: NodeFeaturedGraph) -> bool:
    """True when every edge weight is exactly 0 or 1."""
    return bool(np.all((g.e == 0.0) | (g.e == 1.0)))


@dataclass(eq=False, frozen=True)
class LabelDistribution:
    """Probability vector over the class set; one-hot for source data."""

    p: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", np.asarray(self.p, dtype=np.float64))
        if self.p.ndim != 1:
            raise ValueError("label distribution must be a vector")
        if not np.isfinite(self.p).all():
            raise ValueError(f"label distribution has non-finite entries: {self.p.tolist()}")
        if np.any(self.p < 0):
            raise ValueError("label distribution has negative entries")
        if abs(float(self.p.sum()) - 1.0) > LABEL_SUM_TOL:
            raise ValueError(f"label distribution sums to {self.p.sum()}, not 1")

    @classmethod
    def one_hot(cls, index: int, num_classes: int) -> "LabelDistribution":
        if not 0 <= index < num_classes:
            raise ValueError(f"one-hot index {index} is outside 0..{num_classes - 1} for {num_classes} classes")
        p = np.zeros(num_classes)
        p[index] = 1.0
        return cls(p)

    @property
    def num_classes(self) -> int:
        return self.p.shape[0]

    def is_one_hot(self) -> bool:
        return bool(np.sum(self.p == 1.0) == 1 and np.sum(self.p == 0.0) == self.p.size - 1)

    def argmax(self) -> int:
        return int(np.argmax(self.p))


@dataclass
class GraphDataset:
    """A list of (graph, label) pairs sharing feature dimension and class count."""

    items: list[tuple[NodeFeaturedGraph, LabelDistribution]]
    num_classes: int
    feature_dim: int
    name: str = ""

    def __len__(self) -> int:
        return len(self.items)

    def graphs(self) -> list[NodeFeaturedGraph]:
        return [g for g, _ in self.items]

    def labels(self) -> list[LabelDistribution]:
        return [y for _, y in self.items]


@dataclass
class FeatureBasis:
    """The feature vocabulary of a dataset and its span basis.

    ``vocabulary`` holds the distinct nonzero feature rows (V), sorted
    lexicographically for determinism; ``vocabulary_star`` appends the zero
    row (V*), which dummy nodes contribute. ``basis`` is an ``m x d`` matrix
    of linearly independent rows spanning SPAN(V), ``rank`` is m, and
    ``coeffs[i]`` is the coefficient matrix T of dataset graph i with
    ``v_i = T @ basis``. ``t_set`` is the deduplicated collection of
    coefficient matrices used by basis-mode recovery.

    On a basis from ``feature_vocabulary``, ``coeffs`` and ``t_set`` are
    built on their first read and then kept; either can still be assigned.
    Decoders keep projectors of ``vocabulary``, ``basis`` and ``t_set`` until that field is
    assigned (an in-place edit goes unseen); a ``dataclasses.replace`` copy starts with none.
    """

    vocabulary: np.ndarray
    vocabulary_star: np.ndarray
    rank: int
    basis: np.ndarray
    coeffs: list[np.ndarray]
    t_set: list[np.ndarray] = field(default_factory=list)

    @property
    def feature_dim(self) -> int:
        return self.vocabulary.shape[1]

    def vocabulary_independent(self) -> bool:
        """V is linearly independent: its basis is all of V."""
        return self.rank == len(self.vocabulary)

    def t_set_independent(self) -> bool:
        """Independence of the coefficient collection, zero-padded to its largest member size.

        More members than padded columns are dependent by their count alone
        (rank is at most the column count), so no rank is computed then.
        """
        if not self.t_set:
            return False
        n_max = max(t.shape[0] for t in self.t_set)
        if len(self.t_set) > n_max * self.rank:
            return False
        members, (_, rank) = self._members_at(n_max)
        return rank == len(members)

    def __setattr__(self, name: str, value) -> None:
        self.__dict__.get("_read_off", {}).pop(name, None)  # what was read off the old value
        object.__setattr__(self, name, value)

    def _projector(self, name: str) -> tuple[np.ndarray, int]:
        """``_row_projector`` of field ``name``, "vocabulary" or "basis", from its first read."""
        read_off = self.__dict__.setdefault("_read_off", {})
        if name not in read_off:
            read_off[name] = _row_projector(getattr(self, name))
        return read_off[name]

    def _members_at(self, n: int) -> tuple[np.ndarray, tuple[np.ndarray, int]] | None:
        """The ``t_set`` members of at most n rows, padded to n and stacked (|T_n| x n x rank),
        and ``_row_projector`` of their flattened rows, or None when none fits; from the first read."""
        by_size = self.__dict__.setdefault("_read_off", {}).setdefault("t_set", {})
        if n not in by_size:
            fit = [_pad_rows(t, n) for t in self.t_set if t.shape[0] <= n]
            by_size[n] = None
            if fit:
                members = np.stack(fit)
                by_size[n] = (members, _row_projector(members.reshape(len(fit), -1)))
        return by_size[n]


def _symmetry_violations(e: np.ndarray) -> list[str]:
    """Where a square edge matrix is asymmetric or has a nonzero diagonal, by exact comparison."""
    violations: list[str] = []
    asym = e != e.T
    if asym.any():
        i, j = np.argwhere(asym)[0]
        violations.append(f"asymmetric at ({i},{j}) ({np.count_nonzero(asym)} entries total)")
    diag = np.diag(e) != 0.0
    if diag.any():
        violations.append(f"nonzero diagonal at node {diag.argmax()} ({diag.sum()} nodes total)")
    return violations


def validate_graph(g: NodeFeaturedGraph) -> list[str]:
    """Check the stored-graph invariants; returns a list of violations (empty = ok)."""
    violations: list[str] = []
    if g.e.shape[0] != g.e.shape[1] or g.e.shape[0] != g.v.shape[0]:
        violations.append(
            f"dimension mismatch: v is {g.v.shape}, e is {g.e.shape}"
        )
        return violations
    for what, a in (("feature", g.v), ("weight", g.e)):
        bad = np.argwhere(~np.isfinite(a))
        if bad.size:
            i, j = bad[0]
            where = f"({i},{j}): {a[i, j]} ({len(bad)} entries total)"
            violations.append(f"non-finite {what} at {where}")
            if a is g.e:
                return violations  # symmetry, diagonal and range are undefined on NaN
    violations += _symmetry_violations(g.e)
    bad = ~((g.e >= 0.0) & (g.e <= 1.0))
    out = np.argwhere(bad)
    if out.size:
        i, j = out[0]
        violations.append(
            f"weight out of [0,1] at ({i},{j}): {g.e[i, j]} ({out.shape[0]} entries total)"
        )
    return violations


def pad_graph(g: NodeFeaturedGraph, n: int) -> NodeFeaturedGraph:
    """Append disconnected zero-feature dummy nodes until the graph has n nodes."""
    if n < g.n:
        raise ValueError(f"cannot pad {g.n}-node graph down to {n} nodes")
    if n == g.n:
        return g
    v = np.zeros((n, g.d))
    v[: g.n] = g.v
    e = np.zeros((n, n))
    e[: g.n, : g.n] = g.e
    return NodeFeaturedGraph(v, e)


def pad_pair(
    ga: NodeFeaturedGraph, gb: NodeFeaturedGraph
) -> tuple[NodeFeaturedGraph, NodeFeaturedGraph]:
    """Equalize node counts by appending dummy nodes to the smaller graph.

    Dummy nodes carry all-zero features and no edges, and are appended after
    the existing nodes so that original node IDs stay stable.
    """
    if ga.d != gb.d:
        raise ValueError(f"feature dimension mismatch: {ga.d} vs {gb.d}")
    n = max(ga.n, gb.n)
    return pad_graph(ga, n), pad_graph(gb, n)


def permute_nodes(g: NodeFeaturedGraph, perm: np.ndarray) -> NodeFeaturedGraph:
    """Relabel nodes: row i of the result is node perm[i] of the input."""
    perm = np.asarray(perm)
    if perm.ndim != 1 or perm.dtype.kind not in "iu" or sorted(perm.tolist()) != list(range(g.n)):
        raise ValueError(f"perm must be a 1-D integer permutation of range({g.n}), got {perm!r}")
    return NodeFeaturedGraph(g.v[perm], g.e[np.ix_(perm, perm)])


def _pad_rows(t: np.ndarray, n: int) -> np.ndarray:
    if t.shape[0] == n:
        return t
    out = np.zeros((n, t.shape[1]))
    out[: t.shape[0]] = t
    return out


def _solve_rows(rows: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, int]:
    """The coefficients C with C @ rows ~= target, by least squares, and the
    rank of ``rows``: the one solver of every rank verdict, the vocabulary
    and the decoders. One ``lstsq`` on ``rows.T`` itself, not on
    ``rows @ rows.T``, gives both; the rank is the count of its singular
    values above RANK_TOL, at most one per column. -0.0 coefficients come
    back as 0.0."""
    x, _, _, singular = np.linalg.lstsq(rows.T, target.T, rcond=None)
    return x.T + 0.0, int(np.count_nonzero(singular > RANK_TOL))


def _row_projector(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """P with ``x @ P`` the coefficients of x over ``rows``, and their rank: ``_solve_rows`` of the identity."""
    return _solve_rows(rows, np.eye(rows.shape[1]))


def check_linear_independence(rows: np.ndarray | list[np.ndarray]) -> tuple[bool, int]:
    """Whether the given vectors are linearly independent, plus their rank."""
    m = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if m.size == 0:
        raise ValueError("empty vector set")
    _, rank = _solve_rows(m, m[:0])
    return rank == m.shape[0], rank


def independent_row_subset(rows: np.ndarray) -> list[int]:
    """Indices of a maximal independent subset of rows, greedy in row order:
    row i is kept exactly when it raises the rank of the rows kept before it."""
    rows = np.asarray(rows, dtype=np.float64)
    kept: list[int] = []
    for i in range(len(rows)):
        if _solve_rows(rows[kept + [i]], rows[:0])[1] > len(kept):
            kept.append(i)
    return kept


def coefficients_in_basis(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Least-squares coefficients T with v ~= T @ basis, by ``_solve_rows``
    (exact when rows of basis are independent and v lies in their span)."""
    return _solve_rows(basis, v)[0]


# Rows per block of feature_vocabulary's dedup pass: small enough that a
# block and its temporaries stay in cache, large enough that the per-block
# calls cost little next to the work on the rows.
_DEDUP_BLOCK_ROWS = 1024

# Added to a row's hash once per level of the dedup pass (an odd 64-bit
# constant, so the levels of one hash walk through every slot).
_LEVEL_STEP = 0x9E3779B97F4A7C15


def _row_hashes(bits: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of a uint64 matrix: every entry with its
    high half xored onto its low half, dotted with odd ``weights`` mod 2**64.

    The fold matters: times an odd weight, a top (sign) bit lands in the top
    bit alone, where two of them cancel, so a plain weighted sum gives
    ``[-1, 1]`` and ``[1, -1]`` one hash.
    """
    folded = bits >> np.uint64(32)
    folded ^= bits
    return folded @ weights


def _distinct_rows(
    graphs: list[NodeFeaturedGraph], ends: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct feature rows of ``graphs`` and each node's index into
    them; ``ends`` holds the cumulative node counts.

    One pass over blocks of whole graphs, about ``_DEDUP_BLOCK_ROWS`` stacked
    rows each. Rows are compared by their bytes after adding 0.0, so -0.0
    and 0.0 are one row, stored as 0.0. A row's hash only picks the
    distinct row it is compared with, and equality decides. At level L a
    row goes to the slot named by the top bits of its hash plus
    L * _LEVEL_STEP; it takes the id of the distinct row in that slot if it
    equals it, tries level L + 1 if not, and becomes the slot's distinct row
    if the slot is empty. Equal rows walk the same slots, so a hash clash
    costs a level and can neither merge two rows nor split one.
    """
    ids = np.empty(int(ends[-1]), dtype=np.intp)
    weights = np.random.default_rng(0).integers(2**63, size=width, dtype=np.uint64) * 2 + 1
    table_bits = max(1, 2 * len(ids)).bit_length()  # at least twice as many slots as rows
    table = np.full(1 << table_bits, -1, dtype=np.intp)  # slot -> distinct row, -1 when empty
    largest = int(np.max(np.diff(ends, prepend=0)))
    block_buffer = np.empty((max(_DEDUP_BLOCK_ROWS, largest), width))
    found = np.empty((0, width), dtype=np.uint64)  # bits of the distinct rows, the first `count` set
    count = 0
    start = 0
    while start < len(graphs):
        offset = int(ends[start - 1]) if start else 0
        stop = int(np.searchsorted(ends, offset + _DEDUP_BLOCK_ROWS, side="right"))
        stop = max(stop, start + 1)  # a graph of more rows is a block of its own
        block = block_buffer[: int(ends[stop - 1]) - offset]
        np.concatenate([g.v for g in graphs[start:stop]], out=block)
        block += 0.0  # -0.0 becomes 0.0
        bits = block.view(np.uint64)
        hashes = _row_hashes(bits, weights)
        pending, level = np.arange(len(bits)), 0
        while pending.size:
            rows = bits[pending] if level else bits
            step = np.uint64(level * _LEVEL_STEP % 2**64)
            slots = (hashes[pending] + step) >> np.uint64(64 - table_bits)
            empty = np.flatnonzero(table[slots] < 0)
            if empty.size:  # the first row going to each empty slot becomes its distinct row
                new_slots, first = np.unique(slots[empty], return_index=True)
                if count + len(new_slots) > len(found):
                    grown = np.empty((2 * (count + len(new_slots)), width), dtype=np.uint64)
                    grown[:count] = found[:count]
                    found = grown
                found[count : count + len(new_slots)] = rows[empty[first]]
                table[new_slots] = np.arange(count, count + len(new_slots))
                count += len(new_slots)
            cand = table[slots]
            same = rows == found[cand]
            if same.all():
                ids[offset + pending] = cand
                break
            match = same.all(axis=1)
            ids[offset + pending[match]] = cand[match]
            pending, level = pending[~match], level + 1
        start = stop
    return found[:count].view(np.float64), ids


def feature_vocabulary(ds: GraphDataset) -> FeatureBasis:
    """Extract V, V*, a basis of SPAN(V), and per-graph coefficient matrices.

    Deduplication is float equality on feature rows, so a row seen with
    ``-0.0`` and with ``0.0`` is one row, stored with ``0.0``; rows are
    hashed in blocks and every hash match is checked exactly (see
    ``_distinct_rows``). The zero row is excluded from V and appended to
    V*. The basis is the greedy maximal independent subset of V in
    lexicographic row order, so the result is deterministic for a given
    dataset; its rank is V's by the rank test. The coefficients are solved
    once for the distinct rows, by the solver that decides the rank, and
    checked against them; the per-graph ``coeffs`` and the deduplicated
    ``t_set`` are gathered from that solve on their first read, not here.
    Raises ValueError naming the graph when its feature width is not the
    dataset's, naming the graph and the entry when a node feature is not
    finite, naming both ranks when the basis has fewer rows than V's rank,
    and naming the residual when the basis does not reconstruct the rows
    within RANK_TOL.
    """
    if not ds.items:
        raise ValueError("empty dataset")
    graphs = ds.graphs()
    shapes = [g.v.shape for g in graphs]
    for i, (_, width) in enumerate(shapes):
        if width != ds.feature_dim:
            raise ValueError(
                f"graph {i}: feature width {width}, but the dataset declares {ds.feature_dim}"
            )
    ends = np.cumsum([n for n, _ in shapes])
    distinct, row_ids = _distinct_rows(graphs, ends, ds.feature_dim)
    if not np.isfinite(distinct).all():
        i, g = next((i, g) for i, g in enumerate(graphs) if not np.isfinite(g.v).all())
        at = tuple(int(k) for k in np.argwhere(~np.isfinite(g.v))[0])
        raise ValueError(f"graph {i}: non-finite node feature at {at}: {g.v[at]}")
    order = np.lexsort(distinct.T[::-1])  # lexicographic, first column most significant
    distinct = distinct[order]
    inverse = np.argsort(order)[row_ids]

    vocabulary = distinct[np.any(distinct != 0.0, axis=1)]
    vocabulary_star = np.concatenate([vocabulary, np.zeros((1, ds.feature_dim))], axis=0)

    basis = vocabulary[independent_row_subset(vocabulary)]
    rank = _solve_rows(vocabulary, vocabulary[:0])[1]
    if len(basis) != rank:  # near RANK_TOL, rows each near the span of those kept
        raise ValueError(f"feature vocabulary of rank {rank} has a greedy basis of rank {len(basis)}")

    t_distinct = coefficients_in_basis(distinct, basis)
    recon = np.max(np.abs(t_distinct @ basis - distinct), initial=0.0)
    if recon > RANK_TOL:
        raise ValueError(f"basis reconstruction residual {recon:.3e} exceeds {RANK_TOL}")
    return _SolvedFeatureBasis(vocabulary, vocabulary_star, rank, basis, solve=(t_distinct, inverse, ends))


class _SolvedFeatureBasis(FeatureBasis):
    """The FeatureBasis ``feature_vocabulary`` returns: ``coeffs`` and
    ``t_set`` are built on first read from the ``solve``: the distinct
    rows' coefficients ``t_distinct``, each node's index into them,
    ``inverse``, and ``ends``, the cumulative node counts of the graphs.
    ``dataclasses.replace`` passes the six fields, as read; they are kept.

    Independent-mode decoding reads neither, and ``coeffs`` holds a
    coefficient row per node, the largest array of the basis.
    """

    def __init__(self, vocabulary, vocabulary_star, rank, basis, coeffs=None, t_set=None, *, solve=()):
        self.vocabulary, self.vocabulary_star = vocabulary, vocabulary_star
        self.rank, self.basis = rank, basis
        if solve:
            self._t_distinct, self._inverse, self._ends = solve
        else:
            self.coeffs, self.t_set = coeffs, t_set

    def _spans(self) -> list[tuple[int, int]]:
        ends = self._ends.tolist()
        return list(zip([0] + ends[:-1], ends))

    @cached_property
    def coeffs(self) -> list[np.ndarray]:
        t_all = self._t_distinct[self._inverse]
        return [t_all[a:b] for a, b in self._spans()]

    @cached_property
    def t_set(self) -> list[np.ndarray]:
        # Two graphs' T are byte-equal exactly when their nodes' coefficient
        # rows are, so each graph is keyed on the class ids of those rows,
        # and only the first graph of each key is gathered.
        t_rows: defaultdict[bytes, int] = defaultdict(itertools.count().__next__)
        classes = np.array([t_rows[t.tobytes()] for t in self._t_distinct], dtype=np.intp)
        row_class = classes[self._inverse]
        first: dict[bytes, tuple[int, int]] = {}
        for a, b in self._spans():
            first.setdefault(row_class[a:b].tobytes(), (a, b))
        return [self._t_distinct[self._inverse[a:b]] for a, b in first.values()]
