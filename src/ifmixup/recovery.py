"""Constructive recovery of the source pair from a mixed graph.

Every entry of a mix reads as s*[a] + (1-s)*[b] over a known independent
set, each source taking one member or the zero (dummy) member: an edge weight
over the one-member set {1}, a node-feature row over the feature vocabulary
V or the coefficient collection T (the two modes below). So edges and
features share one ratio reader, which clusters the values and reads s off
the soft ones, and one pattern reader, which reads the member each source
took; an edge weight is a row of width one. Whenever s != 0.5 the equation

    s * e + (1 - s) * e' = e_mixed      (e, e' binary, symmetric, zero diag)

has exactly two solutions, mirror images under (s, e, e') -> (1-s, e', e):
``edge_solutions`` reads the one with s < 0.5 and swaps it for the other.

* independent mode - V itself is linearly independent. Each mixed row has a
  unique coefficient vector over V.
* basis mode - only the collection of coefficient matrices T (one per
  training graph, features = T @ B for a basis B of SPAN(V)) is linearly
  independent. The mixed coefficient matrix, projected onto B, has a unique
  coefficient vector over the members that fit its size.

Each solve is one call of ``graphs._solve_rows``, the package's one solver,
whose singular values also prove the rows independent, as they do in
``check_linear_independence``. ``recovery_mode`` says which mode a dataset
admits, if either. The coefficients give the ratio when the edges leave it open.

A dummy node is a trailing node whose features, edge row and edge column are
exactly zero (-0.0 counts as zero). ``recover_pair`` strips them with
``strip_dummy_nodes``, which inverts the padding applied before mixing; a
source's own dummy nodes go too, since the mix cannot tell them from
padding, so a decode is correct up to such nodes (``RecoveredPair.matches``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import FeatureBasis, GraphDataset, NodeFeaturedGraph, _pad_rows, _solve_rows
from .graphs import _symmetry_violations
from .mixing import MAX_REDRAWS, BetaParams, mix_labels, mix_pair, sample_lambda

DEFAULT_TOL = 1e-9

# Mixing ratios closer to 0.5 than this are resampled in audited streams;
# closer than DEFAULT_TOL they are structurally unrecoverable.
HALF_GUARD = 1e-6


def sample_decodable_lambda(params: BetaParams, rng: np.random.Generator) -> float:
    """A ``sample_lambda`` draw, redrawn within ``HALF_GUARD`` of 0.5, at most ``MAX_REDRAWS`` times."""
    for _ in range(MAX_REDRAWS):
        lam = sample_lambda(params, rng)
        if abs(lam - 0.5) >= HALF_GUARD:
            return lam
    raise ValueError(f"{params} drew {MAX_REDRAWS} ratios in a row within {HALF_GUARD} of 0.5")


class RecoveryError(ValueError):
    """The input is not decodable as a mix of two binary-edge sources."""


def recovery_mode(basis: FeatureBasis) -> str | None:
    """The decoder a dataset admits: "independent" when its vocabulary V is
    linearly independent, else "basis" when its coefficient collection is,
    else None (neither assumption holds; mixes need not be invertible).

    Only a dependent V reads ``basis.t_set``, so on a basis from
    ``feature_vocabulary`` the first basis-mode verdict is where the
    collection gets built."""
    if basis.vocabulary_independent():
        return "independent"
    if basis.t_set_independent():
        return "basis"
    return None


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        at = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
        raise RecoveryError(f"non-finite {what} at {at}: {a[at]}")


@dataclass(eq=False)
class EdgeSolution:
    """One solution (s, e, e') of the edge equation.

    ``s`` is None in the degenerate identical-source case.
    """

    s: float | None
    e: np.ndarray
    e_prime: np.ndarray

    @property
    def partition(self) -> dict[str, list[tuple[int, int]]]:
        """The keys "00", "01", "10", "11" mapped to the off-diagonal node
        pairs (i, j) on which (e, e') equals (0,0), (0,1), (1,0), (1,1).
        Both orientations of each pair are listed."""
        iu, ju = np.triu_indices(self.e.shape[0], k=1)
        codes = 2 * self.e[iu, ju].astype(int) + self.e_prime[iu, ju].astype(int)
        part: dict[str, list[tuple[int, int]]] = {}
        for code, key in enumerate(("00", "01", "10", "11")):
            pairs = zip(iu[codes == code].tolist(), ju[codes == code].tolist())
            part[key] = [p for i, j in pairs for p in ((i, j), (j, i))]
        return part


@dataclass(eq=False)
class EdgeSolutionSet:
    """The full solution set: two mirrored solutions, or one degenerate one.

    ``degenerate`` is set when the mixed matrix is itself binary, i.e. the
    sources had identical edges; then e = e' = e_mixed and s is undetermined
    by the edges alone.
    """

    solutions: list[EdgeSolution]
    degenerate: bool = False


@dataclass(eq=False)
class RecoveredPair:
    """The decoded source pair; remixing with ``lam`` reproduces the input.

    ``lam`` is None only when edges and features are both identical between
    the sources, in which case every ratio reproduces the mix.
    """

    graph_a: NodeFeaturedGraph
    graph_b: NodeFeaturedGraph
    lam: float | None
    sources_identical: bool = False

    def matches(self, ga: NodeFeaturedGraph, gb: NodeFeaturedGraph, lam: float) -> bool:
        """Whether this is the decode of ``mix_pair(ga, gb, lam)``.

        Accepts (lam, ga, gb), its mirror (1 - lam, gb, ga), and, when the
        sources are identical, that one graph with no ratio. A decode is
        correct up to trailing dummy nodes: the mix cannot tell a source's
        own zero-feature isolated tail nodes from padding, so each source is
        compared after ``strip_dummy_nodes``. Edges must be equal and
        features within ``DEFAULT_TOL``.
        """
        ga, gb = strip_dummy_nodes(ga), strip_dummy_nodes(gb)
        decodes = [] if self.lam is None else [(lam, ga, gb), (1.0 - lam, gb, ga)]
        return any(
            abs(self.lam - s) <= DEFAULT_TOL
            and _graphs_equal(self.graph_a, a)
            and _graphs_equal(self.graph_b, b)
            for s, a, b in decodes
        ) or (
            self.sources_identical and _graphs_equal(ga, gb) and _graphs_equal(self.graph_a, ga)
        )


def _graphs_equal(a: NodeFeaturedGraph, b: NodeFeaturedGraph) -> bool:
    return (
        a.n == b.n
        and np.array_equal(a.e, b.e)
        and float(np.max(np.abs(a.v - b.v), initial=0.0)) <= DEFAULT_TOL
    )


def _mixing_ratio(values: np.ndarray, what: str) -> float | None:
    """The ratio s < 0.5 that ``values`` were mixed with, or None when none
    is soft. They cluster (within DEFAULT_TOL of each cluster's first value)
    at no more than 0, s, 1-s and 1; RecoveryError names ``what`` when not.
    """
    centers: list[float] = []
    for x in np.unique(values):  # a duplicate never opens a cluster
        if not centers or x - centers[-1] > DEFAULT_TOL:
            centers.append(float(x))
    if len(centers) > 4:
        raise RecoveryError(f"{len(centers)} distinct {what}s; a mix of two sources has at most 4")
    soft = [c for c in centers if min(abs(c), abs(c - 1.0)) > DEFAULT_TOL]
    if len(soft) > 2 or not all(0.0 < c < 1.0 for c in soft):
        raise RecoveryError(f"{what}s {soft} cannot all come from one mixing ratio")
    if len(soft) == 2 and abs(soft[0] + soft[1] - 1.0) > DEFAULT_TOL:
        raise RecoveryError(f"{what}s {soft[0]} and {soft[1]} do not pair to a single mixing ratio")
    return min(soft[0], 1.0 - soft[-1]) if soft else None


def _split_coefficients(coeff: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Read each row of ``coeff`` as s*[a] + (1-s)*[b] over an independent set.

    A row holds a feature row's coefficients over V or T, or one edge weight
    over {1}. Returns the member indices (ia, ib) that the two sources took
    per row, with -1 for the zero (dummy) member. Raises RecoveryError when
    s is within DEFAULT_TOL of 0.5, and naming the first misfit row.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if abs(s - 0.5) <= DEFAULT_TOL:
        raise RecoveryError(f"mixing ratio {s} indistinguishable from 0.5")
    rows, width = coeff.shape
    # Per side, the first member at s (a's side) or 1-s (b's side), or at 1
    # for both; a row with none falls through to a spare column, the dummy row.
    near = np.abs(coeff - np.array([s, 1.0 - s])[:, None, None]) <= DEFAULT_TOL
    near |= np.abs(coeff - 1.0) <= DEFAULT_TOL
    ia, ib = np.concatenate([near, np.ones((2, rows, 1), dtype=bool)], axis=2).argmax(axis=2)

    expected = np.zeros((rows, width + 1))
    expected[np.arange(rows), ia] = s
    expected[np.arange(rows), ib] += 1.0 - s
    bad = np.flatnonzero((np.abs(coeff - expected[:, :width]) > DEFAULT_TOL).any(axis=1))
    if bad.size:
        r = int(bad[0])
        nonzero = coeff[r][np.abs(coeff[r]) > DEFAULT_TOL].tolist()
        raise RecoveryError(f"row {r}: coefficients {nonzero} are not s*[a] + (1-s)*[b] for s={s}")
    ia[ia == width] = -1
    ib[ib == width] = -1
    return ia, ib


def edge_solutions(e_mixed: np.ndarray) -> EdgeSolutionSet:
    """Solve s*e + (1-s)*e' = e_mixed for binary symmetric e, e' and scalar s.

    Returns the two mirrored solutions ordered with s < 0.5 first, or the
    single degenerate solution when e_mixed is binary. Raises RecoveryError
    when e_mixed is not square and exactly symmetric with a zero diagonal,
    when its values cannot come from mixing two binary matrices, or when
    the ratio is indistinguishable from 0.5.
    """
    e_mixed = np.asarray(e_mixed, dtype=np.float64)
    _require_finite(e_mixed, "mixed edge weight")
    if e_mixed.ndim != 2 or e_mixed.shape[0] != e_mixed.shape[1]:
        raise RecoveryError(f"mixed edge matrix must be square, got shape {e_mixed.shape}")
    problems = _symmetry_violations(e_mixed)
    if problems:
        raise RecoveryError(f"mixed edge matrix {problems[0]}")

    # Every weight is read, so row r of the pattern is entry divmod(r, n);
    # the zero diagonal reads as the dummy member on both sides.
    s = _mixing_ratio(e_mixed.ravel(), "edge weight")
    if s is None:
        e = np.where(e_mixed > 0.5, 1.0, 0.0)
        return EdgeSolutionSet([EdgeSolution(None, e, e.copy())], degenerate=True)
    ia, ib = _split_coefficients(e_mixed.reshape(-1, 1), s)
    e, e_p = (np.where(side == 0, 1.0, 0.0).reshape(e_mixed.shape) for side in (ia, ib))
    return EdgeSolutionSet([EdgeSolution(s, e, e_p), EdgeSolution(1.0 - s, e_p, e)])


_OFF_SPAN = "mixed features leave SPAN(V)"
_NO_PAIR = "no training coefficient pair reproduces the mixed features"


def _unique_coefficients(
    target: np.ndarray, rows: np.ndarray, what: str, misfit: str
) -> np.ndarray:
    """The coefficients C with C @ rows = target, proven unique by the same solve.

    One ``graphs._solve_rows`` call, the solver of every rank verdict, gives
    the coefficients and the rank of ``rows``. The rows are independent
    exactly when that rank equals their count, so more rows than columns
    always fall short, and an empty set is independent. Raises
    RecoveryError naming ``what`` when they are not, and ``misfit`` when
    target leaves their span.
    """
    coeff, rank = _solve_rows(rows, target)
    if rank < rows.shape[0]:
        raise RecoveryError(f"{what} is not linearly independent")
    residual = np.max(np.abs(coeff @ rows - target), initial=0.0)
    if residual > DEFAULT_TOL:
        raise RecoveryError(f"{misfit}: residual {residual:.3e}")
    return coeff


def _feature_coefficients(v_mixed: np.ndarray, over: np.ndarray | FeatureBasis):
    """The mixed features' unique coefficients, from one solve, and the reader
    of the sources' features from their split: rows of V* (V plus the zero
    row) over a vocabulary V, or T @ B for the pair (T, T') over a
    FeatureBasis's members that fit in the mix, the only ones that must be
    independent for the row to be unique. Only the FeatureBasis form reads
    ``t_set``; neither form reads ``coeffs``."""
    v_mixed = np.atleast_2d(np.asarray(v_mixed, dtype=np.float64))
    _require_finite(v_mixed, "mixed node feature")
    if not isinstance(over, FeatureBasis):
        vocabulary = np.atleast_2d(np.asarray(over, dtype=np.float64))
        coeff = _unique_coefficients(v_mixed, vocabulary, "feature vocabulary", _OFF_SPAN)
        vocabulary_star = np.concatenate([vocabulary, np.zeros((1, vocabulary.shape[1]))])
        return coeff, lambda ia, ib: (vocabulary_star[ia], vocabulary_star[ib])
    t_mixed = _unique_coefficients(v_mixed, over.basis, "span basis", _OFF_SPAN)
    n = v_mixed.shape[0]
    members = [_pad_rows(t, n) for t in over.t_set if t.shape[0] <= n]
    if not members:
        raise RecoveryError(_NO_PAIR)
    members = np.stack(members)
    flat = members.reshape(len(members), -1)
    coeff = _unique_coefficients(t_mixed.reshape(1, -1), flat, "coefficient collection", _NO_PAIR)

    def sources(ia: np.ndarray, ib: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if ia[0] < 0 or ib[0] < 0:
            raise RecoveryError(_NO_PAIR)
        return members[ia[0]] @ over.basis, members[ib[0]] @ over.basis

    return coeff, sources


def recover_features_independent(
    v_mixed: np.ndarray, s: float, vocabulary: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decode v_mixed = s*v + (1-s)*v' when the vocabulary is independent.

    Every row of v and v' must lie in the vocabulary extended with the zero
    row. Raises RecoveryError when the vocabulary is dependent or some row
    admits no such decomposition.
    """
    coeff, sources = _feature_coefficients(v_mixed, vocabulary)
    return sources(*_split_coefficients(coeff, s))


def recover_features_basis(
    v_mixed: np.ndarray, s: float, basis: FeatureBasis
) -> tuple[np.ndarray, np.ndarray]:
    """Decode v_mixed = s*v + (1-s)*v' when the coefficient collection is independent.

    Projects the mixed rows onto the span basis to obtain the mixed
    coefficient matrix, solves for its unique coefficients over the training
    matrices that fit it, and reads the source pair (T, T') off them.
    """
    coeff, sources = _feature_coefficients(v_mixed, basis)
    return sources(*_split_coefficients(coeff, s))


def strip_dummy_nodes(g: NodeFeaturedGraph) -> NodeFeaturedGraph:
    """Remove trailing dummy nodes (inverts pad_graph): a backward scan that
    stops at the first node whose features, edge row or edge column is not
    exactly zero."""
    v, e, n = g.v, g.e, g.n
    while n and not (v[n - 1].any() or e[n - 1].any() or e[:, n - 1].any()):
        n -= 1
    return g if n == g.n else NodeFeaturedGraph(v[:n].copy(), e[:n, :n].copy())


def recover_pair(
    g_mixed: NodeFeaturedGraph, basis: FeatureBasis, mode: str = "independent"
) -> RecoveredPair:
    """Decode a mixed graph back into its two sources and the mixing ratio.

    The pair is inherently unordered: (s, A, B) and (1-s, B, A) describe the
    same mix, and the canonical result carries s < 0.5. When the sources
    were identical the mix equals the source and ``lam`` is None.
    """
    if mode not in ("independent", "basis"):
        raise ValueError(f"unknown recovery mode {mode!r}")

    sol = edge_solutions(g_mixed.e).solutions[0]  # canonical: s < 0.5
    s, over = sol.s, (basis.vocabulary if mode == "independent" else basis)
    if s is None:  # binary mixed edges: one solve gives the ratio, then the split
        coeff, sources = _feature_coefficients(g_mixed.v, over)
        s = _mixing_ratio(coeff.ravel(), "feature coefficient")
        if s is None:
            ga = NodeFeaturedGraph(g_mixed.v.copy(), sol.e)
            gb = NodeFeaturedGraph(g_mixed.v.copy(), sol.e_prime)
            return RecoveredPair(strip_dummy_nodes(ga), strip_dummy_nodes(gb), None, True)
        va, vb = sources(*_split_coefficients(coeff, s))
    else:  # by the public names, which the benchmark's spans rebind
        decode = recover_features_independent if mode == "independent" else recover_features_basis
        va, vb = decode(g_mixed.v, s, over)
    ga = NodeFeaturedGraph(va, sol.e)
    gb = NodeFeaturedGraph(vb, sol.e_prime)

    remix_e = s * ga.e + (1.0 - s) * gb.e
    remix_v = s * ga.v + (1.0 - s) * gb.v
    drift = max(np.max(np.abs(remix_e - g_mixed.e)), np.max(np.abs(remix_v - g_mixed.v)))
    if drift > 10 * DEFAULT_TOL:
        raise RecoveryError(f"edge and feature recoveries disagree: remix residual {drift:.3e}")

    return RecoveredPair(strip_dummy_nodes(ga), strip_dummy_nodes(gb), s)


@dataclass
class IntrusionAuditReport:
    """Outcome of an empirical intrusion audit over random mixes."""

    dataset: str
    trials: int
    mode: str | None
    assumption_ok: bool
    collisions: int = 0
    recovery_failures: int = 0
    first_failure: str | None = None

    def ok(self) -> bool:
        return self.assumption_ok and self.collisions == 0 and self.recovery_failures == 0

    def to_text(self) -> str:
        lines = [
            f"intrusion audit: {self.dataset}",
            f"  trials:             {self.trials}",
            f"  feature assumption: "
            + (f"satisfied ({self.mode} mode)" if self.assumption_ok else "VIOLATED - audit skipped"),
        ]
        if self.assumption_ok:
            lines.append(f"  label collisions:   {self.collisions}")
            lines.append(f"  recovery failures:  {self.recovery_failures}")
            if self.first_failure:
                lines.append(f"  first failure:      {self.first_failure}")
            lines.append(f"  verdict:            {'intrusion-free' if self.ok() else 'FAILED'}")
        return "\n".join(lines)


def _rows_within(v: np.ndarray, rows: set[bytes]) -> bool:
    """Whether every row of ``v``, compared as floats, is one of ``rows``
    (the bytes of rows with -0.0 stored as 0.0)."""
    data, width = (v + 0.0).tobytes(), v.itemsize * v.shape[1]
    return all(data[k * width : (k + 1) * width] in rows for k in range(v.shape[0]))


def intrusion_audit(
    ds: GraphDataset,
    trials: int,
    params: BetaParams,
    rng: np.random.Generator,
) -> IntrusionAuditReport:
    """Mix random pairs and verify no label-conflicting collision can arise.

    Each trial draws a pair and a ratio, then checks (a) the mixed graph is
    not equal, entry by entry, to any training graph carrying a different
    label once that graph is padded to the mix's size, and (b) the decoder
    returns the source pair (up to trailing dummy nodes, see
    ``RecoveredPair.matches``). Failures are counted, not raised. The audit
    is skipped when neither feature-invertibility assumption holds for the
    dataset. Raises ValueError when ``trials`` is below 1.

    A mix with a feature row outside V* (V plus the zero row) equals no
    training graph, so its collision check ends there: every row of a
    training graph is a row of V*, and so is every dummy row padding adds.
    The rows are compared as floats, by their bytes after adding 0.0. When
    V is independent, a row s*a + (1-s)*b with a != b lies off V* unless it
    rounds onto one of its rows, so a mix passes this filter only when its
    sources' features agree node by node, or nearly so.

    The other mixes are compared exactly with every training graph no
    larger than the mix, padded to the mix's size, up to the first one that
    equals it under a different label.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    # imported per call, so a rebinding of graphs.feature_vocabulary (a span patch) sees it
    from .graphs import feature_vocabulary, pad_graph

    basis = feature_vocabulary(ds)
    mode = recovery_mode(basis)
    if mode is None:
        return IntrusionAuditReport(ds.name, trials, None, assumption_ok=False)

    report = IntrusionAuditReport(ds.name, trials, mode, assumption_ok=True)
    items = ds.items
    vocabulary_star = {row.tobytes() for row in basis.vocabulary_star + 0.0}
    for trial in range(trials):
        ia, ib = int(rng.integers(len(items))), int(rng.integers(len(items)))
        lam = sample_decodable_lambda(params, rng)
        ga, ya = items[ia]
        gb, yb = items[ib]
        mixed = mix_pair(ga, gb, lam)
        mixed_label = mix_labels(ya, yb, lam)

        candidates = items if _rows_within(mixed.v, vocabulary_star) else ()
        for g_train, y_train in candidates:
            if g_train.n > mixed.n:
                continue
            padded = pad_graph(g_train, mixed.n)
            if np.array_equal(padded.e, mixed.e) and np.array_equal(padded.v, mixed.v):
                if not np.array_equal(y_train.p, mixed_label.p):
                    report.collisions += 1
                    if report.first_failure is None:
                        report.first_failure = (
                            f"trial {trial}: mix({ia}, {ib}, lam={lam}) collides with a "
                            f"training graph of a different label"
                        )
                    break

        try:
            rec = recover_pair(mixed, basis, mode)
        except RecoveryError as exc:
            report.recovery_failures += 1
            if report.first_failure is None:
                report.first_failure = f"trial {trial}: pair ({ia}, {ib}), lam={lam}: {exc}"
            continue
        if not rec.matches(ga, gb, lam):
            report.recovery_failures += 1
            if report.first_failure is None:
                report.first_failure = (
                    f"trial {trial}: pair ({ia}, {ib}), lam={lam}: recovered pair differs"
                )
    return report
