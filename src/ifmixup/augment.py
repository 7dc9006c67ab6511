"""Baseline graph augmentations the mixing operator is compared against.

* DropEdge removes a fixed fraction of undirected edges, fresh per call.
* DropNode removes a fixed fraction of nodes with their incident edges.

The readout-level and hidden-level (manifold) mixing baselines interpolate
model representations, so they run on the tape inside :mod:`.training`.

All ratios use floor(ratio * count) and every structural output passes
``validate_graph``. With ratio 0 each transform is the identity on its
input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._schema import check_fields, rule
from .graphs import NodeFeaturedGraph, is_binary
from .mixing import BetaParams

AUGMENT_KINDS = (
    "none",
    "if_mixup",
    "drop_edge",
    "drop_node",
    "mixup_graph",
    "manifold_mixup",
    "if_mixup_shuffled",
)


@dataclass(frozen=True)
class AugmentSpec:
    """Which augmentation a training run applies, with its knobs.

    Only the fields relevant to ``kind`` are read: ``ratio`` by the drop
    variants, ``beta`` by the mixing variants.
    """

    kind: str = rule("none", str, AUGMENT_KINDS)
    ratio: float = rule(0.0, float, "[0, 1)")
    beta: BetaParams = rule(BetaParams(1.0, 1.0), BetaParams, listed=True)

    __post_init__ = check_fields


def drop_edge(g: NodeFeaturedGraph, ratio: float, rng: np.random.Generator) -> NodeFeaturedGraph:
    """Remove floor(ratio * E) undirected edges uniformly without replacement."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"drop ratio must lie in [0, 1), got {ratio}")
    if not is_binary(g):
        raise ValueError("drop_edge expects a binary-edge graph")
    iu, ju = np.nonzero(np.triu(g.e, k=1))
    n_edges = iu.size
    n_drop = int(np.floor(ratio * n_edges))
    e = g.e.copy()
    if n_drop > 0:
        picks = rng.choice(n_edges, size=n_drop, replace=False)
        e[iu[picks], ju[picks]] = 0.0
        e[ju[picks], iu[picks]] = 0.0
    return NodeFeaturedGraph(g.v.copy(), e)


def drop_node(g: NodeFeaturedGraph, ratio: float, rng: np.random.Generator) -> NodeFeaturedGraph:
    """Remove floor(ratio * n) nodes and their incident edges, re-indexing."""
    if ratio < 0.0:
        raise ValueError(f"drop ratio must be nonnegative, got {ratio}")
    if not is_binary(g):
        raise ValueError("drop_node expects a binary-edge graph")
    n_drop = int(np.floor(ratio * g.n))
    if n_drop >= g.n:
        raise ValueError(f"dropping {n_drop} of {g.n} nodes would leave an empty graph")
    if n_drop == 0:
        return NodeFeaturedGraph(g.v.copy(), g.e.copy())
    dropped = rng.choice(g.n, size=n_drop, replace=False)
    keep = np.setdiff1d(np.arange(g.n), dropped)  # sorted: relative order kept
    return NodeFeaturedGraph(g.v[keep].copy(), g.e[np.ix_(keep, keep)].copy())
