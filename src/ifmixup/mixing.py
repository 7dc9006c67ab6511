"""Pairwise graph mixing.

Two binary graphs are first padded to a common node count with disconnected
zero-feature dummy nodes, then interpolated entry-wise with a coefficient
``lam`` drawn from a Beta distribution:

    e_mixed = lam * e_A + (1 - lam) * e_B
    v_mixed = lam * v_A + (1 - lam) * v_B
    y_mixed = lam * y_A + (1 - lam) * y_B

The mixed edge matrix has soft weights in [0, 1]; the label becomes a soft
distribution. Node alignment is by stored node ID (no shuffling).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass

import numpy as np

from ._schema import check_fields, rule
from .graphs import LabelDistribution, NodeFeaturedGraph, is_binary, pad_pair


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of the Beta distribution the mixing ratio is drawn from."""

    alpha: float = rule(MISSING, float, "(0, inf)")
    beta: float = rule(MISSING, float, "(0, inf)")

    __post_init__ = check_fields

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


# Rejected draws in a row after which a ratio sampler gives up on its Beta.
MAX_REDRAWS = 1000

# The five ratio distributions used throughout the sweep experiments.
SWEEP_BETAS = (
    BetaParams(1.0, 1.0),
    BetaParams(2.0, 2.0),
    BetaParams(5.0, 1.0),
    BetaParams(10.0, 1.0),
    BetaParams(20.0, 1.0),
)


@dataclass(eq=False)
class MixedSample:
    """One synthetic training sample: mixed graph, soft label, and the ratio used."""

    graph: NodeFeaturedGraph
    label: LabelDistribution
    lam: float
    source_ids: tuple[int, int]


def sample_lambda(params: BetaParams, rng: np.random.Generator) -> float:
    """One Beta(alpha, beta) draw in the open interval (0, 1).

    Exact endpoint draws are resampled: they are probability-zero events for
    a continuous Beta, and excluding them keeps mixed labels strictly soft.
    ``MAX_REDRAWS`` of them in a row raise ValueError instead.
    """
    for _ in range(MAX_REDRAWS):
        lam = float(rng.beta(params.alpha, params.beta))
        if 0.0 < lam < 1.0:
            return lam
    raise ValueError(f"{params} drew {MAX_REDRAWS} ratios in a row at exactly 0 or 1")


def beta_pdf(params: BetaParams, x: float) -> float:
    """Density x^(a-1) (1-x)^(b-1) / B(a, b), with 0^0 taken as 1 at the endpoints."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    log_norm = math.lgamma(params.alpha + params.beta) - math.lgamma(params.alpha) - math.lgamma(params.beta)

    def powz(base: float, expo: float) -> float:
        if expo == 0.0:
            return 1.0
        if base == 0.0:
            return 0.0 if expo > 0 else math.inf
        return base**expo

    return math.exp(log_norm) * powz(x, params.alpha - 1.0) * powz(1.0 - x, params.beta - 1.0)


def mix_pair(ga: NodeFeaturedGraph, gb: NodeFeaturedGraph, lam: float) -> NodeFeaturedGraph:
    """Interpolate two binary graphs after dummy-node padding."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"mixing ratio must lie in (0, 1), got {lam}")
    if ga.d != gb.d:
        raise ValueError(f"feature dimension mismatch: {ga.d} vs {gb.d}")
    if not is_binary(ga) or not is_binary(gb):
        raise ValueError("mix_pair requires binary source graphs")
    pa, pb = pad_pair(ga, gb)
    v = lam * pa.v + (1.0 - lam) * pb.v
    e = lam * pa.e + (1.0 - lam) * pb.e
    return NodeFeaturedGraph(v, e)


def mix_labels(ya: LabelDistribution, yb: LabelDistribution, lam: float) -> LabelDistribution:
    """Convex combination lam * ya + (1 - lam) * yb."""
    if ya.num_classes != yb.num_classes:
        raise ValueError(f"class count mismatch: {ya.num_classes} vs {yb.num_classes}")
    return LabelDistribution(lam * ya.p + (1.0 - lam) * yb.p)


def mix_items(
    a: tuple[NodeFeaturedGraph, LabelDistribution],
    b: tuple[NodeFeaturedGraph, LabelDistribution],
    lam: float,
    source_ids: tuple[int, int] = (-1, -1),
) -> MixedSample:
    """Mix two (graph, label) dataset items into one synthetic sample."""
    ga, ya = a
    gb, yb = b
    return MixedSample(mix_pair(ga, gb, lam), mix_labels(ya, yb, lam), lam, source_ids)
