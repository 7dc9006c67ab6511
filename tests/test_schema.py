"""The config schema: every document either builds a config that round-trips
and trains, or fails with a ValueError that names a field."""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ifmixup as m
from ifmixup.training import batch_gradients, build_epoch_stream

from conftest import rand_one_hot_graph

# Valid values, kept small enough that one training step takes milliseconds;
# the Beta parameters also reach huge and tiny finite values, whose draws
# round to 0, 1 or 0.5, so the lambda samplers must give up by name.
BETA_PARAMETER = st.floats(0.1, 30.0) | st.sampled_from([1e-300, 1e16, 1e20, 1e300])
VALID = {
    "model.arch": st.sampled_from(["gcn", "gin"]),
    "model.k": st.integers(1, 3),
    "model.hidden": st.integers(1, 4) | st.integers(1, 4).map(np.int64),
    "model.dropout": st.floats(0.0, 0.9),
    "model.readout": st.sampled_from(["sum", "mean"]),
    "model.gcn_skip": st.booleans(),
    "model.gin_mlp_depth": st.integers(1, 2),
    "model.gin_mlp_bias": st.booleans(),
    "augment.kind": st.sampled_from(m.AUGMENT_KINDS),
    "augment.ratio": st.floats(0.0, 0.9),
    "augment.beta.alpha": BETA_PARAMETER,
    "augment.beta.beta": BETA_PARAMETER,
    "lr0": st.floats(1e-4, 0.1),
    "batch_size": st.integers(1, 4),
    "epochs": st.integers(1, 3),
    "folds": st.integers(2, 3),
    "runs": st.integers(1, 3),
    "seed": st.integers(0, 2**32),
    "weight_decay": st.floats(0.0, 0.1),
    "audit_mixes": st.booleans(),
}
# Out-of-range, wrong-type and non-finite values (some are valid for some
# fields, and all are small).
BAD = st.sampled_from(
    [-1, 0, -0.5, 1.0, 2.5, float("nan"), float("inf"), -float("inf"), True, None, "1", [], [1, 2, 3], {}]
)
BLOCKS = ("", "model", "augment", "augment.beta")
FIELD_NAMES = {part for path in VALID for part in path.split(".")} | {"model", "augment", "beta"}

ITEMS = [
    (rand_one_hot_graph(np.random.default_rng(i), 3 + i % 2, 2, 0.6), m.LabelDistribution.one_hot(i % 2, 2))
    for i in range(4)
]


def _put(doc: dict, path: str, value) -> None:
    *parents, leaf = path.split(".")
    for key in parents:
        if not isinstance(doc.get(key), dict):
            doc[key] = {}
        doc = doc[key]
    doc[leaf] = value


@st.composite
def documents(draw) -> dict:
    """Any subset of the schema's keys with valid values, then at most one of:
    a bad value at a field or block, an unknown key in a block, or the Beta
    block written as a list."""
    doc: dict = {}
    for path in draw(st.lists(st.sampled_from(sorted(VALID)), unique=True)):
        _put(doc, path, draw(VALID[path]))
    change = draw(st.sampled_from(["none", "bad", "unknown", "beta-list"]))
    if change == "bad":
        _put(doc, draw(st.sampled_from(sorted(VALID) + list(BLOCKS[1:]))), draw(BAD))
    elif change == "unknown":
        _put(doc, ".".join(filter(None, [draw(st.sampled_from(BLOCKS)), "momentum"])), 0.9)
    elif change == "beta-list":
        _put(doc, "augment.beta", [draw(BETA_PARAMETER | BAD), draw(BETA_PARAMETER | BAD)])
    return doc


def one_step(cfg: m.TrainConfig) -> float:
    rng = np.random.default_rng(cfg.seed)
    params = m.init_params(cfg.model, 2, 2, rng)
    stream = build_epoch_stream(ITEMS, cfg, rng)
    loss, grads = batch_gradients(stream[: cfg.batch_size], params, rng)
    state = m.AdamWState.for_params(params)
    m.adamw_step(params.tensors, grads, state, m.lr_at_epoch(cfg.lr0, 0), cfg.weight_decay)
    return loss


@settings(max_examples=300)
@given(documents())
def test_document_trains_or_names_a_field(doc):
    try:
        cfg = m.train_config_from_dict(doc)
    except ValueError as exc:
        assert any(name in str(exc) for name in FIELD_NAMES | {"momentum"}), exc
        return
    as_dict = m.train_config_to_dict(cfg)
    assert m.train_config_from_dict(as_dict) == cfg
    assert m.train_config_to_dict(m.train_config_from_dict(as_dict)) == as_dict
    try:
        loss = one_step(cfg)
    except ValueError as exc:  # only a Beta whose draws all round off may refuse
        assert f"alpha={cfg.augment.beta.alpha!r}, beta={cfg.augment.beta.beta!r}" in str(exc), exc
        return
    assert np.isfinite(loss)


def test_document_keys_cover_the_schema():
    """The drawn documents reach every field of TrainConfig and its blocks."""

    def paths(cls, prefix=""):
        for f in dataclasses.fields(cls):
            kind = f.metadata["kind"]
            if dataclasses.is_dataclass(kind):
                yield from paths(kind, f"{prefix}{f.name}.")
            else:
                yield prefix + f.name

    assert sorted(paths(m.TrainConfig)) == sorted(VALID)
