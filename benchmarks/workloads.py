"""The benchmark workloads and the three closed-loop phases each one runs.

Every workload is one generated dataset plus one training configuration.
A run sets the workload up several times, then spends its seconds on three
phases in a closed loop (one call after the other, from one process):

* train   - the CV cell of run 0, fold 0 through ``train_single``, each
            epoch timestamped by its per-epoch callback;
* audit   - whole ``intrusion_audit`` calls, each one paying its own
            ``feature_vocabulary`` pass;
* recover - passes of single ``recover_pair`` calls over mixes generated
            beforehand.

Every workload runs every phase, because every end-to-end metric is
reported for every workload; what tells the workloads apart is the data,
the model and how the run's seconds are shared between the phases.

Each phase repeats a fixed set of items (the epochs of one CV cell, one
audit call, the mixes), so every item is timed several times over the run.
Every timing is reported in reference seconds, against samples of a fixed
reference computation taken all through the run (see ``speed.py``),
because a shared machine's speed swings by up to twice for seconds to
minutes at a time. Each item keeps the median of its timings, and the
metrics are medians and percentiles over items. Repeats must give
identical results, which doubles as a determinism check.

In a traced run every unit runs untraced and then, straight after, again
with spans recorded around the package's public functions (see
``spans.py``). The two copies must agree exactly, and their wall-time
ratio, reference samples left out, is the tracing overhead.
"""

from __future__ import annotations

import copy
import math
import multiprocessing
import statistics
import sys
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable

import numpy as np

import ifmixup.graphs
import ifmixup.mixing
import ifmixup.recovery
from ifmixup.augment import AugmentSpec
from ifmixup.graphs import GraphDataset, NodeFeaturedGraph, feature_vocabulary
from ifmixup.mixing import BetaParams, mix_pair, sample_lambda
from ifmixup.models import (
    ModelConfig,
    apply_dropout,
    cross_entropy_t,
    forward_trace,
    head_logits,
    head_logits_layer_block,
    init_params,
    wrap_params,
)
from ifmixup.recovery import HALF_GUARD, RecoveryError, intrusion_audit
from ifmixup.training import (
    AdamWState,
    TrainConfig,
    adamw_step,
    batch_gradients,
    build_epoch_stream,
    derive_rng,
    evaluate,
    lr_at_epoch,
    stratified_folds,
    train_single,
)
from ifmixup.tudataset import (
    ParsedDataset,
    compare_table5,
    dataset_stats,
    load_dataset,
    write_tudataset,
)

import inputs
from spans import Recorder
from speed import Interval, Speedometer

CELL_EPOCHS = 5  # enough for the loss to fall on every workload
SETUP_REPEATS = (3, 15)  # at least 3 set-ups, up to 15 while they take under 2 s in all
AUDIT_BETA = BetaParams(2.0, 2.0)  # the CLI audit default
AUDIT_STREAM = 2
GRAD_TOL = 1e-12
DECODE_TOL = 1e-9  # recovery's own default tolerance


# The baseline config: GIN K=5 h=64, batch 32, if_mixup Beta(20, 1).
GIN_IF_MIXUP = TrainConfig(
    model=ModelConfig(arch="gin", k=5, hidden=64),
    augment=AugmentSpec("if_mixup", beta=BetaParams(20.0, 1.0)),
    batch_size=32,
    epochs=CELL_EPOCHS,
)

# GCN K=3 h=64, batch 32, manifold mixup Beta(2, 2): two forwards per sample.
GCN_MANIFOLD = TrainConfig(
    model=ModelConfig(arch="gcn", k=3, hidden=64),
    augment=AugmentSpec("manifold_mixup", beta=BetaParams(2.0, 2.0)),
    batch_size=32,
    epochs=CELL_EPOCHS,
)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], ParsedDataset]
    dataset: str  # the name make_inputs gives its set, and so its files
    train: TrainConfig
    audit_trials: int  # trials per intrusion_audit call
    mode: str  # the recovery mode the dataset must select
    shares: tuple[float, float, float]  # of the run's seconds: train, audit, recover
    train_graphs: int | None = None  # train on this many graphs of the set (None: all)
    encode: Callable[[GraphDataset], GraphDataset] | None = None
    table5: bool = False  # the set must match its Table 5 row
    mixes: int = 32  # mixes per recover pass


# Why each workload is in the benchmark is recorded in BENCHMARK.json.

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_mutag_gin_ifmixup",
            inputs.mutag_shaped,
            "MUTAG_SHAPED",
            GIN_IF_MIXUP,
            audit_trials=100,
            mode="independent",
            shares=(0.5, 0.3, 0.2),
        ),
        Workload(
            "audit_nci1_independent",
            inputs.nci1_shaped,
            "NCI1",
            GCN_MANIFOLD,
            audit_trials=20,
            mode="independent",
            shares=(0.2, 0.7, 0.1),
            train_graphs=200,
            table5=True,
        ),
        Workload(
            "audit_basis",
            inputs.basis_shaped,
            "BASIS_SHAPED",
            GIN_IF_MIXUP,
            audit_trials=20,
            mode="basis",
            shares=(0.35, 0.35, 0.3),
            encode=inputs.merge_basis_label,
            mixes=16,
        ),
    )
}


@dataclass
class Result:
    """Samples, timings per item, counts and failed checks of one run."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    times: dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, name: str, values) -> None:
        self.samples.setdefault(name, []).extend(values)

    def time_item(self, name: str, key, iv: Interval) -> None:
        """Record one timing of item ``key``."""
        self.times.setdefault(name, {}).setdefault(key, []).append(iv)

    def item_medians(self, name: str, speed: Speedometer) -> list[float]:
        """The median of each item's timings in reference seconds, in item order."""
        return [statistics.median(map(speed.reference_seconds, v)) for v in self.times[name].values()]

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


@dataclass
class Prepared:
    ds: GraphDataset
    train: list  # the training split of CV fold 0
    val: list
    cfg: TrainConfig

    def rng(self) -> np.random.Generator:
        """The substream ``cross_validate`` gives run 0, fold 0."""
        return derive_rng(self.cfg.seed, 0, 0)


# -- inputs and set-up ------------------------------------------------------------------


def _generate(wl: Workload, seed: int, directory: str) -> None:
    parsed = wl.make_inputs(seed)
    if parsed.name != wl.dataset:
        raise ValueError(f"{wl.name}: generated set is called {parsed.name!r}, not {wl.dataset!r}")
    write_tudataset(parsed, directory)


def write_inputs(wl: Workload, seed: int, directory: str) -> None:
    """Generate the workload's dataset from the seed and write it as TUDataset files.

    The files stand in for a dataset already on disk, so they are made in a
    child process: the generated set never counts towards the peak memory of
    the measured process, which only reads the files back. The child is
    forked, which is safe because this process runs no other thread (BLAS
    is pinned to one), and unlike a spawned child it leaves no helper
    process behind.
    """
    child = multiprocessing.get_context("fork").Process(target=_generate, args=(wl, seed, directory))
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"{wl.name}: generating the inputs failed (exit code {child.exitcode})")


def _warm_up(prep: Prepared) -> None:
    """``init_params`` and one small call on every timed path, so that
    first-call costs land in set-up."""
    cfg = prep.cfg
    rng = np.random.default_rng(0)
    items = prep.train[:8]
    params = init_params(cfg.model, prep.ds.feature_dim, prep.ds.num_classes, rng)
    stream = build_epoch_stream(items, cfg, rng)
    _, grads = batch_gradients(stream[:4], params, rng)
    adamw_step(params.tensors, grads, AdamWState.for_params(params), cfg.lr0, cfg.weight_decay)
    evaluate(params, items[:2])
    small = GraphDataset(prep.ds.items[:12], prep.ds.num_classes, prep.ds.feature_dim, prep.ds.name)
    intrusion_audit(small, 2, AUDIT_BETA, rng)


def set_up(wl: Workload, seed: int, directory: str, rec: Recorder | None = None) -> Prepared:
    """From the input files to a model ready for its first timed call."""
    load = load_dataset if rec is None else rec.wrap(load_dataset, "tudataset.load_dataset")
    ds = load(directory, wl.dataset)
    if wl.encode is not None:
        ds = wl.encode(ds)
    cfg = replace(wl.train, seed=seed)
    items = ds.items[: wl.train_graphs] if wl.train_graphs else ds.items
    folds = stratified_folds([y.argmax() for _, y in items], cfg.folds, np.random.default_rng(seed))
    train = [items[i] for fold in folds[1:] for i in fold]  # in cross_validate's order
    prep = Prepared(ds, train, [items[i] for i in folds[0]], cfg)
    _warm_up(prep)
    return prep


def timed_set_up(wl: Workload, seed: int, directory: str, res: Result, speed: Speedometer, rec=None) -> Prepared:
    """Set up several times (see ``SETUP_REPEATS``); the durations go to ``setup_s``."""
    least, most = SETUP_REPEATS
    walls = []
    with speed.sampling():
        while len(walls) < least or (len(walls) < most and sum(walls) < 2.0):
            prep = None  # so that only one loaded set is alive at a time
            mark = speed.mark()
            prep = set_up(wl, seed, directory, rec)
            res.time_item("setup_s", len(walls), iv := speed.since(mark))
            walls.append(iv.wall)
    return prep


def check_inputs(wl: Workload, prep: Prepared, basis, res: Result) -> None:
    """The generated set has the shape and the recovery mode the workload claims."""
    if wl.table5:
        table = compare_table5(dataset_stats(prep.ds))
        res.check(table is not None and table.passed, f"{wl.name}: Table 5 check failed")
    if wl.mode == "basis":
        res.check(basis.vocabulary_independent() is False, "basis set: vocabulary is independent")
        res.check(basis.t_set_independent() is True, "basis set: T-collection is dependent")


# -- train ------------------------------------------------------------------------------


def train_cell(prep: Prepared, res: Result, speed: Speedometer):
    """The CV cell through ``train_single``, each epoch stamped by its callback."""
    mark = speed.mark()

    def stamp(epoch, *_) -> None:
        nonlocal mark
        res.time_item("epoch_s", epoch, speed.since(mark))
        mark = speed.mark()

    _, log = train_single(prep.train, prep.val, prep.cfg, prep.rng(), log_fn=stamp)
    bad = sum(not math.isfinite(x) for x in log.train_loss)
    res.attempted += len(log.train_loss)
    res.failed += bad
    res.check(bad == 0, f"{bad} epochs with a non-finite loss")
    res.check(
        log.train_loss[-1] < log.train_loss[0],
        f"last loss {log.train_loss[-1]:.6g} not below first {log.train_loss[0]:.6g}",
    )
    return log


def split_gradients(batch, params, rng, rec: Recorder) -> tuple[float, dict[str, np.ndarray]]:
    """``batch_gradients`` rebuilt from public calls, timed as forward and backward.

    Valid only while its gradients equal ``batch_gradients``' on the same
    batch and rng state; ``traced_cell`` checks that on every step.
    """
    cfg = params.config
    with rec.span("models.forward"):
        wrapped = wrap_params(params, requires_grad=True)
        total = None
        for sample in batch:
            if sample.pair is None:
                trace = forward_trace(sample.g, wrapped, params, training=True, rng=rng)
                rec.counts["models.forward_trace"] += 1
                ce = cross_entropy_t(sample.y, trace.logits)
            else:
                ga, gb = sample.pair
                ta = forward_trace(ga, wrapped, params, training=False)
                tb = forward_trace(gb, wrapped, params, training=False)
                rec.counts["models.forward_trace"] += 2
                lam = float(sample.lam)
                if sample.layer is None:
                    logits = head_logits(ta.h_graph.scale(lam) + tb.h_graph.scale(1.0 - lam), wrapped)
                else:
                    k = sample.layer
                    h = ta.pooled[k - 1].scale(lam) + tb.pooled[k - 1].scale(1.0 - lam)
                    if cfg.arch == "gin":
                        logits = head_logits_layer_block(h, wrapped, k - 1, cfg.hidden)
                    else:
                        logits = head_logits(h, wrapped)
                logits = apply_dropout(logits, cfg.dropout, training=True, rng=rng)
                ce = cross_entropy_t(sample.y, logits)
            total = ce if total is None else total + ce
        loss = total.scale(1.0 / len(batch))
    with rec.span("autodiff.backward"):
        loss.backward()
    grads = {
        name: (w.grad if w.grad is not None else np.zeros_like(w.value))
        for name, w in wrapped.items()
    }
    return float(loss.value), grads


def traced_cell(prep: Prepared, log, rec: Recorder, res: Result) -> None:
    """``train_single``'s loop driven from its public steps, with spans around each.

    It must reproduce the untraced ``log`` bit for bit. Every step also runs
    ``split_gradients`` on a copy of the rng; the copy and the split sit in
    ``probe`` spans, which the overhead ratio leaves out.
    """
    cfg, train, rng = prep.cfg, prep.train, prep.rng()
    params = init_params(cfg.model, train[0][0].d, len(train[0][1].p), rng)
    state = AdamWState.for_params(params)
    losses, accs = [], []
    worst = 0.0
    for epoch in range(cfg.epochs):
        with rec.span("training.epoch"):
            with rec.span("training.build_epoch_stream"), rec.patch(
                [(ifmixup.mixing, "mix_pair", "mixing.mix_pair")]
            ):
                stream = build_epoch_stream(train, cfg, rng)
            lr = lr_at_epoch(cfg.lr0, epoch)
            loss_sum = 0.0
            for start in range(0, len(stream), cfg.batch_size):
                batch = stream[start : start + cfg.batch_size]
                with rec.span("probe"):
                    before = copy.deepcopy(rng)
                with rec.span("training.batch_gradients"):
                    loss, grads = batch_gradients(batch, params, rng)
                with rec.span("probe"):
                    split_loss, split_grads = split_gradients(batch, params, before, rec)
                    worst = max(
                        [worst, abs(split_loss - loss)]
                        + [float(np.max(np.abs(split_grads[k] - g))) for k, g in grads.items()]
                    )
                with rec.span("training.adamw_step"):
                    adamw_step(params.tensors, grads, state, lr, cfg.weight_decay)
                loss_sum += loss * len(batch)
            train_loss = loss_sum / len(stream)
            with rec.span("training.evaluate"):
                val_acc = evaluate(params, prep.val)
        losses.append(train_loss)
        accs.append(val_acc)
    res.check(worst <= GRAD_TOL, f"forward/backward split differs from batch_gradients by {worst:.3e}")
    res.check(
        losses == log.train_loss and accs == log.val_acc,
        "traced loop does not reproduce train_single",
    )


# -- audit ------------------------------------------------------------------------------


def audit_call(wl: Workload, prep: Prepared, res: Result, speed: Speedometer) -> None:
    """One audit call; every call redoes the same trials.

    The trial draws do not depend on the workload seed (the graphs do), so
    that which pairs get drawn, and so how much the trials cost, does not
    vary with it.
    """
    rng = np.random.default_rng(AUDIT_STREAM)
    mark = speed.mark()
    # through the module attribute, so a traced run's patch sees the call
    report = sys.modules[__name__].intrusion_audit(prep.ds, wl.audit_trials, AUDIT_BETA, rng)
    res.time_item("audit_s", 0, speed.since(mark))
    res.add("collisions", [report.collisions])
    res.add("recovery_failures", [report.recovery_failures])
    res.attempted += wl.audit_trials
    res.failed += min(wl.audit_trials, report.collisions + report.recovery_failures)
    res.check(
        report.assumption_ok and report.mode == wl.mode,
        f"audit ran in mode {report.mode}, expected {wl.mode}",
    )
    res.check(report.ok(), f"audit not intrusion-free: {report.first_failure}")


# Spans around recover_pair and the two steps it chains.
RECOVER_TARGETS = [
    (ifmixup.recovery, "recover_pair", "recovery.recover_pair"),
    (ifmixup.recovery, "edge_solutions", "recovery.edge_solutions"),
    (ifmixup.recovery, "recover_features_independent", "recovery.recover_features"),
    (ifmixup.recovery, "recover_features_basis", "recovery.recover_features"),
]


AUDIT_TARGETS = [
    (sys.modules[__name__], "intrusion_audit", "recovery.intrusion_audit"),
    (ifmixup.graphs, "feature_vocabulary", "graphs.feature_vocabulary"),
    (ifmixup.recovery, "sample_lambda", "mixing.sample_lambda"),
    (ifmixup.recovery, "mix_pair", "mixing.mix_pair"),
    (ifmixup.recovery, "mix_labels", "mixing.mix_labels"),
] + RECOVER_TARGETS


# -- recover ----------------------------------------------------------------------------


@dataclass(eq=False)
class Mix:
    ga: NodeFeaturedGraph
    gb: NodeFeaturedGraph
    lam: float
    mixed: NodeFeaturedGraph


def make_mixes(prep: Prepared, seed: int, count: int) -> list[Mix]:
    """Pairs of the workload's set, mixed with a Beta(2, 2) ratio away from 0.5.

    Decoding cost grows with the mixed graph's size, the larger source's,
    and in basis mode also with how alike the two sources' edges are. So
    the pairs are picked by size rank, never by the seed: the first source
    of mix k is the graph at the k-th of evenly spaced size ranks and the
    second the graph at half that rank, ties going to the lower index. The
    sizes decoded then follow the set's own size distribution, and on a set
    whose sizes and structure do not depend on the seed the pairs are the
    same for every seed. Only the ratios come from the seed.
    """
    rng = np.random.default_rng([seed, 3])
    items = prep.ds.items
    by_size = sorted(range(len(items)), key=lambda i: items[i][0].n)  # stable: ties by index
    mixes = []
    for k in range(count):
        rank = (2 * k + 1) * len(items) // (2 * count)
        ga, gb = items[by_size[rank]][0], items[by_size[rank // 2]][0]
        lam = sample_lambda(AUDIT_BETA, rng)
        while abs(lam - 0.5) < HALF_GUARD:
            lam = sample_lambda(AUDIT_BETA, rng)
        mixes.append(Mix(ga, gb, lam, mix_pair(ga, gb, lam)))
    return mixes


def _same(a, b) -> bool:
    return a.n == b.n and np.array_equal(a.e, b.e) and float(np.max(np.abs(a.v - b.v), initial=0.0)) <= DECODE_TOL


def round_trips(rec, mix: Mix) -> bool:
    """The decoded pair is the source pair, direct or mirrored (or one repeated source)."""
    if rec.sources_identical:
        return _same(mix.ga, mix.gb) and _same(rec.graph_a, mix.ga)
    direct = abs(rec.lam - mix.lam) <= DECODE_TOL and _same(rec.graph_a, mix.ga) and _same(rec.graph_b, mix.gb)
    mirrored = (
        abs(rec.lam - (1.0 - mix.lam)) <= DECODE_TOL
        and _same(rec.graph_a, mix.gb)
        and _same(rec.graph_b, mix.ga)
    )
    return direct or mirrored


def recover_call(mix: Mix, key: int, basis, mode: str, res: Result, speed: Speedometer) -> None:
    mark = speed.mark()
    try:
        # through the module attribute, so a traced run's patch sees the call
        rec = ifmixup.recovery.recover_pair(mix.mixed, basis, mode)
        problem = None if round_trips(rec, mix) else "the decoded pair is not the source pair"
    except RecoveryError as exc:
        problem = f"recover_pair raised: {exc}"
    res.time_item("recover_s", key, speed.since(mark))
    res.attempted += 1
    if problem is not None:
        res.failed += 1
        res.check(False, f"mix {key} (lam={mix.lam!r}): {problem}")


def recover_pass(mixes: list[Mix], basis, mode: str, res: Result, speed: Speedometer) -> None:
    """One call per mix, in order."""
    for key, mix in enumerate(mixes):
        recover_call(mix, key, basis, mode, res, speed)


# -- one run ----------------------------------------------------------------------------


def closed_loop(units, shares: tuple[float, ...], seconds: float) -> tuple[list[int], list[float]]:
    """Run units of the phases one after another until ``seconds`` have passed.

    The next unit always comes from the phase furthest behind its share of
    the time used so far, so every phase samples the whole run (and the
    same spells of machine noise). Every phase runs at least once. Returns
    the unit count and the seconds used per phase.
    """
    counts = [0] * len(units)
    used = [0.0] * len(units)
    t_end = perf_counter() + seconds
    while perf_counter() < t_end or 0 in counts:
        k = min(range(len(units)), key=lambda i: used[i] / shares[i])
        t0 = perf_counter()
        units[k]()
        used[k] += perf_counter() - t0
        counts[k] += 1
    return counts, used


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One workload on one seed: inputs, set-up, and the three phases' units."""

    def __init__(self, wl: Workload, seed: int, directory: str, setup_rec: Recorder | None = None):
        self.wl, self.res, self.speed = wl, Result(), Speedometer()
        write_inputs(wl, seed, directory)
        self.prep = timed_set_up(wl, seed, directory, self.res, self.speed, setup_rec)
        self.basis = feature_vocabulary(self.prep.ds)
        check_inputs(wl, self.prep, self.basis, self.res)
        self.mixes = make_mixes(self.prep, seed, wl.mixes)
        self.log = None  # train_single's log of the cell, from its first run

    def train_unit(self) -> None:
        log = train_cell(self.prep, self.res, self.speed)
        self.log = self.log or log
        self.res.check(
            log.train_loss == self.log.train_loss and log.val_acc == self.log.val_acc,
            "a repeat of train_single gave other losses or accuracies",
        )

    def audit_unit(self) -> None:
        audit_call(self.wl, self.prep, self.res, self.speed)

    def recover_unit(self) -> None:
        recover_pass(self.mixes, self.basis, self.wl.mode, self.res, self.speed)

    def units(self):
        """The phases' units, each sampling the reference while it runs."""

        def sampled(unit):
            def run() -> None:
                with self.speed.sampling():
                    unit()

            return run

        return [sampled(u) for u in (self.train_unit, self.audit_unit, self.recover_unit)]


def run(wl: Workload, seed: int, seconds: float, directory: str) -> tuple[Result, dict]:
    """An untraced run: set-up, then ``seconds`` of the three phases."""
    r = Run(wl, seed, directory)
    counts, _ = closed_loop(r.units(), wl.shares, seconds)
    r.res.add("units", counts)
    r.res.add("reference_s", r.speed.samples)
    r.res.add("peak_rss_mb", [peak_rss_mb()])
    return r.res, end_to_end(r)


def traced_run(wl: Workload, seed: int, seconds: float, directory: str) -> tuple[Result, dict[str, Recorder], dict]:
    """Each unit untraced, then at once again with spans recorded.

    Running the two copies back to back exposes them to the same machine
    noise, so their wall-time ratio is the tracing overhead. Reference
    samples are taken out of both walls, and the traced loop's ``probe``
    spans out of the traced one.
    """
    recs = {phase: Recorder() for phase in ("setup", "train", "audit", "recover")}
    r = Run(wl, seed, directory, recs["setup"])
    res = r.res
    tr, au, rc = recs["train"], recs["audit"], recs["recover"]

    def traced_train() -> None:
        traced_cell(r.prep, r.log, tr, res)

    def traced_audit() -> None:
        with au.patch(AUDIT_TARGETS):
            audit_call(wl, r.prep, res, r.speed)

    def traced_recover() -> None:
        with rc.patch(RECOVER_TARGETS):
            recover_pass(r.mixes, r.basis, wl.mode, res, r.speed)

    walls = {"untraced": 0.0, "traced": 0.0}

    def paired(plain, traced):
        def unit() -> None:
            for side, fn in (("untraced", plain), ("traced", traced)):
                t0, spent = perf_counter(), r.speed.spent
                fn()
                walls[side] += perf_counter() - t0 - (r.speed.spent - spent)

        return unit

    traced_units = [traced_train, traced_audit, traced_recover]
    closed_loop([paired(u, t) for u, t in zip(r.units(), traced_units)], wl.shares, seconds)
    res.add("trace.overhead_ratio", [(walls["traced"] - tr.total("probe")) / walls["untraced"]])
    res.add("reference_s", r.speed.samples)
    return res, recs, per_layer(res, recs)


# -- metrics ----------------------------------------------------------------------------


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def end_to_end(r: Run) -> dict[str, tuple[float, str, int]]:
    """(value, unit, item count) of every end-to-end metric, from each item's median time."""
    res = r.res
    epochs = res.item_medians("epoch_s", r.speed)
    graphs = len(epochs) * len(r.prep.train)
    recovers = [s * 1e3 for s in res.item_medians("recover_s", r.speed)]
    setups = res.item_medians("setup_s", r.speed)  # one timing per set-up
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "epoch_s_p50": (_pct(epochs, 50), "s", len(epochs)),
        "epoch_s_p90": (_pct(epochs, 90), "s", len(epochs)),
        "train_graphs_per_s": (graphs / sum(epochs), "1/s", len(epochs)),
        "audit_trials_per_s": (r.wl.audit_trials / res.item_medians("audit_s", r.speed)[0], "1/s", 1),
        "recover_ms_p50": (_pct(recovers, 50), "ms", len(recovers)),
        "recover_ms_p99": (_pct(recovers, 99), "ms", len(recovers)),
        "peak_rss_mb": (res.samples["peak_rss_mb"][0], "MB", 1),
    }


def per_layer(res, recs) -> dict[str, tuple[float, str, int]]:
    """(value, unit, sample count) of every per-layer metric of a traced run."""
    su, tr, au, rc = (recs[k] for k in ("setup", "train", "audit", "recover"))
    epochs = len(tr.durations("training.epoch"))
    steps = len(tr.durations("training.batch_gradients"))
    audits = len(au.durations("recovery.intrusion_audit"))
    trials = len(au.durations("mixing.mix_pair"))
    decodes = len(rc.durations("recovery.recover_pair"))
    mix = sum(au.total(n) for n in ("mixing.sample_lambda", "mixing.mix_pair", "mixing.mix_labels"))
    scan = (
        au.total("recovery.intrusion_audit")
        - au.total("graphs.feature_vocabulary")
        - mix
        - au.total("recovery.recover_pair")
    )
    loads = su.durations("tudataset.load_dataset")
    return {
        "tudataset.load_dataset_s": (statistics.median(loads), "s", len(loads)),
        "graphs.feature_vocabulary_s": (au.total("graphs.feature_vocabulary") / audits, "s", audits),
        "mixing.mix_s": (mix / trials, "s", trials),
        "mixing.mix_pair_calls": (len(tr.durations("mixing.mix_pair")) / epochs, "count", epochs),
        "training.build_epoch_stream_s": (tr.total("training.build_epoch_stream") / epochs, "s", epochs),
        "training.batch_gradients_s": (tr.total("training.batch_gradients") / steps, "s", steps),
        "models.forward_s": (tr.total("models.forward") / steps, "s", steps),
        "autodiff.backward_s": (tr.total("autodiff.backward") / steps, "s", steps),
        "models.forward_trace_calls": (tr.counts["models.forward_trace"] / epochs, "count", epochs),
        "training.adamw_step_s": (tr.total("training.adamw_step") / steps, "s", steps),
        "training.evaluate_s": (tr.total("training.evaluate") / epochs, "s", epochs),
        "recovery.recover_pair_s": (rc.total("recovery.recover_pair") / decodes, "s", decodes),
        "recovery.edge_solutions_s": (rc.total("recovery.edge_solutions") / decodes, "s", decodes),
        "recovery.recover_features_s": (rc.total("recovery.recover_features") / decodes, "s", decodes),
        "recovery.collision_scan_s": (scan / trials, "s", trials),
        "recovery.collisions": (sum(res.samples["collisions"]), "count", len(res.samples["collisions"])),
        "recovery.failures": (
            sum(res.samples["recovery_failures"]),
            "count",
            len(res.samples["recovery_failures"]),
        ),
        "trace.overhead_ratio": (res.samples["trace.overhead_ratio"][0], "1", 1),
        "bench.reference_ms": (statistics.median(res.samples["reference_s"]) * 1e3, "ms", len(res.samples["reference_s"])),
    }
