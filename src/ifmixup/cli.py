"""Command-line surface for the ifmixup laboratory.

Subcommands: stats, mix, recover, audit, check-independence, train, cv,
sweep, plot. Exit codes: 0 success, 1 domain error (bad data, failed
recovery), 2 usage error (unknown command or flag).

The train/cv/sweep commands read a single JSON configuration document; any
flag given on the command line overrides the document, which overrides the
built-in defaults. README.md's "Configuration" table lists every key with
its type, range and default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from ._schema import from_dict, rule
from .graphs import GraphDataset, feature_vocabulary, validate_graph
from .mixing import SWEEP_BETAS, BetaParams, mix_items
from .models import save_checkpoint
from .plots import SweepBarRow, emit_plot_data
from .recovery import (
    RecoveryError,
    intrusion_audit,
    recover_pair,
    recovery_mode,
    sample_decodable_lambda,
)
from .training import (
    TrainConfig,
    cross_validate,
    derive_rng,
    metrics_to_csv,
    load_metrics_csv,
    stratified_folds,
    summary_to_json,
    sweep,
    train_config_from_dict,
    train_single,
)
from .tudataset import (
    ParseError,
    compare_table5,
    dataset_stats,
    encode_node_features,
    load_dataset,
    make_synthetic_molecules,
    read_weighted_graph,
    write_weighted_graph,
)

MIXED_NAME = "MIXED"
_ENCODINGS = ("one_hot_labels", "one_hot_degree")
_OVERRIDE_FLAGS = ("epochs", "seed", "runs", "folds")  # TrainConfig fields the flags override


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifmixup",
        description="Graph mixup laboratory: mixing, recovery, training, plots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset statistics and reference comparison")
    p.add_argument("directory", help="TUDataset directory")
    p.add_argument("name", help="dataset name (file prefix)")
    p.add_argument("--encoding", choices=_ENCODINGS, default=None)
    p.add_argument("--json", dest="json_out", default=None, help="also write stats as JSON")

    p = sub.add_parser("mix", help="emit one mixed sample as files")
    p.add_argument("directory")
    p.add_argument("name")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=1.0, help="Beta alpha for lambda")
    p.add_argument("--beta", type=float, default=1.0, help="Beta beta for lambda")
    p.add_argument("--encoding", choices=_ENCODINGS, default=None)
    p.add_argument("--out", required=True, help="output directory for the mixed sample")

    p = sub.add_parser("recover", help="recover the source pair from an emitted mix")
    p.add_argument("mixed_dir", help="directory written by the mix command")

    p = sub.add_parser("audit", help="empirical intrusion audit")
    p.add_argument("directory")
    p.add_argument("name")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--encoding", choices=_ENCODINGS, default=None)

    p = sub.add_parser("check-independence", help="test the feature-recovery assumptions")
    p.add_argument("directory")
    p.add_argument("name")
    p.add_argument("--encoding", choices=_ENCODINGS, default=None)

    for cmd, help_text in (
        ("train", "single split training run"),
        ("cv", "repeated stratified cross-validation"),
        ("sweep", "cross-validate along one axis"),
    ):
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("config", help="JSON configuration document")
        if cmd == "sweep":
            p.add_argument("--axis", choices=["beta", "layers"], required=True)
        for flag in _OVERRIDE_FLAGS:
            p.add_argument(f"--{flag}", type=int, default=None)
        p.add_argument("--out", default=None, help="output path prefix")

    p = sub.add_parser("plot", help="CSV + SVG from a metrics file, or 'beta' densities")
    p.add_argument("source", help="path to a metrics CSV, or the literal 'beta'")
    p.add_argument("--out", required=True, help="output base path (no extension)")

    return parser


def _cmd_stats(args) -> int:
    ds = load_dataset(args.directory, args.name, args.encoding)
    stats = dataset_stats(ds)
    print(stats.to_text())
    check = compare_table5(stats)
    if check is not None:
        print(check.to_text())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(stats.to_json() + "\n")
        print(f"wrote {args.json_out}")
    return 0


def _cmd_mix(args) -> int:
    ds = load_dataset(args.directory, args.name, args.encoding)
    params = BetaParams(args.alpha, args.beta)
    rng = np.random.default_rng(args.seed)
    ia, ib = int(rng.integers(len(ds))), int(rng.integers(len(ds)))
    lam = sample_decodable_lambda(params, rng)
    mixed = mix_items(ds.items[ia], ds.items[ib], lam, source_ids=(ia, ib))

    write_weighted_graph(mixed.graph, args.out, MIXED_NAME)
    meta = {
        "format": "ifmixup-mixed-sample",
        "version": 1,
        "dataset": {
            "directory": os.path.abspath(args.directory),
            "name": args.name,
            "encoding": args.encoding,
        },
        "lam": mixed.lam,
        "label": mixed.label.p.tolist(),
        "alpha": args.alpha,
        "beta": args.beta,
        "seed": args.seed,
        "source_indices": [ia, ib],
        "source_sizes": [ds.items[ia][0].n, ds.items[ib][0].n],
    }
    meta_path = os.path.join(args.out, f"{MIXED_NAME}_meta.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    print(
        f"mixed graphs {ia} (n={meta['source_sizes'][0]}) and {ib} "
        f"(n={meta['source_sizes'][1]}) of {args.name} with lambda={lam!r}"
    )
    print(f"wrote {args.out}/{MIXED_NAME}_* and {meta_path}")
    return 0


def _cmd_recover(args) -> int:
    meta_path = os.path.join(args.mixed_dir, f"{MIXED_NAME}_meta.json")
    if not os.path.exists(meta_path):
        raise ParseError(f"missing sidecar {meta_path}; is this a mix output directory?")
    meta = _read_config(meta_path)
    if meta.get("format") != "ifmixup-mixed-sample":
        raise ParseError(f"{meta_path}: not a mixed-sample sidecar")
    lam = meta.get("lam")
    if not (isinstance(lam, float) and 0.0 < lam < 1.0):
        raise ParseError(f"{meta_path}: 'lam' must be a float in (0, 1), got {lam!r}")
    mixed = read_weighted_graph(args.mixed_dir, MIXED_NAME)
    problems = validate_graph(mixed)
    if problems:
        raise ParseError(f"{args.mixed_dir}: invalid mixed graph: {problems[0]}")

    ds = _dataset_from_config(meta, meta_path)
    basis = feature_vocabulary(ds)
    mode = recovery_mode(basis)
    if mode is None:
        raise RecoveryError(
            f"{ds.name}: neither the feature vocabulary nor the coefficient collection "
            "is linearly independent, so the mix cannot be decoded"
        )
    indices = meta.get("source_indices")
    if not (isinstance(indices, list) and len(indices) == 2) or not all(
        type(i) is int and 0 <= i < len(ds) for i in indices
    ):
        raise ParseError(
            f"{meta_path}: 'source_indices' must be two graph indices in 0..{len(ds) - 1}, "
            f"got {indices!r}"
        )
    rec = recover_pair(mixed, basis, mode=mode)

    print(f"recovery mode: {mode}")
    if rec.sources_identical:
        print(f"sources identical: single graph with n={rec.graph_a.n}; lambda undetermined")
    else:
        print(
            f"recovered lambda={rec.lam!r} (canonical < 0.5); "
            f"sources n={rec.graph_a.n} and n={rec.graph_b.n}"
        )
    ia, ib = indices
    ok = rec.matches(ds.items[ia][0], ds.items[ib][0], lam)
    print(f"matches recorded sources: {'yes' if ok else 'NO'}")
    if not ok:
        raise RecoveryError("recovered pair does not match the recorded sources")
    return 0


def _cmd_audit(args) -> int:
    ds = load_dataset(args.directory, args.name, args.encoding)
    report = intrusion_audit(
        ds,
        trials=args.trials,
        params=BetaParams(args.alpha, args.beta),
        rng=np.random.default_rng(args.seed),
    )
    print(report.to_text())
    if report.assumption_ok and not report.ok():
        return 1
    return 0


def _cmd_check_independence(args) -> int:
    ds = load_dataset(args.directory, args.name, args.encoding)
    basis = feature_vocabulary(ds)
    mode = recovery_mode(basis)
    print(f"dataset:                 {ds.name}")
    print(f"vocabulary size:         {basis.vocabulary.shape[0]} (d={basis.vocabulary.shape[1]})")
    print(f"vocabulary rank:         {basis.rank}")
    print(f"vocabulary independent:  {'yes' if basis.vocabulary_independent() else 'no'}")
    print(f"coefficient set independent: {'yes' if basis.t_set_independent() else 'no'}")
    if mode is None:
        print("recovery assumptions NOT satisfied: mixes may not be invertible")
    else:
        print(f"recovery assumption satisfied in {mode} mode")
    return 0


def _read_config(path: str) -> dict:
    """A JSON object from ``path``: a config file or a mix's sidecar."""
    if not os.path.exists(path):
        raise ParseError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return doc


@dataclass
class _DatasetBlock:
    """The "dataset" block of a config document or of a mix's sidecar."""

    directory: str | None = rule(None, str)
    name: str | None = rule(None, str)
    encoding: str | None = rule(None, str, _ENCODINGS)
    synthetic: bool = rule(False, bool)  # the bundled generator instead of a directory
    num_graphs: int = rule(188, int, "[1, inf)")
    seed: int = rule(7, int, "[0, inf)")


def _dataset_from_config(doc: dict, path: str) -> GraphDataset:
    """The dataset named by the "dataset" block of ``doc``, read from ``path``."""
    if not isinstance(doc.get("dataset"), dict):
        raise ParseError(f"{path}: missing 'dataset' object")
    spec = from_dict(_DatasetBlock, doc["dataset"], "dataset")
    if spec.synthetic:
        parsed = make_synthetic_molecules(num_graphs=spec.num_graphs, seed=spec.seed)
        return encode_node_features(parsed, "one_hot_labels")
    for key in ("directory", "name"):
        if getattr(spec, key) is None:
            raise ParseError(f"{path}: dataset block needs {key!r}")
    return load_dataset(spec.directory, spec.name, spec.encoding)


def _load_run(args) -> tuple[GraphDataset, TrainConfig, str | None]:
    """The dataset, config and output prefix of a train/cv/sweep command.

    The flags override the document's fields; the output prefix's directory
    is made here, so each command only writes its files under it.
    """
    doc = _read_config(args.config)
    ds = _dataset_from_config(doc, args.config)
    cfg = train_config_from_dict({k: v for k, v in doc.items() if k not in ("dataset", "out")})
    overrides = {flag: getattr(args, flag) for flag in _OVERRIDE_FLAGS}
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    out = args.out if args.out is not None else doc.get("out")
    if out:
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    return ds, cfg, out


def _cmd_train(args) -> int:
    ds, cfg, out = _load_run(args)

    class_indices = [y.argmax() for y in ds.labels()]
    folds = stratified_folds(class_indices, cfg.folds, np.random.default_rng(cfg.seed))
    val_items = [ds.items[i] for i in folds[0]]
    train_items = [ds.items[i] for f in folds[1:] for i in f]
    print(
        f"training on {len(train_items)} graphs, validating on {len(val_items)} "
        f"({ds.name}, {cfg.model.arch.upper()} K={cfg.model.k}, augment={cfg.augment.kind})"
    )

    def log_fn(epoch, lr, loss, acc):
        print(f"epoch {epoch + 1:>4}/{cfg.epochs}  lr={lr:.6g}  loss={loss:.4f}  val_acc={acc:.4f}")

    params, log = train_single(train_items, val_items, cfg, derive_rng(cfg.seed, 0, 0), log_fn)
    print(f"final: loss={log.train_loss[-1]:.4f} val_acc={log.val_acc[-1]:.4f}")
    if out:
        metrics_to_csv(log, f"{out}_metrics.csv")
        save_checkpoint(params, f"{out}_checkpoint.json")
        print(f"wrote {out}_metrics.csv and {out}_checkpoint.json")
    return 0


def _cmd_cv(args) -> int:
    ds, cfg, out = _load_run(args)
    print(
        f"{cfg.runs} runs of {cfg.folds}-fold cross-validation on {ds.name} "
        f"({cfg.model.arch.upper()} K={cfg.model.k}, augment={cfg.augment.kind})"
    )

    def log_fn(run, fold, acc):
        print(f"run {run + 1}/{cfg.runs} fold {fold + 1}/{cfg.folds}: acc={acc:.4f}")

    log = cross_validate(ds, cfg, log_fn)
    print(f"accuracy: {log.mean:.4f} +- {log.std:.4f} over {cfg.runs} runs")
    if out:
        summary_to_json(log, cfg, f"{out}_summary.json")
        print(f"wrote {out}_summary.json")
    return 0


def _cmd_sweep(args) -> int:
    ds, cfg, out = _load_run(args)
    cells = sweep(ds, cfg, args.axis)
    rows = []
    for cell in cells:
        method = cell.config.augment.kind
        print(f"{cell.label:<14} {cell.metrics.mean:.4f} +- {cell.metrics.std:.4f}")
        rows.append(SweepBarRow(ds.name, method, cell.label, cell.metrics.mean, cell.metrics.std))
    if out:
        csv_path, svg_path = emit_plot_data("sweep_bars", rows, out)
        print(f"wrote {csv_path} and {svg_path}")
    return 0


def _cmd_plot(args) -> int:
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    if args.source == "beta":
        csv_path, svg_path = emit_plot_data("beta_density", SWEEP_BETAS, args.out)
    else:
        if not os.path.exists(args.source):
            raise ParseError(f"metrics file not found: {args.source}")
        try:
            log = load_metrics_csv(args.source)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        csv_path, svg_path = emit_plot_data("loss_curve", log, args.out)
    print(f"wrote {csv_path} and {svg_path}")
    return 0


_HANDLERS = {
    "stats": _cmd_stats,
    "mix": _cmd_mix,
    "recover": _cmd_recover,
    "audit": _cmd_audit,
    "check-independence": _cmd_check_independence,
    "train": _cmd_train,
    "cv": _cmd_cv,
    "sweep": _cmd_sweep,
    "plot": _cmd_plot,
}


def run_command(argv: list[str] | None = None) -> int:
    """Parse and execute one command; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on usage error, 0 on --help
        return int(exc.code) if exc.code is not None else 0
    try:
        return _HANDLERS[args.command](args)
    except (ParseError, RecoveryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
