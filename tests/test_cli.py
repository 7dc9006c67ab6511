"""Command-line interface: exit codes, file outputs, end-to-end round trips."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ifmixup as m
import ifmixup.cli
from ifmixup.cli import run_command

from conftest import source_env

SVG_NS = "{http://www.w3.org/2000/svg}"
PYPROJECT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml"
)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """A small on-disk TUDataset the file-facing commands can read."""
    directory = tmp_path_factory.mktemp("ds")
    parsed = m.make_synthetic_molecules(num_graphs=12, seed=3, name="SYN")
    m.write_tudataset(parsed, str(directory), "SYN")
    return str(directory)


def tiny_config(tmp_path, **overrides):
    doc = {
        "dataset": {"synthetic": True, "num_graphs": 12, "seed": 3},
        "model": {"arch": "gin", "k": 1, "hidden": 4},
        "epochs": 2,
        "batch_size": 4,
        "folds": 3,
        "runs": 1,
        "seed": 0,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run_command(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_no_command_is_usage_error(self):
        assert run_command([]) == 2

    def test_missing_required_flag_is_usage_error(self, dataset_dir):
        assert run_command(["mix", dataset_dir, "SYN"]) == 2  # --out required

    def test_top_level_help(self, capsys):
        assert run_command(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        ["stats", "mix", "recover", "audit", "check-independence", "train", "cv", "sweep", "plot"],
    )
    def test_subcommand_help(self, command, capsys):
        assert run_command([command, "--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_domain_error_is_one(self, tmp_path, capsys):
        assert run_command(["stats", str(tmp_path), "NOPE"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing required file" in err

    def test_integer_outside_int64_is_one(self, tmp_path, capsys):
        for suffix, text in (("A", "1, 2\n"), ("graph_labels", "1\n")):
            (tmp_path / f"B_{suffix}.txt").write_text(text)
        (tmp_path / "B_graph_indicator.txt").write_text("1\n99999999999999999999\n")
        assert run_command(["stats", str(tmp_path), "B"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: B_graph_indicator.txt line 2: ")


class TestStats:
    def test_prints_counts(self, dataset_dir, capsys):
        assert run_command(["stats", dataset_dir, "SYN"]) == 0
        out = capsys.readouterr().out
        assert "graphs:" in out and "12" in out
        assert "classes:" in out and "2" in out

    def test_json_output(self, dataset_dir, tmp_path, capsys):
        json_path = str(tmp_path / "stats.json")
        assert run_command(["stats", dataset_dir, "SYN", "--json", json_path]) == 0
        doc = json.loads(Path(json_path).read_text())
        assert doc["num_graphs"] == 12
        assert doc["num_classes"] == 2


class TestMixRecover:
    def test_round_trip_through_files(self, dataset_dir, tmp_path, capsys):
        out = str(tmp_path / "mixed")
        os.makedirs(out)
        assert run_command(
            ["mix", dataset_dir, "SYN", "--seed", "4", "--alpha", "2", "--beta", "2", "--out", out]
        ) == 0
        first = capsys.readouterr().out
        assert "lambda=" in first
        assert os.path.exists(os.path.join(out, "MIXED_meta.json"))

        assert run_command(["recover", out]) == 0
        second = capsys.readouterr().out
        assert "matches recorded sources: yes" in second

    def test_meta_sidecar_contents(self, dataset_dir, tmp_path):
        out = str(tmp_path / "mixed")
        os.makedirs(out)
        run_command(["mix", dataset_dir, "SYN", "--seed", "1", "--out", out])
        meta = json.loads(Path(out, "MIXED_meta.json").read_text())
        assert meta["format"] == "ifmixup-mixed-sample"
        assert 0.0 < meta["lam"] < 1.0
        assert len(meta["source_indices"]) == 2
        assert abs(sum(meta["label"]) - 1.0) < 1e-9

    @staticmethod
    def dependent_mix(dataset_dir, tmp_path, monkeypatch, indices) -> str:
        """A mix's directory whose sidecar names ``indices`` of DEP-T, a
        two-graph set whose vocabulary and coefficient collection are both dependent."""
        out = str(tmp_path / "mixed")
        os.makedirs(out)
        assert run_command(["mix", dataset_dir, "SYN", "--seed", "4", "--out", out]) == 0
        meta_path = os.path.join(out, "MIXED_meta.json")
        meta = json.loads(Path(meta_path).read_text())
        Path(meta_path).write_text(json.dumps({**meta, "source_indices": indices}))
        graphs = [m.NodeFeaturedGraph(np.array([[x, 0.0]]), np.zeros((1, 1))) for x in (1.0, 2.0)]
        items = [(g, m.LabelDistribution.one_hot(c, 2)) for c, g in enumerate(graphs)]
        dependent = m.GraphDataset(items, 2, 2, "DEP-T")
        monkeypatch.setattr(ifmixup.cli, "load_dataset", lambda *args: dependent)
        return out

    def test_recover_names_violated_assumption(self, dataset_dir, tmp_path, monkeypatch, capsys):
        out = self.dependent_mix(dataset_dir, tmp_path, monkeypatch, [0, 1])
        capsys.readouterr()
        assert run_command(["recover", out]) == 1
        captured = capsys.readouterr()
        assert "recovery mode" not in captured.out
        assert "DEP-T: neither the feature vocabulary nor the coefficient" in captured.err

    def test_recover_checks_sidecar_indices_before_the_assumption(
        self, dataset_dir, tmp_path, monkeypatch, capsys
    ):
        # the sidecar's fault is named even where the dataset cannot decode either
        out = self.dependent_mix(dataset_dir, tmp_path, monkeypatch, [0, 99])
        monkeypatch.setattr(ifmixup.cli, "feature_vocabulary", pytest.fail)
        capsys.readouterr()
        assert run_command(["recover", out]) == 1
        err = capsys.readouterr().err
        assert "'source_indices' must be two graph indices in 0..1, got [0, 99]" in err
        assert "neither the feature vocabulary" not in err

    def test_recover_needs_sidecar(self, tmp_path, capsys):
        assert run_command(["recover", str(tmp_path)]) == 1
        assert "missing sidecar" in capsys.readouterr().err

    def test_recover_rejects_foreign_sidecar(self, tmp_path, capsys):
        (tmp_path / "MIXED_meta.json").write_text('{"format": "something-else"}')
        assert run_command(["recover", str(tmp_path)]) == 1
        assert "not a mixed-sample sidecar" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [("{", "invalid JSON"), ("[]", "expected a JSON object")],
        ids=["json", "list"],
    )
    def test_recover_rejects_unreadable_sidecar(self, tmp_path, capsys, text, message):
        (tmp_path / "MIXED_meta.json").write_text(text)
        assert run_command(["recover", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"MIXED_meta.json: {message}" in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: meta.update(source_indices=[0, 99]),
            lambda meta: meta.update(source_indices=[0]),
            lambda meta: meta.pop("dataset"),
            lambda meta: meta["dataset"].pop("directory"),
            lambda meta: meta["dataset"].pop("name"),
            lambda meta: meta.update(lam=1.5),
            lambda meta: meta.update(lam="0.3"),
            lambda meta: meta.pop("lam"),
            lambda meta: meta.update(version=2),
            lambda meta: meta.pop("version"),
        ],
        ids=[
            "index-out-of-range",
            "one-index",
            "no-dataset",
            "no-directory",
            "no-name",
            "lam-out-of-range",
            "lam-string",
            "no-lam",
            "version-2",
            "no-version",
        ],
    )
    def test_recover_rejects_bad_sidecar(self, dataset_dir, tmp_path, capsys, edit):
        out = str(tmp_path / "mixed")
        os.makedirs(out)
        assert run_command(["mix", dataset_dir, "SYN", "--seed", "4", "--out", out]) == 0
        meta_path = os.path.join(out, "MIXED_meta.json")
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        edit(meta)
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        capsys.readouterr()
        assert run_command(["recover", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "MIXED_meta.json: " in err


class TestAuditAndIndependence:
    def test_audit_clean_dataset(self, dataset_dir, capsys):
        assert run_command(["audit", dataset_dir, "SYN", "--trials", "40", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "trials:" in out
        assert "label collisions:" in out

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_audit_rejects_trials_below_one(self, dataset_dir, trials, capsys):
        assert run_command(["audit", dataset_dir, "SYN", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "trials" in captured.err
        assert "verdict" not in captured.out

    def test_check_independence(self, dataset_dir, capsys):
        assert run_command(["check-independence", dataset_dir, "SYN"]) == 0
        out = capsys.readouterr().out
        assert "vocabulary independent:  yes" in out
        assert "independent mode" in out


class TestTrain:
    def test_writes_metrics_and_checkpoint(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        out = str(tmp_path / "runs" / "tiny")
        assert run_command(["train", config, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "final:" in stdout

        log = m.load_metrics_csv(f"{out}_metrics.csv")
        assert len(log.train_loss) == 2
        params = m.load_checkpoint(f"{out}_checkpoint.json")
        assert params.config.arch == "gin" and params.config.k == 1

    def test_epochs_flag_overrides_config(self, tmp_path):
        config = tiny_config(tmp_path)
        out = str(tmp_path / "runs" / "ovr")
        assert run_command(["train", config, "--epochs", "1", "--out", out]) == 0
        log = m.load_metrics_csv(f"{out}_metrics.csv")
        assert len(log.train_loss) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_command(["train", str(tmp_path / "none.json")]) == 1
        assert "config file not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_command(["train", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_dataset_block(self, tmp_path, capsys):
        path = tmp_path / "nodataset.json"
        path.write_text(json.dumps({"epochs": 1}))
        assert run_command(["train", str(path)]) == 1
        assert "missing 'dataset'" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tiny_config(tmp_path, momentum=0.9)
        assert run_command(["train", config]) == 1
        assert "bad training config" in capsys.readouterr().err

    def test_malformed_beta(self, tmp_path, capsys):
        config = tiny_config(tmp_path, augment={"kind": "if_mixup", "beta": [20]})
        assert run_command(["train", config]) == 1
        assert any(line.startswith("error: bad training config") for line in capsys.readouterr().err.splitlines())

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"model": 5}, "model must be an object"),
            ({"augment": [1]}, "augment must be an object"),
            ({"epochs": 1.5}, "epochs must be an integer, got 1.5"),
            ({"batch_size": 2.5}, "batch_size must be an integer, got 2.5"),
            ({"model": {"arch": "gin", "k": 2.0, "hidden": 4}}, "k must be an integer, got 2.0"),
            ({"out": 5}, "out must be a string, got 5"),
        ],
        ids=["model-number", "augment-list", "float-epochs", "float-batch-size", "float-k", "number-out"],
    )
    def test_malformed_config_field(self, tmp_path, capsys, overrides, message):
        config = tiny_config(tmp_path, **overrides)
        assert run_command(["train", config]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and message in errors[0]

    def test_unknown_dataset_key(self, tmp_path, capsys):
        config = tiny_config(tmp_path, dataset={"synthetic": True, "fraction": 0.5})
        assert run_command(["train", config]) == 1
        assert "unknown dataset keys" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_diverging_loss_is_an_error_line(self, tmp_path, capsys, command):
        config = tiny_config(tmp_path, lr0=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_command([command, config]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and "non-finite training loss nan at epoch 0" in errors[0]

    @pytest.mark.parametrize(
        "command", [["train"], ["cv"], ["sweep", "--axis", "layers"]], ids=["train", "cv", "sweep"]
    )
    def test_diverging_loss_writes_only_the_error_line(self, tmp_path, command):
        # a fresh interpreter keeps Python's default warning filters, under
        # which numpy's overflow warnings would reach stderr
        config = tiny_config(tmp_path, lr0=1e200)
        argv = [sys.executable, "-m", "ifmixup", command[0], config, *command[1:]]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=source_env())
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: non-finite training loss nan at epoch 0, batch 1"]


class TestCvAndSweep:
    def test_cv_writes_summary(self, tmp_path, capsys):
        config = tiny_config(tmp_path, epochs=1)
        out = str(tmp_path / "cv" / "run")
        assert run_command(["cv", config, "--out", out]) == 0
        assert "accuracy:" in capsys.readouterr().out
        doc = json.loads(Path(f"{out}_summary.json").read_text())
        assert len(doc["fold_acc"]) == 3  # runs x folds = 1 x 3
        assert 0.0 <= doc["mean"] <= 1.0

    def test_epochs_flag_keeps_other_config_fields(self, tmp_path):
        config = tiny_config(tmp_path, epochs=3, weight_decay=0.05, audit_mixes=True)
        out = str(tmp_path / "cv" / "override")
        assert run_command(["cv", config, "--epochs", "1", "--out", out]) == 0
        echoed = json.loads(Path(f"{out}_summary.json").read_text())["config"]
        assert echoed["epochs"] == 1
        assert echoed["weight_decay"] == 0.05 and echoed["audit_mixes"] is True

    def test_sweep_beta_axis_writes_bars(self, tmp_path, capsys):
        config = tiny_config(tmp_path, epochs=1)
        out = str(tmp_path / "sweep" / "beta")
        assert run_command(["sweep", config, "--axis", "beta", "--out", out]) == 0
        stdout = capsys.readouterr().out
        for p in m.SWEEP_BETAS:
            assert f"beta({p.alpha:g},{p.beta:g})" in stdout

        with open(f"{out}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(m.SWEEP_BETAS)
        assert set(rows[0]) == {"dataset", "method", "setting", "mean", "std"}
        assert all(r["method"] == "if_mixup" for r in rows)

        root = ET.parse(f"{out}.svg").getroot()
        assert root.tag == f"{SVG_NS}svg"
        assert len(root.findall(f"{SVG_NS}g")) == 1  # one bar group per series

    def test_sweep_layers_axis(self, tmp_path, capsys):
        config = tiny_config(tmp_path, epochs=1)
        assert run_command(["sweep", config, "--axis", "layers"]) == 0
        stdout = capsys.readouterr().out
        for k in m.DEPTH_SWEEP:
            assert f"K={k}" in stdout

    def test_sweep_requires_known_axis(self, tmp_path):
        config = tiny_config(tmp_path)
        assert run_command(["sweep", config, "--axis", "dropout"]) == 2


NAN, INF = float("nan"), float("inf")


class TestConfigHoles:
    """Each malformed setting fails with a ValueError (exit 1 on the CLI) that
    names the field by its dotted path, whichever reader meets it first."""

    @pytest.mark.parametrize(
        "route,doc,message",
        [
            ("config", {"seed": -1}, "seed must be an integer in [0, inf), got -1"),
            ("config", {"folds": 1}, "folds must be an integer in [2, inf), got 1"),
            ("config", {"lr0": NAN}, "lr0 must be a number in (0, inf), got nan"),
            ("config", {"lr0": True}, "lr0 must be a number, got True"),
            ("config", {"weight_decay": INF}, "weight_decay must be a number in [0, inf), got inf"),
            ("config", {"audit_mixes": "yes"}, "audit_mixes must be true or false, got 'yes'"),
            ("config", {"model": {"gcn_skip": "no"}}, "model.gcn_skip must be true or false, got 'no'"),
            ("config", {"model": {"gin_mlp_bias": 0}}, "model.gin_mlp_bias must be true or false, got 0"),
            (
                "config",
                {"augment": {"beta": [INF, 1]}},
                "augment.beta.alpha must be a number in (0, inf), got inf",
            ),
            ("config", {"lr0": "0.01"}, "lr0 must be a number, got '0.01'"),
            ("config", {"model": {"dropout": "0.5"}}, "model.dropout must be a number, got '0.5'"),
            ("checkpoint", {"momentum": 0.9}, "unknown config keys ['momentum']"),
            ("checkpoint", {"gcn_skip": "no"}, "config.gcn_skip must be true or false, got 'no'"),
            (
                "dataset",
                {"synthetic": "no", "directory": "data/X", "name": "X"},
                "dataset.synthetic must be true or false, got 'no'",
            ),
            (
                "dataset",
                {"synthetic": True, "num_graphs": 12.9},
                "dataset.num_graphs must be an integer, got 12.9",
            ),
            (
                "dataset",
                {"synthetic": True, "num_graphs": "many"},
                "dataset.num_graphs must be an integer, got 'many'",
            ),
            ("dataset", {"synthetic": True, "encoding": "one_hot"}, "dataset.encoding must be one of ("),
            ("cv", ["--seed", "-1"], "seed must be an integer in [0, inf), got -1"),
        ],
    )
    def test_names_the_field(self, tmp_path, capsys, route, doc, message):
        if route == "config":
            with pytest.raises(ValueError) as info:
                m.train_config_from_dict(doc)
            error = str(info.value)
        elif route == "checkpoint":
            path = str(tmp_path / "model.json")
            m.save_checkpoint(m.init_params(m.ModelConfig(), 3, 2, np.random.default_rng(0)), path)
            saved = json.loads(Path(path).read_text())
            saved["config"].update(doc)
            Path(path).write_text(json.dumps(saved))
            with pytest.raises(ValueError) as info:
                m.load_checkpoint(path)
            error = str(info.value)
        else:
            if route == "dataset":
                command = ["train", tiny_config(tmp_path, dataset=doc)]
            else:
                command = ["cv", tiny_config(tmp_path), *doc]
            assert run_command(command) == 1
            [error] = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert message in error


class TestPlot:
    def test_beta_densities(self, tmp_path):
        out = str(tmp_path / "beta")
        assert run_command(["plot", "beta", "--out", out]) == 0

        with open(f"{out}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1002  # header + 1001 sample points
        header = rows[0]
        assert header[0] == "x" and "beta(2,2)" in header
        col = header.index("beta(2,2)")
        midpoint = next(r for r in rows[1:] if float(r[0]) == 0.5)
        assert float(midpoint[col]) == pytest.approx(1.5)

        root = ET.parse(f"{out}.svg").getroot()
        assert len(root.findall(f"{SVG_NS}path")) == len(m.SWEEP_BETAS)

    def test_loss_curve_from_metrics(self, tmp_path):
        log = m.MetricsLog(train_loss=[1.0, 0.5, 0.25], val_acc=[0.3, 0.6, 0.9])
        metrics = str(tmp_path / "metrics.csv")
        m.metrics_to_csv(log, metrics)

        out = str(tmp_path / "curve")
        assert run_command(["plot", metrics, "--out", out]) == 0
        with open(f"{out}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_acc"]
        assert len(rows) == 4
        root = ET.parse(f"{out}.svg").getroot()
        assert len(root.findall(f"{SVG_NS}path")) == 2  # loss and accuracy

    def test_missing_metrics_file(self, tmp_path, capsys):
        assert run_command(["plot", str(tmp_path / "no.csv"), "--out", str(tmp_path / "x")]) == 1
        assert "metrics file not found" in capsys.readouterr().err

    def test_wrong_columns(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        assert run_command(["plot", str(path), "--out", str(tmp_path / "x")]) == 1
        assert "expected columns" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,0.5\n", "line 2: val_acc is missing"),
            ("0,abc,0.5\n", "line 2: train_loss is not a number: 'abc'"),
            ("0,nan,0.5\n1,inf,0.6\n", "line 2: train_loss is not finite: 'nan'"),
        ],
        ids=["short-row", "not-a-number", "not-finite"],
    )
    def test_malformed_metrics_named(self, tmp_path, capsys, rows, message):
        path = tmp_path / "metrics.csv"
        path.write_text("epoch,train_loss,val_acc\n" + rows)
        out = tmp_path / "x"
        assert run_command(["plot", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path} {message}\n"
        assert not os.path.exists(f"{out}.svg")

    @pytest.mark.parametrize("params", [(0.5, 0.5), (0.5, 2.0)], ids=["U-shaped", "J-shaped"])
    def test_infinite_density_left_out_of_the_chart(self, tmp_path, params):
        out = str(tmp_path / "beta")
        csv_path, svg_path = m.emit_plot_data("beta_density", [m.BetaParams(*params)], out)
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == ["0.0", "inf"]  # the CSV keeps the true density
        assert_finite_svg(svg_path, paths=1)


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf", re.IGNORECASE)


def assert_finite_svg(path: str, paths: int | None = None) -> None:
    """The SVG parses as XML, every number in its attributes is finite and,
    when given, it holds ``paths`` <path> elements."""
    root = ET.parse(path).getroot()
    for element in root.iter():
        for value in element.attrib.values():
            for token in NUMBER.findall(value):
                assert math.isfinite(float(token)), (element.tag, value)
    if paths is not None:
        assert len(root.findall(f"{SVG_NS}path")) == paths


FINITE = st.floats(-1e6, 1e6).map(repr)
CELL = st.one_of(
    FINITE,
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # long and tiny numbers
    st.sampled_from(["", " ", "nan", "inf", "-inf", "NaN", "1e999", "-0.0"]),  # blank, non-finite
    st.text("abc,\"x;.-e \t", max_size=6),  # junk, quotes and separators included
    st.text("0123456789", min_size=40, max_size=80),  # long digit runs
)
WELL_FORMED_ROW = st.tuples(st.integers(0, 9).map(str), FINITE, FINITE).map(",".join)
ROW = WELL_FORMED_ROW | st.lists(CELL, max_size=5).map(",".join)


@settings(max_examples=150)
@given(rows=st.lists(ROW, max_size=6), newline=st.sampled_from(["\n", "\r\n"]))
def test_plot_draws_or_names_the_file(rows, newline):
    """`ifmixup plot` on any metrics text either writes a finite SVG or exits 1
    with one error line that names the file; no exception escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "metrics.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(newline.join(["epoch,train_loss,val_acc", *rows]))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run_command(["plot", path, "--out", os.path.join(tmp, "x")])
        if code == 0:
            assert_finite_svg(os.path.join(tmp, "x.svg"), paths=2)
        else:
            assert code == 1
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
            assert len(errors) == 1 and path in errors[0], err.getvalue()


def assert_top_level_help(argv: list[str], env: dict[str, str] | None = None) -> None:
    """Run ``argv --help`` as a fresh program; it must print the usage and exit 0."""
    proc = subprocess.run([*argv, "--help"], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert "usage" in proc.stdout
    for command in ("stats", "mix", "recover", "train", "plot"):
        assert command in proc.stdout


class TestInstalledEntryPoint:
    def test_console_script_help(self):
        """The ``ifmixup`` console script prints usage and exits 0.

        Runs the installed script where one is on PATH. In an uninstalled
        checkout, runs the ``[project.scripts]`` target from pyproject.toml
        in a fresh interpreter, as the installer's generated wrapper would.
        """
        script = shutil.which("ifmixup")
        if script is not None:
            assert_top_level_help([script])
            return
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["ifmixup"]
        module, attr = target.split(":")
        code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        assert_top_level_help([sys.executable, "-c", code], source_env())


class TestModuleEntryPoint:
    def test_python_m_help(self):
        assert_top_level_help([sys.executable, "-m", "ifmixup"], source_env())
