"""TUDataset parsing, feature encodings, statistics, and serialization."""

from __future__ import annotations

import os
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ifmixup as m

from conftest import MUTAG_DIR, mutag_available


def write(path, text):
    path.write_text(text, encoding="utf-8")


def make_files(tmp_path, a, indicator, labels, node_labels=None, name="T"):
    write(tmp_path / f"{name}_A.txt", a)
    write(tmp_path / f"{name}_graph_indicator.txt", indicator)
    write(tmp_path / f"{name}_graph_labels.txt", labels)
    if node_labels is not None:
        write(tmp_path / f"{name}_node_labels.txt", node_labels)
    return m.TUDatasetFiles(str(tmp_path), name)


class TestParse:
    def test_fixture(self, tmp_path):
        files = m.make_fixture_dataset(str(tmp_path))
        ds = m.parse_tudataset(files)
        assert len(ds) == 1 and ds.num_classes == 1
        g = ds.graphs[0]
        assert g.n == 2
        assert g.e[0, 1] == 1.0 and g.e[1, 0] == 1.0

    def test_fixture_files_are_exact(self, tmp_path):
        files = m.make_fixture_dataset(str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "FIXTURE_A.txt", "FIXTURE_graph_indicator.txt", "FIXTURE_graph_labels.txt"
        ]
        expected = {
            files.a_path: b"1, 2\n2, 1\n",
            files.indicator_path: b"1\n1\n",
            files.graph_labels_path: b"1\n",
        }
        for path, content in expected.items():
            with open(path, "rb") as fh:
                assert fh.read() == content

    def test_two_graphs_split_by_indicator(self, tmp_path):
        files = make_files(
            tmp_path,
            a="1, 2\n2, 1\n3, 4\n4, 3\n4, 5\n5, 4\n",
            indicator="1\n1\n2\n2\n2\n",
            labels="5\n9\n",
        )
        ds = m.parse_tudataset(files)
        assert len(ds) == 2
        assert ds.graphs[0].n == 2 and ds.graphs[1].n == 3
        # labels map to contiguous classes in sorted original order
        assert ds.labels == [0, 1] and ds.label_values == [5, 9]
        # second graph's edges are re-indexed locally: path 0-1-2
        e = ds.graphs[1].e
        assert e[0, 1] == 1.0 and e[1, 2] == 1.0 and e[0, 2] == 0.0

    def test_single_direction_edge_still_undirected(self, tmp_path):
        files = make_files(tmp_path, a="1, 2\n", indicator="1\n1\n", labels="1\n")
        g = m.parse_tudataset(files).graphs[0]
        assert g.e[0, 1] == 1.0 and g.e[1, 0] == 1.0

    def test_comma_and_space_tokens(self, tmp_path):
        files = make_files(tmp_path, a="1,2\n2 , 1\n", indicator="1\n1\n", labels="1\n")
        assert m.parse_tudataset(files).graphs[0].e[0, 1] == 1.0

    def test_missing_file(self, tmp_path):
        files = m.TUDatasetFiles(str(tmp_path), "NOPE")
        with pytest.raises(m.ParseError, match="missing required file"):
            m.parse_tudataset(files)

    def test_node_id_out_of_range_with_line(self, tmp_path):
        files = make_files(tmp_path, a="1, 2\n2, 7\n", indicator="1\n1\n", labels="1\n")
        with pytest.raises(m.ParseError, match=r"T_A.txt line 2: node id out of range 1\.\.2"):
            m.parse_tudataset(files)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_numbers_count_every_line(self, tmp_path, newline):
        files = make_files(tmp_path, a="", indicator="1\n1\n", labels="1\n")
        lines = ["1, 2", "", " \t ", ", ,", "2, 7", ""]
        pathlib.Path(files.a_path).write_bytes(newline.join(lines).encode())
        with pytest.raises(m.ParseError, match=r"^T_A.txt line 5: node id out of range 1\.\.2"):
            m.parse_tudataset(files)

    def test_non_integer_token_with_line(self, tmp_path):
        files = make_files(tmp_path, a="1, 2\nx, 1\n", indicator="1\n1\n", labels="1\n")
        with pytest.raises(m.ParseError, match="T_A.txt line 2: non-integer token"):
            m.parse_tudataset(files)

    def test_edge_crossing_graphs(self, tmp_path):
        files = make_files(tmp_path, a="1, 3\n", indicator="1\n1\n2\n", labels="1\n2\n")
        with pytest.raises(m.ParseError, match="crosses graphs"):
            m.parse_tudataset(files)

    def test_self_loop_rejected(self, tmp_path):
        files = make_files(tmp_path, a="1, 1\n", indicator="1\n1\n", labels="1\n")
        with pytest.raises(m.ParseError, match="self-loop on node 1"):
            m.parse_tudataset(files)

    def test_gapped_graph_ids_rejected(self, tmp_path):
        files = make_files(tmp_path, a="1, 2\n", indicator="1\n3\n", labels="1\n2\n")
        with pytest.raises(m.ParseError, match="consecutive"):
            m.parse_tudataset(files)

    def test_label_count_mismatch(self, tmp_path):
        files = make_files(tmp_path, a="1, 2\n", indicator="1\n1\n", labels="1\n2\n")
        with pytest.raises(m.ParseError, match="2 labels for 1 graphs"):
            m.parse_tudataset(files)

    def test_node_label_count_mismatch(self, tmp_path):
        files = make_files(
            tmp_path, a="1, 2\n", indicator="1\n1\n", labels="1\n", node_labels="0\n"
        )
        with pytest.raises(m.ParseError, match="1 labels for 2 nodes"):
            m.parse_tudataset(files)

    def test_wrong_column_count(self, tmp_path):
        files = make_files(tmp_path, a="1, 2, 3\n", indicator="1\n1\n", labels="1\n")
        with pytest.raises(m.ParseError, match="expected 2 values, got 3"):
            m.parse_tudataset(files)

    def test_every_parsed_graph_validates(self, tmp_path):
        ds = m.make_synthetic_molecules(20, seed=3)
        enc = m.encode_node_features(ds)
        for g in enc.graphs():
            assert m.validate_graph(g) == []
            assert m.is_binary(g)


class TestEncodings:
    def parsed(self, tmp_path):
        return make_files(
            tmp_path,
            a="1, 2\n2, 1\n2, 3\n3, 2\n",
            indicator="1\n1\n1\n",
            labels="1\n",
            node_labels="4\n2\n4\n",
        )

    def test_one_hot_labels(self, tmp_path):
        ds = m.encode_node_features(m.parse_tudataset(self.parsed(tmp_path)), "one_hot_labels")
        assert ds.feature_dim == 2  # labels {2, 4} -> indices {0, 1}
        v = ds.graphs()[0].v
        assert np.array_equal(v, [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])

    def test_label_index_is_sorted_position(self, tmp_path):
        files = make_files(
            tmp_path,
            a="1, 2\n",
            indicator="1\n1\n",
            labels="1\n",
            node_labels="2\n6\n",
            name="L",
        )
        ds = m.encode_node_features(m.parse_tudataset(files), "one_hot_labels")
        # label 2 -> index 0, label 6 -> index 1
        assert np.array_equal(ds.graphs()[0].v, [[1.0, 0.0], [0.0, 1.0]])

    def test_one_hot_degree(self, tmp_path):
        ds = m.encode_node_features(m.parse_tudataset(self.parsed(tmp_path)), "one_hot_degree")
        assert ds.feature_dim == 3  # max degree 2 -> d = 3
        v = ds.graphs()[0].v
        assert np.array_equal(v, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])

    def test_labels_mode_requires_node_labels(self, tmp_path):
        files = make_files(tmp_path, a="1, 2\n", indicator="1\n1\n", labels="1\n", name="NL")
        with pytest.raises(ValueError, match="node labels required"):
            m.encode_node_features(m.parse_tudataset(files), "one_hot_labels")

    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError, match="unknown encoding mode"):
            m.encode_node_features(m.parse_tudataset(self.parsed(tmp_path)), "bag_of_words")

    @pytest.mark.parametrize("mode", ["one_hot_labels", "one_hot_degree"])
    def test_vocabulary_independent(self, mode):
        ds = m.encode_node_features(m.make_synthetic_molecules(30, seed=1), mode)
        fb = m.feature_vocabulary(ds)
        assert fb.vocabulary_independent()

    def test_load_dataset_defaults_to_labels(self, tmp_path):
        m.write_tudataset(m.make_synthetic_molecules(6, seed=2), str(tmp_path), "SYN")
        ds = m.load_dataset(str(tmp_path), "SYN")
        assert ds.feature_dim == 7  # synthetic node labels 0..6


class TestRoundTrip:
    def test_write_parse_round_trip(self, tmp_path):
        ds = m.make_synthetic_molecules(12, seed=5)
        files = m.write_tudataset(ds, str(tmp_path), "RT")
        back = m.parse_tudataset(files)
        assert len(back) == len(ds)
        assert back.labels == ds.labels
        assert back.label_values == ds.label_values
        for a, b in zip(ds.graphs, back.graphs):
            assert np.array_equal(a.e, b.e)
            assert np.array_equal(a.node_labels, b.node_labels)

    def test_weighted_graph_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        n = 6
        e = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.5), k=1)
        e = e + e.T
        g = m.NodeFeaturedGraph(rng.random((n, 4)), e)
        m.write_weighted_graph(g, str(tmp_path), "MIXED")
        back = m.read_weighted_graph(str(tmp_path), "MIXED")
        assert np.array_equal(back.v, g.v)  # repr round trip is exact
        assert np.array_equal(back.e, g.e)

    @pytest.mark.parametrize("n, d", [(2, 0), (0, 3)], ids=["no-columns", "no-nodes"])
    def test_unreadable_weighted_graph_not_written(self, tmp_path, n, d):
        g = m.NodeFeaturedGraph(np.zeros((n, d)), np.zeros((n, n)))
        message = f"^W: cannot write {n} nodes with {d} feature columns"
        with pytest.raises(ValueError, match=message):
            m.write_weighted_graph(g, str(tmp_path / "out"), "W")
        assert not (tmp_path / "out").exists()

    def test_read_weighted_missing_features(self, tmp_path):
        with pytest.raises(m.ParseError, match="missing required file"):
            m.read_weighted_graph(str(tmp_path), "GHOST")

    def weighted_files(self, tmp_path):
        e = np.array([[0.0, 0.5], [0.5, 0.0]])
        m.write_weighted_graph(m.NodeFeaturedGraph(np.eye(2), e), str(tmp_path), "W")
        return lambda suffix: tmp_path / f"W_{suffix}.txt"

    @pytest.mark.parametrize("suffix", ["A", "edge_weights", "node_features"])
    def test_read_weighted_missing_file(self, tmp_path, suffix):
        path = self.weighted_files(tmp_path)(suffix)
        path.unlink()
        with pytest.raises(m.ParseError, match=f"missing required file: {re.escape(str(path))}"):
            m.read_weighted_graph(str(tmp_path), "W")

    @pytest.mark.parametrize(
        "suffix, text, message",
        [
            ("node_features", "1.0, 0.0\n0.0\n", " line 2: expected 2 values, got 1"),
            ("node_features", "1.0, 0.0\n0.0, one\n", " line 2: non-numeric token"),
            ("node_features", "\n", ": no feature rows"),
            ("edge_weights", "0.5\n0.5 0.5\n", " line 2: expected 1 values, got 2"),
            ("edge_weights", "0.5\n", ": 1 weights for 2 edges"),
            ("A", "1, 2\n2, 3\n", r" line 2: node id out of range 1\.\.2"),
            (
                "edge_weights",
                "0.9\n0.5\n",
                r" line 2: weight 0\.5 differs from 0\.9 on an earlier line$",
            ),
            (
                "edge_weights",
                "0.5\n\n0.25\n",
                r" line 3: weight 0\.25 differs from 0\.5 on an earlier line$",
            ),
        ],
    )
    def test_read_weighted_malformed_file_named(self, tmp_path, suffix, text, message):
        self.weighted_files(tmp_path)(suffix).write_text(text)
        with pytest.raises(m.ParseError, match=f"^W_{suffix}\\.txt{message}"):
            m.read_weighted_graph(str(tmp_path), "W")


INT64 = st.integers(-(2**63), 2**63 - 1)
OUTSIDE_INT64 = st.one_of(st.integers(2**63, 2**80), st.integers(-(2**80), -(2**63) - 1))
# Python's int() accepts the last two; the parser takes only signed ASCII decimal int64
STRAY_TOKENS = ["x", "1.5", "1e3", "0x1", "nan", "--1", "1_000", "\u0661"]
# Lines that hold no token: blank, whitespace-only and comma-only
FILLER_LINES = ["", " ", "\t  ", ",", " , ,"]


def write_with_fillers(data, path, lines):
    """Write ``lines`` to ``path`` with drawn filler lines among them and
    ``\\n`` or ``\\r\\n`` endings; returns the number, counting every line
    of the file, that each of ``lines`` gets."""
    fillers = st.tuples(st.integers(0, len(lines)), st.sampled_from(FILLER_LINES))
    inserts = data.draw(st.lists(fillers, max_size=6))  # (index of the next line, filler)
    written, numbers = [], []
    for i, line in enumerate([*lines, None]):
        written += [filler for at, filler in inserts if at == i]
        if line is not None:
            written.append(line)
            numbers.append(len(written))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    pathlib.Path(path).write_bytes("".join(line + newline for line in written).encode())
    return numbers


@st.composite
def parsed_datasets(draw):
    """2-5 graphs of 1-6 nodes, with int64 graph labels and, maybe, node labels."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=5))
    with_node_labels = draw(st.booleans())
    graphs = []
    for n in sizes:
        upper = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        e = np.zeros((n, n))
        e[np.triu_indices(n, 1)] = upper
        node_labels = np.array(draw(st.lists(INT64, min_size=n, max_size=n)))
        graphs.append(m.ParsedGraph(e + e.T, node_labels if with_node_labels else None))
    raw = draw(st.lists(INT64, min_size=len(sizes), max_size=len(sizes)))
    values = sorted(set(raw))
    return m.ParsedDataset("T", graphs, [values.index(r) for r in raw], len(values), values)


def file_paths(files, ds):
    paths = [files.a_path, files.indicator_path, files.graph_labels_path]
    return paths + [files.node_labels_path] if ds.has_node_labels() else paths


class TestParserProperties:
    """write_tudataset output, with filler lines and maybe CRLF endings put
    in, parses back exactly; one corruption of it raises ParseError naming
    the corrupted file, and the line, as the file numbers it, where there is
    one."""

    @settings(max_examples=100)
    @given(ds=parsed_datasets(), data=st.data())
    def test_written_files_parse_back_bit_for_bit(self, ds, data):
        with tempfile.TemporaryDirectory() as directory:
            files = m.write_tudataset(ds, directory)
            for path in file_paths(files, ds):
                lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
                write_with_fillers(data, path, lines)
            back = m.parse_tudataset(files)
        assert (back.labels, back.label_values, back.num_classes) == (
            ds.labels, ds.label_values, ds.num_classes
        )
        for a, b in zip(ds.graphs, back.graphs, strict=True):
            assert b.e.dtype == np.float64 and b.e.tobytes() == a.e.tobytes()
            if a.node_labels is None:
                assert b.node_labels is None
            else:
                assert b.node_labels.dtype == np.int64
                assert b.node_labels.tobytes() == a.node_labels.tobytes()

    @settings(max_examples=300)
    @given(ds=parsed_datasets(), data=st.data())
    def test_one_corruption_is_named(self, ds, data):
        with tempfile.TemporaryDirectory() as directory:
            files = m.write_tudataset(ds, directory)
            paths = file_paths(files, ds)
            text = {p: pathlib.Path(p).read_text(encoding="utf-8").splitlines() for p in paths}
            kinds = ["stray", "extra", "outside", "crossing", "gap"]
            kinds += ["truncated"] if text[files.a_path] else []
            kind = data.draw(st.sampled_from(kinds))
            if kind in ("stray", "extra", "outside"):
                path = data.draw(st.sampled_from([p for p in paths if text[p]]))
            else:
                path = files.indicator_path if kind == "gap" else files.a_path
            lines = text[path]
            k = data.draw(st.integers(0, max(len(lines) - 1, 0)))
            name = os.path.basename(path)
            named, detail = k, ""  # which of the file's lines the error names, and how
            if kind == "truncated":
                lines[k] = lines[k].split(",")[0]
            elif kind == "extra":
                lines[k] += " 7"
            elif kind in ("stray", "outside"):
                tokens = lines[k].split(", ")
                bad = st.sampled_from(STRAY_TOKENS) if kind == "stray" else OUTSIDE_INT64
                token = data.draw(bad)
                tokens[data.draw(st.integers(0, len(tokens) - 1))] = str(token)
                lines[k] = ", ".join(tokens)
            elif kind == "crossing":
                n0, n1 = ds.graphs[0].n, ds.graphs[1].n
                ends = [data.draw(st.integers(1, n0)), data.draw(st.integers(n0 + 1, n0 + n1))]
                lines.append("{}, {}".format(*data.draw(st.permutations(ends))))
                named, detail = len(lines) - 1, "edge"
            else:  # the last graph's id leaves a gap or drops below 1
                last = str(len(ds))
                ids = st.one_of(st.integers(len(ds) + 1, 2**63 - 1), st.integers(-(2**63), 0))
                gap = str(data.draw(ids))
                lines[:] = [gap if line == last else line for line in lines]
                expected = f"{name}: graph ids must be consecutive"
            numbers = write_with_fillers(data, path, lines)
            if kind != "gap":
                expected = f"{name} line {numbers[named]}: {detail}"
            with pytest.raises(m.ParseError) as exc:
                m.parse_tudataset(files)
        assert str(exc.value).startswith(expected)


class TestSyntheticMolecules:
    def test_deterministic(self):
        a = m.make_synthetic_molecules(20, seed=9)
        b = m.make_synthetic_molecules(20, seed=9)
        for ga, gb in zip(a.graphs, b.graphs):
            assert np.array_equal(ga.e, gb.e)
            assert np.array_equal(ga.node_labels, gb.node_labels)

    def test_shape_of_corpus(self):
        ds = m.make_synthetic_molecules(188, seed=7)
        assert len(ds) == 188 and ds.num_classes == 2
        assert ds.labels == [i % 2 for i in range(188)]
        sizes = [g.n for g in ds.graphs]
        assert min(sizes) >= 10 and max(sizes) <= 20

    def test_class_topologies(self):
        ds = m.make_synthetic_molecules(30, seed=7)
        for g, cls in zip(ds.graphs, ds.labels):
            degrees = g.e.sum(axis=1)
            undirected = int(np.count_nonzero(np.triu(g.e, k=1)))
            if cls == 0:
                assert np.all(degrees >= 2)  # ring core
                assert undirected >= g.n
            else:
                assert undirected == g.n - 1  # tree
                assert np.any(degrees == 1)


class TestStats:
    def test_fixture_stats(self, tmp_path):
        files = m.make_fixture_dataset(str(tmp_path))
        ds = m.load_dataset(str(tmp_path), "FIXTURE", mode="one_hot_degree")
        st = m.dataset_stats(ds)
        assert st.num_graphs == 1 and st.mean_nodes == 2.0 and st.mean_edges == 1.0
        assert st.num_classes == 1
        assert "graphs:      1" in st.to_text()
        assert m.compare_table5(st) is None  # unknown name -> no reference row

    def test_table5_catalog(self):
        assert set(m.TABLE5) == {
            "MUTAG",
            "PTC_MR",
            "NCI109",
            "NCI1",
            "ENZYMES",
            "PROTEINS",
            "IMDB-M",
            "IMDB-B",
        }
        assert m.TABLE5["MUTAG"].graphs == 188
        assert m.TABLE5["PROTEINS"].graphs == 1113 and m.TABLE5["PROTEINS"].classes == 2
        assert m.TABLE5["NCI1"].graphs == 4110 and m.TABLE5["NCI1"].node_label_count == 37
        assert m.TABLE5["ENZYMES"].graphs == 600 and m.TABLE5["ENZYMES"].classes == 6

    def test_compare_passes_on_matching_stats(self):
        st = m.DatasetStats("MUTAG", 188, 17.93, 19.79, 7, 2)
        check = m.compare_table5(st)
        assert check is not None and check.passed
        assert "PASS" in check.to_text()

    def test_compare_fails_on_wrong_counts(self):
        st = m.DatasetStats("MUTAG", 187, 17.93, 19.79, 7, 2)
        check = m.compare_table5(st)
        assert not check.passed and "FAIL" in check.to_text()

    def test_edge_figure_halved(self):
        st = m.DatasetStats("MUTAG", 188, 17.93, 39.6, 7, 2)  # directed figure used raw
        check = m.compare_table5(st)
        edges_row = [r for r in check.rows if r[0] == "mean edges"][0]
        assert edges_row[1] == pytest.approx(19.8)
        assert not edges_row[3]

    @pytest.mark.skipif(not mutag_available(), reason="MUTAG files not present")
    def test_mutag_matches_reference(self):
        ds = m.load_dataset(MUTAG_DIR, "MUTAG")
        check = m.compare_table5(m.dataset_stats(ds))
        assert check is not None and check.passed
