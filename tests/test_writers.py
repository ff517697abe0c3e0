"""The bulk file writers against the per-line writers they replaced, byte
for byte, and the synth files read back through the array readers."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from demograph import graph, labelprop, model
from demograph.embed import EmbeddingTable
from demograph.graph import (Graph, load_edge_list, texts, write_edge_list,
                             write_node_map)
from demograph.labelprop import (LabelState, read_seed_labels,
                                 write_label_state, write_node_vectors)
from demograph.model import FeatureMatrix
from demograph.pipeline import read_labels
from demograph.synth import PlantedGraphSpec, SynthData, generate, write_outputs

from oracles import (reference_embedding_save, reference_to_csv,
                     reference_write_edge_list, reference_write_label_state,
                     reference_write_node_map, reference_write_node_vectors,
                     reference_write_outputs)

CHUNK = graph._CHUNK
ROW_COUNTS = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1]
SPECIAL = [-0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, 1 / 3,
           -2.5e-10, 0.0, 1.0, 123456789.0]
# Names csv.writer quotes, and names it leaves alone.
QUOTED = ["a,b", 'say "hi"', "cr\rx", "lf\nx", "crlf\r\nx", '"', ","]
PLAIN = ["plain", "", " lead", "tab\tin", "é", "名前", "emoji😀", "#hash",
         "a b", "nul\x00x"]


def unique_names(pool, count):
    return [pool[i % len(pool)] + (str(i) if i >= len(pool) else "")
            for i in range(count)]


def special_values(rng, rows, width):
    """Normal draws with every special value placed in the first rows."""
    values = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(
        -5, 6, size=(rows, width))
    flat = values.reshape(-1)
    flat[:len(SPECIAL)] = SPECIAL[:flat.size]
    return values


def same_bytes(write, reference, tmp_path):
    write(tmp_path / "bulk")
    reference(tmp_path / "ref")
    assert (tmp_path / "bulk").read_bytes() == (tmp_path / "ref").read_bytes()


def no_csv_writer():
    """Fail if ``to_csv`` falls back to ``csv.writer``."""
    return mock.patch.object(model.csv, "writer", side_effect=AssertionError)


class TestFeatureCsv:
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_plain_names_in_bulk(self, tmp_path, rng, rows):
        fm = FeatureMatrix(unique_names(PLAIN, rows), ["x", "y é", " z"],
                           special_values(rng, rows, 3))
        with no_csv_writer():
            fm.to_csv(tmp_path / "bulk")
        reference_to_csv(fm, tmp_path / "ref")
        assert (tmp_path / "bulk").read_bytes() == (tmp_path / "ref").read_bytes()

    @pytest.mark.parametrize("name", QUOTED)
    def test_quoted_name(self, tmp_path, rng, name):
        fm = FeatureMatrix(PLAIN + [name], ["x", "y"],
                           special_values(rng, len(PLAIN) + 1, 2))
        same_bytes(fm.to_csv, lambda p: reference_to_csv(fm, p), tmp_path)

    @pytest.mark.parametrize("column", QUOTED + [""])
    def test_column_names(self, tmp_path, rng, column):
        fm = FeatureMatrix(PLAIN, ["x", column], special_values(rng, len(PLAIN), 2))
        same_bytes(fm.to_csv, lambda p: reference_to_csv(fm, p), tmp_path)

    @pytest.mark.parametrize("rows", [0, 3])
    def test_no_columns(self, tmp_path, rows):
        fm = FeatureMatrix(["", "a", "b"][:rows], [], np.zeros((rows, 0)))
        same_bytes(fm.to_csv, lambda p: reference_to_csv(fm, p), tmp_path)


class TestNodeVectors:
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    @pytest.mark.parametrize("width", [1, 3])
    def test_bytes_equal_reference(self, tmp_path, rng, rows, width):
        names = unique_names(PLAIN + QUOTED, rows)
        values = special_values(rng, rows, width)
        same_bytes(lambda p: write_node_vectors(p, names, values),
                   lambda p: reference_write_node_vectors(p, names, values),
                   tmp_path)

    def test_list_rows_and_extra_names(self, tmp_path):
        names, rows = ["a", "b", "c"], [[1, 0.5], [-0.0, 2]]
        same_bytes(lambda p: write_node_vectors(p, names, rows),
                   lambda p: reference_write_node_vectors(p, names, rows),
                   tmp_path)

    @pytest.mark.parametrize("emit_inactive", [False, True])
    def test_label_state(self, tmp_path, rng, emit_inactive):
        n = 40
        g = Graph.build(unique_names(PLAIN, n),
                        [(i, i + 1) for i in range(n - 1)])
        active = rng.random(n) < 0.6
        state = LabelState(
            np.where(active[:, None], special_values(rng, n, 2), 0.0),
            is_seed=active & (rng.random(n) < 0.3), is_active=active)
        same_bytes(lambda p: write_label_state(p, g, state, emit_inactive),
                   lambda p: reference_write_label_state(p, g, state,
                                                         emit_inactive),
                   tmp_path)


class TestEmbeddingSave:
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_bytes_equal_reference(self, tmp_path, rng, rows):
        table = EmbeddingTable(unique_names(PLAIN + QUOTED, rows),
                               special_values(rng, rows, 4))
        same_bytes(table.save, lambda p: reference_embedding_save(table, p),
                   tmp_path)


    def test_token_ending_in_nul(self, tmp_path, rng):
        # Embedding tokens stay text, so a trailing NUL is written as is.
        table = EmbeddingTable(["a\x00", "a", "\x00"], rng.normal(size=(3, 2)))
        same_bytes(table.save, lambda p: reference_embedding_save(table, p),
                   tmp_path)


class TestGraphWriters:
    @pytest.mark.parametrize("edges", ROW_COUNTS[1:])
    def test_path_graph_near_chunk(self, tmp_path, edges):
        # Nodes in reverse order, so every edge is written from its higher
        # name to its lower one.
        n = edges + 1
        g = Graph.build(unique_names(PLAIN, n)[::-1],
                        [(i, i + 1) for i in range(edges)])
        same_bytes(lambda p: write_edge_list(g, p),
                   lambda p: reference_write_edge_list(g, p), tmp_path)
        same_bytes(lambda p: write_node_map(g, p),
                   lambda p: reference_write_node_map(g, p), tmp_path)

    def test_random_graph(self, tmp_path, rng):
        pairs = rng.integers(0, 300, size=(2000, 2))
        g = Graph.build(unique_names(PLAIN + QUOTED, 300), pairs)
        same_bytes(lambda p: write_edge_list(g, p),
                   lambda p: reference_write_edge_list(g, p), tmp_path)
        same_bytes(lambda p: write_node_map(g, p),
                   lambda p: reference_write_node_map(g, p), tmp_path)

    def test_graph_without_edges(self, tmp_path):
        g = Graph.build(["a", "b"], np.zeros((0, 2), dtype=np.int64))
        same_bytes(lambda p: write_edge_list(g, p),
                   lambda p: reference_write_edge_list(g, p), tmp_path)


def written(data, tmp_path):
    paths = write_outputs(data, tmp_path / "bulk")
    reference_write_outputs(data, tmp_path / "ref")
    return {key: (path.read_bytes(), (tmp_path / "ref" / path.name).read_bytes())
            for key, path in paths.items()}


class TestSynthOutputs:
    @pytest.mark.parametrize("classes", [2, 7])
    def test_generated_files_equal_reference(self, tmp_path, classes):
        data = generate(PlantedGraphSpec(per_class=40, classes=classes,
                                         p=0.2, q=0.02, reveal=0.3,
                                         noise=0.8, rng_seed=classes))
        for bulk, ref in written(data, tmp_path).values():
            assert bulk == ref

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    @pytest.mark.parametrize("pool", [PLAIN, PLAIN + QUOTED],
                             ids=["plain", "quoted"])
    def test_odd_names_and_chunk_edges(self, tmp_path, rng, rows, pool):
        n = max(rows, 3)
        truth = rng.integers(0, 7, size=n)
        data = SynthData(unique_names(pool, n), truth,
                         np.sort(rng.choice(n, size=min(rows, 3), replace=False)),
                         rng.integers(0, n, size=(rows, 2)),
                         special_values(rng, n, 7))
        for bulk, ref in written(data, tmp_path).values():
            assert bulk == ref

    @pytest.mark.parametrize("classes", [2, 7])
    def test_files_read_back_by_the_array_readers(self, tmp_path, classes):
        data = generate(PlantedGraphSpec(per_class=60, classes=classes,
                                         p=0.15, q=0.02, reveal=0.25,
                                         noise=0.5, rng_seed=5))
        paths = write_outputs(data, tmp_path)
        task, width = ("gender", 1) if classes == 2 else ("age", 7)
        assert graph._array_arcs(paths["edges"]) is not None
        assert model._array_csv(paths["cumf"]) is not None

        g = load_edge_list(paths["edges"])
        names = texts(g.names)
        edges = {frozenset((names[u], names[v]))
                 for u in range(g.node_count) for v in g.neighbors(u)}
        assert edges == {frozenset((data.names[u], data.names[v]))
                         for u, v in data.edges}
        encoded = [name.encode() for name in data.names]
        truth = dict(zip(encoded, data.truth.tolist()))
        # The truth and seed files take the array path of the label read:
        # the line reader is never opened.
        with mock.patch.object(labelprop, "_read_rows",
                               side_effect=AssertionError("line reader")):
            assert read_labels(paths["truth"], task) == truth
            assert read_labels(paths["seeds"], task) == {
                encoded[i]: truth[encoded[i]] for i in data.seed_indices}
            seeds = read_seed_labels(paths["seeds"], g, num_classes=width)
        inside = [i for i in data.seed_indices if encoded[i] in g.names]
        idx = [g.index_of(data.names[i]) for i in inside]
        assert np.flatnonzero(seeds.is_seed).tolist() == sorted(idx)
        if classes == 2:
            assert seeds.values[idx, 0].tolist() == data.truth[inside].tolist()
        else:
            assert seeds.values[idx].argmax(axis=1).tolist() == \
                data.truth[inside].tolist()
        cumf = FeatureMatrix.from_csv(paths["cumf"])
        assert texts(cumf.nodes) == data.names
        assert np.array_equal(cumf.values, data.features)
