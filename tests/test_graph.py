"""Graph ingestion, interning, filtering, and CSR structure."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from demograph.errors import (EdgeListParseError, EmptyGraphError,
                              ValidationError)
from demograph import graph, synth
from demograph.embed import build_sentences
from demograph.graph import (Graph, load_directed_edges, load_edge_list,
                             name_array, row_indices, texts, write_edge_list,
                             write_node_map)

from conftest import random_graph, spiced
from oracles import (reference_directed_edges, reference_edge_list,
                     reference_filter_min_degree)


def write_edges(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def csr_of(neighbor_lists):
    """CSR arrays of per-node sorted neighbor lists."""
    indptr = np.zeros(len(neighbor_lists) + 1, dtype=np.int64)
    np.cumsum([len(nbrs) for nbrs in neighbor_lists], out=indptr[1:])
    indices = np.array([v for nbrs in neighbor_lists for v in nbrs],
                       dtype=np.int64)
    return indptr, indices


# Random edge files: sources from a small pool (so duplicates and
# self-loops are common), targets also from names that never follow
# anyone, and about one comment or blank line per three edge lines.
_SOURCES = [f"u{i}" for i in range(8)]
_edge_line = st.tuples(st.sampled_from(_SOURCES),
                       st.sampled_from(_SOURCES + ["t0", "t1", "t2"])
                       ).map(lambda pair: f"{pair[0]}\t{pair[1]}")
_edge_file = st.lists(
    st.one_of(_edge_line, _edge_line, _edge_line,
              st.sampled_from(["# comment", "", "   ", "#u0\tu1"])),
    max_size=40)


class TestLoadEdgeList:
    def test_dedup_and_self_loop_removal(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB", "B\tA", "A\tA"])
        g = load_edge_list(p)
        assert g.node_count == 2
        assert g.edge_count == 1
        assert list(g.neighbors(g.index_of("A"))) == [g.index_of("B")]

    def test_triangle_symmetry(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB", "A\tC", "B\tC"])
        g = load_edge_list(p)
        assert g.node_count == 3
        assert list(g.degrees) == [2, 2, 2]

    def test_out_degree_filter_drops_node_and_edges(self, tmp_path):
        # 5-node directed input; D follows only A, everyone else follows two.
        lines = ["A\tB", "A\tC", "B\tC", "B\tD", "C\tA", "C\tE",
                 "D\tA", "E\tA", "E\tB"]
        p = write_edges(tmp_path / "e.tsv", lines)

        # Scalar reference: count distinct follow targets, drop < 2, then
        # keep only edges between surviving nodes, undirected and deduped.
        follows = {}
        for line in lines:
            u, v = line.split("\t")
            follows.setdefault(u, set()).add(v)
        kept = {u for u, t in follows.items() if len(t) >= 2}
        expected_edges = set()
        for line in lines:
            u, v = line.split("\t")
            if u in kept and v in kept and u != v:
                expected_edges.add(frozenset((u, v)))

        g = load_edge_list(p, min_degree=2)
        assert b"D" not in g.names
        names = texts(g.names)
        got = set()
        for u in range(g.node_count):
            for v in g.neighbors(u):
                got.add(frozenset((names[u], names[v])))
        assert got == expected_edges
        # E appears only as a filtered-out source's target elsewhere but
        # follows two nodes itself, so it must survive.
        assert b"E" in g.names

    def test_filter_drops_pure_targets(self, tmp_path):
        # T never follows anyone: out-degree 0, removed by any filter.
        p = write_edges(tmp_path / "e.tsv", ["A\tT", "A\tB", "B\tA", "B\tT"])
        g = load_edge_list(p, min_degree=1)
        assert b"T" not in g.names
        assert g.node_count == 2

    def test_malformed_line_names_line_number(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB", "oops"])
        with pytest.raises(EdgeListParseError, match=":2:"):
            load_edge_list(p)

    def test_empty_file_rejected(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["# only a comment"])
        with pytest.raises(EmptyGraphError):
            load_edge_list(p)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["# c", "", "A\tB", "  ", "B\tC"])
        g = load_edge_list(p)
        assert g.edge_count == 2

    def test_negative_min_degree_rejected(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB"])
        with pytest.raises(ValidationError):
            load_edge_list(p, min_degree=-1)

    def test_strict_mode_accepts_symmetric_input(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB", "B\tA", "B\tC", "C\tB"])
        g = load_edge_list(p, symmetrize=False)
        assert g.edge_count == 2

    def test_strict_mode_rejects_one_way_edges(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB", "B\tA", "B\tC"])
        with pytest.raises(ValidationError):
            load_edge_list(p, symmetrize=False)

    def test_target_only_nodes_are_interned(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB", "A\tC"])
        g = load_edge_list(p)
        assert b"C" in g.names and g.degrees[g.index_of("C")] == 1


class TestLoaderAgainstReference:
    """The array loader against the line-by-line reference in oracles.py."""

    def check(self, path, lines, min_degree, symmetrize=True):
        expected = reference_edge_list(lines, min_degree)
        if expected is None:
            with pytest.raises(EmptyGraphError):
                load_edge_list(path, min_degree=min_degree,
                               symmetrize=symmetrize)
            return
        g = load_edge_list(path, min_degree=min_degree, symmetrize=symmetrize)
        names, neighbors = expected
        indptr, indices = csr_of(neighbors)
        assert texts(g.names) == names
        assert np.array_equal(g.indptr, indptr)
        assert np.array_equal(g.indices, indices)

    @given(_edge_file, st.sampled_from([0, 1, 2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_load_edge_list(self, tmp_path_factory, lines, min_degree):
        path = write_edges(tmp_path_factory.mktemp("e") / "e.tsv", lines)
        self.check(path, lines, min_degree)

    @given(_edge_file, st.sampled_from([0, 1, 2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_strict_mode_on_symmetric_input(self, tmp_path_factory, lines,
                                            min_degree):
        both = []
        for line in lines:
            both.append(line)
            tokens = line.split()
            if len(tokens) == 2 and not line.startswith("#"):
                both.append(f"{tokens[1]}\t{tokens[0]}")
        path = write_edges(tmp_path_factory.mktemp("e") / "e.tsv", both)
        self.check(path, both, min_degree, symmetrize=False)

    @given(_edge_file)
    @settings(max_examples=100, deadline=None)
    def test_load_directed_edges(self, tmp_path_factory, lines):
        path = write_edges(tmp_path_factory.mktemp("e") / "e.tsv", lines)
        expected = reference_directed_edges(lines)
        if expected is None:
            with pytest.raises(EmptyGraphError):
                load_directed_edges(path)
            return
        d = load_directed_edges(path)
        names, arcs = expected
        assert d.names == names
        assert list(map(tuple, d.arcs.tolist())) == arcs


# Arc arrays over a small id range, so that self-loops, repeated arcs and
# nodes whose first arc the filter drops are all common.
_arc_array = st.integers(1, 12).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.tuples(st.integers(0, k - 1),
                                   st.integers(0, k - 1)), max_size=60)))


class TestFilterMinDegree:
    """The O(arcs) renumbering against the sort it replaced."""

    @staticmethod
    def check(k, pairs, min_degree):
        names = [f"v{i}" for i in range(k)]
        arcs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        got_names, got_arcs = graph._filter_min_degree(name_array(names), arcs,
                                                       min_degree)
        want_names, want_arcs = reference_filter_min_degree(names, arcs,
                                                            min_degree)
        got_names = texts(got_names)
        assert got_names == want_names
        assert got_arcs.dtype == want_arcs.dtype
        assert np.array_equal(got_arcs, want_arcs)
        return got_names

    @given(_arc_array, st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, case, min_degree):
        self.check(*case, min_degree)

    def test_first_arc_dropped(self):
        # v0 follows only v1, so the filter drops v0 and with it v1's first
        # arc: the kept order is v2, v3, v1, not the id order.
        pairs = [(0, 1), (2, 3), (2, 1), (1, 2), (1, 3), (3, 1), (3, 2),
                 (0, 0)]
        names = self.check(4, pairs, 2)
        assert names == ["v2", "v3", "v1"]

    def test_load_logs_what_the_filter_drops(self, tmp_path, caplog):
        p = write_edges(tmp_path / "e.tsv",
                        ["A\tB", "A\tC", "B\tA", "B\tC", "C\tD", "C\tA",
                         "D\tD"])
        with caplog.at_level("INFO", logger="demograph.graph"):
            g = load_edge_list(p, min_degree=2)
        assert texts(g.names) == ["A", "B", "C"]
        assert "min_degree=2 drops 1 of 4 nodes and 2 of 7 arcs" in caplog.text


class TestBuildAgainstReference:
    """``Graph.build`` against the set of its pairs' non-self arcs."""

    @given(_arc_array, st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, case, mirror, symmetric):
        k, pairs = case
        if symmetric:
            pairs = pairs + [(v, u) for u, v in pairs]
        names = [f"v{i}" for i in range(k)]
        arcs = {(u, v) for u, v in pairs if u != v}
        if mirror:
            arcs |= {(v, u) for u, v in arcs}
        elif any((v, u) not in arcs for u, v in arcs):
            with pytest.raises(ValidationError, match="not symmetric"):
                Graph.build(names, pairs, mirror=False)
            return
        g = Graph.build(names, pairs, mirror=mirror)
        indptr, indices = csr_of([sorted(v for u, v in arcs if u == w)
                                  for w in range(k)])
        assert texts(g.names) == names
        assert np.array_equal(g.indptr, indptr)
        assert np.array_equal(g.indices, indices)

    def test_unmirrored_cycle_raises(self):
        # Every node has one out-arc either way, so only the targets differ.
        with pytest.raises(ValidationError, match="not symmetric"):
            Graph.build(["a", "b", "c"], [(0, 1), (1, 2), (2, 0), (1, 1)],
                        mirror=False)


class TestIngestMemory:
    """The traced peak of ``load_edge_list`` per arc of its file."""

    # The key-buffer build peaks at about 58 bytes per arc on this graph,
    # in the parse's renumbering; a build that copies the pair array (a
    # self-loop filter, the mirrored concatenation, then the keys) peaks
    # at about 82.
    BYTES_PER_ARC = 64

    @pytest.fixture(scope="class")
    def edges(self, tmp_path_factory):
        data = synth.generate(synth.PlantedGraphSpec(
            per_class=1000, p=0.3, q=0.05, rng_seed=1))
        paths = synth.write_outputs(data, tmp_path_factory.mktemp("g"))
        return paths["edges"], len(data.edges)

    @pytest.mark.parametrize("min_degree", [0, 2])
    def test_peak_bytes_per_arc(self, edges, min_degree):
        path, arcs = edges
        assert arcs >= 200_000
        tracemalloc.start()
        try:
            load_edge_list(path, min_degree=min_degree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / arcs <= self.BYTES_PER_ARC


class TestNeighbors:
    def test_triangle(self):
        g = Graph.build(["a", "b", "c"], [(0, 1), (0, 2), (1, 2)])
        assert list(g.neighbors(0)) == [1, 2]

    def test_isolated_node(self, tmp_path):
        # B's only relation is a self-loop, so it ends up isolated.
        p = write_edges(tmp_path / "e.tsv", ["B\tB", "A\tC"])
        g = load_edge_list(p)
        assert list(g.neighbors(g.index_of("B"))) == []

    def test_path_midpoint(self):
        g = Graph.build(["A", "B", "C"], [(0, 1), (1, 2)])
        assert list(g.neighbors(1)) == [0, 2]

    def test_out_of_range(self):
        g = Graph.build(["a", "b"], [(0, 1)])
        with pytest.raises(IndexError):
            g.neighbors(2)
        with pytest.raises(IndexError):
            g.neighbors(-1)


class TestInvariants:
    @given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)),
                    min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_handshake(self, pairs):
        names = [f"n{i}" for i in range(15)]
        g = Graph.build(names, pairs)
        assert int(g.degrees.sum()) == 2 * g.edge_count
        assert int(g.degrees.sum()) % 2 == 0

    def test_adjacency_is_symmetric_sorted_unique(self, rng):
        g, adj = random_graph(rng, 40, 0.15)
        for v in range(g.node_count):
            nbrs = list(g.neighbors(v))
            assert nbrs == sorted(set(nbrs))
            assert set(nbrs) == adj[v]
            for u in nbrs:
                assert v in g.neighbors(u)

    def test_interning_round_trip(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["x\ty", "z\tx", "w\tz"])
        g = load_edge_list(p)
        for name in ("x", "y", "z", "w"):
            assert g.names[g.index_of(name)] == name.encode()
            assert g.index_of(name.encode()) == g.index_of(name)
        assert sorted(g._index.values()) == list(range(g.node_count))

    def test_row_indices(self):
        nodes = ["c", "a", "b"]
        got = row_indices(nodes, ["a", "z", "c", "a", ""])
        assert got.dtype == np.int64
        assert got.tolist() == [1, -1, 0, 1, -1]
        assert row_indices(nodes, []).tolist() == []

    def test_write_reload_round_trip(self, tmp_path, rng):
        g, _ = random_graph(rng, 30, 0.2)
        out = tmp_path / "round.tsv"
        write_edge_list(g, out)
        g2 = load_edge_list(out)
        assert set(g2.names.tolist()) == set(g.names.tolist())
        by_name = {g.names[u]: {g.names[v] for v in g.neighbors(u)}
                   for u in range(g.node_count)}
        for u in range(g2.node_count):
            assert {g2.names[v] for v in g2.neighbors(u)} == by_name[g2.names[u]]
        # Reloading the same file is deterministic down to the arrays.
        g2b = load_edge_list(out)
        assert np.array_equal(g2b.names, g2.names)
        assert np.array_equal(g2b.indptr, g2.indptr)
        assert np.array_equal(g2b.indices, g2.indices)

    def test_node_map_format(self, tmp_path):
        g = Graph.build(["u", "v"], [(0, 1)])
        out = tmp_path / "nodes.tsv"
        write_node_map(g, out)
        assert out.read_text() == "0\tu\n1\tv\n"

    def test_graph_arrays_read_only(self):
        g = Graph.build(["a", "b"], [(0, 1)])
        with pytest.raises(ValueError):
            g.indices[0] = 5

    def test_adjacency_operator_is_cached_csr(self, rng):
        g, adj = random_graph(rng, 30, 0.1)
        a = g.adjacency
        assert g.adjacency is a
        assert np.array_equal(a.indptr, g.indptr)
        assert np.array_equal(a.indices, g.indices)
        dense = np.zeros((30, 30))
        for u, nbrs in enumerate(adj):
            dense[u, sorted(nbrs)] = 1.0
        assert np.array_equal(a @ np.eye(30), dense)

    def test_csr_arrays_are_int32_and_shared(self, tmp_path):
        path = write_edges(tmp_path / "e.tsv",
                           ["a\tb", "b\tc", "c\ta", "a\tc", "d\ta"])
        graphs = [Graph.build(["a", "b", "c"], [(0, 1), (1, 2)]),
                  load_edge_list(path), load_edge_list(path, min_degree=1)]
        for g in graphs:
            assert g.indptr.dtype == g.indices.dtype == np.int32
            # The operator holds the graph's own arrays, not copies.
            assert np.shares_memory(g.adjacency.indices, g.indices)
            assert np.shares_memory(g.adjacency.indptr, g.indptr)
        assert load_directed_edges(path).arcs.dtype == np.int32
        empty = Graph.build(["a", "b"], [])
        assert empty.indptr.dtype == empty.indices.dtype
        assert np.array_equal(empty.indptr, [0, 0, 0])
        assert len(empty.indices) == 0


class TestAdjacencyOperator:
    """``Graph.adjacency`` against a ``scipy.sparse.csr_array`` over the
    graph's arrays, the operator it replaced, bit for bit."""

    @staticmethod
    def csr_array_of(g):
        n = g.node_count
        return csr_array((np.ones(len(g.indices)), g.indices, g.indptr),
                         shape=(n, n))

    @staticmethod
    def spread(rng, shape):
        # Magnitudes spread so that summation order shows in the bits,
        # with zeros of both signs.
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 13, shape)
        x[rng.random(shape) < 0.1] = 0.0
        x[rng.random(shape) < 0.1] = -0.0
        return x

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("shape", [(), (1,), (2,), (7,), (9,)])
    def test_products_match_csr_array(self, rng, dtype, shape):
        built, _ = random_graph(rng, 300, 0.03)
        g = Graph(built.names, built.indptr.astype(dtype),
                  built.indices.astype(dtype))
        assert g.indices.dtype == dtype
        want = self.csr_array_of(g)
        for _ in range(3):
            x = self.spread(rng, (300, *shape))
            got = g.adjacency @ x
            assert got.shape == x.shape and got.dtype == np.float64
            assert got.tobytes() == (want @ x).tobytes()

    def test_strided_column_view(self, rng):
        g, _ = random_graph(rng, 200, 0.05)
        wide = self.spread(rng, (200, 6))
        for view in (wide[:, 1], wide[:, 2:3], wide[:, ::2]):
            assert not view.flags.c_contiguous
            got = g.adjacency @ view
            assert got.tobytes() == (self.csr_array_of(g) @ view).tobytes()

    def test_edgeless_graph(self, rng):
        g = Graph.build(["a", "b", "c"], [])
        for shape in [(3,), (3, 1), (3, 4)]:
            x = self.spread(rng, shape)
            got = g.adjacency @ x
            assert got.tobytes() == (self.csr_array_of(g) @ x).tobytes()
            assert got.tobytes() == np.zeros(shape).tobytes()

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (3, 2, 2), ()])
    def test_wrong_shape_raises(self, shape):
        g = Graph.build(["a", "b", "c"], [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            g.adjacency @ np.zeros(shape)

    def test_kernels_load_alone_and_are_shared(self):
        # A fresh interpreter: the kernels load without scipy.sparse, and
        # a later import of scipy.sparse takes the same module; one that
        # imported scipy.sparse first reuses its module.  Threads that load
        # them at once, more than there are cores and switching often, each
        # get a working operator.
        script = """
import sys, threading
import numpy as np
from demograph.graph import Graph
if sys.argv[1] == "after":
    import scipy.sparse
x = np.array([1.0, 2.0, 4.0])
barrier = threading.Barrier(8)
products = []
def build():
    g = Graph.build(["a", "b", "c"], [(0, 1), (1, 2)])
    barrier.wait()
    products.append((g.adjacency @ x).tolist())
sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=build) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(not any(t.is_alive() for t in threads))
print(products == [[2.0, 5.0, 2.0]] * 8)
print("scipy.sparse" in sys.modules)
import scipy.sparse
g = Graph.build(["a", "b", "c"], [(0, 1), (1, 2)])
print(g.adjacency.kernels is sys.modules["scipy.sparse._sparsetools"])
a = scipy.sparse.csr_array((np.ones(4), g.indices, g.indptr), shape=(3, 3))
print((a @ x).tolist() == (g.adjacency @ x).tolist())
"""
        src = str(Path(graph.__file__).resolve().parents[1])
        for order, loaded in (("before", "False"), ("after", "True")):
            done = subprocess.run(
                [sys.executable, "-c", script, order], capture_output=True,
                text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
            assert done.returncode == 0, done.stderr
            assert done.stdout.split() == ["True", "True", loaded, "True",
                                           "True"]


class TestDirectedEdges:
    def test_self_loops_dropped(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB", "A\tC", "C\tA", "B\tB"])
        d = load_directed_edges(p)
        assert d.names == ["A", "B", "C"]
        assert d.arcs.tolist() == [[0, 1], [0, 2], [2, 0]]
        # B follows only itself, so it gets no sentence.
        assert sorted(sorted(d.names[i] for i in s)
                      for s in build_sentences(d, 0)) == \
            [["A", "B", "C"], ["A", "C"]]

    def test_duplicates_collapse(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB", "A\tB"])
        d = load_directed_edges(p)
        assert d.arcs.tolist() == [[0, 1], [0, 1]]
        for bidirectional in (False, True):
            assert all(sorted(d.names[i] for i in s) == ["A", "B"]
                       for s in build_sentences(d, 0, bidirectional))


# Raw edge files for the array parse: lines of clean ASCII names (some
# longer than 8 and 16 bytes) between tabs and spaces, blank lines, an
# optional missing final newline, and at most one line the parse must
# decline: a comment, an odd token count, a non-ASCII or control byte, a
# carriage return or a byte that is not UTF-8.
_CLEAN = st.sampled_from(["a", "b", "u07", "abcdefgh", "abcdefghX",
                          "abcdefghabcdefghY", "zyxwvutsrqponmlkjihgfedcba"])
_edge = st.tuples(st.sampled_from(["", "", "", " ", "\t"]), _CLEAN,
                  st.sampled_from(["\t", "\t", " ", " \t "]), _CLEAN,
                  st.sampled_from(["", "", "", " "])).map("".join)
_clean_line = st.one_of(_edge, _edge, _edge, st.sampled_from(["", "  ", "\t"]))
_DECLINED = [b"# comment\n", b"#a b\n", b"a\tb#c\n", b"a\tb\tc\n", b"a\n",
             b"a b c d\n",
             "a\t\u00e9\n".encode(), "\u540d\u524d b\n".encode(),
             b"a\x00\tb\n", b"a\x0b b\n", b"\x1fc\td\n", "d\x85\te\n".encode(),
             b"e\x7f\tf\n", b"a\tb\r\n", b"a\rb c\n", b"\xff\tq\n"]


_raw_edge_file = st.builds(spiced, st.lists(_clean_line, max_size=12),
                           st.sampled_from([b""] * len(_DECLINED) + _DECLINED),
                           st.integers(0, 12), st.booleans())


def _arcs_outcome(path):
    try:
        names, arcs = graph._read_arcs(path)
    except ValidationError as exc:
        return type(exc), str(exc)
    assert arcs.dtype == np.int64
    return names.tolist(), arcs.tolist()


class TestArrayParse:
    """The array edge parse against the line reader it stands in for."""

    @given(_raw_edge_file, st.sampled_from([5, 16, 64, 1 << 20]))
    @settings(max_examples=400, deadline=None)
    def test_same_result_as_line_reader(self, tmp_path_factory, data, block):
        path = tmp_path_factory.mktemp("e") / "e.tsv"
        path.write_bytes(data)
        with mock.patch.object(graph, "_BLOCK", block):
            fast = _arcs_outcome(path)
        with mock.patch.object(graph, "_array_arcs", return_value=None):
            assert fast == _arcs_outcome(path)

    @pytest.mark.parametrize("line", _DECLINED)
    def test_declined_line_goes_to_line_reader(self, tmp_path, line):
        path = tmp_path / "e.tsv"
        path.write_bytes(b"a\tb\n" + line + b"b c\n")
        assert graph._array_arcs(path) is None
        with mock.patch.object(graph, "_BLOCK", 4):
            assert graph._array_arcs(path) is None

    def test_file_of_many_blocks_matches_line_reader(self, tmp_path, rng):
        names = [f"node-{i:05d}{'x' * (i % 13)}" for i in range(5000)]
        pairs = rng.integers(0, len(names), size=(70_000, 2))
        path = tmp_path / "e.tsv"
        path.write_text("".join(f"{names[u]}\t{names[v]}\n" for u, v in pairs))
        assert path.stat().st_size > 2 * graph._BLOCK
        fast = graph._array_arcs(path)
        assert fast is not None
        with mock.patch.object(graph, "_array_arcs", return_value=None):
            names, arcs = graph._read_arcs(path)
        assert fast[0].tolist() == names.tolist()
        assert np.array_equal(fast[1], arcs)

    @pytest.mark.parametrize("text,taken", [
        ("a\tb\n  \nc d", True),
        ("abcdefghi\tabcdefgh\nabcdefgh abcdefghi\n", True),
        ("\n \n", False)])
    def test_which_files_the_array_parse_takes(self, tmp_path, text, taken):
        path = tmp_path / "e.tsv"
        path.write_bytes(text.encode())
        assert (graph._array_arcs(path) is not None) == taken

    def test_long_names_stay_apart(self, tmp_path):
        # Names that share their first 8 or 16 bytes or are a prefix of
        # another.
        lines = ["abcdefghA\tabcdefghB", "abcdefghabcdefghC\tabcdefgh",
                 "abcdefghabcdefgh\tabcdefghA"]
        path = write_edges(tmp_path / "e.tsv", lines)
        names, arcs = graph._array_arcs(path)
        assert texts(names) == ["abcdefghA", "abcdefghB", "abcdefghabcdefghC",
                                "abcdefgh", "abcdefghabcdefgh"]
        assert arcs.tolist() == [[0, 1], [2, 3], [4, 0]]
