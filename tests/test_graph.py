"""Graph ingestion, interning, filtering, and CSR structure."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demograph.errors import (EdgeListParseError, EmptyGraphError,
                              ValidationError)
from demograph import graph
from demograph.graph import (Graph, load_directed_edges, load_edge_list,
                             write_edge_list, write_node_map)

from conftest import random_graph
from oracles import reference_directed_edges, reference_edge_list


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
        assert "D" not in g
        got = set()
        for u in range(g.node_count):
            for v in g.neighbors(u):
                got.add(frozenset((g.names[u], g.names[v])))
        assert got == expected_edges
        # E appears only as a filtered-out source's target elsewhere but
        # follows two nodes itself, so it must survive.
        assert "E" in g

    def test_filter_drops_pure_targets(self, tmp_path):
        # T never follows anyone: out-degree 0, removed by any filter.
        p = write_edges(tmp_path / "e.tsv", ["A\tT", "A\tB", "B\tA", "B\tT"])
        g = load_edge_list(p, min_degree=1)
        assert "T" not in g
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
        assert "C" in g and g.degrees[g.index_of("C")] == 1


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
        assert g.names == names
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
        names, out, into = expected
        assert d.names == names
        for (indptr, indices), ref in (((d.out_indptr, d.out_indices), out),
                                       ((d.in_indptr, d.in_indices), into)):
            ref_ptr, ref_idx = csr_of(ref)
            assert np.array_equal(indptr, ref_ptr)
            assert np.array_equal(indices, ref_idx)


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
            assert g.names[g.index_of(name)] == name
        assert sorted(g._index.values()) == list(range(g.node_count))

    def test_write_reload_round_trip(self, tmp_path, rng):
        g, _ = random_graph(rng, 30, 0.2)
        out = tmp_path / "round.tsv"
        write_edge_list(g, out)
        g2 = load_edge_list(out)
        assert set(g2.names) == set(g.names)
        by_name = {g.names[u]: {g.names[v] for v in g.neighbors(u)}
                   for u in range(g.node_count)}
        for u in range(g2.node_count):
            assert {g2.names[v] for v in g2.neighbors(u)} == by_name[g2.names[u]]
        # Reloading the same file is deterministic down to the arrays.
        g2b = load_edge_list(out)
        assert g2b.names == g2.names
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
        assert a.shape == (30, 30)
        assert np.array_equal(a.indptr, g.indptr)
        assert np.array_equal(a.indices, g.indices)
        dense = np.zeros((30, 30))
        for u, nbrs in enumerate(adj):
            dense[u, sorted(nbrs)] = 1.0
        assert np.array_equal(a.toarray(), dense)


class TestDirectedEdges:
    def test_out_and_in_neighbors(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB", "A\tC", "C\tA", "B\tB"])
        d = load_directed_edges(p)
        a = d.names.index("A")
        assert [d.names[i] for i in d.out_neighbors(a)] == ["B", "C"]
        assert [d.names[i] for i in d.in_neighbors(a)] == ["C"]
        # Self-loop dropped.
        assert np.diff(d.out_indptr)[d.names.index("B")] == 0

    def test_duplicates_collapse(self, tmp_path):
        p = write_edges(tmp_path / "e.tsv", ["A\tB", "A\tB"])
        d = load_directed_edges(p)
        assert np.diff(d.out_indptr)[d.names.index("A")] == 1


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


def _spiced(lines, spice, at, final_newline):
    text = [line.encode() + b"\n" for line in lines]
    text.insert(min(at, len(text)), spice)
    data = b"".join(text)
    return data if final_newline else data.removesuffix(b"\n")


_raw_edge_file = st.builds(_spiced, st.lists(_clean_line, max_size=12),
                           st.sampled_from([b""] * len(_DECLINED) + _DECLINED),
                           st.integers(0, 12), st.booleans())


def _arcs_outcome(path):
    try:
        names, arcs = graph._read_arcs(path)
    except ValidationError as exc:
        return type(exc), str(exc)
    assert arcs.dtype == np.int64
    return names, arcs.tolist()


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
        assert fast[0] == names and np.array_equal(fast[1], arcs)

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
        assert names == ["abcdefghA", "abcdefghB", "abcdefghabcdefghC",
                         "abcdefgh", "abcdefghabcdefgh"]
        assert arcs.tolist() == [[0, 1], [2, 3], [4, 0]]
